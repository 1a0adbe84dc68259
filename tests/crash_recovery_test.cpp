// Crash-point chaos for the crash-tolerant control plane: a seeded crash
// schedule kills the controller at arbitrary device-command boundaries; a
// successor built over the same DeviceLayer recovers from the intent journal
// and must converge to a state byte-identical to the no-crash execution of
// the same step schedule. Also covers cold (no-in-flight) recovery being
// zero-touch, crash-during-recovery, torn journal tails, orphaned
// cross-connect adoption, and the structured audit report.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/journal.hpp"
#include "fibermap/generator.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams recovery_params(int lambda) {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = lambda;
  return params;
}

struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
  int lambda = 40;  ///< wavelengths per fiber
};

Fixture make_fixture(int dc_count, int hut_count, int lambda) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = dc_count;
  region.hut_count = hut_count;
  region.capacity_fibers = 8;
  auto map = fibermap::generate_region(region);
  auto net = core::provision(map, recovery_params(lambda));
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  return Fixture{std::move(map), std::move(net), std::move(plan), lambda};
}

const Fixture& fixture() {
  static const Fixture f = make_fixture(4, 8, 40);
  return f;
}

/// A region small enough that crashing at every command boundary of the
/// whole schedule stays cheap: few sites, and 4-wavelength fibers keep the
/// per-wavelength transceiver tunes from dominating the command count.
const Fixture& small_fixture() {
  static const Fixture f = make_fixture(3, 3, 4);
  return f;
}

TrafficMatrix demand(const fibermap::FiberMap& map, int scale,
                     long long lambda = 40) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        lambda + lambda / 2 * static_cast<long long>(i) + lambda * scale;
  }
  return tm;
}

/// One step of the fixed schedule every run (reference and crashing)
/// executes identically.
struct Step {
  enum class Kind { kApply, kFailDuct, kRestoreDuct };
  Kind kind = Kind::kApply;
  TrafficMatrix tm;
  ReconfigStrategy strategy = ReconfigStrategy::kBreakBeforeMake;
  graph::EdgeId duct = graph::kInvalidEdge;
};

std::vector<Step> make_schedule(const Fixture& f) {
  const auto victim =
      static_cast<graph::EdgeId>(f.map.graph().edge_count() / 2);
  std::vector<Step> steps;
  const auto apply = [&](int scale, ReconfigStrategy s) {
    steps.push_back(
        {Step::Kind::kApply, demand(f.map, scale, f.lambda), s, -1});
  };
  apply(0, ReconfigStrategy::kBreakBeforeMake);
  apply(1, ReconfigStrategy::kMakeBeforeBreak);
  steps.push_back({Step::Kind::kFailDuct, {}, {}, victim});
  apply(2, ReconfigStrategy::kBreakBeforeMake);
  steps.push_back({Step::Kind::kRestoreDuct, {}, {}, victim});
  apply(0, ReconfigStrategy::kMakeBeforeBreak);
  apply(2, ReconfigStrategy::kBreakBeforeMake);
  return steps;
}

struct RunResult {
  std::vector<std::string> fingerprints;  ///< after every schedule step
  int crashes = 0;
  int recoveries_with_in_flight = 0;
  int rejected = 0;  ///< applies the controller refused pre-device-touch
  long long commands = 0;  ///< device commands issued over the whole run
  /// Journaled applies per effective strategy (after the MBB fallback).
  int break_before_make = 0;
  int make_before_break = 0;
};

bool contains_circuit(const std::vector<Circuit>& circuits, const Circuit& c) {
  return std::find(circuits.begin(), circuits.end(), c) != circuits.end();
}

/// No-crash reference: same schedule, journaled, fault-free devices.
RunResult run_reference(const Fixture& f = fixture()) {
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan, devices);
  controller.attach_journal(&journal);
  RunResult result;
  for (const Step& step : make_schedule(f)) {
    switch (step.kind) {
      case Step::Kind::kApply:
        try {
          controller.apply_traffic_matrix(step.tm, step.strategy);
        } catch (const std::runtime_error&) {
          ++result.rejected;
        }
        break;
      case Step::Kind::kFailDuct:
        controller.fail_duct(step.duct);
        break;
      case Step::Kind::kRestoreDuct:
        controller.restore_duct(step.duct);
        break;
    }
    EXPECT_TRUE(controller.audit_devices());
    result.fingerprints.push_back(controller.state_fingerprint());
  }
  result.commands = devices.fault_injector().commands_seen();
  for (const JournalEntry& e : journal.entries()) {
    if (const auto* begin = std::get_if<BeginApplyRecord>(&e)) {
      ++(begin->strategy ==
                 static_cast<int>(ReconfigStrategy::kMakeBeforeBreak)
             ? result.make_before_break
             : result.break_before_make);
    }
  }
  return result;
}

/// Crashing run: the injector kills the controller every `k` device
/// commands (or only at the k-th one when `rearm` is false); each crash
/// spawns a successor that recovers from the journal (round-tripped through
/// its text form, as a reload from disk would) and the schedule continues.
/// The crash-interrupted apply is resolved by recovery, so the step is
/// complete once recover() returns.
RunResult run_with_crashes(long long k, const Fixture& f = fixture(),
                           bool rearm = true) {
  FaultConfig cfg;
  cfg.crash_after_commands = k;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  RunResult result;

  const auto recover_successor = [&]() {
    ++result.crashes;
    controller.reset();  // the crashed process is gone
    // Durability round-trip: what a successor reads back from disk.
    journal = IntentJournal::from_text(journal.to_text());
    const auto intent = journal.replay();  // pre-recovery committed truth
    controller =
        std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
    const RecoveryReport rr = controller->recover(journal);
    EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
    // No committed circuit may be lost. A committed roll-forward carries
    // the whole target; a rollback restores the whole stable set; even a
    // degraded recovery keeps every circuit that is in BOTH (those were
    // committed before the apply and wanted after it).
    if (intent.in_flight) {
      if (rr.resumed_outcome == ApplyOutcome::kCommitted) {
        for (const Circuit& c : intent.in_flight->target) {
          EXPECT_TRUE(contains_circuit(controller->active_circuits(), c));
        }
      } else if (rr.resumed_outcome == ApplyOutcome::kRolledBack) {
        EXPECT_EQ(controller->active_circuits(), intent.stable.active);
      } else {
        for (const Circuit& c : intent.stable.active) {
          if (contains_circuit(intent.in_flight->target, c)) {
            EXPECT_TRUE(contains_circuit(controller->active_circuits(), c));
          }
        }
      }
    } else {
      EXPECT_EQ(controller->active_circuits(), intent.stable.active);
    }
    if (rr.had_in_flight) ++result.recoveries_with_in_flight;
    if (rearm) devices.fault_injector().arm_crash(k);  // k commands out
    return rr;
  };

  for (const Step& step : make_schedule(f)) {
    bool done = false;
    while (!done) {
      try {
        switch (step.kind) {
          case Step::Kind::kApply:
            try {
              controller->apply_traffic_matrix(step.tm, step.strategy);
            } catch (const std::runtime_error&) {
              ++result.rejected;
            }
            break;
          case Step::Kind::kFailDuct:
            controller->fail_duct(step.duct);
            break;
          case Step::Kind::kRestoreDuct:
            controller->restore_duct(step.duct);
            break;
        }
        done = true;
      } catch (const ControllerCrash&) {
        const RecoveryReport rr = recover_successor();
        // recover() resolved the interrupted apply (rolled it forward, or
        // back when its target was infeasible): the step is complete. (A
        // crash outside an apply cannot happen -- only applies issue
        // device commands -- but retry defensively.)
        done = rr.had_in_flight;
      }
    }
    EXPECT_TRUE(controller->audit_devices());
    result.fingerprints.push_back(controller->state_fingerprint());
  }
  return result;
}

// The tentpole acceptance: crashing at every k-th command boundary, for a
// sweep of k, converges after every crash to a state byte-identical to the
// no-crash execution -- same books, same hardware, zero leaked or
// double-allocated resources (the audit inside the fingerprint's checkpoint
// would throw on those), no committed circuit lost.
TEST(CrashRecovery, KSweepConvergesToNoCrashExecution) {
  const RunResult ref = run_reference();
  ASSERT_FALSE(ref.fingerprints.empty());

  int total_crashes = 0;
  for (const long long k : {3LL, 7LL, 13LL, 29LL, 61LL}) {
    SCOPED_TRACE("crash_after_commands=" + std::to_string(k));
    const RunResult run = run_with_crashes(k);
    EXPECT_GT(run.crashes, 0);
    EXPECT_EQ(run.crashes, run.recoveries_with_in_flight);
    EXPECT_EQ(run.rejected, ref.rejected);
    ASSERT_EQ(run.fingerprints.size(), ref.fingerprints.size());
    for (std::size_t i = 0; i < ref.fingerprints.size(); ++i) {
      EXPECT_EQ(run.fingerprints[i], ref.fingerprints[i]) << "step " << i;
    }
    total_crashes += run.crashes;
  }
  EXPECT_GE(total_crashes, 5);
}

// Exhaustive form of the sweep on a small region: one crash at EVERY
// command boundary p = 1..N of the schedule (BBM and MBB applies, a duct
// failure and repair) on the conflict-graph (async) command plane, the one
// plane every apply runs on. Each run must recover to the no-crash
// fingerprints at every step.
TEST(CrashRecovery, CrashAtEveryCommandBoundaryAsync) {
  const Fixture& f = small_fixture();
  const RunResult ref = run_reference(f);
  ASSERT_FALSE(ref.fingerprints.empty());
  ASSERT_GT(ref.break_before_make, 0);
  ASSERT_GT(ref.make_before_break, 0);
  ASSERT_LE(ref.commands, 1000) << "keep the exhaustive sweep small";
  for (long long p = 1; p <= ref.commands; ++p) {
    SCOPED_TRACE("crash at command " + std::to_string(p) + " of " +
                 std::to_string(ref.commands));
    const RunResult run = run_with_crashes(p, f, /*rearm=*/false);
    ASSERT_EQ(run.crashes, 1);
    ASSERT_EQ(run.recoveries_with_in_flight, 1);
    EXPECT_EQ(run.rejected, ref.rejected);
    ASSERT_EQ(run.fingerprints, ref.fingerprints);
  }
}

TEST(CrashRecovery, SameCrashScheduleIsDeterministic) {
  const RunResult a = run_with_crashes(13);
  const RunResult b = run_with_crashes(13);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.fingerprints, b.fingerprints);
}

// Recovery with no in-flight apply and matching hardware must not touch a
// single device: adopt the books, re-derive the pools, audit, done.
TEST(CrashRecovery, ColdRecoveryWithCleanHardwareIsZeroTouch) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 1'000'000;  // enables command counting only
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));
  controller->apply_traffic_matrix(demand(f.map, 1),
                                   ReconfigStrategy::kMakeBeforeBreak);
  const std::string fp_before = controller->state_fingerprint();
  const auto active_before = controller->active_circuits();
  const long long commands_before = devices.fault_injector().commands_seen();

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);

  EXPECT_FALSE(rr.had_in_flight);
  EXPECT_EQ(rr.adopted_circuits, static_cast<int>(active_before.size()));
  EXPECT_EQ(rr.finished_establishes, 0);
  EXPECT_EQ(rr.reissued_establishes, 0);
  EXPECT_EQ(rr.connects_programmed, 0);
  EXPECT_EQ(rr.connects_removed, 0);
  EXPECT_EQ(rr.orphan_connects_adopted, 0);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  EXPECT_EQ(devices.fault_injector().commands_seen(), commands_before);
  EXPECT_EQ(controller->state_fingerprint(), fp_before);
  EXPECT_EQ(controller->active_circuits(), active_before);
  // The recovered controller keeps journaling and operating normally.
  controller->apply_traffic_matrix(demand(f.map, 2));
  EXPECT_TRUE(controller->audit_devices());
}

// A crash while RECOVERY itself is reprogramming devices must be just
// another crash: the next successor picks up the journal (which now holds
// the first recovery's partial progress) and converges.
TEST(CrashRecovery, CrashDuringRecoveryIsRecoverable) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 23;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  bool crashed = false;
  try {
    controller->apply_traffic_matrix(demand(f.map, 0));
  } catch (const ControllerCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed) << "first apply issues well over 23 device commands";

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  devices.fault_injector().arm_crash(2);  // kill recovery almost immediately
  bool recovery_crashed = false;
  try {
    (void)controller->recover(journal);
  } catch (const ControllerCrash&) {
    recovery_crashed = true;
  }
  ASSERT_TRUE(recovery_crashed);

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);
  EXPECT_TRUE(rr.had_in_flight);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  // The roll-forward reached the interrupted apply's target.
  const auto intent_target = demand(f.map, 0);
  EXPECT_EQ(controller->active_circuits().size(), intent_target.size());
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// A torn journal tail (the crash interrupted the write of the final record)
// loses that one intent record, never consistency: recovery still converges
// to a clean audit and keeps operating.
TEST(CrashRecovery, TornJournalTailStillRecoversClean) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 17;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  bool crashed = false;
  try {
    controller->apply_traffic_matrix(demand(f.map, 0));
  } catch (const ControllerCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  std::string text = journal.to_text();
  ASSERT_GT(text.size(), 60u);
  text.resize(text.size() - 40);  // tear the tail mid-record
  IntentJournal torn = IntentJournal::from_text(text);

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(torn);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// A cross-connect present on an OSS that no journaled intent explains --
// programmed by a rogue process, or intent lost to a torn tail -- is
// reclassified as a zombie and its ports are quarantined, keeping the
// audit's leak and partition checks clean.
TEST(CrashRecovery, OrphanedCrossConnectIsAdoptedAsZombie) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));

  // Program a connect the controller never asked for, on a free add/drop
  // pair of the first DC, directly against the hardware.
  const graph::NodeId dc = f.map.dcs().front();
  const auto snap = controller->snapshot();
  const auto free_pairs = snap.free_add_drop.find(dc);
  ASSERT_NE(free_pairs, snap.free_add_drop.end());
  ASSERT_FALSE(free_pairs->second.empty());
  const int pair_idx = free_pairs->second.front();
  const SitePortMap& pm = devices.port_map(dc);
  ASSERT_TRUE(devices.oss(dc)
                  .connect(pm.add_port(pair_idx), pm.drop_port(pair_idx))
                  .ok());
  // The books now disagree with the hardware.
  EXPECT_FALSE(controller->audit_devices());

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);
  EXPECT_EQ(rr.orphan_connects_adopted, 1);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  const auto status = controller->status();
  EXPECT_EQ(status.zombie_connects, 1);
  EXPECT_GE(status.quarantined_add_drops, 1);
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// Recovery's rollback branch. A crash interrupts a make-before-break apply
// early; before the successor starts, orphan cross-connects are programmed
// onto every add/drop pair still free at an endpoint of a target circuit no
// establish has started on. The orphan sweep quarantines those pairs, so
// the resumed establish cannot draw one, the target is infeasible, and
// recovery must compensate back to the pre-apply circuit set -- which,
// under make-before-break, never stopped carrying traffic.
TEST(CrashRecovery, InfeasibleResumedTargetRollsBackToStableSet) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 1'000'000;  // enables command counting only
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));
  devices.fault_injector().arm_crash(3);  // mid-way through the first op
  EXPECT_THROW(controller->apply_traffic_matrix(
                   demand(f.map, 1), ReconfigStrategy::kMakeBeforeBreak),
               ControllerCrash);
  controller.reset();

  const IntentJournal::Intent intent = journal.replay();
  ASSERT_TRUE(intent.in_flight.has_value());
  ASSERT_EQ(intent.in_flight->strategy,
            static_cast<int>(ReconfigStrategy::kMakeBeforeBreak));
  const auto started = [&](const Circuit& c) {
    return std::any_of(
        intent.in_flight->ops.begin(), intent.in_flight->ops.end(),
        [&](const IntentJournal::PendingOp& op) { return op.circuit == c; });
  };
  const Circuit* pending = nullptr;
  for (const Circuit& t : intent.in_flight->target) {
    if (!started(t) && !contains_circuit(intent.stable.active, t)) {
      pending = &t;
      break;
    }
  }
  ASSERT_NE(pending, nullptr) << "the crash left no establish unstarted";

  // Add/drop pairs the in-flight establishes already drew are not free.
  const graph::NodeId dc = pending->pair.a;
  std::set<int> drawn;
  for (const IntentJournal::PendingOp& op : intent.in_flight->ops) {
    if (!op.alloc) continue;
    if (op.circuit.pair.a == dc) {
      drawn.insert(op.alloc->add_drop_a.begin(), op.alloc->add_drop_a.end());
    }
    if (op.circuit.pair.b == dc) {
      drawn.insert(op.alloc->add_drop_b.begin(), op.alloc->add_drop_b.end());
    }
  }
  const SitePortMap& pm = devices.port_map(dc);
  int orphans = 0;
  for (const int idx : intent.stable.free_add_drop.at(dc)) {
    if (drawn.contains(idx)) continue;
    ASSERT_TRUE(
        devices.oss(dc).connect(pm.add_port(idx), pm.drop_port(idx)).ok());
    ++orphans;
  }
  ASSERT_GT(orphans, 0);

  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);
  EXPECT_TRUE(rr.had_in_flight);
  EXPECT_EQ(rr.orphan_connects_adopted, orphans);
  EXPECT_EQ(rr.resumed_outcome, ApplyOutcome::kRolledBack);
  EXPECT_EQ(controller->active_circuits(), intent.stable.active);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
}

// S1: the structured audit pinpoints the first divergence instead of
// returning a bare false.
TEST(CrashRecovery, AuditReportPinpointsDivergence) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IrisController controller(f.map, f.net, f.plan, devices);
  controller.apply_traffic_matrix(demand(f.map, 0));
  ASSERT_TRUE(controller.audit_report().clean());
  EXPECT_EQ(controller.audit_report().summary(), "device audit clean");

  // Rip out a programmed cross-connect behind the controller's back.
  const graph::NodeId dc = f.map.dcs().front();
  const auto& connections = devices.oss(dc).connections();
  ASSERT_FALSE(connections.empty());
  const int in_port = connections.begin()->first;
  const int out_port = connections.begin()->second;
  ASSERT_TRUE(devices.oss(dc).disconnect(in_port).ok());

  const AuditReport report = controller.audit_report();
  EXPECT_FALSE(report.clean());
  ASSERT_TRUE(report.first.has_value());
  EXPECT_EQ(report.first->kind, AuditReport::Kind::kMissingConnect);
  EXPECT_EQ(report.first->site, dc);
  EXPECT_EQ(report.first->port, in_port);
  EXPECT_GE(report.missing_connects, 1);
  EXPECT_NE(report.summary(), "device audit clean");
  EXPECT_FALSE(controller.status().devices_consistent);

  // Restore the connect: the audit is clean again (wrapper agrees).
  ASSERT_TRUE(devices.oss(dc).connect(in_port, out_port).ok());
  EXPECT_TRUE(controller.audit_devices());
  EXPECT_TRUE(controller.status().devices_consistent);
}

// planned_connects indexes every hop and fiber of a journaled allocation,
// so recover() must reject one whose shape does not fit its circuit -- a
// corrupt establish_begin record, or a zero-hop route -- with a typed error
// before programming anything from it.
TEST(CrashRecovery, CorruptJournaledAllocationShapeIsRejected) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal good;
  IrisController writer(f.map, f.net, f.plan, devices);
  writer.attach_journal(&good);
  writer.apply_traffic_matrix(demand(f.map, 0));
  const ControllerCheckpoint cp = writer.snapshot();
  ASSERT_FALSE(cp.active.empty());

  Circuit zero_hop = cp.active[0];
  zero_hop.route.nodes = {zero_hop.pair.a};
  zero_hop.route.edges.clear();
  AllocationRecord zero_hop_alloc = cp.allocations[0];
  zero_hop_alloc.fibers_per_hop.clear();
  AllocationRecord short_hop = cp.allocations[0];
  short_hop.fibers_per_hop.front().pop_back();

  std::vector<IntentJournal> corrupt(2);
  for (IntentJournal& j : corrupt) {
    j.append(CheckpointRecord{cp});
    j.append(BeginApplyRecord{cp.applies_completed, 0, cp.active});
  }
  corrupt[0].append(EstablishBeginRecord{zero_hop, zero_hop_alloc});
  corrupt[1].append(EstablishBeginRecord{cp.active[0], short_hop});
  for (IntentJournal& j : corrupt) {
    IrisController successor(f.map, f.net, f.plan, devices);
    EXPECT_THROW((void)successor.recover(j), std::runtime_error);
  }
}

// recover() is strictly a cold-start operation.
TEST(CrashRecovery, RecoverRequiresVirginController) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  {
    IrisController used(f.map, f.net, f.plan, devices);
    used.apply_traffic_matrix(demand(f.map, 0));
    EXPECT_THROW((void)used.recover(journal), std::logic_error);
    // Leave the device layer clean for the next sub-case.
    used.apply_traffic_matrix(TrafficMatrix{});
  }
  {
    IrisController attached(f.map, f.net, f.plan, devices);
    attached.attach_journal(&journal);
    EXPECT_THROW((void)attached.recover(journal), std::logic_error);
  }
}

}  // namespace
}  // namespace iris::control

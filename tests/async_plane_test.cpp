// The batched command plane (CommandPlane): the conflict-graph schedule on
// seeded random op sets (a linear extension of the conflict DAG that never
// puts conflicting ops in one slot), the make-before-break barrier, the
// virtual clock, journal slot records, makespan accounting, and the crash
// k-sweep across schedule slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "control/commands.hpp"
#include "control/controller.hpp"
#include "control/journal.hpp"
#include "fibermap/generator.hpp"
#include "obs/metrics.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams plane_params() {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
};

Fixture make_fixture(std::uint64_t seed, int dc_count, int hut_count) {
  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = dc_count;
  region.hut_count = hut_count;
  region.capacity_fibers = 8;
  auto map = fibermap::generate_region(region);
  auto net = core::provision(map, plane_params());
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  return Fixture{std::move(map), std::move(net), std::move(plan)};
}

/// A chain TM: consecutive DCs, some endpoint-disjoint, some overlapping --
/// the schedule mixes concurrent and dependent ops.
TrafficMatrix chain_demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        40 + 20 * static_cast<long long>(i % 3) + 40LL * scale;
  }
  return tm;
}

/// A hub-star TM: every circuit shares dcs[0], so every pair of ops
/// conflicts on an endpoint and the schedule degenerates to the insertion
/// order -- one op per slot.
TrafficMatrix star_demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 1; i < dcs.size(); ++i) {
    tm[DcPair(dcs[0], dcs[i])] = 40 + 40LL * scale;
  }
  return tm;
}

// ---- CommandPlane on its own ----------------------------------------------

/// Seeded random ops over a small universe of ducts, DCs and amp sites, so
/// footprints overlap often but not always.
std::vector<CommandOp> random_ops(std::mt19937& rng) {
  std::uniform_int_distribution<int> count(1, 24), small(0, 9), coin(0, 1);
  std::vector<CommandOp> ops(static_cast<std::size_t>(count(rng)));
  for (std::size_t i = 0; i < ops.size(); ++i) {
    CommandOp& op = ops[i];
    op.teardown = coin(rng) == 1;
    op.index = i;
    for (int d = small(rng) % 3; d >= 0; --d) op.ducts.push_back(small(rng));
    op.dc_a = 100 + small(rng);
    op.dc_b = 100 + small(rng);
    for (int a = small(rng) % 3; a > 0; --a) op.amp_sites.push_back(small(rng));
  }
  return ops;
}

/// The conflict relation, restated from its definition: a shared duct, a
/// shared endpoint DC or a shared amp site.
bool footprints_overlap(const CommandOp& a, const CommandOp& b) {
  const auto shares = [](const auto& x, const auto& y) {
    return std::any_of(x.begin(), x.end(), [&](auto v) {
      return std::find(y.begin(), y.end(), v) != y.end();
    });
  };
  return shares(a.ducts, b.ducts) || shares(a.amp_sites, b.amp_sites) ||
         a.dc_a == b.dc_a || a.dc_a == b.dc_b || a.dc_b == b.dc_a ||
         a.dc_b == b.dc_b;
}

/// Position of each op in the plane's execution order.
std::vector<std::size_t> positions(const CommandPlane& plane) {
  std::vector<std::size_t> pos(plane.ops().size());
  for (std::size_t p = 0; p < plane.order().size(); ++p) {
    pos.at(plane.order()[p]) = p;
  }
  return pos;
}

// For seeded random op sets, with and without the barrier, order() is a
// permutation that runs every op after each earlier op it depends on.
TEST(CommandPlane, OrderIsALinearExtensionOfTheConflictDag) {
  std::mt19937 rng(20201);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto ops = random_ops(rng);
    const bool barrier = trial % 2 == 1;
    CommandPlane plane{CommandCosts{}};
    plane.plan(ops, barrier);
    std::vector<std::size_t> sorted = plane.order();
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(sorted[i], i);
    const auto pos = positions(plane);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const bool depends = footprints_overlap(ops[i], ops[j]) ||
                             (barrier && ops[j].teardown && !ops[i].teardown);
        if (depends) {
          EXPECT_LT(pos[i], pos[j]) << i << " -> " << j;
        }
      }
    }
  }
}

// Conflicting ops never share a slot, the later one lands in a later slot,
// and within a slot the order is the insertion order.
TEST(CommandPlane, ConflictingOpsNeverShareASlotAndKeepInsertionOrder) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto ops = random_ops(rng);
    CommandPlane plane{CommandCosts{}};
    plane.plan(ops, false);
    int max_slot = 0;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      max_slot = std::max(max_slot, plane.slot_of(j));
      for (std::size_t i = 0; i < j; ++i) {
        if (footprints_overlap(ops[i], ops[j])) {
          EXPECT_LT(plane.slot_of(i), plane.slot_of(j)) << i << ", " << j;
        }
      }
    }
    EXPECT_EQ(plane.slot_count(), max_slot);
    for (std::size_t p = 1; p < plane.order().size(); ++p) {
      const std::size_t a = plane.order()[p - 1], b = plane.order()[p];
      EXPECT_TRUE(plane.slot_of(a) < plane.slot_of(b) ||
                  (plane.slot_of(a) == plane.slot_of(b) && a < b));
    }
  }
}

// The make-before-break barrier: with pairwise-disjoint footprints only the
// barrier orders ops, so every establish runs in slot 1, every teardown in
// slot 2, and no teardown starts before the last establish.
TEST(CommandPlane, EstablishesBeforeTeardownsBarrier) {
  std::vector<CommandOp> ops;
  for (int i = 0; i < 8; ++i) {
    CommandOp op;
    op.teardown = i >= 5;  // the establishes first, as make-before-break does
    op.ducts = {i};
    op.dc_a = 2 * i;
    op.dc_b = 2 * i + 1;
    ops.push_back(op);
  }
  CommandPlane free_plane{CommandCosts{}};
  free_plane.plan(ops, false);
  EXPECT_EQ(free_plane.slot_count(), 1);

  CommandPlane plane{CommandCosts{}};
  plane.plan(ops, true);
  EXPECT_EQ(plane.slot_count(), 2);
  bool seen_teardown = false;
  for (std::size_t i : plane.order()) {
    EXPECT_EQ(plane.slot_of(i), ops[i].teardown ? 2 : 1);
    if (ops[i].teardown) seen_teardown = true;
    EXPECT_FALSE(seen_teardown && !ops[i].teardown)
        << "establish " << i << " ordered after a teardown";
  }
}

// An all-conflict input (every op shares one DC) yields the identity order
// with slots 1..n, and its commands run back to back: the horizon is the
// sum of their latencies.
TEST(CommandPlane, AllConflictInputYieldsIdentityOrder) {
  std::vector<CommandOp> ops(6);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].dc_a = 0;
    ops[i].dc_b = static_cast<graph::NodeId>(i + 1);
    ops[i].ducts = {static_cast<graph::EdgeId>(i)};
  }
  const CommandCosts costs;
  CommandPlane plane{costs};
  plane.plan(ops, false);
  double sum = 0.0;
  for (std::size_t p = 0; p < ops.size(); ++p) {
    EXPECT_EQ(plane.order()[p], p);
    EXPECT_EQ(plane.slot_of(p), static_cast<int>(p) + 1);
    // Each op switches at its own site: only the dependency chains them.
    plane.begin_op(p);
    const DeviceCommand cmd =
        OssConnectCmd{static_cast<graph::NodeId>(p), 0, 1};
    plane.on_command(cmd);
    sum += command_latency_ms(cmd, costs);
    plane.end_op(p, 0.0);
  }
  EXPECT_EQ(plane.slot_count(), static_cast<int>(ops.size()));
  EXPECT_DOUBLE_EQ(plane.horizon_ms(), sum);
}

// Independent ops overlap on the virtual clock: two one-connect ops at
// different sites finish in one OSS switch time, not two.
TEST(CommandPlane, IndependentOpsOverlapOnTheVirtualClock) {
  std::vector<CommandOp> ops(2);
  ops[0].dc_a = 0;
  ops[0].dc_b = 1;
  ops[1].dc_a = 2;
  ops[1].dc_b = 3;
  const CommandCosts costs;
  CommandPlane plane{costs};
  plane.plan(ops, false);
  ASSERT_EQ(plane.slot_count(), 1);
  for (std::size_t i : plane.order()) {
    plane.begin_op(i);
    plane.on_command(OssConnectCmd{static_cast<graph::NodeId>(i), 0, 1});
    plane.end_op(i, 0.0);
  }
  EXPECT_DOUBLE_EQ(plane.horizon_ms(), costs.oss_ms);
  EXPECT_EQ(plane.commands_issued(), 2);
}

// ---- the controller on the plane -------------------------------------------

// When every op conflicts (hub-star: shared endpoint DC), the schedule
// degenerates to one op per slot: the controller's conflict footprints make
// shared-endpoint circuits dependent, and dependent work is never reordered.
TEST(AsyncPlane, DependentOnlyScheduleRunsOneOpPerSlot) {
  const Fixture f = make_fixture(11, 5, 8);
  DeviceLayer devices(f.map, f.net, f.plan);
  IrisController ctl(f.map, f.net, f.plan, devices);
  for (const int scale : {0, 1}) {
    const auto report = ctl.apply_traffic_matrix(star_demand(f.map, scale));
    EXPECT_EQ(report.schedule_slots, static_cast<int>(report.set_up.size() +
                                                      report.torn_down.size()));
    EXPECT_TRUE(ctl.audit_devices());
  }
}

// Journal records carry the schedule slots (begin_apply `slots N`,
// establish/teardown `slot K`); the text round-trips exactly. Records
// written without the tokens still load: the golden text in
// journal_test.cpp pins both forms.
TEST(AsyncPlane, JournalSlotRecordsRoundTrip) {
  const Fixture f = make_fixture(7, 8, 12);
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  IrisController ctl(f.map, f.net, f.plan, devices);
  ctl.attach_journal(&journal);
  ctl.apply_traffic_matrix(chain_demand(f.map, 0));

  const std::string text = journal.to_text();
  EXPECT_NE(text.find(" slots "), std::string::npos);
  EXPECT_NE(text.find(" slot "), std::string::npos);
  const IntentJournal reloaded = IntentJournal::from_text(text);
  EXPECT_EQ(reloaded.to_text(), text);
}

// An interrupted apply leaves slot-stamped in-flight records that
// replay() exposes, so a recovery audit can attribute every pending op to
// its schedule slot.
TEST(AsyncPlane, ReplayExposesInFlightSlots) {
  const Fixture f = make_fixture(7, 8, 12);
  FaultConfig cfg;
  cfg.crash_after_commands = 5;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  IrisController ctl(f.map, f.net, f.plan, devices);
  ctl.attach_journal(&journal);
  EXPECT_THROW(ctl.apply_traffic_matrix(chain_demand(f.map, 0)),
               ControllerCrash);

  const auto intent = IntentJournal::from_text(journal.to_text()).replay();
  ASSERT_TRUE(intent.in_flight.has_value());
  EXPECT_GE(intent.in_flight->slots, 1);
  ASSERT_FALSE(intent.in_flight->ops.empty());
  for (const auto& op : intent.in_flight->ops) {
    EXPECT_GE(op.slot, 1);
    EXPECT_LE(op.slot, intent.in_flight->slots);
  }
}

// ReconfigReport::makespan_ms is the controller.apply span's duration: the
// apply advances the registry's virtual clock by exactly the command-plane
// makespan before the span closes.
TEST(AsyncPlane, MakespanMatchesApplySpan) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs stubbed out (IRIS_OBS=OFF)";
  const Fixture f = make_fixture(7, 8, 12);
  obs::MetricsRegistry reg;  // fresh virtual clock at t=0
  const obs::ScopedRegistry scope(reg);
  DeviceLayer devices(f.map, f.net, f.plan);
  IrisController ctl(f.map, f.net, f.plan, devices);
  const auto report = ctl.apply_traffic_matrix(chain_demand(f.map, 0));
  EXPECT_GT(report.makespan_ms, 0.0);
  EXPECT_NEAR(reg.gauge("span.controller.apply.seconds") * 1000.0,
              report.makespan_ms, 1e-6);
  EXPECT_GT(reg.counter("controller.commands.batched"), 0);
}

// --------------------------------------------------------------------------
// Crash k-sweep across schedule slots (the PR 4 sweep, extended): the
// injector kills the controller every k commands while the plane is
// mid-schedule; every successor recovers from the journal to a clean audit
// and the run converges to the no-crash execution byte-for-byte.

struct SweepResult {
  std::vector<std::string> fingerprints;
  int crashes = 0;
  std::set<int> crash_slots;  ///< ControllerCrash::schedule_slot values seen
};

SweepResult run_schedule(const Fixture& f, long long crash_every) {
  FaultConfig cfg;
  cfg.crash_after_commands = crash_every;  // 0 = reference, no crashes
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  ctl->attach_journal(&journal);
  SweepResult result;

  const std::vector<std::pair<int, ReconfigStrategy>> steps = {
      {0, ReconfigStrategy::kBreakBeforeMake},
      {1, ReconfigStrategy::kMakeBeforeBreak},
      {2, ReconfigStrategy::kBreakBeforeMake},
      {0, ReconfigStrategy::kMakeBeforeBreak},
  };
  for (const auto& [scale, strategy] : steps) {
    bool done = false;
    while (!done) {
      try {
        ctl->apply_traffic_matrix(chain_demand(f.map, scale), strategy);
        done = true;
      } catch (const ControllerCrash& crash) {
        ++result.crashes;
        result.crash_slots.insert(crash.schedule_slot);
        ctl.reset();
        journal = IntentJournal::from_text(journal.to_text());
        ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
        const RecoveryReport rr = ctl->recover(journal);
        EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
        devices.fault_injector().arm_crash(crash_every);
        done = rr.had_in_flight;  // recovery resolved the crashed apply
      }
    }
    EXPECT_TRUE(ctl->audit_devices());
    result.fingerprints.push_back(ctl->state_fingerprint());
  }
  return result;
}

TEST(AsyncPlane, CrashKSweepAcrossScheduleSlots) {
  const Fixture f = make_fixture(7, 8, 12);
  const SweepResult ref = run_schedule(f, 0);
  ASSERT_EQ(ref.crashes, 0);

  std::set<int> all_slots;
  int total_crashes = 0;
  for (const long long k : {3LL, 7LL, 13LL, 29LL, 61LL}) {
    SCOPED_TRACE("crash_after_commands=" + std::to_string(k));
    const SweepResult run = run_schedule(f, k);
    EXPECT_GT(run.crashes, 0);
    ASSERT_EQ(run.fingerprints.size(), ref.fingerprints.size());
    for (std::size_t i = 0; i < ref.fingerprints.size(); ++i) {
      EXPECT_EQ(run.fingerprints[i], ref.fingerprints[i]) << "step " << i;
    }
    total_crashes += run.crashes;
    all_slots.insert(run.crash_slots.begin(), run.crash_slots.end());
  }
  EXPECT_GE(total_crashes, 5);
  // The sweep actually interleaved with the schedule: crashes landed inside
  // scheduled ops (slot >= 1), not just in the retune tail (-1).
  EXPECT_TRUE(all_slots.upper_bound(0) != all_slots.end())
      << "no crash carried a schedule slot";
}

}  // namespace
}  // namespace iris::control

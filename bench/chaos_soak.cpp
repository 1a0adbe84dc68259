// Chaos soak: a long, seeded closed-loop run against the fault-injected
// device layer -- transient and sticky faults on every command class, plus
// periodic duct failures and repairs -- auditing device state and resource
// pool invariants after every single apply. Prints reconfiguration, retry,
// rollback and quarantine statistics; exits non-zero on any invariant
// violation, so CI can run it under the sanitizers as an acceptance gate.
//
// With `crash_every_cmds=K` the soak additionally kills the controller
// every K device commands: the DeviceLayer and the intent journal survive,
// a successor controller recovers from the journal, and the audit must be
// clean after every recovery -- the crash-tolerance acceptance gate.
//
// With `srlg_chaos=1` the single-victim duct chaos is replaced by a
// correlated failure timeline: SRLGs are inferred on the region (shared
// trenches, shared huts), the planner provisions against their group events,
// and a seeded reliability::EventStream drives duct cuts, trench hits, hut
// outages and a deterministic hut maintenance window -- each group failing
// all member ducts atomically. Black-holed circuits must trigger the TE
// escape hatch (immediate reroute of the active intent); the run fails
// unless at least one hut-level event and one escape-hatch replan occurred.
//
// The controller runs the conflict-graph command plane: conflict-free
// circuits drain and establish concurrently on per-device queues. The soak
// prints makespan statistics and runs a speedup demo on a region with >= 4
// port/duct-disjoint circuits, failing unless the scheduled reconfiguration
// makespan beats one-command-at-a-time execution of the same trace by >= 3x.
//
// Usage: bench_chaos_soak [samples] [seed] [key=value...]
//                         [--metrics[=path]] [--steady-clock]
//   keys: oss_connect_fail oss_disconnect_fail oss_port_stuck tx_tune_fail
//         tx_dead amp_dead timeout_fraction crash_every_cmds srlg_chaos
// Malformed or unknown arguments are rejected with exit code 2 (the atof
// family used to turn garbage into silent zeros). With no arguments the
// soak is byte-identical to the unparameterized run; --metrics exports the
// obs registry (deterministic unless --steady-clock swaps in wall time).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/journal.hpp"
#include "control/policy.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"
#include "obs/argparse.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "reliability/events.hpp"

namespace {

using namespace iris;
using control::ApplyOutcome;
using core::DcPair;

int violations = 0;

void check(bool ok, const char* what, double t) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED at t=%.0f: %s\n", t, what);
    ++violations;
  }
}

control::FaultConfig soak_faults(std::uint64_t seed) {
  control::FaultConfig cfg;
  // >= 1% per-command fault rate across the board, as the acceptance
  // criterion demands, with a sprinkle of sticky faults and timeouts.
  cfg.rates.oss_connect_fail = 0.03;
  cfg.rates.oss_disconnect_fail = 0.02;
  cfg.rates.oss_port_stuck = 0.003;
  cfg.rates.tx_tune_fail = 0.01;
  cfg.rates.tx_dead = 0.0002;
  cfg.rates.amp_dead = 0.02;
  cfg.rates.timeout_fraction = 0.25;
  cfg.seed = seed;
  return cfg;
}

/// Stores one fault-rate value under its key; returns false on an
/// unknown key (the value is validated by the caller).
bool set_rate(control::FaultRates& rates, const std::string& key,
              double value) {
  if (key == "oss_connect_fail") rates.oss_connect_fail = value;
  else if (key == "oss_disconnect_fail") rates.oss_disconnect_fail = value;
  else if (key == "oss_port_stuck") rates.oss_port_stuck = value;
  else if (key == "tx_tune_fail") rates.tx_tune_fail = value;
  else if (key == "tx_dead") rates.tx_dead = value;
  else if (key == "amp_dead") rates.amp_dead = value;
  else if (key == "timeout_fraction") rates.timeout_fraction = value;
  else return false;
  return true;
}

int usage_error(const char* what, const char* arg) {
  std::fprintf(stderr, "bench_chaos_soak: %s '%s'\n", what, arg);
  std::fprintf(stderr,
               "usage: bench_chaos_soak [samples] [seed] [key=value...]\n"
               "                        [--metrics[=path]] [--steady-clock]\n"
               "  keys: oss_connect_fail oss_disconnect_fail oss_port_stuck\n"
               "        tx_tune_fail tx_dead amp_dead timeout_fraction\n"
               "        (rates in [0,1]) crash_every_cmds (integer >= 0)\n"
               "        srlg_chaos (0 or 1)\n");
  return 2;
}

/// Schedule acceptance demo: establish >= 4 circuits whose endpoints, routes
/// and amp sites are pairwise disjoint on a fault-free controller, and
/// demand the command-plane makespan beat the serial baseline by >= 3x. The
/// baseline runs the executed trace one command at a time: the sum of its
/// per-command latencies, plus the drain window and the receiver relock.
void run_speedup_demo() {
  // Its own registry: --metrics exports the soak alone.
  obs::MetricsRegistry demo_registry;
  const obs::ScopedRegistry scope(demo_registry);
  fibermap::RegionParams rp;
  rp.seed = 11;
  rp.dc_count = 10;
  rp.hut_count = 14;
  rp.capacity_fibers = 8;
  const auto map = fibermap::generate_region(rp);
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  const control::FaultConfig no_faults;  // deterministic: no retries/backoff
  control::DeviceLayer devices(map, net, plan, no_faults);
  control::IrisController ctl(map, net, plan, devices);

  // Grow an endpoint-disjoint pair set greedily, certifying duct/amp-site
  // disjointness through the conflict graph itself: a candidate survives
  // only if the whole set still plans into a single schedule slot on a
  // scratch controller. Deterministic -- same map, same trial order.
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  std::vector<graph::NodeId> used;
  const auto in_use = [&](graph::NodeId dc) {
    for (graph::NodeId u : used) {
      if (u == dc) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < dcs.size() && tm.size() < 4; ++i) {
    for (std::size_t j = i + 1; j < dcs.size() && tm.size() < 4; ++j) {
      if (in_use(dcs[i]) || in_use(dcs[j])) continue;
      auto trial = tm;
      trial[DcPair(dcs[i], dcs[j])] = 40;
      control::DeviceLayer scratch_devices(map, net, plan, no_faults);
      control::IrisController scratch(map, net, plan, scratch_devices);
      try {
        const auto r = scratch.apply_traffic_matrix(trial);
        if (r.outcome == ApplyOutcome::kCommitted && r.schedule_slots == 1 &&
            scratch.active_circuits().size() == trial.size()) {
          tm = std::move(trial);
          used.push_back(dcs[i]);
          used.push_back(dcs[j]);
        }
      } catch (const std::runtime_error&) {
        // infeasible candidate (hose/pool limits): skip it
      }
    }
  }
  check(tm.size() == 4, "demo region admits 4 disjoint circuits", 0);
  const auto ar = ctl.apply_traffic_matrix(tm);
  check(ar.outcome == ApplyOutcome::kCommitted, "demo apply committed", 0);
  check(ctl.active_circuits().size() == tm.size(),
        "demo established one circuit per pair", 0);
  // The demo's controller runs on the default DeviceLatencies, which the
  // default CommandCosts mirror.
  double serial_ms = ar.drain_ms + ar.recovery_ms;
  for (const control::DeviceCommand& cmd : ctl.last_command_trace()) {
    serial_ms += control::command_latency_ms(cmd, control::CommandCosts{});
  }
  const double speedup =
      ar.makespan_ms > 0.0 ? serial_ms / ar.makespan_ms : 0.0;
  std::printf("# async speedup demo: %zu disjoint circuits in %d slot(s), "
              "makespan %.1f ms serial -> %.1f ms async (%.2fx)\n",
              tm.size(), ar.schedule_slots, serial_ms, ar.makespan_ms,
              speedup);
  check(ar.schedule_slots == 1, "demo circuits scheduled conflict-free", 0);
  check(speedup >= 3.0, "async makespan speedup >= 3x", 0);
}

/// One edge of the pre-drained correlated failure timeline, in soak ticks
/// (1 tick = 1 simulated hour).
struct SrlgChaosEvent {
  long long tick = 0;
  reliability::EventKind kind = reliability::EventKind::kDuctCut;
  std::vector<graph::EdgeId> ducts;
};

const char* event_kind_label(reliability::EventKind k) {
  using reliability::EventKind;
  switch (k) {
    case EventKind::kDuctCut: return "cut";
    case EventKind::kTrenchHit: return "trench";
    case EventKind::kHutOutage: return "hut";
    case EventKind::kMaintenanceStart: return "maintenance";
    case EventKind::kDisaster: return "disaster";
    default: return nullptr;  // repair/end kinds carry no counter
  }
}

/// Deterministic demand wobble (no RNG: the whole soak must be replayable).
control::TrafficMatrix demand_at(const fibermap::FiberMap& map, double t) {
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  // Sized so the policy's 1.25x headroom usually fits the hose and fiber
  // leases: most proposals land, and the refusal path still gets exercised
  // while a duct is down.
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const long long base = 30 + 10 * static_cast<long long>(i % 3);
    const long long wobble =
        40 * ((tick / 30 + static_cast<long long>(i)) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

}  // namespace

int main(int argc, char** argv) {
  int samples = 10000;
  std::uint64_t seed = 0x5eed;
  obs::MetricsFlag metrics;
  bool steady_clock = false;
  // Pass 1: flags and positionals (strictly parsed -- the old atoi/atof
  // parsing turned garbage into silent zeros). Overrides wait until the
  // seed is known, because soak_faults() consumes it.
  std::vector<const char*> overrides;
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_metrics_flag(argv[i], metrics)) continue;
    if (std::strcmp(argv[i], "--steady-clock") == 0) {
      steady_clock = true;
      continue;
    }
    if (std::strchr(argv[i], '=') != nullptr) {
      // key=value overrides may appear anywhere: neither positional can
      // contain '=', so there is no ambiguity.
      overrides.push_back(argv[i]);
      continue;
    }
    if (positionals == 0) {
      const auto v = obs::parse_ll(argv[i]);
      if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
        return usage_error("malformed sample count", argv[i]);
      }
      samples = static_cast<int>(*v);
      ++positionals;
    } else if (positionals == 1) {
      const auto v = obs::parse_ull(argv[i]);
      if (!v) return usage_error("malformed seed", argv[i]);
      seed = *v;
      ++positionals;
    } else {
      overrides.push_back(argv[i]);
    }
  }
  auto faults = soak_faults(seed);
  bool srlg_chaos = false;
  for (const char* arg : overrides) {
    const auto kv = obs::split_kv(arg);
    if (!kv) return usage_error("fault override is not key=value", arg);
    if (kv->first == "srlg_chaos") {
      const auto v = obs::parse_ll(kv->second);
      if (!v || (*v != 0 && *v != 1)) {
        return usage_error("malformed srlg_chaos value", arg);
      }
      srlg_chaos = *v == 1;
      continue;
    }
    if (kv->first == "crash_every_cmds") {
      const auto v = obs::parse_ll(kv->second);
      if (!v || *v < 0) {
        return usage_error("malformed crash_every_cmds value", arg);
      }
      faults.crash_after_commands = *v;
      continue;
    }
    const auto v = obs::parse_double(kv->second);
    if (!v || *v < 0.0 || *v > 1.0) {
      return usage_error("fault rate not a number in [0,1]", arg);
    }
    if (!set_rate(faults.rates, kv->first, *v)) {
      return usage_error("unknown fault override key", arg);
    }
  }
  if (steady_clock) {
    obs::registry().set_clock(std::make_unique<obs::SteadyClock>());
  }

  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  auto map = fibermap::generate_region(region);
  int inferred_srlgs = 0;
  if (srlg_chaos) {
    // SRLGs enter the planner's scenario space: provision() below must
    // survive every group event (trench, hut) up to the tolerance, not just
    // independent single-duct cuts.
    inferred_srlgs = fibermap::infer_and_add_srlgs(map);
  }
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  // Crash-tolerant deployment shape: the device layer and the intent
  // journal outlive any one controller process; each crash replaces only
  // the controller.
  const long long crash_every = faults.crash_after_commands;
  control::DeviceLayer devices(map, net, plan, faults);
  control::IntentJournal journal;
  auto controller =
      std::make_unique<control::IrisController>(map, net, plan, devices);
  controller->attach_journal(&journal);

  control::PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  control::ReconfigPolicy policy(pp);

  std::printf("# chaos soak: %d closed-loop samples, fault seed 0x%llx\n",
              samples, static_cast<unsigned long long>(seed));
  if (crash_every > 0) {
    std::printf("# crash schedule: controller killed every %lld commands\n",
                crash_every);
  }

  // Correlated chaos timeline, pre-drained from the shared EventStream so
  // the soak stays replayable: same map, model and seed give the same
  // schedule. 1 soak tick = 1 simulated hour.
  std::vector<SrlgChaosEvent> schedule;
  if (srlg_chaos && samples > 0) {
    reliability::CorrelatedFailureModel cm;
    cm.base.cuts_per_km_year = 0.05;
    cm.base.mean_repair_hours = 12.0;
    cm.base.disasters_per_year = 0.0;  // site-down semantics stay out of scope
    cm.base.horizon_years = static_cast<double>(samples) / (365.25 * 24.0);
    cm.base.seed = seed;
    cm.trench_hits_per_km_year = 2.0;
    cm.trench_repair_hours = 24.0;
    cm.hut_outages_per_year = 5.0;
    cm.hut_repair_hours = 6.0;
    // A deterministic maintenance window on the first hut SRLG guarantees
    // at least one hut-level group event regardless of the random draws.
    for (std::size_t s = 0; s < map.srlgs().size(); ++s) {
      if (map.srlgs()[s].kind != fibermap::SrlgKind::kHut) continue;
      reliability::MaintenanceWindow w;
      w.srlg = static_cast<fibermap::SrlgId>(s);
      w.start_h = 137.0;
      w.period_h = 1733.0;
      w.duration_h = 8.0;
      cm.maintenance.push_back(w);
      break;
    }
    reliability::EventStream stream(map, cm);
    while (auto ev = stream.next()) {
      if (ev->ducts.empty()) continue;
      schedule.push_back(SrlgChaosEvent{static_cast<long long>(ev->at_h),
                                        ev->kind, std::move(ev->ducts)});
    }
    std::printf("# srlg chaos: %d inferred SRLGs, %zu timeline events\n",
                inferred_srlgs, schedule.size());
  }

  long long applies = 0, committed = 0, rolled_back = 0, degraded = 0,
            rejected = 0, command_retries = 0, timeouts = 0, circuit_retries = 0,
            oss_ops = 0, audits = 0, crashes = 0, recovered_finished = 0,
            recovered_reissued = 0, orphans_adopted = 0;
  double total_makespan_ms = 0.0;
  int max_schedule_slots = 0;
  const graph::EdgeId victim = map.graph().edge_count() / 2;
  bool victim_down = false;
  long long escape_hatch_replans = 0, hut_level_events = 0;
  std::vector<int> duct_down(static_cast<std::size_t>(map.graph().edge_count()),
                             0);
  std::size_t next_event = 0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i);
    if (srlg_chaos) {
      // Correlated chaos: apply every timeline event due by this tick. A
      // group event fails all member ducts atomically; overlapping groups
      // are refcounted so a duct recovers only when its last cause clears.
      while (next_event < schedule.size() && schedule[next_event].tick <= i) {
        const SrlgChaosEvent& ev = schedule[next_event];
        const int delta = reliability::event_is_failure(ev.kind) ? 1 : -1;
        if (delta > 0) {
          if (const char* label = event_kind_label(ev.kind)) {
            obs::registry().add(
                obs::key("reliability.events", {{"kind", label}}));
          }
          // Maintenance windows are scheduled on hut SRLGs above, so both
          // kinds count as hut-level for the escape-hatch acceptance gate.
          if (ev.kind == reliability::EventKind::kHutOutage ||
              ev.kind == reliability::EventKind::kMaintenanceStart) {
            ++hut_level_events;
          }
        }
        for (graph::EdgeId e : ev.ducts) {
          duct_down[static_cast<std::size_t>(e)] += delta;
          if (delta > 0 && duct_down[static_cast<std::size_t>(e)] == 1) {
            controller->fail_duct(e);
          } else if (delta < 0 &&
                     duct_down[static_cast<std::size_t>(e)] == 0) {
            controller->restore_duct(e);
          }
        }
        ++next_event;
      }
    } else if (i % 997 == 500 && !victim_down) {
      // Periodic maintenance chaos: fail a duct, repair it later.
      controller->fail_duct(victim);
      victim_down = true;
    } else if (i % 997 == 650 && victim_down) {
      controller->restore_duct(victim);
      victim_down = false;
    }
    policy.observe(demand_at(map, t), t);
    if (srlg_chaos && controller->circuits_on_failed_ducts() > 0) {
      // TE escape hatch (mirrors control/closed_loop): circuits are
      // black-holed on failed ducts, so re-apply the active intent now --
      // circuit routing avoids failed ducts -- instead of waiting out the
      // policy's hysteresis.
      control::TrafficMatrix reroute;
      for (const control::Circuit& c : controller->active_circuits()) {
        reroute[c.pair] += c.wavelengths;
      }
      try {
        const auto report = controller->apply_traffic_matrix(reroute);
        ++applies;
        ++escape_hatch_replans;
        total_makespan_ms += report.makespan_ms;
        if (report.schedule_slots > max_schedule_slots) {
          max_schedule_slots = report.schedule_slots;
        }
        oss_ops += report.oss_operations;
        command_retries += report.command_retries;
        timeouts += report.commands_timed_out;
        circuit_retries += report.circuit_retries;
        switch (report.outcome) {
          case ApplyOutcome::kCommitted: ++committed; break;
          case ApplyOutcome::kRolledBack: ++rolled_back; break;
          case ApplyOutcome::kDegraded: ++degraded; break;
        }
        check(report.verified, "escape hatch report.verified", t);
        check(controller->audit_devices(), "audit_devices() after escape", t);
        ++audits;
      } catch (const std::runtime_error&) {
        ++rejected;  // e.g. no alternate route while a group is down
        check(controller->audit_devices(), "audit_devices() after refusal", t);
      } catch (const control::ControllerCrash&) {
        ++crashes;
        controller.reset();
        controller = std::make_unique<control::IrisController>(map, net, plan,
                                                               devices);
        const control::RecoveryReport rr = controller->recover(journal);
        recovered_finished += rr.finished_establishes;
        recovered_reissued += rr.reissued_establishes;
        orphans_adopted += rr.orphan_connects_adopted;
        check(rr.audit.clean(), "post-recovery audit", t);
        ++audits;
        devices.fault_injector().arm_crash(crash_every);
        policy.defer_retry(t);
      }
      continue;  // the policy proposes again at the next sample
    }
    const auto proposal = policy.propose(t);
    if (!proposal) continue;
    try {
      const auto report = controller->apply_traffic_matrix(*proposal);
      ++applies;
      total_makespan_ms += report.makespan_ms;
      if (report.schedule_slots > max_schedule_slots) {
        max_schedule_slots = report.schedule_slots;
      }
      oss_ops += report.oss_operations;
      command_retries += report.command_retries;
      timeouts += report.commands_timed_out;
      circuit_retries += report.circuit_retries;
      switch (report.outcome) {
        case ApplyOutcome::kCommitted: ++committed; break;
        case ApplyOutcome::kRolledBack: ++rolled_back; break;
        case ApplyOutcome::kDegraded: ++degraded; break;
      }
      if (report.target_reached()) {
        policy.mark_applied(*proposal);
      } else {
        policy.defer_retry(t);
      }
      // The transactional contract: after EVERY apply -- committed, rolled
      // back or degraded -- the device layer matches the books and the
      // free/quarantined/allocated pools exactly tile the inventory.
      check(report.verified, "report.verified", t);
      check(controller->audit_devices(), "audit_devices()", t);
      ++audits;
    } catch (const std::runtime_error&) {
      ++rejected;
      policy.defer_retry(t);  // don't hammer an infeasible proposal
      check(controller->audit_devices(), "audit_devices() after refusal", t);
    } catch (const control::ControllerCrash&) {
      // The controller process died mid-apply. The device layer keeps its
      // state; a successor recovers from the journal and the audit must be
      // clean before the loop continues.
      ++crashes;
      controller.reset();
      controller = std::make_unique<control::IrisController>(map, net, plan,
                                                             devices);
      const control::RecoveryReport rr = controller->recover(journal);
      recovered_finished += rr.finished_establishes;
      recovered_reissued += rr.reissued_establishes;
      orphans_adopted += rr.orphan_connects_adopted;
      check(rr.audit.clean(), "post-recovery audit", t);
      ++audits;
      devices.fault_injector().arm_crash(crash_every);
      // Deterministic bookkeeping: a committed roll-forward counts as the
      // apply landing; anything else retries after backoff.
      if (rr.resumed_outcome == ApplyOutcome::kCommitted) {
        policy.mark_applied(*proposal);
      } else {
        policy.defer_retry(t);
      }
    }
  }

  const auto s = controller->status();
  check(s.devices_consistent, "status().devices_consistent", samples);
  check(s.fibers_allocated >= 0, "fiber accounting", samples);

  std::printf("%-28s %12lld\n", "applies", applies);
  std::printf("%-28s %12lld\n", "  committed", committed);
  std::printf("%-28s %12lld\n", "  rolled back", rolled_back);
  std::printf("%-28s %12lld\n", "  degraded", degraded);
  std::printf("%-28s %12lld\n", "refused (pre-device)", rejected);
  std::printf("%-28s %12lld\n", "oss operations", oss_ops);
  std::printf("%-28s %12lld\n", "command retries", command_retries);
  std::printf("%-28s %12lld\n", "command timeouts", timeouts);
  std::printf("%-28s %12lld\n", "circuit retries", circuit_retries);
  std::printf("%-28s %12lld\n", "faults injected",
              controller->fault_injector().faults_injected());
  if (crash_every > 0) {
    std::printf("%-28s %12lld\n", "controller crashes", crashes);
    std::printf("%-28s %12lld\n", "  establishes finished", recovered_finished);
    std::printf("%-28s %12lld\n", "  establishes reissued", recovered_reissued);
    std::printf("%-28s %12lld\n", "  orphan connects adopted", orphans_adopted);
  }
  std::printf("%-28s %12d\n", "quarantined resources", s.quarantined_total());
  std::printf("%-28s %12d\n", "  fibers", s.quarantined_fibers);
  std::printf("%-28s %12d\n", "  add/drop pairs", s.quarantined_add_drops);
  std::printf("%-28s %12d\n", "  amplifiers", s.quarantined_amplifiers);
  std::printf("%-28s %12d\n", "  transceivers", s.quarantined_transceivers);
  std::printf("%-28s %12d\n", "zombie cross-connects", s.zombie_connects);
  std::printf("%-28s %12lld\n", "device audits passed", audits - violations);
  std::printf("%-28s %12.1f\n", "reconfig makespan ms (sum)",
              total_makespan_ms);
  std::printf("%-28s %12d\n", "max schedule slots", max_schedule_slots);
  run_speedup_demo();
  if (srlg_chaos) {
    std::printf("%-28s %12lld\n", "srlg timeline events",
                static_cast<long long>(schedule.size()));
    std::printf("%-28s %12lld\n", "  hut-level events", hut_level_events);
    std::printf("%-28s %12lld\n", "escape hatch replans", escape_hatch_replans);
    // Acceptance gates: the correlated timeline must actually have taken a
    // hut group down, and the black-holed circuits must have forced at
    // least one TE escape-hatch reroute.
    check(hut_level_events >= 1, "srlg chaos produced a hut-level event",
          samples);
    check(escape_hatch_replans >= 1, "hut chaos exercised the TE escape hatch",
          samples);
  }

  if (metrics.enabled && !obs::dump_default_registry(metrics.path)) return 2;

  if (violations > 0) {
    std::fprintf(stderr, "chaos soak FAILED: %d invariant violation(s)\n",
                 violations);
    return 1;
  }
  std::printf("chaos soak OK: all %lld audits clean\n", audits);
  return 0;
}

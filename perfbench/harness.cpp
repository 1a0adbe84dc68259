// Iris benchmark harness: one closed-loop client per workload, one op kind
// per workload, layers timed only from outside through their public calls.
//
//   iris_perfbench --workload drill|slo|control --seed N --seconds S
//                  --trace 0|1 [--trace-out trace.json]
//   iris_perfbench --workload drill|slo|control --seed N --setup-only
//   iris_perfbench --obs-probe
//
// Workloads (see perfbench/README.md for why each one exists):
//   drill    one-job WhatIfEngine::run_batch failure drills against the
//            pinned snapshot of an 8-DC / 16-hut k=2 region, ducts visited
//            in a seeded order;
//   slo      one-job availability-SLO probes against the pinned snapshots
//            of 4 fleet-default regions;
//   control  supervised RegionShard::run() of a fleet-default region for
//            2000 ticks (async plane, transient faults, duct chaos,
//            journal-backed crash recovery).
//
// Every cycle visits each op index once in a seeded order; the timed loop
// stops at the first cycle boundary after --seconds, so each run weighs the
// op mix equally. --trace 1 is a separate run: it alternates traced and
// untraced cycles (tracing overhead), times each op's layer calls again
// through their public functions (unattributed share), and runs one fixed
// layer pass over all three worlds whose counts repeat exactly per seed.
// --setup-only stops after the set-up and reports its time, so run.py can
// take the median set-up over many processes. Untraced runs also time a
// fixed host-speed gauge after the set-up and after every op, from which
// run.py scales wall times to a reference host speed.
// Spans are kept in memory and written as Chrome trace-event JSON at exit.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark's result line. Exit codes: 0 ok, 1 a correctness violation
// or failed op, 2 usage, 3 refused (planner oracle on, sanitizer build).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "build_info.hpp"
#include "core/amp_cut.hpp"
#include "core/provision.hpp"
#include "core/replan.hpp"
#include "core/slo.hpp"
#include "fibermap/generator.hpp"
#include "fleet/engine.hpp"
#include "obs/export.hpp"
#include "reliability/events.hpp"

namespace {

using namespace iris;
using SteadyClock = std::chrono::steady_clock;

double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// ---- span tracer -----------------------------------------------------------

/// In-memory span recorder. time() runs a callable as a named span (child
/// of the innermost open span, tagged with an op id) and returns its wall
/// duration; with tracing off it only measures.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(SteadyClock::now()) {}

  template <class F>
  double time(const char* name, long long op, F&& f) {
    const auto start = SteadyClock::now();
    const int id = open(name, op, start);
    try {
      f();
    } catch (...) {
      close(id, SteadyClock::now());
      throw;
    }
    const auto end = SteadyClock::now();
    close(id, end);
    return ms_between(start, end);
  }

  /// Durations (ms) of every recorded span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.dur_us / 1000.0);
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events), which Perfetto and
  /// chrome://tracing open offline. `cat` is the layer (the name's prefix).
  bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                    s.dur_us);
      os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
         << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
         << ",\"parent\":" << s.parent << "}}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    std::string name;
    long long op;
    int parent;
    double start_us;
    double dur_us;
  };

  double us_since_t0(SteadyClock::time_point t) const {
    return ms_between(t0_, t) * 1000.0;
  }

  int open(const char* name, long long op, SteadyClock::time_point start) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, op, stack_.empty() ? -1 : stack_.back(),
                      us_since_t0(start), 0.0});
    stack_.push_back(id);
    return id;
  }

  void close(int id, SteadyClock::time_point end) {
    if (id < 0) return;
    stack_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = us_since_t0(end) - s.start_us;
  }

  bool on_;
  SteadyClock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- host-speed gauge ------------------------------------------------------

/// A fixed unit of work that belongs to the benchmark, not to Iris:
/// Dijkstra from 16 sources over a fixed, cache-resident random graph,
/// about 2 ms. The shared host changes speed in phases of seconds to
/// minutes through cache and memory contention (a drill takes about 21 ms
/// in one phase and 29 ms in the next); the gauge, timed right after each
/// op, slows with it, so op time over gauge time is the op's cost at a
/// fixed host speed. A register-only loop does not slow in those phases.
class HostGauge {
 public:
  HostGauge() : adj_(kNodes) {
    std::mt19937_64 g(0x1b873593u);
    std::uniform_int_distribution<int> node(0, kNodes - 1);
    std::uniform_real_distribution<double> weight(1.0, 100.0);
    for (auto& edges : adj_) {
      for (int e = 0; e < kDegree; ++e) edges.push_back({node(g), weight(g)});
    }
  }

  /// Runs the fixed work once and returns its wall time in ms. One
  /// untimed source first brings back into cache what the op evicted.
  double run() {
    shortest_paths(0);
    const auto start = SteadyClock::now();
    for (int src = 1; src <= kSources; ++src) shortest_paths(src);
    return ms_between(start, SteadyClock::now());
  }

  /// The median of `n` runs.
  double median_of(int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(run());
    return median(v);
  }

 private:
  static constexpr int kNodes = 512;
  static constexpr int kDegree = 6;
  static constexpr int kSources = 16;

  void shortest_paths(int src) {
    using Item = std::pair<double, int>;
    std::fill(dist_.begin(), dist_.end(), 1e300);
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist_[static_cast<std::size_t>(src)] = 0.0;
    heap.push({0.0, src});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist_[static_cast<std::size_t>(u)]) continue;
      for (const auto& [v, wgt] : adj_[static_cast<std::size_t>(u)]) {
        const double nd = d + wgt;
        if (nd < dist_[static_cast<std::size_t>(v)]) {
          dist_[static_cast<std::size_t>(v)] = nd;
          heap.push({nd, v});
        }
      }
    }
    double sum = 0.0;
    for (const double d : dist_) sum += d < 1e300 ? d : 0.0;
    sink_ = sink_ + sum;
  }

  std::vector<std::vector<std::pair<int, double>>> adj_;
  std::vector<double> dist_ = std::vector<double>(kNodes);
  volatile double sink_ = 0.0;
};

/// `,"name":[v0,v1,...]` for the harness's result line.
std::string json_array(const char* name, const std::vector<double>& v) {
  std::string out = std::string(",\"") + name + "\":[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6f", i > 0 ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

// ---- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Correctness ledger: violations are wrong answers; failures are ops that
/// did not produce an answer (non-kOk status, exception, unhealthy region).
struct Check {
  std::vector<std::string> violations;
  long long violation_count = 0;

  void violate(std::string what) {
    ++violation_count;
    if (violations.size() < 20) violations.push_back(std::move(what));
  }
};

// ---- the three worlds ------------------------------------------------------

constexpr std::uint64_t kFleetBaseSeed = 7;  // fleet default (bench_fleet_soak)

/// The drill region: 8 DCs / 16 huts planned for 2 simultaneous cuts, run
/// through its own RegionShard loop so the drills hit a loop-pinned
/// snapshot.
struct DrillWorld {
  std::unique_ptr<fleet::RegionShard> shard;
  const fleet::RegionSnapshot* snap = nullptr;

  void build() {
    fleet::RegionConfig cfg;
    cfg.region_seed = kFleetBaseSeed;
    cfg.dc_count = 8;
    cfg.hut_count = 16;
    cfg.planner.failure_tolerance = 2;
    cfg.loop.duration_s = 300.0;
    shard = std::make_unique<fleet::RegionShard>(0, cfg);
    shard->run();
    snap = shard->store().current();
    if (snap == nullptr) throw std::runtime_error("drill region never published");
  }

  [[nodiscard]] int ducts() const {
    return static_cast<int>(snap->map->graph().edge_count());
  }

  /// The planner knobs a drill query uses: the snapshot's, serial.
  [[nodiscard]] core::PlannerParams params() const {
    core::PlannerParams p = snap->network->params;
    p.threads = 1;
    return p;
  }

  [[nodiscard]] fleet::WhatIfEngine::Job job(int duct) const {
    fleet::WhatIfEngine::Job j;
    j.snapshot = snap;
    j.shard = shard.get();
    j.query.kind = fleet::QueryKind::kFailureDrill;
    j.query.duct = static_cast<graph::EdgeId>(duct);
    return j;
  }
};

/// The planner work inside a drill, repeated through its public calls: a
/// serial IncrementalPlanner build on the snapshot, then the cut.
struct PlannerCalls {
  double build_ms = 0.0;
  double cut_ms = 0.0;
  core::PlanDiff diff;
  long long sweep_evaluated = 0;
  long long sweep_pruned = 0;
  core::ReplanStats replan;
};

PlannerCalls drill_planner_calls(const DrillWorld& w, int duct, Tracer& tr,
                                 long long op) {
  PlannerCalls out;
  std::optional<core::IncrementalPlanner> planner;
  out.build_ms = tr.time("core.planner_build", op,
                         [&] { planner.emplace(*w.snap->map, w.params()); });
  out.sweep_evaluated = planner->current().scenarios_evaluated;
  out.sweep_pruned = planner->current().scenarios_pruned;
  out.cut_ms = tr.time("core.replan_cut", op, [&] {
    out.diff = planner->cut_duct(static_cast<graph::EdgeId>(duct));
  });
  out.replan = planner->last_stats();
  return out;
}

/// bench_fleet_soak's SLO probe.
fleet::WhatIfQuery slo_query() {
  fleet::WhatIfQuery q;
  q.kind = fleet::QueryKind::kSloProbe;
  q.availability_slo = 0.995;
  q.slo_max_tolerance = 1;
  q.demand_waves = 2;
  q.max_oversubscription = 2.0;
  return q;
}

/// The correlated failure model a kSloProbe evaluates plans against, so the
/// layer calls below can repeat the probe's work outside the engine. The
/// slo workload cross-checks every repeat against the engine's answer, so a
/// drift between this copy and the query surfaces as a violation.
reliability::CorrelatedFailureModel slo_model(int region) {
  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.25;
  model.base.mean_repair_hours = 24.0;
  model.base.horizon_years = 40.0;
  model.base.seed = 0x510bULL + static_cast<std::uint64_t>(region);
  model.ci_batches = 0;
  return model;
}

core::PlannerParams slo_params(const fleet::RegionSnapshot& snap,
                               const fleet::WhatIfQuery& q) {
  core::PlannerParams p = snap.network->params;
  p.threads = 1;
  p.availability_slo = q.availability_slo;
  p.slo_max_tolerance = q.slo_max_tolerance;
  return p;
}

core::SloCostOptions slo_cost(const fleet::WhatIfQuery& q) {
  core::SloCostOptions cost;
  cost.max_oversubscription = q.max_oversubscription;
  cost.demand_waves = q.demand_waves;
  cost.bisect_iters = 4;
  return cost;
}

/// Four fleet-default regions (5 DCs / 10 huts, k = 1), each pinned after
/// its default closed-loop run.
struct SloWorld {
  static constexpr int kRegions = 4;
  std::vector<std::unique_ptr<fleet::RegionShard>> shards;

  void build() {
    fleet::FleetParams fp;
    fp.regions = kRegions;
    fp.base_seed = kFleetBaseSeed;
    shards.clear();
    for (int r = 0; r < kRegions; ++r) {
      shards.push_back(std::make_unique<fleet::RegionShard>(
          r, fleet::derive_region_config(fp, r)));
      shards.back()->run();
      if (shards.back()->store().current() == nullptr) {
        throw std::runtime_error("slo region never published");
      }
    }
  }

  [[nodiscard]] const fleet::RegionSnapshot& snap(int r) const {
    return *shards.at(static_cast<std::size_t>(r))->store().current();
  }

  [[nodiscard]] fleet::WhatIfEngine::Job job(int r) const {
    fleet::WhatIfEngine::Job j;
    j.snapshot = &snap(r);
    j.shard = shards.at(static_cast<std::size_t>(r)).get();
    j.query = slo_query();
    return j;
  }

  /// The probe's search, called directly instead of through the engine.
  [[nodiscard]] core::SloProvisionReport search(int r) const {
    const fleet::RegionSnapshot& s = snap(r);
    const fleet::WhatIfQuery q = slo_query();
    return core::provision_to_availability_slo(*s.map, slo_params(s, q),
                                               slo_model(s.region), slo_cost(q));
  }
};

bool same_slo_answer(const fleet::WhatIfResult& r,
                     const core::SloProvisionReport& rep) {
  return r.slo_met == rep.met && r.tolerance == rep.tolerance &&
         r.cost_fibers == rep.cost_fibers &&
         r.worst_availability == rep.availability.summary.worst_availability &&
         r.oversubscription == rep.oversubscription;
}

/// Eight supervised fleet-default region configs, one per control op.
struct ControlWorld {
  static constexpr int kConfigs = 8;
  std::vector<fleet::RegionConfig> configs;

  void build() {
    fleet::FleetParams fp;
    fp.regions = kConfigs;
    fp.base_seed = kFleetBaseSeed;
    fp.base.loop.duration_s = 2000.0;
    fp.base.command_plane = control::CommandPlaneMode::kAsync;
    fp.base.faults.rates.oss_connect_fail = 0.01;
    fp.base.faults.rates.oss_disconnect_fail = 0.01;
    fp.base.faults.rates.tx_tune_fail = 0.01;
    fp.base.chaos_duct_period = 40;
    fp.base.supervisor.enabled = true;
    fp.base.supervisor.crash_every_cmds = 4000;
    configs.clear();
    for (int i = 0; i < kConfigs; ++i) {
      configs.push_back(fleet::derive_region_config(fp, i));
    }
  }

  /// The world build RegionShard::run() does before its loop, repeated
  /// through the public calls: map, plan, amplifiers/cut-throughs, devices.
  void build_layers(int i) const {
    const fleet::RegionConfig& cfg = configs.at(static_cast<std::size_t>(i));
    fibermap::RegionParams rp;
    rp.seed = cfg.region_seed;
    rp.dc_count = cfg.dc_count;
    rp.hut_count = cfg.hut_count;
    rp.capacity_fibers = cfg.capacity_fibers;
    const fibermap::FiberMap map = fibermap::generate_region(rp);
    const core::ProvisionedNetwork net = core::provision(map, cfg.planner);
    const core::AmpCutPlan amp = core::place_amplifiers_and_cutthroughs(map, net);
    control::FaultConfig faults = cfg.faults;
    faults.crash_after_commands = cfg.supervisor.crash_every_cmds;
    const control::DeviceLayer devices(map, net, amp, faults);
  }
};

/// One control op's outcome, kept per config for the deterministic
/// reconfiguration metrics and the repeat check.
struct ControlRun {
  bool ok = false;
  std::uint64_t fingerprint = 0;
  control::ClosedLoopResult loop;
  long long recoveries = 0;
  long long applies = 0;
  long long commands = 0;
  long long attempts = 0;
  long long journal_records = 0;
  long long books_rebuilt = 0;
  long long published = 0;
  long long series = 0;
};

/// One control op: a supervised RegionShard::run() of config i, plus the
/// counters the layer metrics read from its registry. A non-null
/// `export_out` also times obs::export_text of that registry.
ControlRun run_control(const ControlWorld& world, int i, Tracer& tr,
                       long long op, double* call_ms, std::string* export_out) {
  ControlRun out;
  fleet::RegionShard shard(i, world.configs.at(static_cast<std::size_t>(i)));
  const double ms = tr.time("fleet.region_run", op, [&] { shard.run(); });
  if (call_ms != nullptr) *call_ms = ms;
  const fleet::RegionRunResult& r = shard.result();
  out.ok = r.health == fleet::RegionHealth::kHealthy && r.audit_clean;
  out.fingerprint = r.fingerprint;
  out.loop = r.loop;
  out.recoveries = shard.slot().recoveries();
  const obs::MetricsRegistry& reg = shard.metrics();
  for (const auto& [key, value] : reg.counters()) {
    if (key.rfind("controller.applies.total", 0) == 0) out.applies += value;
  }
  out.commands = reg.counter("controller.commands.total");
  out.attempts = reg.counter("controller.commands.attempts");
  out.journal_records = reg.counter("controller.journal.records");
  out.books_rebuilt = reg.counter("fleet.snapshots.books_rebuilt");
  out.published = reg.counter("fleet.snapshots.published");
  out.series = static_cast<long long>(reg.counters().size() +
                                      reg.gauges().size() +
                                      reg.histograms().size());
  if (export_out != nullptr) {
    tr.time("obs.export", op, [&] { *export_out = obs::export_text(reg); });
  }
  return out;
}

// ---- workloads -------------------------------------------------------------

struct OpOutcome {
  bool failed = false;
  double call_ms = 0.0;  ///< wall time of the layer call the op makes
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Op indices per cycle; each cycle visits every index once.
  [[nodiscard]] virtual int cycle() const = 0;
  /// One set-up: build the world the ops run against.
  virtual void build_world() = 0;
  /// Untimed reference recording after the set-up.
  virtual void prepare(Check&, std::mt19937_64&) {}
  /// The measured op.
  virtual OpOutcome op(int idx, Tracer&, long long op_id, Check&) = 0;
  /// Traced runs: repeats the op's work through the layers' own public
  /// calls (spans only) and returns their summed wall time. This is a
  /// re-run after the op, not a span inside it, so the unattributed share
  /// it feeds is the difference of two runs' times.
  virtual double attribute(int idx, Tracer&, long long op_id, Check&) = 0;
  /// Workload-only end-to-end metrics.
  virtual void report(std::map<std::string, Metric>&) const {}
  /// Hash of every reference answer, so runs in separate processes can be
  /// checked against each other.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
};

/// One what-if op: a one-job run_batch, timed as the op's engine call. A
/// throw or an answer that is not a feasible kOk fails the op.
OpOutcome whatif_op(fleet::WhatIfEngine& engine,
                    const fleet::WhatIfEngine::Job& job, Tracer& tr,
                    long long op_id, Check& check, fleet::WhatIfResult& res) {
  OpOutcome out;
  try {
    out.call_ms = tr.time("fleet.run_batch", op_id,
                          [&] { res = engine.run_batch({job}).at(0); });
  } catch (const std::exception& e) {
    check.violate(std::string("what-if query threw: ") + e.what());
    out.failed = true;
    return out;
  }
  out.failed = res.status != fleet::QueryStatus::kOk || !res.feasible;
  return out;
}

class DrillWorkload final : public Workload {
 public:
  explicit DrillWorkload(DrillWorld& world) : w_(world) {}

  [[nodiscard]] int cycle() const override { return w_.ducts(); }
  void build_world() override { w_.build(); }

  void prepare(Check& check, std::mt19937_64& rng) override {
    refs_.assign(static_cast<std::size_t>(cycle()), fleet::WhatIfResult{});
    for (int d = 0; d < cycle(); ++d) {
      const auto res = engine_.run_batch({w_.job(d)}).at(0);
      if (res.status != fleet::QueryStatus::kOk || !res.feasible) {
        check.violate("drill reference for duct " + std::to_string(d) +
                      " is not a feasible kOk answer");
      }
      refs_[static_cast<std::size_t>(d)] = res;
    }
    // Cross-check sampled ducts against a from-scratch provision() with the
    // duct in cut_ducts: the incremental planner a drill runs must land on
    // the same plan, and the drill's fiber delta must match it.
    for (int s = 0; s < 3; ++s) {
      const int d = static_cast<int>(rng() % static_cast<std::uint64_t>(cycle()));
      core::IncrementalPlanner planner(*w_.snap->map, w_.params());
      planner.cut_duct(static_cast<graph::EdgeId>(d));
      core::PlannerParams p = w_.params();
      p.cut_ducts = {static_cast<graph::EdgeId>(d)};
      const core::ProvisionedNetwork full = core::provision(*w_.snap->map, p);
      if (!core::same_plan(planner.current(), full)) {
        check.violate("drill duct " + std::to_string(d) +
                      ": incremental plan differs from provision()");
      }
      const long long delta = full.total_base_fibers() -
                              w_.snap->network->total_base_fibers();
      if (refs_[static_cast<std::size_t>(d)].fibers_delta != delta) {
        check.violate("drill duct " + std::to_string(d) +
                      ": fibers_delta differs from provision()");
      }
    }
  }

  OpOutcome op(int idx, Tracer& tr, long long op_id, Check& check) override {
    fleet::WhatIfResult res;
    const OpOutcome out = whatif_op(engine_, w_.job(idx), tr, op_id, check, res);
    // The set-up warm-up runs before the references exist.
    if (!out.failed && !refs_.empty() &&
        res.canonical() != refs_.at(static_cast<std::size_t>(idx)).canonical()) {
      check.violate("drill duct " + std::to_string(idx) +
                    " answer differs from its reference");
    }
    return out;
  }

  double attribute(int idx, Tracer& tr, long long op_id, Check& check) override {
    const PlannerCalls calls = drill_planner_calls(w_, idx, tr, op_id);
    const auto& ref = refs_.at(static_cast<std::size_t>(idx));
    if (static_cast<int>(calls.diff.capacity_changes.size()) != ref.capacity_changes ||
        static_cast<int>(calls.diff.path_changes.size()) != ref.path_changes) {
      check.violate("drill duct " + std::to_string(idx) +
                    ": planner calls disagree with the drill answer");
    }
    return calls.build_ms + calls.cut_ms;
  }

  [[nodiscard]] std::uint64_t digest() const override {
    std::string all;
    for (const auto& r : refs_) all += r.canonical() + "\n";
    return fleet::fnv1a64(all);
  }

 private:
  DrillWorld& w_;
  fleet::WhatIfEngine engine_{1};
  std::vector<fleet::WhatIfResult> refs_;
};

class SloWorkload final : public Workload {
 public:
  explicit SloWorkload(SloWorld& world) : w_(world) {}

  [[nodiscard]] int cycle() const override { return SloWorld::kRegions; }
  void build_world() override { w_.build(); }

  OpOutcome op(int idx, Tracer& tr, long long op_id, Check& check) override {
    fleet::WhatIfResult res;
    const OpOutcome out = whatif_op(engine_, w_.job(idx), tr, op_id, check, res);
    if (out.failed) return out;
    auto [it, first] = refs_.emplace(idx, res);
    if (!first && it->second.canonical() != res.canonical()) {
      check.violate("slo probe of region " + std::to_string(idx) +
                    " differs from its first answer");
    }
    return out;
  }

  double attribute(int idx, Tracer& tr, long long op_id, Check& check) override {
    core::SloProvisionReport rep;
    const double ms = tr.time("core.slo_search", op_id, [&] { rep = w_.search(idx); });
    const auto it = refs_.find(idx);
    if (it != refs_.end() && !same_slo_answer(it->second, rep)) {
      check.violate("slo region " + std::to_string(idx) +
                    ": direct search disagrees with the probe answer");
    }
    return ms;
  }

  [[nodiscard]] std::uint64_t digest() const override {
    std::string all;
    for (const auto& [region, r] : refs_) all += r.canonical() + "\n";
    return fleet::fnv1a64(all);
  }

 private:
  SloWorld& w_;
  fleet::WhatIfEngine engine_{1};
  std::map<int, fleet::WhatIfResult> refs_;
};

class ControlWorkload final : public Workload {
 public:
  explicit ControlWorkload(ControlWorld& world) : w_(world) {}

  [[nodiscard]] int cycle() const override { return ControlWorld::kConfigs; }
  void build_world() override { w_.build(); }

  OpOutcome op(int idx, Tracer& tr, long long op_id, Check& check) override {
    OpOutcome out;
    ControlRun run;
    try {
      run = run_control(w_, idx, tr, op_id, &out.call_ms, nullptr);
    } catch (const std::exception& e) {
      out.failed = true;
      check.violate(std::string("control shard error: ") + e.what());
      return out;
    }
    if (!run.ok) {
      out.failed = true;
      check.violate("control config " + std::to_string(idx) +
                    " ended unhealthy or with an unclean audit");
    }
    auto [it, first] = runs_.emplace(idx, run);
    if (!first && it->second.fingerprint != run.fingerprint) {
      check.violate("control config " + std::to_string(idx) +
                    " fingerprint differs from its first run");
    }
    return out;
  }

  // Only the world build is callable from outside: the controller, command
  // plane, journal and recovery run inside RegionShard::run(), so control's
  // unattributed share is close to 1 by construction.
  double attribute(int idx, Tracer& tr, long long op_id, Check&) override {
    return tr.time("control.build", op_id, [&] { w_.build_layers(idx); });
  }

  /// Virtual-clock reconfiguration metrics, summed in config order over
  /// the configs run (deterministic: each config's loop result is fixed).
  void report(std::map<std::string, Metric>& m) const override {
    double makespan = 0.0;
    double gap = 0.0;
    long long reconfigs = 0;
    for (const auto& [idx, run] : runs_) {
      makespan += run.loop.total_makespan_ms;
      gap += run.loop.total_capacity_gap_ms;
      reconfigs += run.loop.reconfigurations;
    }
    m["reconfig_makespan_ms"] = {ratio(makespan, static_cast<double>(reconfigs)), "ms"};
    m["capacity_gap_ms"] = {ratio(gap, static_cast<double>(reconfigs)), "ms"};
  }

  [[nodiscard]] std::uint64_t digest() const override {
    std::string all;
    for (const auto& [idx, run] : runs_) all += std::to_string(run.fingerprint) + "\n";
    return fleet::fnv1a64(all);
  }

 private:
  ControlWorld& w_;
  std::map<int, ControlRun> runs_;
};

// ---- the fixed layer pass (traced runs) -----------------------------------

/// Runs a fixed, seed-determined set of layer calls over all three worlds
/// and fills every per-layer metric. Counts are sums over that fixed set,
/// so they repeat exactly for a seed; times are medians of the spans.
void layer_pass(std::uint64_t seed, DrillWorld& drill, SloWorld& slo,
                ControlWorld& control, Tracer& tr, Check& check,
                std::map<std::string, Metric>& m) {
  std::mt19937_64 rng(seed ^ 0x1a7e5ULL);
  long long op = -1000;  // layer-pass op ids are negative

  // core + fleet, on the drill snapshot: 8 seeded ducts.
  if (drill.snap == nullptr) tr.time("setup.drill_world", op, [&] { drill.build(); });
  fleet::WhatIfEngine engine(1);
  std::vector<double> build_ms, cut_ms, glue_ms;
  long long replan_scen = 0, replan_pruned = 0, sweep_eval = 0, sweep_pruned = 0;
  constexpr int kDucts = 8;
  for (int k = 0; k < kDucts; ++k, --op) {
    const int d = static_cast<int>(rng() % static_cast<std::uint64_t>(drill.ducts()));
    fleet::WhatIfResult res;
    OpOutcome drill_op;
    PlannerCalls calls;
    tr.time("layers.drill", op, [&] {
      drill_op = whatif_op(engine, drill.job(d), tr, op, check, res);
      calls = drill_planner_calls(drill, d, tr, op);
    });
    if (drill_op.failed) check.violate("drill layer pass: duct " + std::to_string(d) + " failed");
    sweep_eval += calls.sweep_evaluated;
    sweep_pruned += calls.sweep_pruned;
    replan_scen += calls.replan.scenarios;
    replan_pruned += calls.replan.pruned;
    build_ms.push_back(calls.build_ms);
    cut_ms.push_back(calls.cut_ms);
    glue_ms.push_back(drill_op.call_ms - calls.build_ms - calls.cut_ms);
  }
  std::vector<double> amp_ms;
  for (int k = 0; k < 3; ++k, --op) {
    amp_ms.push_back(tr.time("core.amp_cut", op, [&] {
      core::place_amplifiers_and_cutthroughs(*drill.snap->map, *drill.snap->network);
    }));
  }
  m["core.planner_build_ms"] = {median(build_ms), "ms"};
  m["core.replan_cut_ms"] = {median(cut_ms), "ms"};
  m["core.replan_scenarios"] = {ratio(static_cast<double>(replan_scen), kDucts), "count"};
  m["core.replan_reuse_ratio"] = {ratio(static_cast<double>(replan_pruned),
                                        static_cast<double>(replan_scen)), "1"};
  m["core.sweep_pruned_ratio"] = {ratio(static_cast<double>(sweep_pruned),
                                        static_cast<double>(sweep_eval)), "1"};
  m["core.amp_cut_ms"] = {median(amp_ms), "ms"};
  m["fleet.drill_glue_ms"] = {median(glue_ms), "ms"};

  // core + reliability, on one seeded slo region.
  if (slo.shards.empty()) tr.time("setup.slo_world", op, [&] { slo.build(); });
  const int region = static_cast<int>(rng() % SloWorld::kRegions);
  const fleet::RegionSnapshot& snap = slo.snap(region);
  const fleet::WhatIfQuery q = slo_query();
  fleet::WhatIfResult answer;
  core::SloProvisionReport rep;
  --op;
  tr.time("layers.slo", op, [&] {
    if (whatif_op(engine, slo.job(region), tr, op, check, answer).failed) {
      check.violate("slo layer pass: the probe failed");
    }
    m["core.slo_search_ms"] = {
        tr.time("core.slo_search", op, [&] { rep = slo.search(region); }), "ms"};
  });
  if (!same_slo_answer(answer, rep)) {
    check.violate("slo layer pass: direct search disagrees with the probe");
  }
  m["core.slo_plans_per_probe"] = {
      static_cast<double>(rep.search_steps + rep.bisect_steps), "count"};
  core::PlannerParams base = slo_params(snap, q);
  std::vector<double> prov_ms;
  core::ProvisionedNetwork net;
  for (int k = 0; k < 5; ++k, --op) {
    prov_ms.push_back(
        tr.time("core.provision", op, [&] { net = core::provision(*snap.map, base); }));
  }
  m["core.provision_ms"] = {median(prov_ms), "ms"};
  const reliability::CorrelatedFailureModel model = slo_model(snap.region);
  std::vector<double> mc_ms, gen_ms;
  long long events = 0;
  for (int k = 0; k < 3; ++k, --op) {
    mc_ms.push_back(tr.time("reliability.mc", op, [&] {
      reliability::simulate_availability_correlated(
          *snap.map, model,
          core::planned_capacity_criterion(*snap.map, net, q.demand_waves));
    }));
    long long n = 0;
    gen_ms.push_back(tr.time("reliability.event_gen", op, [&] {
      reliability::EventStream stream(*snap.map, model);
      while (stream.next().has_value()) ++n;
    }));
    events = n;
  }
  m["reliability.mc_ms"] = {median(mc_ms), "ms"};
  m["reliability.event_gen_ms"] = {median(gen_ms), "ms"};
  m["reliability.criterion_ms"] = {median(mc_ms) - median(gen_ms), "ms"};
  m["reliability.events_per_run"] = {static_cast<double>(events), "count"};

  // control + fleet + obs: every control config once, in seeded order.
  if (control.configs.empty()) control.build();
  std::vector<int> order(ControlWorld::kConfigs);
  for (int i = 0; i < ControlWorld::kConfigs; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> cbuild_ms, loop_ms;
  ControlRun sum;
  for (const int i : order) {
    --op;
    double b = 0.0, call = 0.0;
    ControlRun run;
    std::string text;
    tr.time("layers.control", op, [&] {
      b = tr.time("control.build", op, [&] { control.build_layers(i); });
      run = run_control(control, i, tr, op, &call, &text);
    });
    if (!run.ok) check.violate("control layer pass: config " + std::to_string(i) + " unhealthy");
    cbuild_ms.push_back(b);
    loop_ms.push_back(call - b);
    sum.recoveries += run.recoveries;
    sum.applies += run.applies;
    sum.commands += run.commands;
    sum.attempts += run.attempts;
    sum.journal_records += run.journal_records;
    sum.books_rebuilt += run.books_rebuilt;
    sum.published += run.published;
    sum.series += run.series;
  }
  const auto per_op = [](long long v) {
    return static_cast<double>(v) / ControlWorld::kConfigs;
  };
  m["fleet.books_rebuilt_ratio"] = {ratio(static_cast<double>(sum.books_rebuilt),
                                          static_cast<double>(sum.published)), "1"};
  m["fleet.recoveries_per_op"] = {per_op(sum.recoveries), "count"};
  m["control.build_ms"] = {median(cbuild_ms), "ms"};
  m["control.loop_ms"] = {median(loop_ms), "ms"};
  m["control.commands_per_apply"] = {ratio(static_cast<double>(sum.commands),
                                           static_cast<double>(sum.applies)), "count"};
  m["control.command_attempt_ratio"] = {ratio(static_cast<double>(sum.attempts),
                                              static_cast<double>(sum.commands)), "1"};
  m["control.journal_records_per_apply"] = {
      ratio(static_cast<double>(sum.journal_records), static_cast<double>(sum.applies)),
      "count"};
  m["obs.series_per_region"] = {per_op(sum.series), "count"};
  m["obs.export_ms"] = {median(tr.durations_ms("obs.export")), "ms"};
}

// ---- driver ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
  bool obs_probe = false;
};

int usage(const char* what) {
  std::fprintf(stderr, "iris_perfbench: %s\n", what);
  std::fprintf(stderr,
               "usage: iris_perfbench --workload drill|slo|control --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n"
               "       iris_perfbench --workload drill|slo|control --seed N "
               "--setup-only\n"
               "       iris_perfbench --obs-probe\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only" || k == "--obs-probe") {
      (k == "--setup-only" ? a.setup_only : a.obs_probe) = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return std::nullopt;
    }
  }
  return a;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent image the exec replaced.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void print_result(const Args& a, bool correct, long long attempted,
                  long long failed, const Check& check,
                  const std::map<std::string, Metric>& metrics,
                  const std::string& extra = "") {
  std::string out = "{\"workload\":\"" + a.workload + "\"";
  out += extra;
  out += ",\"seed\":" + std::to_string(a.seed);
  out += std::string(",\"trace\":") + (a.trace ? "1" : "0");
  out += std::string(",\"correct\":") + (correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"violations\":[";
  for (std::size_t i = 0; i < check.violations.size(); ++i) {
    out += (i > 0 ? ",\"" : "\"") + json_escape(check.violations[i]) + "\"";
  }
  out += "],\"compiler\":\"" + json_escape(IRIS_BENCH_COMPILER) + "\"";
  out += ",\"flags\":\"" + json_escape(IRIS_BENCH_FLAGS) + "\"";
  out += std::string(",\"obs\":") + (obs::compiled_in() ? "true" : "false");
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Control ops in config order for the IRIS_OBS on/off comparison: one
/// per config.
int obs_probe() {
  constexpr int ops = ControlWorld::kConfigs;
  ControlWorld world;
  world.build();
  Tracer tr(false);
  bool ok = true;
  std::string out = "{\"obs\":";
  out += obs::compiled_in() ? "true" : "false";
  out += ",\"op_ms\":[";
  for (int k = 0; k < ops; ++k) {
    double ms = 0.0;
    const ControlRun run =
        run_control(world, k % ControlWorld::kConfigs, tr, k, &ms, nullptr);
    ok = ok && run.ok;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", k > 0 ? "," : "", ms);
    out += buf;
  }
  out += std::string("],\"correct\":") + (ok ? "true" : "false") + "}";
  std::printf("%s\n", out.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_process = SteadyClock::now();
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) return usage("malformed arguments");
  const Args& a = *parsed;
  if (core::planner_oracle_enabled()) {
    std::fprintf(stderr,
                 "iris_perfbench: refusing to time with IRIS_PLANNER_ORACLE set "
                 "(every plan is re-derived from scratch)\n");
    return 3;
  }
  if (sanitized_build()) {
    std::fprintf(stderr, "iris_perfbench: refusing to time a sanitizer build\n");
    return 3;
  }
  if (a.obs_probe) return obs_probe();

  DrillWorld drill;
  SloWorld slo;
  ControlWorld control;
  std::unique_ptr<Workload> w;
  if (a.workload == "drill") {
    w = std::make_unique<DrillWorkload>(drill);
  } else if (a.workload == "slo") {
    w = std::make_unique<SloWorkload>(slo);
  } else if (a.workload == "control") {
    w = std::make_unique<ControlWorkload>(control);
  } else {
    return usage("unknown workload");
  }

  // The client thread's own registry: layer calls made directly by the
  // harness record here, never into a region's series.
  obs::MetricsRegistry scratch;
  const obs::ScopedRegistry bind(scratch);

  Tracer tr(a.trace);
  Check check;
  std::mt19937_64 rng(a.seed);
  std::map<std::string, Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  long long op_id = 0;

  // Set-up, from process start through the world build and one warm-up op.
  // The warm-up is op 0 whatever the seed, so every set-up does the same
  // work. The reference recording that follows is the harness's own check
  // and is not counted.
  double setup_s = 0.0;
  double setup_gauge_ms = 0.0;
  HostGauge gauge;
  OpOutcome warmup;
  try {
    tr.time("setup", op_id, [&] {
      w->build_world();
      tr.time("setup.warmup", op_id, [&] {
        Check ignore;  // references are recorded after the set-up
        warmup = w->op(0, tr, op_id, ignore);
      });
    });
    setup_s = ms_between(t_process, SteadyClock::now()) / 1000.0;
    if (!a.trace) setup_gauge_ms = gauge.median_of(5);
    if (a.setup_only) {
      char buf[96];
      std::snprintf(buf, sizeof buf, ",\"setup_s\":%.9f,\"setup_gauge_ms\":%.6f",
                    setup_s, setup_gauge_ms);
      if (warmup.failed) check.violate("set-up warm-up op failed");
      print_result(a, !warmup.failed, 1, warmup.failed ? 1 : 0, check, metrics, buf);
      return warmup.failed ? 1 : 0;
    }
    w->prepare(check, rng);
  } catch (const std::exception& e) {
    check.violate(std::string("set-up failed: ") + e.what());
    print_result(a, false, 1, 1, check, metrics);
    return 1;
  }

  // Timed closed loop: one outstanding op, seeded order per cycle, stop at
  // the first cycle boundary after --seconds (and never before 2 cycles).
  // Traced runs alternate traced and untraced cycles.
  std::vector<int> order(static_cast<std::size_t>(w->cycle()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::vector<double> lat_ms, gauge_ms, traced_ms, untraced_ms, unattributed;
  const auto t_start = SteadyClock::now();
  double elapsed_s = 0.0;
  for (int c = 0; c < 2 || elapsed_s < a.seconds; ++c) {
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced_cycle = a.trace && c % 2 == 0;
    Tracer quiet(false);
    Tracer& t = traced_cycle ? tr : quiet;
    for (const int idx : order) {
      ++op_id;
      OpOutcome o;
      const double ms = t.time("op", op_id, [&] { o = w->op(idx, t, op_id, check); });
      ++attempted;
      if (o.failed) ++failed;
      lat_ms.push_back(ms);
      if (!a.trace) gauge_ms.push_back(gauge.run());
      if (a.trace) {
        (traced_cycle ? traced_ms : untraced_ms).push_back(ms);
        if (traced_cycle && !o.failed) {
          const double attributed = w->attribute(idx, tr, op_id, check);
          unattributed.push_back(1.0 - attributed / o.call_ms);
        }
      }
    }
    elapsed_s = ms_between(t_start, SteadyClock::now()) / 1000.0;
  }

  // Untraced runs hand their raw op latencies and the gauge times to
  // run.py, which scales them and pools the rounds of one benchmark run
  // before taking percentiles.
  std::string extra;
  char buf[96];
  if (!a.trace) {
    w->report(metrics);
    std::snprintf(buf, sizeof buf, ",\"setup_s\":%.9f,\"setup_gauge_ms\":%.6f",
                  setup_s, setup_gauge_ms);
    extra += buf;
    std::snprintf(buf, sizeof buf, ",\"peak_rss_mb\":%.6f,\"digest\":\"%016llx\"",
                  peak_rss_mb(), static_cast<unsigned long long>(w->digest()));
    extra += buf;
    extra += json_array("lat_ms", lat_ms) + json_array("gauge_ms", gauge_ms);
  } else {
    try {
      layer_pass(a.seed, drill, slo, control, tr, check, metrics);
    } catch (const std::exception& e) {
      check.violate(std::string("layer pass failed: ") + e.what());
    }
    metrics["trace.overhead_ratio"] = {ratio(median(traced_ms), median(untraced_ms)), "1"};
    metrics["trace.unattributed_share"] = {median(unattributed), "1"};
    if (!a.trace_out.empty() && !tr.write_chrome(a.trace_out)) {
      std::fprintf(stderr, "iris_perfbench: cannot write %s\n", a.trace_out.c_str());
      return 2;
    }
  }

  const bool correct = check.violation_count == 0 && failed == 0;
  print_result(a, correct, attempted, failed, check, metrics, extra);
  return correct ? 0 : 1;
}

// Observability layer: registry semantics, export determinism (including
// across provisioning thread counts), virtual-clock span nesting, strict
// bench argv parsing, and the degraded-time accounting regression.
//
// Every registry-dependent test resets the process-wide registry first and
// skips under -DIRIS_OBS=OFF, where the whole subsystem is no-op stubs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/closed_loop.hpp"
#include "control/controller.hpp"
#include "control/policy.hpp"
#include "core/provision.hpp"
#include "fibermap/generator.hpp"
#include "obs/argparse.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::obs {
namespace {

using core::DcPair;

class ObsRegistry : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiled_in()) GTEST_SKIP() << "built with IRIS_OBS=OFF";
    registry().reset();
    registry().set_enabled(true);
    registry().set_clock(std::make_unique<VirtualClock>());
  }
  void TearDown() override {
    if (compiled_in()) registry().reset();
  }
};

TEST(ObsKey, LabelsRenderSorted) {
  EXPECT_EQ(key("m.n", {}), "m.n");
  EXPECT_EQ(key("m.n", {{"b", "2"}, {"a", "1"}}), "m.n{a=1,b=2}");
  EXPECT_EQ(key("m.n", {{"outcome", "committed"}}), "m.n{outcome=committed}");
}

TEST_F(ObsRegistry, CountersAccumulateAndMissingReadsZero) {
  auto& reg = registry();
  EXPECT_EQ(reg.counter("nope"), 0);
  reg.add("a.b");
  reg.add("a.b", 4);
  EXPECT_EQ(reg.counter("a.b"), 5);
  reg.set_enabled(false);
  reg.add("a.b", 100);
  EXPECT_EQ(reg.counter("a.b"), 5);  // frozen while disabled
}

TEST_F(ObsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  auto& reg = registry();
  reg.declare_histogram("h", {1.0, 2.0, 4.0});
  reg.observe("h", 1.0);  // exactly on an edge: belongs to that bucket
  reg.observe("h", 1.5);
  reg.observe("h", 4.0);
  reg.observe("h", 5.0);  // beyond the last edge: overflow bucket
  const auto h = reg.histogram("h");
  ASSERT_EQ(h.edges.size(), 3u);
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 1);
  EXPECT_EQ(h.buckets[3], 1);
  EXPECT_EQ(h.count, 4);
  EXPECT_DOUBLE_EQ(h.sum, 11.5);
}

TEST_F(ObsRegistry, HistogramDeclarationIsValidated) {
  auto& reg = registry();
  EXPECT_THROW(reg.declare_histogram("bad", {}), std::invalid_argument);
  EXPECT_THROW(reg.declare_histogram("bad", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(reg.declare_histogram("bad", {1.0, 1.0}),
               std::invalid_argument);
  reg.declare_histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.declare_histogram("h", {1.0, 2.0}));  // same edges: ok
  EXPECT_THROW(reg.declare_histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST_F(ObsRegistry, SpansNestUnderTheVirtualClock) {
  auto& reg = registry();
  {
    const Span outer("outer");
    reg.advance_virtual(1.0);
    {
      const Span inner("inner");
      reg.advance_virtual(0.25);
    }
    reg.advance_virtual(1.0);
  }
  EXPECT_EQ(reg.counter("span.outer.count"), 1);
  EXPECT_EQ(reg.counter("span.outer/inner.count"), 1);
  EXPECT_DOUBLE_EQ(reg.gauge("span.outer.seconds"), 2.25);
  EXPECT_DOUBLE_EQ(reg.gauge("span.outer/inner.seconds"), 0.25);
  EXPECT_EQ(reg.open_spans(), 0);
  const auto h = reg.histogram("span.outer/inner.duration_s");
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.sum, 0.25);
}

TEST_F(ObsRegistry, VirtualClockIgnoresAdvanceOnRealClocks) {
  auto& reg = registry();
  EXPECT_TRUE(reg.clock().is_virtual());
  reg.advance_virtual(5.0);
  EXPECT_DOUBLE_EQ(reg.now_s(), 5.0);
  reg.set_clock(std::make_unique<SteadyClock>());
  EXPECT_FALSE(reg.clock().is_virtual());
  const double before = reg.now_s();
  reg.advance_virtual(100.0);  // must be a no-op on wall time
  EXPECT_LT(reg.now_s() - before, 50.0);
}

TEST_F(ObsRegistry, ExportFormatsAreStable) {
  auto& reg = registry();
  reg.add("z.last", 2);
  reg.add("a.first", 1);
  reg.set_gauge("g.v", 0.5);
  reg.declare_histogram("h.d", {1.0});
  reg.observe("h.d", 0.5);
  EXPECT_EQ(export_text(reg),
            "# iris-obs v1\n"
            "counter a.first 1\n"
            "counter z.last 2\n"
            "gauge g.v 0.5\n"
            "hist h.d count 1 sum 0.5 le 1 1 inf 0\n");
  EXPECT_EQ(export_json(reg),
            "{\"counters\":{\"a.first\":1,\"z.last\":2},"
            "\"gauges\":{\"g.v\":0.5},"
            "\"histograms\":{\"h.d\":{\"count\":1,\"sum\":0.5,"
            "\"edges\":[1],\"buckets\":[1,0]}}}");
}

core::PlannerParams sweep_params(int threads = 0) {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  if (threads > 0) params.threads = threads;
  return params;
}

TEST_F(ObsRegistry, ProvisionMetricsAreByteIdenticalAcrossThreadCounts) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);

  std::vector<std::string> exports;
  for (const int threads : {1, 2, 8}) {
    registry().reset();
    (void)core::provision(map, sweep_params(threads));
    exports.push_back(export_text(registry()));
  }
  EXPECT_GT(registry().counter("sweep.tasks.total"), 0);
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
}

// ---- strict bench argv parsing (the atof/atoi replacement) ----

TEST(ObsArgparse, ParseDoubleRejectsWhatAtofSwallowed) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double(" 1.5").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_DOUBLE_EQ(parse_double("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_double("-0.25").value(), -0.25);
}

TEST(ObsArgparse, ParseIntegersRejectTrailingJunk) {
  EXPECT_FALSE(parse_ll("xyz").has_value());
  EXPECT_FALSE(parse_ll("3.5").has_value());
  EXPECT_FALSE(parse_ll("12abc").has_value());
  EXPECT_EQ(parse_ll("-3").value(), -3);
  EXPECT_EQ(parse_ll("10000").value(), 10000);
  EXPECT_FALSE(parse_ull("-1").has_value());
  EXPECT_FALSE(parse_ull("5eed").has_value());
  EXPECT_EQ(parse_ull("0x5eed").value(), 0x5eedULL);  // seeds stay hex
  EXPECT_EQ(parse_ull("42").value(), 42ULL);
}

TEST(ObsArgparse, SplitKvRequiresAKey) {
  EXPECT_FALSE(split_kv("novalue").has_value());
  EXPECT_FALSE(split_kv("=3").has_value());
  const auto kv = split_kv("amp_dead=0.1").value();
  EXPECT_EQ(kv.first, "amp_dead");
  EXPECT_EQ(kv.second, "0.1");
  EXPECT_EQ(split_kv("k=").value().second, "");
}

TEST(ObsArgparse, MetricsFlagForms) {
  MetricsFlag flag;
  EXPECT_FALSE(parse_metrics_flag("--metricsfoo", flag));
  EXPECT_FALSE(parse_metrics_flag("metrics", flag));
  EXPECT_FALSE(flag.enabled);
  EXPECT_TRUE(parse_metrics_flag("--metrics", flag));
  EXPECT_TRUE(flag.enabled);
  EXPECT_TRUE(flag.path.empty());
  EXPECT_TRUE(parse_metrics_flag("--metrics=/tmp/m.txt", flag));
  EXPECT_EQ(flag.path, "/tmp/m.txt");
  EXPECT_TRUE(parse_metrics_flag("--metrics=", flag));
  EXPECT_TRUE(flag.path.empty());  // empty path means stdout
}

// ---- degraded-time accounting regression ----

control::TrafficMatrix wobble_demand(const fibermap::FiberMap& map, double t) {
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const long long base = 40 + 20 * static_cast<long long>(i);
    const long long wobble =
        40 * ((tick / 25 + static_cast<long long>(i)) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

/// Seeded faulty closed-loop run with a duct failure and repair injected
/// from the demand callback (which the loop calls once per sample).
control::ClosedLoopResult faulty_loop_run(std::uint64_t seed) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, sweep_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);

  control::FaultConfig faults;
  faults.rates.oss_connect_fail = 0.15;
  faults.rates.oss_disconnect_fail = 0.05;
  faults.rates.tx_tune_fail = 0.05;
  faults.rates.amp_dead = 0.03;
  faults.rates.timeout_fraction = 0.5;
  // A lean retry budget so some applies genuinely fail (the default budget
  // masks nearly every transient): the degraded-time window must both open
  // (failed applies) and close (successful ones) during the run.
  faults.retry.max_command_attempts = 2;
  faults.retry.max_circuit_attempts = 2;
  faults.seed = seed;
  control::IrisController controller(map, net, plan,
                                     control::DeviceLatencies{}, faults);

  control::PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  control::ReconfigPolicy policy(pp);

  control::ClosedLoopParams lp;
  lp.duration_s = 240.0;
  graph::EdgeId victim = graph::kInvalidEdge;
  return control::run_closed_loop(
      controller, policy,
      [&](double t) {
        // Fail a duct that is actually carrying circuits, so the loop's
        // escape hatch fires (an arbitrary victim may be idle).
        if (t == 80.0 && !controller.active_circuits().empty()) {
          victim = controller.active_circuits()[0].route.edges.front();
          controller.fail_duct(victim);
        }
        if (t == 160.0 && victim != graph::kInvalidEdge) {
          controller.restore_duct(victim);
          victim = graph::kInvalidEdge;
        }
        return wobble_demand(map, t);
      },
      lp);
}

TEST_F(ObsRegistry, DegradedTimeIsCountedOncePerIntervalAndMirrorsTheGauge) {
  const double gauge_before = registry().gauge("loop.time_degraded_s");
  const auto result = faulty_loop_run(0xdeadbeef);

  // With per-command faults and a mid-run duct failure some applies must
  // fail, so degraded time is nonzero -- but each interval is counted
  // exactly once, so it can never exceed the run duration (the bug fixed
  // here double-counted intervals spanning escape-hatch reroutes). The
  // exact value is pinned: virtual time advances in whole seconds, so the
  // sum of window lengths is an exact double.
  EXPECT_GT(result.time_degraded_s, 0.0);
  EXPECT_LE(result.time_degraded_s, 240.0);
  EXPECT_DOUBLE_EQ(result.time_degraded_s, 76.0);
  EXPECT_GT(result.escape_hatch_replans, 0);  // the duct failure fired it
  EXPECT_GT(result.rolled_back, 0);           // windows opened...
  EXPECT_GT(result.reconfigurations, 0);      // ...and closed

  // The gauge mirrors the result field increment for increment.
  EXPECT_DOUBLE_EQ(registry().gauge("loop.time_degraded_s") - gauge_before,
                   result.time_degraded_s);

  // Seeded determinism: the accounting is replayable run after run.
  const auto again = faulty_loop_run(0xdeadbeef);
  EXPECT_EQ(result.time_degraded_s, again.time_degraded_s);
  EXPECT_EQ(result.samples, again.samples);
  EXPECT_EQ(result.reconfigurations, again.reconfigurations);
  EXPECT_EQ(result.rejected, again.rejected);
  EXPECT_EQ(result.escape_hatch_replans, again.escape_hatch_replans);
}

TEST_F(ObsRegistry, ClosedLoopResultIsAViewOverTheRegistry) {
  const auto result = faulty_loop_run(0x5eed);
  auto& reg = registry();
  // The loop mirrors every tally increment into its loop.* series, so with
  // a fresh registry the absolute counters equal the result fields.
  EXPECT_EQ(reg.counter("loop.samples"), result.samples);
  EXPECT_EQ(reg.counter("loop.reconfigurations"), result.reconfigurations);
  EXPECT_EQ(reg.counter("loop.rejected"), result.rejected);
  EXPECT_EQ(reg.counter("loop.escape_hatch_replans"),
            result.escape_hatch_replans);
  EXPECT_EQ(reg.counter("loop.oss_operations"), result.oss_operations);
  EXPECT_EQ(reg.counter("loop.command_retries"), result.command_retries);
  EXPECT_EQ(reg.counter("loop.rolled_back"), result.rolled_back);
  EXPECT_EQ(reg.counter("loop.degraded_applies"), result.degraded_applies);
  EXPECT_GT(reg.counter("controller.commands.total"), 0);
  EXPECT_GT(reg.counter("span.loop.tick.count"), 0);
}

}  // namespace
}  // namespace iris::obs

// What-if queries over pinned region snapshots.
//
// A query is a pure function of (snapshot, query): it reads only the
// immutable state reachable from the RegionSnapshot and scratch state it
// builds itself, so any number of queries run concurrently against the same
// snapshot -- or different snapshots -- with deterministic results. The one
// synchronization point is the first drill on a plan, which builds the
// plan's warm planner while racing drills wait. Planner work inside a query
// always runs with threads = 1: the thread pool above (WhatIfEngine) is the
// parallelism.
//
// Taxonomy (the fleet's service surface, ROADMAP "what-if query engine"):
//  * kFailureDrill -- fork the plan's warm IncrementalPlanner (built once
//    per plan, see WarmPlannerCell), cut the duct on the fork; report the
//    reroute diff, disconnected pairs and fiber-cost delta.
//  * kGrowth -- site a new DC (core/expansion): siting-SLA reach check plus
//    the full expansion replan and its fiber delta.
//  * kSloProbe -- availability-SLO provisioning (core/slo) with cost
//    co-optimization against a deterministic correlated failure model.
#pragma once

#include <cstdint>
#include <string>

#include "core/expansion.hpp"
#include "fleet/snapshot.hpp"

namespace iris::fleet {

enum class QueryKind {
  kFailureDrill,
  kGrowth,
  kSloProbe,
};

[[nodiscard]] const char* query_kind_name(QueryKind kind);

/// How the engine answered (graceful-degradation taxonomy, ISSUE 9). kOk
/// and kStale carry a real computed answer; the rest are structured
/// rejections with `feasible = false` and no query work done.
enum class QueryStatus {
  kOk,                 ///< fresh snapshot, healthy region
  kStale,              ///< served from the last-good snapshot of a crashed/
                       ///< recovering region; see staleness_ticks
  kRegionQuarantined,  ///< region's crash budget exhausted: rejected
  kDeadlineExpired,    ///< the query's deadline budget elapsed before it ran
  kNoSnapshot,         ///< nothing published (and no shard to resolve one)
};

[[nodiscard]] const char* query_status_name(QueryStatus status);

struct WhatIfQuery {
  QueryKind kind = QueryKind::kFailureDrill;

  /// Deadline budget in milliseconds, measured from the batch's start; a
  /// query whose turn comes later than this is rejected kDeadlineExpired
  /// without running. <= 0 means no deadline.
  double deadline_ms = 0.0;

  // kFailureDrill: the duct to cut (must be a valid edge of the region).
  graph::EdgeId duct = 0;

  // kGrowth: the candidate DC.
  core::ExpansionRequest growth;

  // kSloProbe.
  double availability_slo = 0.999;
  int slo_max_tolerance = 2;
  long long demand_waves = 1;
  double max_oversubscription = 1.0;
};

struct WhatIfResult {
  QueryKind kind = QueryKind::kFailureDrill;
  int region = 0;
  long long tick = -1;
  std::uint64_t version = 0;
  bool feasible = false;
  QueryStatus status = QueryStatus::kOk;
  /// Ticks the answering snapshot lagged the region's head at query time
  /// (0 when served fresh). Meaningful for health-aware jobs (Job::shard).
  long long staleness_ticks = 0;

  // kFailureDrill.
  int capacity_changes = 0;
  int path_changes = 0;
  int pairs_disconnected = 0;   ///< pairs the cut severed on planned ducts
  long long fibers_delta = 0;   ///< replanned - snapshot base fibers
  double replan_ms = 0.0;       ///< wall time; NOT part of the fingerprint

  // kGrowth.
  double reach_km = 0.0;        ///< worst fiber distance to an existing DC
  long long fibers_added = 0;

  // kSloProbe.
  bool slo_met = false;
  int tolerance = 0;
  double worst_availability = 0.0;
  long long cost_fibers = 0;
  double oversubscription = 1.0;

  /// Canonical one-line rendering of every deterministic field (wall-time
  /// fields excluded), identical across runs and thread counts.
  [[nodiscard]] std::string canonical() const;
  /// fnv1a64(canonical()) -- the bit-identity handle for query results.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Executes one query against a pinned snapshot. Read-only on the snapshot;
/// obs series land in whatever registry is bound on the calling thread.
WhatIfResult run_query(const RegionSnapshot& snap, const WhatIfQuery& query);

}  // namespace iris::fleet

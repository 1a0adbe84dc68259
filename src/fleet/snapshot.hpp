// Copy-on-write region snapshots (ROADMAP: region-fleet scale-out).
//
// Every closed-loop tick publishes an immutable picture of one region's
// world -- fiber map, provisioned plan, amplifier/cut-through placement and
// the controller's full books. Readers pin the latest snapshot with one
// atomic pointer load and then work lock-free for as long as the store is
// alive; the hot loop never waits on them. The map/plan/placement layers
// are immutable for a region's whole lifetime, so consecutive snapshots
// share them, and the controller books are re-copied only when
// IrisController::state_version() moved since the last publish -- a quiet
// tick costs one small allocation, not a checkpoint rebuild.
//
// Lifetime contract: the store retains every snapshot it ever published
// (the arena below), so a pinned `const RegionSnapshot*` stays valid until
// the SnapshotStore is destroyed -- not merely until the next publish.
// That is what lets the publish path be a plain atomic pointer store with
// no reference counting handshake against concurrent readers (the
// std::atomic<shared_ptr> alternative serializes readers and writers on an
// internal lock). Snapshots are small -- a handful of shared_ptrs -- and
// the heavy payloads behind them are shared, so retention is cheap.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "control/journal.hpp"
#include "core/amp_cut.hpp"
#include "core/provision.hpp"
#include "core/replan.hpp"
#include "fibermap/fibermap.hpp"
#include "obs/metrics.hpp"

namespace iris::fleet {

struct RegionSnapshot;

/// The warm failure-drill planner of one region plan (map + provisioned
/// network): an IncrementalPlanner base every drill forks instead of
/// re-running the initial k-failure sweep (core/replan.hpp). The shard makes
/// one cell per plan and every snapshot it publishes shares it. Nothing is
/// built until the first drill asks; from then on the base lives as long as
/// the last snapshot or fork holding it -- one warm cache, about 0.65 MB
/// on an 8-DC / 16-hut k=2 region, however many drills ran.
class WarmPlannerCell {
 public:
  /// The warm base for the plan `snap` pins, built on the first call with
  /// the drill's serial planner parameters. Safe from any thread: first
  /// callers racing each other wait for one build. A build that throws
  /// leaves the cell unbuilt, so the next call tries again.
  [[nodiscard]] std::shared_ptr<const core::IncrementalPlanner> base(
      const RegionSnapshot& snap) const;

  /// Builds started so far: 1 once any drill ran, more only after a throw.
  [[nodiscard]] long long builds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return builds_;
  }

 private:
  // A drill holds mu_ for one shared_ptr copy -- or, on the first drill,
  // for the build, which is what makes racing first drills wait for it.
  mutable std::mutex mu_;
  mutable long long builds_ = 0;
  mutable std::shared_ptr<const core::IncrementalPlanner> base_;
};

/// One immutable picture of a region at a loop tick. Everything reachable
/// from here is const: what-if queries share snapshots freely across
/// threads with no synchronization beyond the publishing store's lifetime.
struct RegionSnapshot {
  int region = 0;
  long long tick = -1;   ///< closed-loop sample index (0-based)
  double t_s = 0.0;      ///< loop time of the sample
  std::uint64_t version = 0;  ///< controller state_version at publish

  std::shared_ptr<const fibermap::FiberMap> map;
  std::shared_ptr<const core::ProvisionedNetwork> network;
  std::shared_ptr<const core::AmpCutPlan> amp_cut;
  /// Full controller books (journal-checkpoint shape) as of this tick. The
  /// loop publishes only after every mutation of the tick has committed, so
  /// this never exposes a half-applied transaction.
  std::shared_ptr<const control::ControllerCheckpoint> books;
  /// The plan's shared warm drill planner (see WarmPlannerCell); null on
  /// snapshots assembled outside a shard, whose drills plan from scratch.
  std::shared_ptr<const WarmPlannerCell> warm_planner;
};

/// Single-writer/many-reader publication point for one region's snapshots.
/// The shard's loop thread is the only writer; readers pin the latest
/// snapshot with one lock-free atomic load.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Writer-thread only. The snapshot joins the arena (pinning it for the
  /// store's lifetime) and becomes the published current().
  void publish(std::unique_ptr<const RegionSnapshot> snap) {
    published_tick_.store(snap->tick, std::memory_order_release);
    arena_.push_back(std::move(snap));
    current_.store(arena_.back().get(), std::memory_order_release);
    published_.fetch_add(1, std::memory_order_release);
    update_age_gauge();
  }

  /// Writer-thread only: the shard declares it is processing sample `head`
  /// (before any publish for it). Drives the fleet.snapshots.age_ticks
  /// staleness gauge: published-head tick vs shard tick. The gauge is only
  /// touched when staleness moves through a nonzero value, so a crash-free
  /// run (staleness identically 0) exports byte-identical series.
  void begin_tick(long long head) {
    head_.store(head, std::memory_order_release);
    update_age_gauge();
  }

  /// Pins the latest snapshot; null until the first publish. Valid until
  /// the store is destroyed. Safe from any thread.
  [[nodiscard]] const RegionSnapshot* current() const {
    return current_.load(std::memory_order_acquire);
  }

  [[nodiscard]] long long published() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Latest sample index the shard has started (-1 before the first tick).
  /// Safe from any thread; per-query staleness is head() - snapshot->tick.
  [[nodiscard]] long long head() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Completed ticks not yet published (0 on the healthy cadence, where the
  /// previous sample's snapshot is always out before the next begins).
  [[nodiscard]] long long staleness_ticks() const {
    const long long h = head();
    if (h < 0) return 0;
    const long long lag = h - 1 - published_tick_.load(std::memory_order_acquire);
    return lag > 0 ? lag : 0;
  }

 private:
  void update_age_gauge() {
    const long long stale = staleness_ticks();
    if (stale != last_stale_) {
      if (stale > 0 || last_stale_ > 0) {
        obs::registry().set_gauge("fleet.snapshots.age_ticks",
                                  static_cast<double>(stale));
      }
      last_stale_ = stale;
    }
  }

  // Only the writer touches the deque (readers go through current_), and
  // deque growth never moves existing elements.
  std::deque<std::unique_ptr<const RegionSnapshot>> arena_;
  std::atomic<const RegionSnapshot*> current_{nullptr};
  std::atomic<long long> published_{0};
  std::atomic<long long> head_{-1};
  std::atomic<long long> published_tick_{-1};
  long long last_stale_ = 0;  ///< writer-thread only (gauge dedup)
};

}  // namespace iris::fleet

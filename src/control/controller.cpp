#include "control/controller.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/path_physics.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::control {

using graph::EdgeId;
using graph::NodeId;

namespace {

// Free-resource pools hold their entries sorted descending, smallest index
// at the back: take_from_pool pops the `count` smallest in O(count) and
// return_to_pool re-merges in O(n + k log k), instead of the former
// sort-per-allocation (O(n log n) on every hop of every establish()).

/// Pops the `count` smallest entries (ascending) from a descending-sorted
/// free list; throws if short.
std::vector<int> take_from_pool(std::vector<int>& pool, int count,
                                const char* what) {
  if (static_cast<int>(pool.size()) < count) {
    throw std::runtime_error(std::string("IrisController: ") + what +
                             " pool exhausted");
  }
  std::vector<int> taken(pool.rbegin(), pool.rbegin() + count);
  pool.erase(pool.end() - count, pool.end());
  return taken;
}

void return_to_pool(std::vector<int>& pool, const std::vector<int>& items) {
  if (items.empty()) return;
  std::vector<int> released(items.rbegin(), items.rend());
  std::sort(released.begin(), released.end(), std::greater<>());
  pool.insert(pool.end(), released.begin(), released.end());
  std::inplace_merge(pool.begin(), pool.end() - released.size(), pool.end(),
                     std::greater<>());
}

/// Fills a pool with {0..count-1}, respecting the descending invariant.
void init_pool(std::vector<int>& pool, int count) {
  pool.resize(static_cast<std::size_t>(std::max(0, count)));
  for (int k = 0; k < count; ++k) pool[k] = count - 1 - k;
}

/// Exact-partition check: free + quarantined + allocated must tile
/// {0..total-1} with no duplicates and no strays.
bool tiles_exactly(int total, const std::vector<int>& free_items,
                   const std::vector<int>& quarantined,
                   const std::vector<int>& allocated) {
  std::vector<char> seen(static_cast<std::size_t>(std::max(0, total)), 0);
  const auto mark = [&](const std::vector<int>& items) {
    for (int idx : items) {
      if (idx < 0 || idx >= total || seen[static_cast<std::size_t>(idx)]) {
        return false;
      }
      seen[static_cast<std::size_t>(idx)] = 1;
    }
    return true;
  };
  if (!mark(free_items) || !mark(quarantined) || !mark(allocated)) return false;
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
}

/// Folds one finished (or refused) reconfiguration's accounting into the
/// default registry. Called at the transaction exits rather than per site so
/// the registry and the report can never drift apart.
void fold_apply_metrics(const ReconfigReport& r, std::string_view outcome) {
  auto& reg = obs::registry();
  reg.add(obs::key("controller.applies.total", {{"outcome", outcome}}));
  reg.add("controller.oss.operations", r.oss_operations);
  reg.add("controller.command.retries", r.command_retries);
  reg.add("controller.commands.timed_out", r.commands_timed_out);
  reg.add("controller.circuit.retries", r.circuit_retries);
  reg.add("controller.quarantines.total", r.resources_quarantined);
  reg.add("controller.transceivers.retuned", r.transceivers_retuned);
  reg.add("controller.wavelengths.untuned", r.wavelengths_untuned);
  reg.add_gauge("controller.fault_delay_ms.total", r.fault_delay_ms);
}

/// Adds the device commands a transaction step tallied in `report` to the
/// registry when the step ends, however it ends (crash unwinds included):
/// one add per series instead of one per command.
class CommandCountScope {
 public:
  explicit CommandCountScope(const ReconfigReport& report)
      : report_(report),
        commands_(report.commands),
        attempts_(report.command_attempts) {}
  CommandCountScope(const CommandCountScope&) = delete;
  CommandCountScope& operator=(const CommandCountScope&) = delete;
  ~CommandCountScope() {
    if (report_.commands == commands_) return;  // no series for idle steps
    auto& reg = obs::registry();
    reg.add("controller.commands.total", report_.commands - commands_);
    reg.add("controller.commands.attempts",
            report_.command_attempts - attempts_);
  }

 private:
  const ReconfigReport& report_;
  long long commands_;
  long long attempts_;
};

std::string_view outcome_name(ApplyOutcome o) {
  switch (o) {
    case ApplyOutcome::kCommitted:
      return "committed";
    case ApplyOutcome::kRolledBack:
      return "rolled_back";
    case ApplyOutcome::kDegraded:
      return "degraded";
  }
  return "unknown";
}

}  // namespace

std::string AuditReport::summary() const {
  if (clean()) return "device audit clean";
  std::ostringstream os;
  os << "device audit: " << total_mismatches() << " mismatch(es); first: "
     << first->detail;
  return os.str();
}

IrisController::IrisController(const fibermap::FiberMap& map,
                               const core::ProvisionedNetwork& network,
                               const core::AmpCutPlan& amp_cut,
                               DeviceLatencies latencies, FaultConfig faults)
    : IrisController(
          map, network, amp_cut,
          std::make_unique<DeviceLayer>(map, network, amp_cut, faults),
          latencies) {}

IrisController::IrisController(const fibermap::FiberMap& map,
                               const core::ProvisionedNetwork& network,
                               const core::AmpCutPlan& amp_cut,
                               std::unique_ptr<DeviceLayer> owned,
                               DeviceLatencies latencies)
    : IrisController(map, network, amp_cut, *owned, latencies) {
  owned_devices_ = std::move(owned);
}

IrisController::IrisController(const fibermap::FiberMap& map,
                               const core::ProvisionedNetwork& network,
                               const core::AmpCutPlan& amp_cut,
                               DeviceLayer& devices, DeviceLatencies latencies)
    : map_(map),
      network_(network),
      amp_cut_(amp_cut),
      latencies_(latencies),
      devices_(&devices) {
  const graph::Graph& g = map.graph();
  fibers_provisioned_ = leased_fibers_per_duct(map, network, amp_cut);
  duct_failed_.assign(g.edge_count(), false);
  free_fibers_.resize(g.edge_count());
  quarantined_fibers_.resize(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    init_pool(free_fibers_[e], fibers_provisioned_[e]);
  }
  free_amps_.resize(g.node_count());
  quarantined_amps_.resize(g.node_count());
  for (NodeId n = 0; n < g.node_count(); ++n) {
    init_pool(free_amps_[n], amp_cut.amps_at_node[n]);
  }
  for (NodeId dc : map.dcs()) {
    init_pool(free_add_drop_[dc], devices_->port_map(dc).add_drop_pairs());
  }
}

// ---- journal plumbing ------------------------------------------------------

void IrisController::jrec(JournalEntry entry) {
  if (journal_ == nullptr) return;
  journal_->append(std::move(entry));
  obs::registry().add("controller.journal.records");
}

IrisController::Allocation IrisController::from_record(
    const Circuit& c, const AllocationRecord& rec) const {
  // planned_connects indexes every hop and fiber: a journaled shape that
  // does not fit the circuit is corruption, never something to program.
  const auto fits = [&](const std::vector<int>& v) {
    return std::cmp_equal(v.size(), c.fiber_pairs);
  };
  if (c.route.edges.empty() ||
      c.route.nodes.size() != c.route.edges.size() + 1 ||
      rec.fibers_per_hop.size() != c.route.edges.size() ||
      !std::all_of(rec.fibers_per_hop.begin(), rec.fibers_per_hop.end(),
                   fits) ||
      !fits(rec.add_drop_a) || !fits(rec.add_drop_b) ||
      (rec.amp_site && !fits(rec.amp_units))) {
    throw std::runtime_error(
        "recover: corrupt journaled allocation: shape does not fit its "
        "circuit");
  }
  Allocation a{rec, {}};
  a.connects = planned_connects(c, a);
  return a;
}

void IrisController::attach_journal(IntentJournal* journal) {
  journal_ = journal;
  if (journal_ != nullptr) jrec(CheckpointRecord{snapshot()});
}

void IrisController::maybe_checkpoint() {
  if (journal_ != nullptr && checkpoint_every_ > 0 &&
      applies_completed_ % static_cast<std::uint64_t>(checkpoint_every_) == 0) {
    jrec(CheckpointRecord{snapshot()});
  }
}

// ---- circuit computation and device commands -------------------------------

long long IrisController::dc_capacity_wavelengths(NodeId dc) const {
  return map_.dc_capacity_wavelengths(
      dc, network_.params.channels.wavelengths_per_fiber);
}

long long IrisController::usable_tx_count(NodeId dc) const {
  const auto it = quarantined_txs_.find(dc);
  const long long quarantined =
      it == quarantined_txs_.end() ? 0
                                   : static_cast<long long>(it->second.size());
  return dc_capacity_wavelengths(dc) - quarantined;
}

std::vector<Circuit> IrisController::circuits_for(const TrafficMatrix& tm) const {
  const int lambda = network_.params.channels.wavelengths_per_fiber;
  graph::EdgeMask mask(map_.graph().edge_count());
  for (EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    if (duct_failed_[e] ||
        map_.graph().edge(e).length_km > network_.params.spec.max_span_km) {
      mask.fail(e);
    }
  }

  std::vector<Circuit> out;
  for (const auto& [pair, waves] : tm) {
    if (waves <= 0) continue;
    auto path = graph::shortest_path(map_.graph(), pair.a, pair.b, mask);
    if (!path) {
      throw std::runtime_error("circuits_for: DC pair disconnected");
    }
    Circuit c;
    c.pair = pair;
    c.route = std::move(*path);
    c.fiber_pairs = static_cast<int>((waves + lambda - 1) / lambda);
    c.wavelengths = waves;
    out.push_back(std::move(c));
  }
  return out;
}

CommandResult IrisController::run_with_retry(
    ReconfigReport& report, const std::function<CommandResult()>& attempt) {
  // Tallied before the attempt, so a crash inside it still counts; the
  // registry sees the tallies once per transaction (CommandCountScope).
  ++report.commands;
  ++report.command_attempts;
  const FaultInjector& faults = devices_->fault_injector();
  CommandResult r = attempt();
  if (r.ok() || !faults.enabled()) return r;
  const RetryPolicy& rp = faults.retry();
  double backoff = rp.backoff_base_ms;
  for (int a = 1; a < rp.max_command_attempts; ++a) {
    if (r.status == CommandStatus::kTimeout) {
      ++report.commands_timed_out;
      report.fault_delay_ms += rp.command_timeout_ms;
    }
    ++report.command_retries;
    report.fault_delay_ms += backoff;
    obs::registry().add_gauge("controller.commands.backoff_ms", backoff);
    backoff *= rp.backoff_factor;
    ++report.command_attempts;
    r = attempt();
    if (r.ok()) return r;
  }
  if (r.status == CommandStatus::kTimeout) {
    ++report.commands_timed_out;
    report.fault_delay_ms += rp.command_timeout_ms;
  }
  return r;
}

IrisController::ResKey IrisController::res_for_port(NodeId site,
                                                    int port) const {
  const auto o = devices_->port_map(site).owner(port);
  using Kind = SitePortMap::PortOwner::Kind;
  switch (o.kind) {
    case Kind::kDuctIn:
    case Kind::kDuctOut:
      return ResKey{0, o.duct, o.index};
    case Kind::kAdd:
    case Kind::kDrop:
      return ResKey{1, site, o.index};
    case Kind::kAmpFeed:
    case Kind::kAmpReturn:
      return ResKey{2, site, o.index};
  }
  throw std::logic_error("res_for_port: unmapped port owner");
}

std::optional<std::vector<int>> IrisController::take_healthy_amp_units(
    NodeId site, int count, ReconfigReport& report) {
  FaultInjector& faults = devices_->fault_injector();
  auto& pool = free_amps_[static_cast<std::size_t>(site)];
  std::vector<int> taken;
  taken.reserve(static_cast<std::size_t>(count));
  while (static_cast<int>(taken.size()) < count && !pool.empty()) {
    const int unit = pool.back();  // smallest free index
    pool.pop_back();
    const CommandResult check = faults.amp_power_check(site, unit);
    if (faults.enabled()) {
      record_cmd(AmpPowerCheckCmd{site, unit, check.ok()});
    }
    if (check.ok()) {
      taken.push_back(unit);
    } else {
      quarantined_amps_[static_cast<std::size_t>(site)].push_back(unit);
      jrec(QuarantineRecord{2, site, unit});
      ++report.resources_quarantined;
    }
  }
  if (static_cast<int>(taken.size()) < count) {
    return_to_pool(pool, taken);
    return std::nullopt;
  }
  return taken;
}

std::vector<IrisController::Connect> IrisController::planned_connects(
    const Circuit& c, const Allocation& alloc) const {
  // Route orientation: nodes[0] is one terminal; "forward" is the direction
  // away from it.
  std::vector<Connect> plan;
  const auto& nodes = c.route.nodes;
  const auto& edges = c.route.edges;
  const auto add = [&](NodeId site, int in, int out) {
    plan.push_back(Connect{site, in, out});
  };
  for (int f = 0; f < c.fiber_pairs; ++f) {
    // Terminal at nodes.front(): mux add -> first duct out; first duct in ->
    // demux drop. The terminal could be pair.a or pair.b depending on how
    // the path was extracted.
    const bool front_is_a = nodes.front() == c.pair.a;
    const auto& front_pairs = front_is_a ? alloc.add_drop_a : alloc.add_drop_b;
    const auto& back_pairs = front_is_a ? alloc.add_drop_b : alloc.add_drop_a;

    const NodeId src = nodes.front();
    const SitePortMap& src_map = devices_->port_map(src);
    add(src, src_map.add_port(front_pairs[f]),
        src_map.duct_out_port(edges.front(), alloc.fibers_per_hop.front()[f]));
    add(src,
        src_map.duct_in_port(edges.front(), alloc.fibers_per_hop.front()[f]),
        src_map.drop_port(front_pairs[f]));

    // Intermediate sites: pass-through, or loopback through an amplifier.
    for (std::size_t h = 1; h + 1 < nodes.size(); ++h) {
      const NodeId site = nodes[h];
      const SitePortMap& site_map = devices_->port_map(site);
      const int in_fiber = alloc.fibers_per_hop[h - 1][f];
      const int out_fiber = alloc.fibers_per_hop[h][f];
      const int fwd_in = site_map.duct_in_port(edges[h - 1], in_fiber);
      const int fwd_out = site_map.duct_out_port(edges[h], out_fiber);
      if (alloc.amp_site && *alloc.amp_site == site) {
        // Loopback: OSS -> amplifier -> OSS -> next duct. Each "amplifier"
        // is a dual-stage unit; its return-direction stage is cabled
        // in-line, so only the forward strand crosses the OSS twice.
        const int unit = alloc.amp_units[f];
        add(site, fwd_in, site_map.amp_feed_port(unit));
        add(site, site_map.amp_return_port(unit), fwd_out);
      } else {
        add(site, fwd_in, fwd_out);
      }
      // Reverse strand: next duct in -> previous duct out.
      add(site, site_map.duct_in_port(edges[h], out_fiber),
          site_map.duct_out_port(edges[h - 1], in_fiber));
    }

    const NodeId dst = nodes.back();
    const SitePortMap& dst_map = devices_->port_map(dst);
    add(dst, dst_map.add_port(back_pairs[f]),
        dst_map.duct_out_port(edges.back(), alloc.fibers_per_hop.back()[f]));
    add(dst,
        dst_map.duct_in_port(edges.back(), alloc.fibers_per_hop.back()[f]),
        dst_map.drop_port(back_pairs[f]));
  }
  return plan;
}

void IrisController::establish(const Circuit& c, Allocation& alloc,
                               ReconfigReport& report) {
  const obs::Span span("establish");
  const graph::Graph& g = map_.graph();
  const auto& spec = network_.params.spec;

  // Fibers on every hop.
  alloc.fibers_per_hop.reserve(c.route.edges.size());
  for (EdgeId e : c.route.edges) {
    alloc.fibers_per_hop.push_back(
        take_from_pool(free_fibers_[e], c.fiber_pairs, "duct fiber"));
  }

  // Does this route need an in-line amplifier? Pick the first feasible site
  // that can supply enough healthy amplifier units (dead units found by the
  // power check are quarantined on the spot).
  const auto bypassed = amp_cut_.bypassed_sites(c.route);
  if (!core::path_feasible(g, c.route, std::nullopt, bypassed, spec)) {
    for (int m : core::feasible_amp_indices(g, c.route, bypassed, spec)) {
      const NodeId site = c.route.nodes[m];
      if (static_cast<int>(free_amps_[site].size()) >= c.fiber_pairs) {
        if (auto units = take_healthy_amp_units(site, c.fiber_pairs, report)) {
          alloc.amp_site = site;
          alloc.amp_units = std::move(*units);
          break;
        }
      }
    }
    if (!alloc.amp_site) {
      throw std::runtime_error(
          "IrisController: no amplifier site available for long route");
    }
  }

  // Add/drop pairs at both terminals.
  alloc.add_drop_a = take_from_pool(free_add_drop_.at(c.pair.a), c.fiber_pairs,
                                    "add/drop");
  alloc.add_drop_b = take_from_pool(free_add_drop_.at(c.pair.b), c.fiber_pairs,
                                    "add/drop");

  // Intent goes durable here: the draws above are pure bookkeeping a
  // successor re-derives from the journal, the cross-connects below are not.
  jrec(EstablishBeginRecord{c, alloc, current_slot_});

  for (const Connect& pc : planned_connects(c, alloc)) {
    const CommandResult r = run_with_retry(report, [&] {
      return devices_->oss(pc.site).connect(pc.in_port, pc.out_port);
    });
    if (!r.ok()) {
      throw DeviceCommandError{pc.site, pc.in_port, pc.out_port, r.detail};
    }
    alloc.connects.push_back(pc);
    record_cmd(OssConnectCmd{pc.site, pc.in_port, pc.out_port});
    ++report.oss_operations;
  }

  jrec(EstablishDoneRecord{c});
}

void IrisController::unwind_allocation(const Circuit& c, Allocation& alloc,
                                       ReconfigReport& report,
                                       std::set<ResKey> culprits) {
  const obs::Span span("teardown");
  jrec(TeardownBeginRecord{c, current_slot_});
  // Tear down the programmed cross-connects, newest first. A disconnect a
  // stuck mirror refuses after all retries leaves a zombie cross-connect:
  // it stays recorded (audits expect it on the device) and the resources
  // whose ports it pins are quarantined so they are never re-issued. Only a
  // crash leaves an allocation whose connects the hardware lacks or already
  // holds as zombies; crash-free, every connect is live.
  for (auto it = alloc.connects.rbegin(); it != alloc.connects.rend(); ++it) {
    if (std::find(zombie_connects_.begin(), zombie_connects_.end(), *it) !=
        zombie_connects_.end()) {
      culprits.insert(res_for_port(it->site, it->in_port));
      culprits.insert(res_for_port(it->site, it->out_port));
      continue;
    }
    if (devices_->oss(it->site).output_for(it->in_port) != it->out_port) {
      continue;
    }
    const CommandResult r = run_with_retry(report, [&] {
      return devices_->oss(it->site).disconnect(it->in_port);
    });
    if (r.ok()) {
      record_cmd(OssDisconnectCmd{it->site, it->in_port});
      ++report.oss_operations;
    } else {
      zombie_connects_.push_back(*it);
      obs::registry().add("controller.zombies.total");
      jrec(ZombieRecord{ZombieConnect{it->site, it->in_port, it->out_port}});
      culprits.insert(res_for_port(it->site, it->in_port));
      culprits.insert(res_for_port(it->site, it->out_port));
    }
  }

  const auto partition = [&](std::vector<int>& pool,
                             std::vector<int>& quarantine,
                             const std::vector<int>& items, int kind, int a) {
    std::vector<int> to_free;
    to_free.reserve(items.size());
    for (int idx : items) {
      if (culprits.contains(ResKey{kind, a, idx})) {
        quarantine.push_back(idx);
        jrec(QuarantineRecord{kind, a, idx});
        ++report.resources_quarantined;
      } else {
        to_free.push_back(idx);
      }
    }
    return_to_pool(pool, to_free);
  };

  for (std::size_t h = 0; h < alloc.fibers_per_hop.size(); ++h) {
    const EdgeId e = c.route.edges[h];
    partition(free_fibers_[e], quarantined_fibers_[e], alloc.fibers_per_hop[h],
              0, e);
  }
  if (alloc.amp_site) {
    partition(free_amps_[*alloc.amp_site], quarantined_amps_[*alloc.amp_site],
              alloc.amp_units, 2, *alloc.amp_site);
  }
  partition(free_add_drop_.at(c.pair.a), quarantined_add_drop_[c.pair.a],
            alloc.add_drop_a, 1, c.pair.a);
  partition(free_add_drop_.at(c.pair.b), quarantined_add_drop_[c.pair.b],
            alloc.add_drop_b, 1, c.pair.b);
  alloc = Allocation{};
  jrec(TeardownDoneRecord{c});
}

std::optional<std::string> IrisController::try_establish(
    const Circuit& c, Allocation& alloc, ReconfigReport& report) {
  const int max_attempts =
      devices_->fault_injector().retry().max_circuit_attempts;
  std::string last_error;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) ++report.circuit_retries;
    Allocation partial;
    try {
      establish(c, partial, report);
      alloc = std::move(partial);
      return std::nullopt;
    } catch (const DeviceCommandError& e) {
      // A command failed even after retries: quarantine the resources whose
      // ports it touched and try again on fresh ones.
      last_error = e.detail;
      std::set<ResKey> culprits{res_for_port(e.site, e.in_port),
                                res_for_port(e.site, e.out_port)};
      unwind_allocation(c, partial, report, std::move(culprits));
    } catch (const std::runtime_error& e) {
      // Pool exhausted: retrying cannot help.
      unwind_allocation(c, partial, report, {});
      return std::string(e.what());
    }
  }
  return last_error;
}

void IrisController::retune_all_dcs(ReconfigReport& report) {
  const obs::Span span("retune");
  const int lambda = network_.params.channels.wavelengths_per_fiber;
  std::map<NodeId, long long> next_tx;
  for (auto& [dc, txs] : devices_->all_transceivers()) {
    for (auto& tx : txs) tx.disable();
    next_tx[dc] = 0;
  }
  expected_tuned_.clear();
  std::map<NodeId, std::set<int>> live;
  for (const Circuit& c : active_) {
    for (const NodeId dc : {c.pair.a, c.pair.b}) {
      auto& txs = devices_->transceivers(dc);
      long long& cursor = next_tx.at(dc);
      const auto quarantined_it = quarantined_txs_.find(dc);
      for (long long w = 0; w < c.wavelengths; ++w) {
        const int channel = static_cast<int>(w % lambda);
        bool tuned = false;
        while (cursor < static_cast<long long>(txs.size())) {
          const int idx = static_cast<int>(cursor++);
          if (quarantined_it != quarantined_txs_.end() &&
              quarantined_it->second.contains(idx)) {
            continue;
          }
          const CommandResult r = run_with_retry(
              report,
              [&] { return txs[static_cast<std::size_t>(idx)].tune(channel); });
          if (r.ok()) {
            record_cmd(TuneTransceiverCmd{dc, idx, channel});
            live[dc].insert(channel);
            ++report.transceivers_retuned;
            ++expected_tuned_[dc];
            tuned = true;
            break;
          }
          // Permanent tune failure: pull the transceiver from service and
          // carry the wavelength on the next one.
          quarantined_txs_[dc].insert(idx);
          jrec(QuarantineRecord{3, dc, idx});
          ++report.resources_quarantined;
        }
        if (!tuned) ++report.wavelengths_untuned;
      }
    }
  }
  if (!devices_->fault_injector().enabled() && report.wavelengths_untuned > 0) {
    throw std::logic_error("transceiver pool exhausted despite admission");
  }
  for (auto& [dc, emulator] : devices_->emulators()) {
    emulator.set_live_channels(live.contains(dc) ? live.at(dc)
                                                 : std::set<int>{});
    record_cmd(
        SetAseFillCmd{dc, static_cast<int>(emulator.live_channels().size())});
  }
}

void IrisController::record_cmd(const DeviceCommand& cmd) {
  trace_.push_back(cmd);
  if (plane_ != nullptr) plane_->on_command(cmd);
}

ReconfigReport IrisController::apply_traffic_matrix(const TrafficMatrix& tm,
                                                   ReconfigStrategy strategy) {
  const obs::Span apply_span("controller.apply");
  ++state_version_;  // pessimistic: even a rejected apply invalidates caches
  // Hose-capacity admission check (OC2) before touching any device. The
  // usable transceiver count shrinks as units are quarantined.
  std::map<NodeId, long long> per_dc;
  for (const auto& [pair, waves] : tm) {
    per_dc[pair.a] += waves;
    per_dc[pair.b] += waves;
  }
  for (const auto& [dc, waves] : per_dc) {
    if (waves > usable_tx_count(dc)) {
      throw std::runtime_error(
          "apply_traffic_matrix: demand exceeds hose capacity of " +
          map_.site(dc).name);
    }
  }

  ApplyPlan plan = plan_apply(circuits_for(tm));
  trace_.clear();

  // Admission pre-check for new circuits: fibers free after teardown (the
  // free pools already exclude quarantined fiber).
  const std::size_t n_ducts = free_fibers_.size();
  std::vector<long long> demand(n_ducts, 0), freed(n_ducts, 0);
  for (const Circuit& c : plan.set_up) {
    for (EdgeId e : c.route.edges) demand[e] += c.fiber_pairs;
  }
  for (const Circuit& c : plan.torn) {
    for (EdgeId e : c.route.edges) freed[e] += c.fiber_pairs;
  }
  bool spare_for_both = true;
  for (std::size_t e = 0; e < n_ducts; ++e) {
    const auto free_now = static_cast<long long>(free_fibers_[e].size());
    if (demand[e] > free_now + freed[e]) {
      throw std::runtime_error("apply_traffic_matrix: duct " +
                               std::to_string(e) + " fiber lease exhausted");
    }
    if (demand[e] > 0 && duct_failed_[e]) {
      throw std::runtime_error("apply_traffic_matrix: route crosses failed duct");
    }
    spare_for_both = spare_for_both && demand[e] <= free_now;
  }
  // Make-before-break is possible only if the spare pool can hold both
  // circuit generations on every duct at once; otherwise fall back to the
  // drain-first workflow.
  order_ops(plan,
            strategy == ReconfigStrategy::kMakeBeforeBreak && spare_for_both);

  ReconfigReport report;
  report.torn_down = plan.torn;
  report.set_up = plan.set_up;
  CommandPlane plane = command_plane_for(plan);
  report.schedule_slots = plane.slot_count();

  // The transaction opens. The effective strategy (after the fallback
  // decision) is recorded so a recovering successor rebuilds the same plan;
  // the slot count pins the schedule shape.
  plan.seq = applies_completed_;
  jrec(BeginApplyRecord{
      plan.seq,
      static_cast<int>(plan.make_first ? ReconfigStrategy::kMakeBeforeBreak
                                       : ReconfigStrategy::kBreakBeforeMake),
      plan.target, report.schedule_slots});
  ApplyCursor cur = begin_cursor(plan);
  execute(plan, cur, plane, report, nullptr);

  report.verified = audit_devices();
  // The virtual-clock advance makes the controller.apply span report the
  // command-plane makespan.
  obs::registry().advance_virtual(report.makespan_ms / 1000.0);
  maybe_checkpoint();
  fold_apply_metrics(report, outcome_name(report.outcome));
  return report;
}

IrisController::ApplyPlan IrisController::plan_apply(
    std::vector<Circuit> target) const {
  ApplyPlan plan;
  plan.target = std::move(target);
  for (const Circuit& c : active_) {
    const auto it = std::find(plan.target.begin(), plan.target.end(), c);
    if (it == plan.target.end()) {
      plan.torn.push_back(c);
    } else {
      plan.kept.push_back(c);
      plan.kept_waves.push_back(it->wavelengths);
    }
  }
  for (const Circuit& c : plan.target) {
    if (std::find(active_.begin(), active_.end(), c) == active_.end()) {
      plan.set_up.push_back(c);
    }
  }
  return plan;
}

void IrisController::order_ops(ApplyPlan& plan, bool make_first) const {
  std::vector<CommandOp> teardowns;
  for (std::size_t t = 0; t < plan.torn.size(); ++t) {
    const Circuit& c = plan.torn[t];
    const Allocation& alloc =
        allocations_[static_cast<std::size_t>(
            std::find(active_.begin(), active_.end(), c) - active_.begin())];
    CommandOp op;
    op.teardown = true;
    op.index = t;
    op.ducts = c.route.edges;
    op.dc_a = c.pair.a;
    op.dc_b = c.pair.b;
    if (alloc.amp_site) op.amp_sites.push_back(*alloc.amp_site);
    teardowns.push_back(std::move(op));
  }
  std::vector<CommandOp> establishes;
  for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
    const Circuit& c = plan.set_up[k];
    CommandOp op;
    op.index = k;
    op.ducts = c.route.edges;
    op.dc_a = c.pair.a;
    op.dc_b = c.pair.b;
    // The establish may draw an amplifier at any feasible site, so every
    // candidate belongs to its conflict footprint.
    const auto bypassed = amp_cut_.bypassed_sites(c.route);
    if (!core::path_feasible(map_.graph(), c.route, std::nullopt, bypassed,
                             network_.params.spec)) {
      for (int m : core::feasible_amp_indices(map_.graph(), c.route, bypassed,
                                              network_.params.spec)) {
        op.amp_sites.push_back(c.route.nodes[m]);
      }
    }
    establishes.push_back(std::move(op));
  }
  // Ops enter the plane in transaction order, and the plane keeps every
  // conflicting pair's relative order: pool draws, and therefore the final
  // state, match running the ops one at a time in this order.
  plan.make_first = make_first && !plan.set_up.empty();
  auto& first = plan.make_first ? establishes : teardowns;
  auto& second = plan.make_first ? teardowns : establishes;
  plan.ops = std::move(first);
  plan.ops.insert(plan.ops.end(), second.begin(), second.end());
}

IrisController::ApplyCursor IrisController::begin_cursor(
    const ApplyPlan& plan) {
  ApplyCursor cur;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (std::find(plan.torn.begin(), plan.torn.end(), active_[i]) !=
        plan.torn.end()) {
      cur.torn.emplace_back(std::move(allocations_[i]));
    } else {
      cur.kept.push_back(std::move(allocations_[i]));
    }
  }
  cur.made.resize(plan.set_up.size());
  cur.half.resize(plan.set_up.size());
  active_.clear();
  allocations_.clear();
  return cur;
}

CommandPlane IrisController::command_plane_for(const ApplyPlan& plan) const {
  CommandPlane plane(CommandCosts{latencies_.oss_switch_ms,
                                  latencies_.transceiver_tune_ms,
                                  latencies_.amplifier_settle_ms});
  plane.plan(plan.ops, plan.make_first);
  return plane;
}

void IrisController::execute(const ApplyPlan& plan, ApplyCursor& cur,
                             CommandPlane& plane, ReconfigReport& report,
                             RecoveryReport* rr) {
  plane_ = &plane;
  // The plane must never outlive this call (the next apply or recovery
  // builds its own), even when a crash or refusal unwinds through here;
  // the commands it batched are counted then, once per transaction.
  struct PlaneScope {
    IrisController* self;
    ~PlaneScope() {
      obs::registry().add("controller.commands.batched",
                          self->plane_->commands_issued());
      self->plane_ = nullptr;
      self->current_slot_ = -1;
      self->devices_->fault_injector().set_schedule_slot(-1);
    }
  } plane_scope{this};
  const CommandCountScope counts(report);

  // What a crash caught mid-unwind is finished first, whatever the order.
  for (auto& [c, alloc] : cur.unwinding) {
    unwind_allocation(c, alloc, report, {});
    if (rr != nullptr) ++rr->completed_teardowns;
  }
  cur.unwinding.clear();

  // The drain window shared by both strategies: charged to the report and
  // the capacity-gap clock, and floored on the command plane so nothing
  // issued later starts inside it.
  double clock = 0.0;  // capacity-gap timeline
  const auto drain_window = [&](const char* what) {
    report.drain_ms = latencies_.drain_window_ms;
    clock += report.drain_ms;
    report.timeline.push_back(
        {clock, "drained " + std::to_string(plan.torn.size()) + what});
    plane.add_floor(report.drain_ms);
  };
  if (!plan.make_first && !plan.torn.empty()) {
    // Drain, tear down, set up -- in that order (SS5.2).
    drain_window(" circuit(s)");
  }
  // In make-before-break, traffic cuts over to the replacement generation
  // once every establish has succeeded: the generation barrier in the plan
  // guarantees the first teardown runs only after that point, so the
  // cutover timeline (and the drain window when circuits retire) is emitted
  // exactly once, right before it.
  bool cutover_done = false;
  const auto mbb_cutover = [&] {
    if (cutover_done) return;
    cutover_done = true;
    report.timeline.push_back({clock, "replacement circuits lit"});
    if (!plan.torn.empty()) {
      drain_window(" old circuit(s)");
    }
  };

  double charged_delay = 0.0;
  std::optional<std::string> error;
  for (std::size_t oi : plane.order()) {
    const CommandOp& op = plane.ops()[oi];
    const bool done = op.teardown ? !cur.torn[op.index].has_value()
                                  : cur.made[op.index].has_value();
    if (done) continue;  // finished before a crash
    if (plan.make_first && op.teardown) mbb_cutover();
    current_slot_ = plane.slot_of(oi);
    devices_->fault_injector().set_schedule_slot(current_slot_);
    plane.begin_op(oi);
    const double delay_before = report.fault_delay_ms;
    if (op.teardown) {
      cur.devices_touched = true;
      unwind_allocation(plan.torn[op.index], *cur.torn[op.index], report, {});
      cur.torn[op.index].reset();
      if (rr != nullptr) ++rr->completed_teardowns;
    } else {
      error = establish_op(plan, cur, op.index, report, rr);
    }
    const double op_delay = report.fault_delay_ms - delay_before;
    charged_delay += op_delay;
    plane.end_op(oi, op_delay);
    current_slot_ = -1;
    devices_->fault_injector().set_schedule_slot(-1);
    // Transaction aborts: unexecuted ops stay unexecuted.
    if (error) break;
  }
  plane.begin_tail();  // rollback/retune commands start after the schedule

  // All OSSes at one site switch in parallel; sites along a path settle in
  // sequence, so the capacity gap grows with the deepest changed route
  // (~50 ms via one hut, ~70 ms via two; SS6.2).
  int max_switch_sites = 0;
  const auto deepen = [&](const Circuit& c) {
    max_switch_sites =
        std::max(max_switch_sites, static_cast<int>(c.route.nodes.size()) - 2);
  };
  for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
    if (cur.made[k]) deepen(plan.set_up[k]);
  }
  std::for_each(plan.torn.begin(), plan.torn.end(), deepen);

  if (error) {
    for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
      if (!cur.made[k]) report.not_established.push_back(plan.set_up[k]);
    }
    rollback(plan, cur, report, clock, *error, rr);
  } else {
    if (plan.make_first) {
      // Hitless: the replacements lit, traffic moved, the old generation
      // drained and tore down on the schedule above.
      mbb_cutover();
      report.hitless = true;
    }
    active_ = plan.kept;
    for (std::size_t j = 0; j < active_.size(); ++j) {
      active_[j].wavelengths = plan.kept_waves[j];
    }
    allocations_ = std::move(cur.kept);
    for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
      active_.push_back(plan.set_up[k]);
      allocations_.push_back(std::move(*cur.made[k]));
    }
  }

  if (!plan.set_up.empty() || !plan.torn.empty()) {
    report.switch_ms = latencies_.oss_switch_ms * std::max(1, max_switch_sites);
    report.recovery_ms = latencies_.signal_recovery_ms;
    clock += report.switch_ms;
    report.timeline.push_back({clock, "OSS cross-connects applied"});
    clock += report.recovery_ms;
    report.timeline.push_back({clock, "receivers relocked"});
  }

  retune_all_dcs(report);
  if (report.wavelengths_untuned > 0 &&
      report.outcome == ApplyOutcome::kCommitted) {
    report.outcome = ApplyOutcome::kDegraded;
  }
  if (report.resources_quarantined > 0) {
    report.timeline.push_back(
        {clock, "quarantined " + std::to_string(report.resources_quarantined) +
                    " failing resource(s)"});
  }

  // Command-plane makespan: drain windows, every issued device command on
  // its queue, retry backoff charged to the schedule, fault delay incurred
  // outside scheduled ops (rollback, retunes), and the receiver-relock tail.
  plane.add_floor(std::max(0.0, report.fault_delay_ms - charged_delay));
  report.makespan_ms = plane.horizon_ms();
  if (!plan.set_up.empty() || !plan.torn.empty()) {
    report.makespan_ms += latencies_.signal_recovery_ms;
  }

  jrec(ApplyEndRecord{plan.seq, static_cast<int>(report.outcome), active_,
                      expected_tuned_});
  ++applies_completed_;
}

std::optional<std::string> IrisController::establish_op(
    const ApplyPlan& plan, ApplyCursor& cur, std::size_t k,
    ReconfigReport& report, RecoveryReport* rr) {
  const Circuit& c = plan.set_up[k];
  if (cur.half[k]) {
    // Half-programmed before a crash: finish it in place, or unwind what
    // the hardware holds and fall through to fresh resources.
    Allocation alloc = std::move(*cur.half[k]);
    cur.half[k].reset();
    try {
      repair_connects(alloc, report, *rr);
      jrec(EstablishDoneRecord{c});
      cur.made[k] = std::move(alloc);
      ++rr->finished_establishes;
      return std::nullopt;
    } catch (const DeviceCommandError& e) {
      unwind_allocation(c, alloc, report,
                        {res_for_port(e.site, e.in_port),
                         res_for_port(e.site, e.out_port)});
    }
  }
  const long long ops_before = report.oss_operations;
  Allocation alloc;
  auto error = try_establish(c, alloc, report);
  if (report.oss_operations != ops_before) cur.devices_touched = true;
  if (error) return error;
  cur.made[k] = std::move(alloc);
  if (rr != nullptr) ++rr->reissued_establishes;
  return std::nullopt;
}

void IrisController::rollback(const ApplyPlan& plan, ApplyCursor& cur,
                              ReconfigReport& report, double clock,
                              const std::string& error, RecoveryReport* rr) {
  report.timeline.push_back(
      {clock, plan.make_first
                  ? "apply failed: replacement generation torn back down"
                  : "apply failed: rolling back to pre-apply circuit set"});
  for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
    if (!cur.made[k]) continue;
    unwind_allocation(plan.set_up[k], *cur.made[k], report, {});
    cur.made[k].reset();
  }
  // Kept circuits first (pre-apply waves), then the torn ones: still live
  // if their teardown never ran, re-established otherwise. Under
  // make-before-break the generation barrier means none ran, so the old
  // generation never stopped carrying traffic. What cannot be restored is
  // lost and the apply is degraded.
  active_ = plan.kept;
  allocations_ = std::move(cur.kept);
  bool broke = false;
  for (std::size_t t = 0; t < plan.torn.size(); ++t) {
    const Circuit& c = plan.torn[t];
    if (!cur.torn[t]) {
      broke = true;
      cur.torn[t].emplace();
      if (try_establish(c, *cur.torn[t], report)) {
        report.lost_circuits.push_back(c);
        continue;
      }
      if (rr != nullptr) ++rr->reissued_establishes;
    }
    active_.push_back(c);
    allocations_.push_back(std::move(*cur.torn[t]));
  }
  if (!cur.devices_touched) {
    // Nothing moved, so the books above are the pre-apply ones: journal the
    // terminal record so replay never sees an open transaction, and refuse.
    jrec(ApplyEndRecord{plan.seq, static_cast<int>(ApplyOutcome::kRolledBack),
                        active_, expected_tuned_});
    ++applies_completed_;
    fold_apply_metrics(report, "refused");
    throw std::runtime_error(error);
  }
  report.hitless = plan.make_first && !broke;
  if (report.lost_circuits.empty()) {
    report.outcome = ApplyOutcome::kRolledBack;
    if (!plan.make_first) {
      report.timeline.push_back({clock, "pre-apply circuit set restored"});
    }
  } else {
    report.outcome = ApplyOutcome::kDegraded;
    report.timeline.push_back(
        {clock, "DEGRADED: " + std::to_string(report.lost_circuits.size()) +
                    " circuit(s) lost"});
  }
}

AuditReport IrisController::audit_report() const {
  AuditReport rep;
  using Kind = AuditReport::Kind;
  const auto note = [&](Kind kind, NodeId site, int port, EdgeId duct,
                        std::string detail) {
    if (!rep.first) {
      rep.first = AuditReport::Divergence{kind, site, port, duct,
                                          std::move(detail)};
    }
  };
  const graph::Graph& g = map_.graph();

  // 1. Every recorded cross-connect -- live or zombie -- is programmed.
  const auto check_connect = [&](const Connect& c, const char* what) {
    const auto out = devices_->oss(c.site).output_for(c.in_port);
    if (!out) {
      ++rep.missing_connects;
      note(Kind::kMissingConnect, c.site, c.in_port, graph::kInvalidEdge,
           map_.site(c.site).name + ": " + what + " cross-connect " +
               std::to_string(c.in_port) + "->" + std::to_string(c.out_port) +
               " missing from OSS");
    } else if (*out != c.out_port) {
      ++rep.wrong_connects;
      note(Kind::kWrongConnect, c.site, c.in_port, graph::kInvalidEdge,
           map_.site(c.site).name + ": " + what + " cross-connect input " +
               std::to_string(c.in_port) + " patched to " +
               std::to_string(*out) + ", books say " +
               std::to_string(c.out_port));
    }
  };
  for (const Allocation& alloc : allocations_) {
    for (const Connect& c : alloc.connects) check_connect(c, "recorded");
  }
  for (const Connect& z : zombie_connects_) check_connect(z, "zombie");

  // 2. No leaked cross-connects: per-site counts match exactly.
  std::vector<int> expected_connects(
      static_cast<std::size_t>(g.node_count()), 0);
  for (const Allocation& alloc : allocations_) {
    for (const Connect& c : alloc.connects) ++expected_connects[c.site];
  }
  for (const Connect& z : zombie_connects_) ++expected_connects[z.site];
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const int on_device = devices_->oss(n).connection_count();
    if (on_device != expected_connects[n]) {
      ++rep.leaked_connect_sites;
      note(Kind::kLeakedConnects, n, -1, graph::kInvalidEdge,
           map_.site(n).name + ": OSS carries " + std::to_string(on_device) +
               " connect(s), books expect " +
               std::to_string(expected_connects[n]));
    }
  }

  if (active_.size() != allocations_.size()) {
    rep.bookkeeping_ok = false;
    note(Kind::kBookkeeping, graph::kInvalidNode, -1, graph::kInvalidEdge,
         "active circuits (" + std::to_string(active_.size()) +
             ") and allocations (" + std::to_string(allocations_.size()) +
             ") out of step");
  }

  // 3. Exact resource partition: free + quarantined + allocated tiles the
  // provisioned inventory of every duct, amplifier site and DC -- no fiber
  // double-allocated, none lost.
  std::vector<std::vector<int>> fiber_alloc(
      static_cast<std::size_t>(g.edge_count()));
  std::vector<std::vector<int>> amp_alloc(
      static_cast<std::size_t>(g.node_count()));
  std::map<NodeId, std::vector<int>> add_drop_alloc;
  const std::size_t n_books = std::min(active_.size(), allocations_.size());
  for (std::size_t i = 0; i < n_books; ++i) {
    const Circuit& c = active_[i];
    const Allocation& alloc = allocations_[i];
    if (alloc.fibers_per_hop.size() != c.route.edges.size()) {
      rep.bookkeeping_ok = false;
      note(Kind::kBookkeeping, graph::kInvalidNode, -1, graph::kInvalidEdge,
           "allocation hop count does not match the circuit route");
    }
    const std::size_t hops =
        std::min(alloc.fibers_per_hop.size(), c.route.edges.size());
    for (std::size_t h = 0; h < hops; ++h) {
      const EdgeId e = c.route.edges[h];
      fiber_alloc[e].insert(fiber_alloc[e].end(),
                            alloc.fibers_per_hop[h].begin(),
                            alloc.fibers_per_hop[h].end());
    }
    if (alloc.amp_site) {
      amp_alloc[*alloc.amp_site].insert(amp_alloc[*alloc.amp_site].end(),
                                        alloc.amp_units.begin(),
                                        alloc.amp_units.end());
    }
    auto& at_a = add_drop_alloc[c.pair.a];
    at_a.insert(at_a.end(), alloc.add_drop_a.begin(), alloc.add_drop_a.end());
    auto& at_b = add_drop_alloc[c.pair.b];
    at_b.insert(at_b.end(), alloc.add_drop_b.begin(), alloc.add_drop_b.end());
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!tiles_exactly(fibers_provisioned_[e], free_fibers_[e],
                       quarantined_fibers_[e], fiber_alloc[e])) {
      ++rep.fiber_pool_mismatches;
      note(Kind::kFiberPool, graph::kInvalidNode, -1, e,
           "duct " + std::to_string(e) +
               ": fiber partition does not tile the provisioned inventory");
    }
  }
  for (NodeId n = 0; n < g.node_count(); ++n) {
    if (!tiles_exactly(amp_cut_.amps_at_node[n], free_amps_[n],
                       quarantined_amps_[n], amp_alloc[n])) {
      ++rep.amp_pool_mismatches;
      note(Kind::kAmpPool, n, -1, graph::kInvalidEdge,
           map_.site(n).name + ": amplifier partition broken");
    }
  }
  for (const auto& [dc, pool] : free_add_drop_) {
    const auto quarantined_it = quarantined_add_drop_.find(dc);
    static const std::vector<int> kNone;
    const auto alloc_it = add_drop_alloc.find(dc);
    if (!tiles_exactly(devices_->port_map(dc).add_drop_pairs(), pool,
                       quarantined_it == quarantined_add_drop_.end()
                           ? kNone
                           : quarantined_it->second,
                       alloc_it == add_drop_alloc.end() ? kNone
                                                        : alloc_it->second)) {
      ++rep.add_drop_pool_mismatches;
      note(Kind::kAddDropPool, dc, -1, graph::kInvalidEdge,
           map_.site(dc).name + ": add/drop partition broken");
    }
  }

  // 4. DC-local wavelength state matches the last retune.
  for (const auto& [dc, txs] : devices_->all_transceivers()) {
    const long long tuned = devices_->tuned_count(dc);
    const auto it = expected_tuned_.find(dc);
    const long long expected = it == expected_tuned_.end() ? 0 : it->second;
    if (tuned != expected) {
      ++rep.transceiver_mismatches;
      note(Kind::kTransceiverTune, dc, -1, graph::kInvalidEdge,
           map_.site(dc).name + ": " + std::to_string(tuned) +
               " transceiver(s) tuned, expected " + std::to_string(expected));
    }
  }
  return rep;
}

ControllerCheckpoint IrisController::snapshot() const {
  ControllerCheckpoint cp;
  cp.applies_completed = applies_completed_;
  cp.active = active_;
  cp.allocations.assign(allocations_.begin(), allocations_.end());
  cp.free_fibers = free_fibers_;
  cp.quarantined_fibers = quarantined_fibers_;
  cp.free_amps = free_amps_;
  cp.quarantined_amps = quarantined_amps_;
  cp.free_add_drop = free_add_drop_;
  cp.quarantined_add_drop = quarantined_add_drop_;
  cp.quarantined_txs = quarantined_txs_;
  cp.zombies.reserve(zombie_connects_.size());
  for (const Connect& z : zombie_connects_) {
    cp.zombies.push_back(ZombieConnect{z.site, z.in_port, z.out_port});
  }
  cp.expected_tuned = expected_tuned_;
  for (EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    if (duct_failed_[e]) cp.failed_ducts.push_back(e);
  }
  return cp;
}

std::string IrisController::state_fingerprint() const {
  // Books as checkpoint text + hardware read-back. The command trace is
  // deliberately excluded: arming a crash enables the fault injector, which
  // adds amp power-check entries to the trace without changing any state.
  IntentJournal tmp;
  tmp.append(CheckpointRecord{snapshot()});
  std::ostringstream os;
  tmp.save(os);
  os << "hardware\n";
  for (NodeId n = 0; n < map_.graph().node_count(); ++n) {
    os << "oss " << n;
    for (const auto& [in, out] : devices_->oss(n).connections()) {
      os << ' ' << in << ':' << out;
    }
    os << '\n';
  }
  for (const auto& [dc, txs] : devices_->all_transceivers()) {
    os << "tx " << dc;
    for (const auto& tx : txs) {
      os << ' ' << (tx.wavelength() ? *tx.wavelength() : -1);
    }
    os << '\n';
  }
  for (const auto& [dc, em] : devices_->emulators()) {
    os << "ase " << dc;
    for (int ch : em.live_channels()) os << ' ' << ch;
    os << '\n';
  }
  return os.str();
}

int IrisController::circuits_on_failed_ducts() const {
  int count = 0;
  for (const Circuit& c : active_) {
    for (EdgeId e : c.route.edges) {
      if (duct_failed_[e]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

IrisController::Status IrisController::status() const {
  Status s;
  s.active_circuits = static_cast<int>(active_.size());
  for (const Circuit& c : active_) s.live_wavelengths += 2 * c.wavelengths;
  for (EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    s.fibers_allocated += allocated_fibers(e);
    s.fibers_provisioned += fibers_provisioned_[e];
    s.failed_ducts += duct_failed_[e];
    s.quarantined_fibers += static_cast<int>(quarantined_fibers_[e].size());
  }
  for (NodeId n = 0; n < map_.graph().node_count(); ++n) {
    s.amplifiers_in_use += amplifiers_in_use(n);
    s.amplifiers_total += amp_cut_.amps_at_node[n];
    s.quarantined_amplifiers += static_cast<int>(quarantined_amps_[n].size());
  }
  for (const auto& [dc, q] : quarantined_add_drop_) {
    s.quarantined_add_drops += static_cast<int>(q.size());
  }
  for (const auto& [dc, q] : quarantined_txs_) {
    s.quarantined_transceivers += static_cast<int>(q.size());
  }
  s.zombie_connects = static_cast<int>(zombie_connects_.size());
  s.circuits_on_failed_ducts = circuits_on_failed_ducts();
  s.devices_consistent = audit_devices();
  return s;
}

void IrisController::fail_duct(EdgeId duct) {
  duct_failed_.at(duct) = true;
  ++state_version_;
  jrec(DuctEventRecord{duct, true});
}

ReconfigReport IrisController::drain_duct_for_maintenance(
    EdgeId duct, ReconfigStrategy strategy) {
  ++state_version_;
  // Current intent: the active circuits' pair demands.
  TrafficMatrix tm;
  for (const Circuit& c : active_) tm[c.pair] += c.wavelengths;
  duct_failed_.at(duct) = true;
  jrec(DuctEventRecord{duct, true});
  try {
    ReconfigReport report = apply_traffic_matrix(tm, strategy);
    if (!report.target_reached()) {
      // The move failed after touching devices; whatever survived is back in
      // service, so the duct must be too -- maintenance is refused.
      duct_failed_.at(duct) = false;
      jrec(DuctEventRecord{duct, false});
    }
    return report;
  } catch (const ControllerCrash&) {
    // The controller process is dying: no compensation, no journaling -- the
    // successor rolls the drain forward from the journal.
    throw;
  } catch (...) {
    duct_failed_.at(duct) = false;  // refuse the maintenance, keep traffic
    jrec(DuctEventRecord{duct, false});
    throw;
  }
}

void IrisController::restore_duct(EdgeId duct) {
  duct_failed_.at(duct) = false;
  ++state_version_;
  jrec(DuctEventRecord{duct, false});
}

const OpticalSpaceSwitch& IrisController::oss_at(NodeId site) const {
  return devices_->oss(site);
}

const ChannelEmulator& IrisController::channel_emulator_at(NodeId dc) const {
  return devices_->emulator(dc);
}

const SitePortMap& IrisController::port_map_at(NodeId site) const {
  return devices_->port_map(site);
}

long long IrisController::allocated_fibers(EdgeId duct) const {
  return fibers_provisioned_.at(duct) -
         static_cast<long long>(free_fibers_.at(duct).size()) -
         static_cast<long long>(quarantined_fibers_.at(duct).size());
}

int IrisController::provisioned_fibers(EdgeId duct) const {
  return fibers_provisioned_.at(duct);
}

int IrisController::amplifiers_in_use(NodeId site) const {
  return amp_cut_.amps_at_node.at(site) -
         static_cast<int>(free_amps_.at(site).size()) -
         static_cast<int>(quarantined_amps_.at(site).size());
}

// ---- cold-restart reconciliation -------------------------------------------

void IrisController::install_stable(const ControllerCheckpoint& cp) {
  validate_checkpoint(cp);
  const graph::Graph& g = map_.graph();
  // An empty journal replays to an all-empty checkpoint; anything else must
  // have been written against this network's shape.
  if (!cp.free_fibers.empty() &&
      cp.free_fibers.size() != static_cast<std::size_t>(g.edge_count())) {
    throw std::runtime_error("recover: journal does not match this network");
  }
  if (!cp.free_amps.empty() &&
      cp.free_amps.size() != static_cast<std::size_t>(g.node_count())) {
    throw std::runtime_error("recover: journal does not match this network");
  }

  applies_completed_ = cp.applies_completed;
  active_ = cp.active;
  allocations_.clear();
  allocations_.reserve(cp.active.size());
  for (std::size_t i = 0; i < cp.active.size(); ++i) {
    allocations_.push_back(from_record(cp.active[i], cp.allocations[i]));
  }
  // Shapes match the network (checked above) or are empty.
  quarantined_fibers_ = cp.quarantined_fibers;
  quarantined_fibers_.resize(static_cast<std::size_t>(g.edge_count()));
  quarantined_amps_ = cp.quarantined_amps;
  quarantined_amps_.resize(static_cast<std::size_t>(g.node_count()));
  quarantined_add_drop_ = cp.quarantined_add_drop;
  quarantined_txs_ = cp.quarantined_txs;
  zombie_connects_.clear();
  for (const ZombieConnect& z : cp.zombies) {
    zombie_connects_.push_back(Connect{z.site, z.in_port, z.out_port});
  }
  expected_tuned_ = cp.expected_tuned;
  duct_failed_.assign(g.edge_count(), false);
  for (EdgeId e : cp.failed_ducts) {
    if (e < 0 || e >= g.edge_count()) {
      throw std::runtime_error("recover: journal does not match this network");
    }
    duct_failed_[e] = true;
  }
  // Free pools are re-derived by derive_free_pools: the replayed stable pools
  // go stale as committed applies fold in, so they are never trusted here.
}

void IrisController::derive_free_pools(
    const std::vector<std::pair<Circuit, Allocation>>& held) {
  const graph::Graph& g = map_.graph();
  std::vector<std::vector<char>> fiber_used(
      static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    fiber_used[e].assign(
        static_cast<std::size_t>(std::max(0, fibers_provisioned_[e])), 0);
  }
  std::vector<std::vector<char>> amp_used(
      static_cast<std::size_t>(g.node_count()));
  for (NodeId n = 0; n < g.node_count(); ++n) {
    amp_used[n].assign(
        static_cast<std::size_t>(std::max(0, amp_cut_.amps_at_node[n])), 0);
  }
  std::map<NodeId, std::vector<char>> ad_used;
  for (NodeId dc : map_.dcs()) {
    ad_used[dc].assign(static_cast<std::size_t>(std::max(
                           0, devices_->port_map(dc).add_drop_pairs())),
                       0);
  }

  const auto use = [](std::vector<char>& v, int idx, const char* what) {
    if (idx < 0 || idx >= static_cast<int>(v.size()) ||
        v[static_cast<std::size_t>(idx)]) {
      throw std::runtime_error(
          std::string("recover: corrupt journaled allocation: ") + what +
          " index " + std::to_string(idx));
    }
    v[static_cast<std::size_t>(idx)] = 1;
  };
  const auto use_alloc = [&](const Circuit& c, const Allocation& a) {
    if (a.fibers_per_hop.size() != c.route.edges.size()) {
      throw std::runtime_error(
          "recover: corrupt journaled allocation: hop count mismatch");
    }
    for (std::size_t h = 0; h < a.fibers_per_hop.size(); ++h) {
      for (int idx : a.fibers_per_hop[h]) {
        use(fiber_used[c.route.edges[h]], idx, "duct fiber");
      }
    }
    if (a.amp_site) {
      for (int u : a.amp_units) use(amp_used[*a.amp_site], u, "amplifier");
    }
    for (int idx : a.add_drop_a) use(ad_used.at(c.pair.a), idx, "add/drop");
    for (int idx : a.add_drop_b) use(ad_used.at(c.pair.b), idx, "add/drop");
  };
  for (const auto& [c, a] : held) use_alloc(c, a);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    for (int idx : quarantined_fibers_[e]) {
      use(fiber_used[e], idx, "quarantined fiber");
    }
  }
  for (NodeId n = 0; n < g.node_count(); ++n) {
    for (int idx : quarantined_amps_[n]) {
      use(amp_used[n], idx, "quarantined amplifier");
    }
  }
  for (const auto& [dc, items] : quarantined_add_drop_) {
    for (int idx : items) use(ad_used.at(dc), idx, "quarantined add/drop");
  }

  // Free = descending-sorted complement. take/return keep incrementally
  // maintained pools in exactly this canonical form, so the derived pools
  // are byte-equal to what a crash-free controller would hold.
  const auto complement = [](const std::vector<char>& used) {
    std::vector<int> pool;
    for (int idx = static_cast<int>(used.size()) - 1; idx >= 0; --idx) {
      if (!used[static_cast<std::size_t>(idx)]) pool.push_back(idx);
    }
    return pool;
  };
  free_fibers_.assign(static_cast<std::size_t>(g.edge_count()), {});
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    free_fibers_[e] = complement(fiber_used[e]);
  }
  free_amps_.assign(static_cast<std::size_t>(g.node_count()), {});
  for (NodeId n = 0; n < g.node_count(); ++n) {
    free_amps_[n] = complement(amp_used[n]);
  }
  free_add_drop_.clear();
  for (NodeId dc : map_.dcs()) {
    free_add_drop_[dc] = complement(ad_used.at(dc));
  }
}

void IrisController::repair_connects(Allocation& alloc, ReconfigReport& report,
                                     RecoveryReport& rr) {
  for (const Connect& k : alloc.connects) {
    OpticalSpaceSwitch& sw = devices_->oss(k.site);
    const auto out = sw.output_for(k.in_port);
    if (out && *out == k.out_port) continue;  // already programmed
    const auto clear = [&](int in, int blamed_out) {
      const CommandResult r =
          run_with_retry(report, [&] { return sw.disconnect(in); });
      if (!r.ok()) throw DeviceCommandError{k.site, in, blamed_out, r.detail};
      record_cmd(OssDisconnectCmd{k.site, in});
      ++report.oss_operations;
      ++rr.connects_removed;
    };
    // The input is patched somewhere unplanned: clear it first.
    if (out) clear(k.in_port, *out);
    if (sw.output_in_use(k.out_port)) {
      // The planned output is held by a stale connect: clear its input.
      const auto& held = sw.connections();
      const auto stale = std::find_if(held.begin(), held.end(), [&](auto& io) {
        return io.second == k.out_port;
      });
      if (stale != held.end()) clear(stale->first, k.out_port);
    }
    const CommandResult r = run_with_retry(
        report, [&] { return sw.connect(k.in_port, k.out_port); });
    if (!r.ok()) {
      throw DeviceCommandError{k.site, k.in_port, k.out_port, r.detail};
    }
    record_cmd(OssConnectCmd{k.site, k.in_port, k.out_port});
    ++report.oss_operations;
    ++rr.connects_programmed;
  }
}

void IrisController::quarantine_port_resource(NodeId site, int port) {
  const auto [kind, a, b] = res_for_port(site, port);
  const auto pull = [&](std::vector<int>& pool, std::vector<int>& quarantine) {
    const auto it = std::find(pool.begin(), pool.end(), b);
    if (it == pool.end()) return;  // allocated or already quarantined
    pool.erase(it);
    quarantine.push_back(b);
    jrec(QuarantineRecord{kind, a, b});
  };
  switch (kind) {
    case 0:
      pull(free_fibers_[static_cast<std::size_t>(a)],
           quarantined_fibers_[static_cast<std::size_t>(a)]);
      break;
    case 1:
      pull(free_add_drop_.at(a), quarantined_add_drop_[a]);
      break;
    case 2:
      pull(free_amps_[static_cast<std::size_t>(a)],
           quarantined_amps_[static_cast<std::size_t>(a)]);
      break;
    default:
      break;
  }
}

RecoveryReport IrisController::recover(IntentJournal& journal) {
  const obs::Span span("controller.recover");
  ++state_version_;
  if (journal_ != nullptr || applies_completed_ != 0 || !active_.empty()) {
    throw std::logic_error(
        "recover: requires a freshly constructed controller");
  }
  const IntentJournal::Intent intent = journal.replay();
  install_stable(intent.stable);
  // Attach directly: attach_journal would write a checkpoint, and a
  // checkpoint inside a still-open apply is a replay error -- recovery
  // itself is journaled into the same open transaction.
  journal_ = &journal;
  trace_.clear();

  RecoveryReport rr;
  ReconfigReport report;  // absorbs retry/quarantine accounting

  ApplyPlan plan;
  ApplyCursor cur;
  if (intent.in_flight) {
    const IntentJournal::InFlightApply& ifa = *intent.in_flight;
    rr.had_in_flight = true;
    rr.resumed_seq = ifa.seq;
    plan = plan_apply(ifa.target);
    order_ops(plan, ifa.strategy ==
                        static_cast<int>(ReconfigStrategy::kMakeBeforeBreak));
    plan.seq = ifa.seq;
    cur = begin_cursor(plan);
    cur.devices_touched = true;  // a crash only lands on a device command

    // Fold the journaled ops to each circuit's last op -- what was the
    // controller doing to it when the crash hit? -- keeping the allocation
    // its latest establish drew.
    std::vector<IntentJournal::PendingOp> folds;
    for (const IntentJournal::PendingOp& op : ifa.ops) {
      auto it = std::find_if(folds.begin(), folds.end(), [&](const auto& f) {
        return f.circuit == op.circuit;
      });
      if (it == folds.end()) it = folds.insert(folds.end(), op);
      it->teardown = op.teardown;
      it->done = op.done;
      if (!op.teardown) {
        it->circuit = op.circuit;  // latest wavelength count wins
        it->alloc = op.alloc;
      }
    }
    // Position the cursor: a torn circuit stays pending until its teardown
    // is done (holding whatever it was re-established on); a new circuit is
    // made, half-programmed, or -- caught mid-unwind -- torn down first.
    for (const IntentJournal::PendingOp& f : folds) {
      const bool gone = f.teardown && f.done;
      const auto t = std::find(plan.torn.begin(), plan.torn.end(), f.circuit);
      const auto s =
          std::find(plan.set_up.begin(), plan.set_up.end(), f.circuit);
      if (t != plan.torn.end()) {
        auto& alloc = cur.torn[static_cast<std::size_t>(t - plan.torn.begin())];
        if (gone) {
          alloc.reset();
        } else if (f.alloc) {
          alloc = from_record(f.circuit, *f.alloc);
        }
      } else if (gone || !f.alloc) {
        continue;  // holds nothing
      } else if (s == plan.set_up.end() || f.teardown) {
        cur.unwinding.emplace_back(f.circuit, from_record(f.circuit, *f.alloc));
      } else {
        const auto k = static_cast<std::size_t>(s - plan.set_up.begin());
        (f.done ? cur.made[k] : cur.half[k]) = from_record(f.circuit, *f.alloc);
      }
    }
  }
  // Everything holding resources: the books, or -- when a crash interrupted
  // an apply -- the cursor, which took the books over.
  std::vector<std::pair<Circuit, Allocation>> held = cur.unwinding;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    held.emplace_back(active_[i], allocations_[i]);
  }
  for (std::size_t j = 0; j < plan.kept.size(); ++j) {
    held.emplace_back(plan.kept[j], cur.kept[j]);
  }
  for (std::size_t t = 0; t < plan.torn.size(); ++t) {
    if (cur.torn[t]) held.emplace_back(plan.torn[t], *cur.torn[t]);
  }
  for (std::size_t k = 0; k < plan.set_up.size(); ++k) {
    if (cur.made[k]) held.emplace_back(plan.set_up[k], *cur.made[k]);
    if (cur.half[k]) held.emplace_back(plan.set_up[k], *cur.half[k]);
  }
  derive_free_pools(held);

  // Orphan sweep BEFORE the resume: every hardware cross-connect owned by
  // neither a held allocation nor a known zombie is adopted as a zombie and
  // its ports quarantined. This matters when a torn journal tail dropped an
  // establish record: the leftover cross-connects would otherwise collide
  // with the ports a fresh establishment draws (the pools, derived from the
  // journal alone, believe them free). Adopting first keeps every
  // hardware-busy port out of the pools. When the journal is complete this
  // sweep is a no-op.
  {
    std::set<std::tuple<NodeId, int, int>> expected;
    for (const auto& [c, a] : held) {
      for (const Connect& k : a.connects) {
        expected.insert({k.site, k.in_port, k.out_port});
      }
    }
    for (const Connect& z : zombie_connects_) {
      expected.insert({z.site, z.in_port, z.out_port});
    }
    for (NodeId n = 0; n < map_.graph().node_count(); ++n) {
      for (const auto& [in, out] : devices_->oss(n).connections()) {
        if (expected.contains({n, in, out})) continue;
        zombie_connects_.push_back(Connect{n, in, out});
        obs::registry().add("controller.zombies.total");
        jrec(ZombieRecord{ZombieConnect{n, in, out}});
        quarantine_port_resource(n, in);
        quarantine_port_resource(n, out);
        ++rr.orphan_connects_adopted;
      }
    }
  }

  // Resume the interrupted apply on the same executor that started it.
  if (intent.in_flight) {
    CommandPlane plane = command_plane_for(plan);
    execute(plan, cur, plane, report, &rr);
    rr.resumed_outcome = report.outcome;
  }

  // Defensive convergence: re-program any recorded cross-connect the
  // hardware lost. A no-op when hardware already matches the books, so a
  // crash-free cold recovery issues zero device commands here.
  const CommandCountScope repair_counts(report);
  for (Allocation& a : allocations_) {
    try {
      repair_connects(a, report, rr);
    } catch (const DeviceCommandError&) {
      // Left for the audit to report.
    }
  }
  // Zombies the hardware no longer carries (their mirror recovered, or a
  // repair displaced them) stop being tracked; their ports stay quarantined.
  std::erase_if(zombie_connects_, [&](const Connect& z) {
    const auto out = devices_->oss(z.site).output_for(z.in_port);
    return !out || *out != z.out_port;
  });

  jrec(CheckpointRecord{snapshot()});
  rr.audit = audit_report();
  rr.adopted_circuits = static_cast<int>(active_.size()) -
                        rr.finished_establishes - rr.reissued_establishes;

  auto& reg = obs::registry();
  reg.add("controller.recoveries.total");
  reg.add("controller.recover.orphans_adopted", rr.orphan_connects_adopted);
  reg.add("controller.recover.finished_establishes", rr.finished_establishes);
  reg.add("controller.recover.reissued_establishes", rr.reissued_establishes);
  reg.add("controller.recover.completed_teardowns", rr.completed_teardowns);
  fold_apply_metrics(report, "recovered");
  return rr;
}

}  // namespace iris::control

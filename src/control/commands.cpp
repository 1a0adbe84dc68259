#include "control/commands.hpp"

#include <algorithm>

namespace iris::control {

std::string to_string(const DeviceCommand& cmd) {
  struct Printer {
    std::string operator()(const OssConnectCmd& c) const {
      return "oss[" + std::to_string(c.site) + "].connect(" +
             std::to_string(c.in_port) + " -> " + std::to_string(c.out_port) +
             ")";
    }
    std::string operator()(const OssDisconnectCmd& c) const {
      return "oss[" + std::to_string(c.site) + "].disconnect(" +
             std::to_string(c.in_port) + ")";
    }
    std::string operator()(const TuneTransceiverCmd& c) const {
      return "dc[" + std::to_string(c.dc) + "].tx[" +
             std::to_string(c.transceiver) + "].tune(ch" +
             std::to_string(c.channel) + ")";
    }
    std::string operator()(const DisableTransceiverCmd& c) const {
      return "dc[" + std::to_string(c.dc) + "].tx[" +
             std::to_string(c.transceiver) + "].disable()";
    }
    std::string operator()(const SetAseFillCmd& c) const {
      return "dc[" + std::to_string(c.dc) + "].ase.fill(live=" +
             std::to_string(c.live_channels) + ")";
    }
    std::string operator()(const AmpPowerCheckCmd& c) const {
      return "site[" + std::to_string(c.site) + "].amp[" +
             std::to_string(c.unit) + "].power_check() -> " +
             (c.ok ? "ok" : "DEAD");
    }
  };
  return std::visit(Printer{}, cmd);
}

// ---- CommandPlane ----------------------------------------------------------

namespace {

bool intersects(const std::vector<graph::NodeId>& a,
                const std::vector<graph::NodeId>& b) {
  for (graph::NodeId x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

bool shares_duct(const std::vector<graph::EdgeId>& a,
                 const std::vector<graph::EdgeId>& b) {
  for (graph::EdgeId x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

}  // namespace

bool CommandPlane::conflicts(const CommandOp& a, const CommandOp& b) {
  if (shares_duct(a.ducts, b.ducts)) return true;
  if (a.dc_a == b.dc_a || a.dc_a == b.dc_b || a.dc_b == b.dc_a ||
      a.dc_b == b.dc_b) {
    return true;
  }
  return intersects(a.amp_sites, b.amp_sites);
}

void CommandPlane::plan(std::vector<CommandOp> ops,
                        bool establishes_before_teardowns) {
  ops_ = std::move(ops);
  const std::size_t n = ops_.size();
  deps_.assign(n, {});
  slot_.assign(n, 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const bool barrier = establishes_before_teardowns && ops_[j].teardown &&
                           !ops_[i].teardown;
      if (barrier || conflicts(ops_[i], ops_[j])) {
        deps_[j].push_back(i);
        slot_[j] = std::max(slot_[j], slot_[i] + 1);
      }
    }
  }
  slot_count_ = 0;
  for (std::size_t j = 0; j < n; ++j) slot_count_ = std::max(slot_count_, slot_[j]);
  order_.resize(n);
  for (std::size_t j = 0; j < n; ++j) order_[j] = j;
  // Slot-major, insertion-stable within a slot. Two conflicting ops never
  // share a slot and the later one always lands in a later slot, so the
  // execution order preserves their insertion relative order: pool draws,
  // and so the final state, are those of running the ops one at a time.
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slot_[a] < slot_[b];
                   });
  op_end_.assign(n, 0.0);
}

CommandPlane::DeviceKey CommandPlane::key_of(const DeviceCommand& cmd) {
  struct Keyer {
    DeviceKey operator()(const OssConnectCmd& c) const { return {1, c.site}; }
    DeviceKey operator()(const OssDisconnectCmd& c) const {
      return {1, c.site};
    }
    DeviceKey operator()(const TuneTransceiverCmd& c) const {
      return {2, c.dc};
    }
    DeviceKey operator()(const DisableTransceiverCmd& c) const {
      return {2, c.dc};
    }
    DeviceKey operator()(const SetAseFillCmd& c) const { return {3, c.dc}; }
    DeviceKey operator()(const AmpPowerCheckCmd& c) const {
      return {4, c.site};
    }
  };
  return std::visit(Keyer{}, cmd);
}

double command_latency_ms(const DeviceCommand& cmd,
                          const CommandCosts& costs) {
  struct Coster {
    const CommandCosts& c;
    double operator()(const OssConnectCmd&) const { return c.oss_ms; }
    double operator()(const OssDisconnectCmd&) const { return c.oss_ms; }
    double operator()(const TuneTransceiverCmd&) const { return c.tune_ms; }
    double operator()(const DisableTransceiverCmd&) const { return c.tune_ms; }
    double operator()(const SetAseFillCmd&) const { return c.amp_ms; }
    double operator()(const AmpPowerCheckCmd&) const { return c.amp_ms; }
  };
  return std::visit(Coster{costs}, cmd);
}

void CommandPlane::add_floor(double delay_ms) {
  floor_ = horizon_ + delay_ms;
  horizon_ = std::max(horizon_, floor_);
}

void CommandPlane::begin_op(std::size_t i) {
  double start = floor_;
  for (std::size_t d : deps_[i]) start = std::max(start, op_end_[d]);
  cursor_ = start;
  open_op_ = i;
}

void CommandPlane::on_command(const DeviceCommand& cmd) {
  ++commands_;
  double& avail = device_free_[key_of(cmd)];
  double t0 = std::max(floor_, avail);
  if (open_op_) t0 = std::max(t0, cursor_);
  const double t1 = t0 + command_latency_ms(cmd, costs_);
  avail = t1;
  if (open_op_) cursor_ = t1;
  horizon_ = std::max(horizon_, t1);
}

void CommandPlane::end_op(std::size_t i, double backoff_ms) {
  cursor_ += backoff_ms;
  op_end_[i] = cursor_;
  horizon_ = std::max(horizon_, cursor_);
  open_op_.reset();
  cursor_ = 0.0;
}

void CommandPlane::begin_tail() {
  open_op_.reset();
  floor_ = horizon_;
}

}  // namespace iris::control

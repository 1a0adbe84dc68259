// Typed device-command trace (paper SS6.2: the testbed controller exposes
// APIs for channel add/drop, space-switch reconfiguration and state checks)
// and the command plane that schedules those commands.
//
// Every apply_traffic_matrix records the exact device commands it issued, in
// order, so operators can audit a reconfiguration, replay it against real
// hardware drivers, or diff two runs in tests.
//
// The CommandPlane turns the per-circuit work items of one apply into an
// executable schedule. Ops serialize only where they conflict (shared duct,
// shared endpoint DC, overlapping amplifier-site candidates); everything
// else drains and establishes concurrently on per-device queues, and the
// deterministic virtual timeline makes the resulting makespan reproducible
// bit-for-bit across runs and thread counts.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "graph/graph.hpp"

namespace iris::control {

struct OssConnectCmd {
  graph::NodeId site;
  int in_port;
  int out_port;
};
struct OssDisconnectCmd {
  graph::NodeId site;
  int in_port;
};
struct TuneTransceiverCmd {
  graph::NodeId dc;
  int transceiver;
  int channel;
};
struct DisableTransceiverCmd {
  graph::NodeId dc;
  int transceiver;
};
struct SetAseFillCmd {
  graph::NodeId dc;
  int live_channels;  ///< remaining spectrum is ASE-filled
};
/// Power reading on an amplifier unit before cabling it into a circuit; the
/// state-check API the testbed controller exposes (SS6.2). `ok` records the
/// verdict so a replayed trace can reproduce quarantine decisions.
struct AmpPowerCheckCmd {
  graph::NodeId site;
  int unit;
  bool ok;
};

using DeviceCommand =
    std::variant<OssConnectCmd, OssDisconnectCmd, TuneTransceiverCmd,
                 DisableTransceiverCmd, SetAseFillCmd, AmpPowerCheckCmd>;

/// Human-readable rendering for ops logs.
std::string to_string(const DeviceCommand& cmd);

/// Count commands of a given type in a trace.
template <typename T>
int count_commands(const std::vector<DeviceCommand>& trace) {
  int n = 0;
  for (const auto& cmd : trace) n += std::holds_alternative<T>(cmd);
  return n;
}

/// One value, read by nothing: perfbench/harness.cpp still assigns it.
enum class CommandPlaneMode { kAsync };

/// Per-command device latencies the virtual timeline charges (mirrors
/// DeviceLatencies without pulling the device emulators into this header).
struct CommandCosts {
  double oss_ms = 20.0;  ///< one OSS connect/disconnect
  double tune_ms = 1.0;  ///< one transceiver tune/disable
  double amp_ms = 2.0;   ///< one amplifier settle / power check / ASE refresh
};

/// What one command occupies its device for. Summed over a trace, plus the
/// apply's drain window and relock tail, it is the makespan the apply would
/// take with one command in flight at a time.
[[nodiscard]] double command_latency_ms(const DeviceCommand& cmd,
                                        const CommandCosts& costs);

/// One schedulable unit of an apply: tear down or establish a single
/// circuit. The resource footprint fields drive conflict detection; two ops
/// conflict iff they could touch the same fiber pool (shared duct), the same
/// add/drop or transceiver bank (shared endpoint DC), or the same amplifier
/// pool (overlapping candidate sites).
struct CommandOp {
  bool teardown = false;
  std::size_t index = 0;  ///< caller-side index (torn list or set_up list)
  std::vector<graph::EdgeId> ducts;
  graph::NodeId dc_a = graph::kInvalidNode;
  graph::NodeId dc_b = graph::kInvalidNode;
  /// Teardown: the allocation's amp site (if any). Establish: every
  /// candidate site the pool draw may pick from (empty when the path is
  /// feasible without an in-line amplifier).
  std::vector<graph::NodeId> amp_sites;
};

/// Plans and accounts one apply's command schedule.
///
/// Lifecycle: plan() computes the conflict graph, schedule slots and the
/// slot-major execution order. The controller then walks order(), bracketing
/// each op with begin_op()/end_op() and reporting every issued command via
/// on_command(); the plane advances a deterministic virtual clock through
/// per-device queues. add_floor() models a drain window or phase barrier;
/// begin_tail() seals the op phase so retunes/rollbacks start after the
/// schedule completes. horizon_ms() is the resulting makespan (excluding the
/// receiver-relock tail the controller adds once).
class CommandPlane {
 public:
  explicit CommandPlane(CommandCosts costs) : costs_(costs) {}

  /// Computes slots and execution order. `establishes_before_teardowns`
  /// inserts the make-before-break generation barrier: every teardown op
  /// starts only after every establish inserted before it has completed,
  /// keeping the hitless contract when the establishes come first.
  /// When every op conflicts with every earlier one, the order is exactly
  /// the insertion order and the slots are 1..n.
  void plan(std::vector<CommandOp> ops, bool establishes_before_teardowns);

  [[nodiscard]] const std::vector<CommandOp>& ops() const noexcept {
    return ops_;
  }
  /// 1-based schedule slot per op; ops in the same slot have no conflicts
  /// between them (and never include a conflicting pair).
  [[nodiscard]] int slot_of(std::size_t op) const { return slot_.at(op); }
  [[nodiscard]] int slot_count() const noexcept { return slot_count_; }
  /// Slot-major execution order, insertion-stable within a slot. Conflicting
  /// ops always appear in their insertion relative order.
  [[nodiscard]] const std::vector<std::size_t>& order() const noexcept {
    return order_;
  }

  // ---- deterministic virtual-time accounting ----

  /// Raises the earliest start time of everything not yet issued to the
  /// current horizon plus `delay_ms` (drain windows, phase barriers).
  void add_floor(double delay_ms);
  /// Opens op `i`: its commands start no earlier than the floor and the end
  /// of every earlier conflicting op.
  void begin_op(std::size_t i);
  /// Charges one issued command onto its device queue and the open op's
  /// chain. Commands issued outside any op (retunes, rollback compensation)
  /// only queue per device.
  void on_command(const DeviceCommand& cmd);
  /// Closes op `i`, charging `backoff_ms` of retry backoff onto its chain.
  void end_op(std::size_t i, double backoff_ms);
  /// Seals the op phase: subsequent commands start at the schedule's end.
  void begin_tail();

  /// Virtual time at which everything charged so far has completed.
  [[nodiscard]] double horizon_ms() const noexcept { return horizon_; }
  [[nodiscard]] long long commands_issued() const noexcept {
    return commands_;
  }

 private:
  /// Queue key: one queue per (device kind, location).
  using DeviceKey = std::pair<int, graph::NodeId>;
  [[nodiscard]] static DeviceKey key_of(const DeviceCommand& cmd);
  [[nodiscard]] static bool conflicts(const CommandOp& a, const CommandOp& b);

  CommandCosts costs_;
  std::vector<CommandOp> ops_;
  std::vector<std::vector<std::size_t>> deps_;  ///< earlier conflicting ops
  std::vector<int> slot_;
  int slot_count_ = 0;
  std::vector<std::size_t> order_;
  std::vector<double> op_end_;
  std::map<DeviceKey, double> device_free_;
  std::optional<std::size_t> open_op_;
  double cursor_ = 0.0;   ///< open op's chain position
  double floor_ = 0.0;    ///< earliest start for anything not yet issued
  double horizon_ = 0.0;  ///< max completion time seen
  long long commands_ = 0;
};

}  // namespace iris::control

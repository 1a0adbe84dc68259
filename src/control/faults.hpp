// Deterministic fault injection for the emulated device layer.
//
// The real testbed's devices misbehave: OSS mirrors stick, tunable lasers
// fail to relock, amplifier units arrive dead, management-plane commands time
// out. The emulators in devices.hpp consult a seeded FaultInjector before
// every state change, so the controller's retry / quarantine / rollback
// machinery is exercised against the same misbehaviour classes -- fully
// deterministically: a given seed and command sequence always produces the
// same fault schedule, independent of wall clock or thread count.
//
// A default-constructed FaultInjector is disabled: every command succeeds on
// the first attempt and the device layer behaves exactly as it did without
// fault injection (zero-overhead default path).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "graph/graph.hpp"

namespace iris::control {

/// Outcome of one device command attempt.
enum class CommandStatus {
  kOk,       ///< command applied
  kFailed,   ///< device NACKed (mirror stuck, laser lost lock, ...)
  kTimeout,  ///< management plane never answered within the deadline
};

struct CommandResult {
  CommandStatus status = CommandStatus::kOk;
  std::string detail;

  [[nodiscard]] bool ok() const noexcept {
    return status == CommandStatus::kOk;
  }
  static CommandResult success() { return {}; }
  static CommandResult failed(std::string why) {
    return {CommandStatus::kFailed, std::move(why)};
  }
  static CommandResult timeout(std::string why) {
    return {CommandStatus::kTimeout, std::move(why)};
  }
};

/// Per-command fault probabilities. All default to zero (nothing ever fails).
struct FaultRates {
  double oss_connect_fail = 0.0;     ///< transient cross-connect failure
  double oss_disconnect_fail = 0.0;  ///< transient disconnect failure
  double oss_port_stuck = 0.0;       ///< command leaves the mirror stuck: the
                                     ///< ports involved fail permanently
  double tx_tune_fail = 0.0;         ///< transient tune / relock failure
  double tx_dead = 0.0;              ///< transceiver dies permanently
  double amp_dead = 0.0;             ///< amplifier unit dead on first use
  double timeout_fraction = 0.0;     ///< injected faults that manifest as
                                     ///< timeouts instead of NACKs

  [[nodiscard]] bool any() const noexcept {
    return oss_connect_fail > 0.0 || oss_disconnect_fail > 0.0 ||
           oss_port_stuck > 0.0 || tx_tune_fail > 0.0 || tx_dead > 0.0 ||
           amp_dead > 0.0;
  }
};

/// How the controller reacts to failing commands.
struct RetryPolicy {
  int max_command_attempts = 4;     ///< total attempts per device command
  double backoff_base_ms = 1.0;     ///< first retry delay
  double backoff_factor = 2.0;      ///< exponential growth per retry
  double command_timeout_ms = 50.0; ///< cost of one timed-out attempt
  int max_circuit_attempts = 3;     ///< establishment retries (fresh
                                    ///< resources) after quarantine
};

struct FaultConfig {
  FaultRates rates;
  RetryPolicy retry;
  std::uint64_t seed = 0;
  /// Deterministic crash schedule: when positive, the injector throws
  /// ControllerCrash just before the N-th device command it sees executes.
  /// The device is left untouched, so the crash lands exactly on a command
  /// boundary; re-arm with arm_crash() for the next one.
  long long crash_after_commands = 0;
};

/// Thrown by the FaultInjector at a scheduled crash point. Deliberately NOT
/// derived from std::exception: it must fly through every retry / rollback /
/// compensation handler in the controller, exactly as a process kill would
/// skip them, leaving devices in whatever state the last completed command
/// produced. Only the crash-chaos harness catches it.
struct ControllerCrash {
  long long commands_executed = 0;  ///< commands completed before the crash
  /// Schedule slot of the command-plane op being executed at the crash point
  /// (-1 outside a scheduled op: rollback, retunes, recovery repairs). Crash
  /// harnesses use it to audit that every slot interleaving recovers.
  int schedule_slot = -1;
};

/// Seeded, stateful fault source shared by every emulated device of one
/// controller. Sticky faults (stuck ports, dead transceivers, dead amplifier
/// units) persist until clear_sticky(); transient faults are independent
/// per-attempt rolls, so a retry can succeed.
class FaultInjector {
 public:
  /// Disabled injector: enabled() is false and every command succeeds.
  FaultInjector() = default;
  /// Validates rates/retry parameters; throws std::invalid_argument.
  explicit FaultInjector(FaultConfig config);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const RetryPolicy& retry() const noexcept {
    return config_.retry;
  }

  // Device hooks -- called by the emulators before mutating state. A non-ok
  // result means the device state did NOT change.
  CommandResult oss_connect(graph::NodeId site, int in_port, int out_port);
  CommandResult oss_disconnect(graph::NodeId site, int in_port, int out_port);
  CommandResult tx_tune(graph::NodeId dc, int transceiver);
  /// Power reading on an amplifier unit before it is cabled into a circuit;
  /// dead units fail this check forever (decided once, on first use).
  CommandResult amp_power_check(graph::NodeId site, int unit);

  // Sticky-state introspection.
  [[nodiscard]] bool port_stuck(graph::NodeId site, int port) const {
    return stuck_ports_.contains({site, port});
  }
  [[nodiscard]] bool transceiver_dead(graph::NodeId dc, int tx) const {
    return dead_txs_.contains({dc, tx});
  }
  [[nodiscard]] bool amplifier_dead(graph::NodeId site, int unit) const {
    const auto it = dead_amps_.find({site, unit});
    return it != dead_amps_.end() && it->second;
  }
  [[nodiscard]] int stuck_port_count() const {
    return static_cast<int>(stuck_ports_.size());
  }
  [[nodiscard]] int dead_transceiver_count() const {
    return static_cast<int>(dead_txs_.size());
  }
  [[nodiscard]] long long faults_injected() const noexcept {
    return injected_;
  }

  /// Device commands that have passed through this injector (attempts, not
  /// retries collapsed) -- the crash schedule's clock.
  [[nodiscard]] long long commands_seen() const noexcept {
    return commands_seen_;
  }

  /// Arms (or re-arms) the crash schedule: ControllerCrash is thrown just
  /// before the `after_commands`-th subsequent device command executes.
  /// 0 disarms. A firing crash disarms itself, so recovery can run commands
  /// through the same injector without instantly dying again.
  void arm_crash(long long after_commands);
  [[nodiscard]] bool crash_armed() const noexcept { return crash_at_ > 0; }
  /// Scheduled crashes that actually fired over this injector's lifetime
  /// (each firing self-disarms, so this also counts re-arm cycles consumed).
  [[nodiscard]] long long crashes_fired() const noexcept {
    return crashes_fired_;
  }

  /// Stamps the command-plane schedule slot onto any crash fired from now on
  /// (-1 = outside any scheduled op). The controller updates this as it walks
  /// the schedule so ControllerCrash reports where the interleaving died.
  void set_schedule_slot(int slot) noexcept { schedule_slot_ = slot; }

  /// Field repair: forgets all sticky faults (tests and soak harnesses).
  void clear_sticky();

 private:
  /// Deterministic U[0,1) draw; advances the injector's sequence counter.
  double roll(std::uint64_t stream);
  /// Rolls one transient fault; on hit, picks NACK vs timeout.
  CommandResult transient(double rate, std::uint64_t stream, const char* what);
  /// Counts one device command and fires the crash schedule when due.
  void count_command();

  FaultConfig config_;
  bool enabled_ = false;
  std::uint64_t ticks_ = 0;
  long long injected_ = 0;
  long long commands_seen_ = 0;
  long long crash_at_ = 0;  ///< absolute command index; 0 = disarmed
  long long crashes_fired_ = 0;
  int schedule_slot_ = -1;  ///< stamped onto ControllerCrash when firing
  std::set<std::pair<graph::NodeId, int>> stuck_ports_;
  std::set<std::pair<graph::NodeId, int>> dead_txs_;
  std::map<std::pair<graph::NodeId, int>, bool> dead_amps_;
};

}  // namespace iris::control

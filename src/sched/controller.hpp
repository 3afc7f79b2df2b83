// Schedule controllers: who runs, who sleeps, who steals from whom.
//
// The paper's upper bounds (Theorems 8, 12, 16, 18) hold in expectation over
// random work stealing, which RandomController models (with optional stall
// injection — the bounds are robust to adversarial delays). The lower bounds
// (Theorems 9, 10) are proved with explicit adversarial executions ("p2
// falls asleep before executing w…"), which ScriptController reproduces by
// reacting to role-tagged nodes.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "core/policy.hpp"
#include "support/rng.hpp"

namespace wsf::sched {

class Simulator;

/// Decides processor availability and steal victims during a simulation.
/// Controllers observe the simulation through the Simulator's const
/// interface and must be deterministic for a given seed.
class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  /// Called once before the first round.
  virtual void on_start(const Simulator& sim);

  /// Whether processor p takes an action this round.
  virtual bool awake(const Simulator& sim, core::ProcId p);

  /// Victim for a steal attempt by `thief`; return core::kInvalidThread…
  /// (we reuse ProcId semantics: return thief itself to skip the attempt).
  virtual core::ProcId pick_victim(const Simulator& sim,
                                   core::ProcId thief) = 0;

  /// Notification: p executed node v (called after counters update).
  virtual void on_execute(const Simulator& sim, core::ProcId p,
                          core::NodeId v);

  /// Notification: thief stole node v from victim.
  virtual void on_steal(const Simulator& sim, core::ProcId thief,
                        core::ProcId victim, core::NodeId v);
};

/// Uniform random work stealing with optional stall injection, the model
/// behind the expectation bounds. Deterministic given the seed.
class RandomController : public ScheduleController {
 public:
  RandomController(std::uint64_t seed, double stall_prob,
                   bool steal_nonempty_only,
                   core::VictimPolicy victim_policy =
                       core::VictimPolicy::Uniform);

  /// Rewinds the random stream to a fresh seed, as if newly constructed —
  /// lets Simulator::reset reuse the controller across seed replicates.
  /// Last-victim affinity state is cleared too (on_start re-sizes it).
  void reseed(std::uint64_t seed) {
    rng_ = support::Xoshiro256(seed);
    last_victim_.clear();
  }

  void on_start(const Simulator& sim) override;
  bool awake(const Simulator& sim, core::ProcId p) override;
  core::ProcId pick_victim(const Simulator& sim, core::ProcId thief) override;
  void on_steal(const Simulator& sim, core::ProcId thief, core::ProcId victim,
                core::NodeId v) override;

 private:
  support::Xoshiro256 rng_;
  double stall_prob_;
  bool steal_nonempty_only_;
  core::VictimPolicy victim_policy_;
  /// Per-thief last successful victim (read by VictimPolicy::LastVictim);
  /// sized at on_start. An entry equal to the thief's own index means
  /// "none yet".
  std::vector<core::ProcId> last_victim_;
};

/// Scripted adversarial controller driven by node roles. Rules:
///   * sleep_after(role, p): p goes to sleep right after the node tagged
///     `role` is executed (by anyone);
///   * wake_after(role, p): p wakes right after `role` executes;
///   * sleep_now(p): p starts asleep;
///   * prefer_victim(thief, victims...): steal priority order — the first
///     victim with a non-empty deque is chosen; with no preference (or all
///     preferred deques empty) falls back to the lowest-indexed non-empty
///     deque other than the thief.
/// Roles are resolved against the graph at on_start; unknown roles are an
/// error (the generators and scripts must agree).
class ScriptController : public ScheduleController {
 public:
  ScriptController& sleep_after(const std::string& role, core::ProcId p);
  ScriptController& wake_after(const std::string& role, core::ProcId p);
  ScriptController& sleep_now(core::ProcId p);
  ScriptController& prefer_victim(core::ProcId thief,
                                  std::vector<core::ProcId> victims);

  void on_start(const Simulator& sim) override;
  bool awake(const Simulator& sim, core::ProcId p) override;
  core::ProcId pick_victim(const Simulator& sim, core::ProcId thief) override;
  void on_execute(const Simulator& sim, core::ProcId p,
                  core::NodeId v) override;

 private:
  struct PendingRule {
    std::string role;
    core::ProcId proc;
    bool sleep;  // false = wake
  };
  std::vector<PendingRule> pending_rules_;
  std::vector<core::ProcId> initially_asleep_;
  std::unordered_map<core::ProcId, std::vector<core::ProcId>> victim_pref_;

  // Resolved at on_start:
  std::unordered_map<core::NodeId, std::vector<std::pair<core::ProcId, bool>>>
      triggers_;
  std::vector<char> asleep_;
};

}  // namespace wsf::sched

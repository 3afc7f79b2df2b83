// Fork scheduling policy (Section 3 / Section 5 of the paper).
//
// After executing a fork, a parsimonious work-stealing processor executes one
// child and pushes the other onto the bottom of its deque. The paper's second
// contribution is that for structured computations the *future thread first*
// choice gives provably good cache locality (Theorem 8) while *parent thread
// first* can be as bad as unstructured futures (Theorem 10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/rng.hpp"

namespace wsf::core {

enum class ForkPolicy {
  /// Execute the spawned future thread (the fork's left child); push the
  /// parent continuation. This is "work-first" in Cilk terminology and the
  /// policy the paper recommends.
  FutureFirst,
  /// Continue the parent thread (the fork's right child); push the future
  /// task. This is "help-first" and the policy Theorem 10 shows can be bad.
  ParentFirst,
};

inline const char* to_string(ForkPolicy p) {
  return p == ForkPolicy::FutureFirst ? "future-first" : "parent-first";
}

ForkPolicy fork_policy_from_string(const std::string& s);

/// How much a thief claims per successful steal operation.
enum class StealPolicy {
  /// Claim exactly one task from the victim's top (the classic ABP /
  /// parsimonious discipline the paper analyzes).
  One,
  /// Claim up to half the victim's observed items in one operation
  /// (steal-half amortization: thieves visit the victim's top line once
  /// per batch instead of once per task).
  Half,
};

inline const char* to_string(StealPolicy p) {
  return p == StealPolicy::One ? "one" : "half";
}

StealPolicy steal_policy_from_string(const std::string& s);

/// Most tasks one steal-half operation claims, in both engines: bounded so
/// one batch cannot monopolize a huge deque.
inline constexpr std::size_t kMaxStealBatch = 16;

/// How a thief picks its victim.
enum class VictimPolicy {
  /// Uniformly random among the other workers (the paper's model).
  Uniform,
  /// Retry the last worker a steal succeeded from before falling back to
  /// uniform choice (affinity: a recently productive victim likely still
  /// has work, and its lines may still be warm nearby).
  LastVictim,
  /// Scan neighbors by index distance (id+1, id+2, … wrapping) and take
  /// the first non-empty deque — a stand-in for topology-aware locality.
  Nearest,
};

inline const char* to_string(VictimPolicy p) {
  switch (p) {
    case VictimPolicy::Uniform: return "uniform";
    case VictimPolicy::LastVictim: return "last-victim";
    case VictimPolicy::Nearest: return "nearest";
  }
  return "uniform";
}

VictimPolicy victim_policy_from_string(const std::string& s);

/// The victim-selection rule of both engines: the simulator's
/// RandomController and the runtime's workers call this one function, so a
/// policy means the same schedule decision in each. `thief` picks among
/// `n` deques; `last` is its last successful victim (`thief` when none);
/// `is_empty(q)` reports whether deque q looks empty. Returns `thief` to
/// decline the round (nothing worth probing).
///   * Uniform: one `rng.below(n-1)` draw over the other deques; with
///     `nonempty_only`, one `rng.below(count)` draw over the non-empty ones.
///   * LastVictim: `last` while its deque has work, without an RNG draw;
///     otherwise the Uniform rule.
///   * Nearest: the first non-empty deque by ring distance (thief+1,
///     thief+2, ...); declines when all are empty. Never draws.
template <typename IsEmpty>
std::uint32_t pick_victim(VictimPolicy policy, std::uint32_t thief,
                          std::uint32_t n, std::uint32_t last,
                          bool nonempty_only, IsEmpty&& is_empty,
                          support::Xoshiro256& rng) {
  if (n <= 1) return thief;  // nobody to steal from
  switch (policy) {
    case VictimPolicy::LastVictim:
      if (last != thief && !is_empty(last)) return last;
      break;
    case VictimPolicy::Nearest:
      for (std::uint32_t d = 1; d < n; ++d) {
        const std::uint32_t v = (thief + d) % n;
        if (!is_empty(v)) return v;
      }
      return thief;
    case VictimPolicy::Uniform:
      break;
  }
  if (!nonempty_only) {
    // Faithful ABP: uniform over the other deques; the probe may fail.
    auto v = static_cast<std::uint32_t>(rng.below(n - 1));
    if (v >= thief) ++v;
    return v;
  }
  // Uniform over the non-empty deques: count them, draw k, take the k-th.
  std::uint32_t count = 0;
  for (std::uint32_t q = 0; q < n; ++q)
    if (q != thief && !is_empty(q)) ++count;
  if (count == 0) return thief;
  std::uint64_t k = rng.below(count);
  for (std::uint32_t q = 0; q < n; ++q)
    if (q != thief && !is_empty(q) && k-- == 0) return q;
  return thief;
}

}  // namespace wsf::core

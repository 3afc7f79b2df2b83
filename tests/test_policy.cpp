// The victim-selection rule both engines share (core::pick_victim): exact
// victim sequences per policy, which rounds spend an RNG draw, and when a
// round is declined.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "support/rng.hpp"

namespace wsf::core {
namespace {

constexpr std::uint32_t kProcs = 4;
constexpr std::uint64_t kSeed = 7;
// Deques 1 and 3 hold work; 0 and 2 are empty.
constexpr std::array<bool, kProcs> kEmpty = {true, false, true, false};
// Thief t last stole from last[t]: thieves 1 and 3 remember a victim with
// work, thieves 0 and 2 one whose deque has since emptied.
constexpr std::array<std::uint32_t, kProcs> kLast = {2, 3, 0, 1};

bool is_empty(std::uint32_t q) { return kEmpty[q]; }
bool all_empty(std::uint32_t) { return true; }

struct Case {
  VictimPolicy policy;
  bool nonempty_only;
  /// Victims for rounds 0..11, thief = round % kProcs, one shared stream.
  std::vector<std::uint32_t> victims;
};

const Case kCases[] = {
    {VictimPolicy::Uniform, false, {3, 0, 3, 2, 3, 3, 0, 0, 2, 0, 1, 2}},
    {VictimPolicy::Uniform, true, {3, 3, 3, 1, 3, 3, 1, 1, 1, 3, 3, 1}},
    {VictimPolicy::LastVictim, false, {3, 3, 0, 1, 3, 3, 3, 1, 3, 3, 3, 1}},
    {VictimPolicy::LastVictim, true, {3, 3, 1, 1, 3, 3, 3, 1, 3, 3, 3, 1}},
    {VictimPolicy::Nearest, false, {1, 3, 3, 1, 1, 3, 3, 1, 1, 3, 3, 1}},
    {VictimPolicy::Nearest, true, {1, 3, 3, 1, 1, 3, 3, 1, 1, 3, 3, 1}},
};

/// Whether pick_victim consumed RNG output: compares the next draw of the
/// stream it used against an untouched copy.
bool drew(support::Xoshiro256 used, support::Xoshiro256 untouched) {
  return used.next() != untouched.next();
}

TEST(PickVictim, ExactSequencePerPolicy) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(to_string(c.policy)) +
                 (c.nonempty_only ? " nonempty-only" : " any-deque"));
    support::Xoshiro256 rng(kSeed);
    for (std::uint32_t round = 0; round < c.victims.size(); ++round) {
      const std::uint32_t thief = round % kProcs;
      const support::Xoshiro256 before = rng;
      const std::uint32_t v = pick_victim(c.policy, thief, kProcs,
                                          kLast[thief], c.nonempty_only,
                                          is_empty, rng);
      EXPECT_EQ(v, c.victims[round]) << "round " << round;
      // Some deque other than the thief's holds work, so no round here is
      // declined.
      EXPECT_NE(v, thief) << "round " << round;
      if (c.nonempty_only) {
        EXPECT_FALSE(kEmpty[v]) << "round " << round;
      }
      // Nearest never draws; a LastVictim retry of a victim with work
      // spends no draw; every other round draws.
      const bool retry = c.policy == VictimPolicy::LastVictim &&
                         !kEmpty[kLast[thief]];
      const bool expect_draw = c.policy != VictimPolicy::Nearest && !retry;
      EXPECT_EQ(drew(rng, before), expect_draw) << "round " << round;
      if (retry) {
        EXPECT_EQ(v, kLast[thief]) << "round " << round;
      }
    }
  }
}

TEST(PickVictim, DeclinesOnlyWhenNothingIsWorthProbing) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(to_string(c.policy)) +
                 (c.nonempty_only ? " nonempty-only" : " any-deque"));
    support::Xoshiro256 rng(kSeed);
    for (std::uint32_t thief = 0; thief < kProcs; ++thief) {
      const std::uint32_t v = pick_victim(c.policy, thief, kProcs,
                                          kLast[thief], c.nonempty_only,
                                          all_empty, rng);
      // Every deque empty: Nearest and the non-empty-only draw decline;
      // the faithful ABP draw still probes some other deque.
      const bool declines =
          c.policy == VictimPolicy::Nearest || c.nonempty_only;
      if (declines) {
        EXPECT_EQ(v, thief);
      } else {
        EXPECT_NE(v, thief);
        EXPECT_LT(v, kProcs);
      }
    }
    // A lone worker has nobody to steal from, and spends no draw finding
    // that out.
    const support::Xoshiro256 before = rng;
    EXPECT_EQ(pick_victim(c.policy, 0, 1, 0, c.nonempty_only, is_empty, rng),
              0u);
    EXPECT_FALSE(drew(rng, before));
  }
}

}  // namespace
}  // namespace wsf::core

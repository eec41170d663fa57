// Unit tests for the common module: Status/Result, SimClock, Random and
// the flat sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/flat_set.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace navpath {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, CopySemantics) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_TRUE(s.IsNotFound());
  t = Status::OK();
  EXPECT_TRUE(t.ok());
  EXPECT_TRUE(s.IsNotFound());
}

TEST(StatusTest, CodePredicatesMatchOnlyTheirCode) {
  const Status corruption = Status::Corruption("bad page");
  EXPECT_TRUE(corruption.IsCorruption());
  EXPECT_FALSE(corruption.IsIOError());
  EXPECT_FALSE(corruption.IsOutOfMemory());

  const Status oom = Status::OutOfMemory("no frames");
  EXPECT_TRUE(oom.IsOutOfMemory());
  EXPECT_FALSE(oom.IsCorruption());

  const Status ok = Status::OK();
  EXPECT_FALSE(ok.IsCorruption());
  EXPECT_FALSE(ok.IsOutOfMemory());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)),
                 "UnknownCode");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

Status FailingOperation() { return Status::IOError("boom"); }

Status PropagatingCaller() {
  NAVPATH_RETURN_NOT_OK(FailingOperation());
  return Status::OK();
}

TEST(MacrosTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(PropagatingCaller().IsIOError());
}

Result<int> MakeValue(bool ok) {
  if (ok) return 5;
  return Status::NotFound("no value");
}

Result<int> AssignOrReturnCaller(bool ok) {
  NAVPATH_ASSIGN_OR_RETURN(const int v, MakeValue(ok));
  return v + 1;
}

TEST(MacrosTest, AssignOrReturn) {
  EXPECT_EQ(*AssignOrReturnCaller(true), 6);
  EXPECT_TRUE(AssignOrReturnCaller(false).status().IsNotFound());
}

TEST(SimClockTest, CpuPlusIoEqualsTotal) {
  SimClock clock;
  clock.ChargeCpu(100);
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(clock.cpu_time(), 100u);
  clock.WaitUntil(500);
  EXPECT_EQ(clock.now(), 500u);
  EXPECT_EQ(clock.cpu_time(), 100u);
  EXPECT_EQ(clock.io_wait_time(), 400u);
  // Waiting for a time in the past is a no-op.
  clock.WaitUntil(300);
  EXPECT_EQ(clock.now(), 500u);
}

TEST(SimClockTest, ToSeconds) {
  EXPECT_DOUBLE_EQ(SimClock::ToSeconds(kSimSecond), 1.0);
  EXPECT_DOUBLE_EQ(SimClock::ToSeconds(kSimMillisecond), 0.001);
}

TEST(RandomTest, Deterministic) {
  Random a(123), b(123), c(124);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, BoundedStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const auto v = rng.NextInRange(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BoundedCoversRange) {
  Random rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(KeySetTest, MatchesUnorderedSetReference) {
  // Keys mix a small range (many repeats), the two extremes (0 is the
  // empty-slot value) and arbitrary 64-bit values.
  Random rng(20260417);
  auto next_key = [&]() -> std::uint64_t {
    const std::uint64_t kind = rng.NextBounded(10);
    if (kind < 5) return rng.NextBounded(5000);
    if (kind == 5) return 0;
    if (kind == 6) return ~0ull;
    return rng.NextU64();
  };
  KeySet set;
  std::unordered_set<std::uint64_t> reference;
  std::size_t growths = 0;
  for (int op = 0; op < 100000; ++op) {
    const std::uint64_t key = next_key();
    if (rng.NextBool(0.6)) {
      const std::size_t capacity = set.capacity();
      ASSERT_EQ(set.insert(key), reference.insert(key).second) << key;
      if (set.capacity() != capacity) ++growths;
    } else {
      ASSERT_EQ(set.contains(key), reference.count(key) > 0) << key;
    }
    ASSERT_EQ(set.size(), reference.size());
    // Load <= 1/2 over the table; key 0 lives outside it.
    ASSERT_LE((set.size() - (set.contains(0) ? 1 : 0)) * 2, set.capacity());
  }
  EXPECT_GT(growths, 8u);
  EXPECT_TRUE(std::has_single_bit(set.capacity()));
  for (const std::uint64_t key : reference) ASSERT_TRUE(set.contains(key));

  set.clear();
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(~0ull));
  EXPECT_FALSE(set.contains(1));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(~0ull));
  EXPECT_FALSE(set.insert(0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(PageSetTest, MatchesStdSetReference) {
  Random rng(99);
  PageSet set;
  std::set<std::uint32_t> reference;
  for (int op = 0; op < 20000; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.NextBounded(300));
    switch (rng.NextBounded(3)) {
      case 0:
        ASSERT_EQ(set.insert(id), reference.insert(id).second);
        break;
      case 1:
        ASSERT_EQ(set.erase(id), reference.erase(id) == 1);
        break;
      default:
        ASSERT_EQ(set.contains(id), reference.count(id) == 1);
    }
    ASSERT_EQ(set.size(), reference.size());
    const auto from = static_cast<std::uint32_t>(rng.NextBounded(320));
    const auto it = reference.lower_bound(from);
    ASSERT_EQ(set.NextAtOrAfter(from),
              it == reference.end() ? PageSet::kNone : *it)
        << from;
  }
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.NextAtOrAfter(0), PageSet::kNone);
}

TEST(PageSetTest, NextAtOrAfterAcrossWordBoundaries) {
  PageSet set;
  EXPECT_EQ(set.NextAtOrAfter(0), PageSet::kNone);
  for (const std::uint32_t id : {63u, 64u, 65u, 127u, 128u}) set.insert(id);
  EXPECT_EQ(set.NextAtOrAfter(0), 63u);
  EXPECT_EQ(set.NextAtOrAfter(63), 63u);
  EXPECT_EQ(set.NextAtOrAfter(64), 64u);
  EXPECT_EQ(set.NextAtOrAfter(65), 65u);
  EXPECT_EQ(set.NextAtOrAfter(66), 127u);
  EXPECT_EQ(set.NextAtOrAfter(127), 127u);
  EXPECT_EQ(set.NextAtOrAfter(128), 128u);
  EXPECT_EQ(set.NextAtOrAfter(129), PageSet::kNone);
  EXPECT_EQ(set.NextAtOrAfter(PageSet::kNone), PageSet::kNone);
  set.erase(64);
  set.erase(127);
  EXPECT_EQ(set.NextAtOrAfter(64), 65u);
  EXPECT_EQ(set.NextAtOrAfter(66), 128u);
  EXPECT_FALSE(set.contains(64));
  EXPECT_TRUE(set.contains(128));
  EXPECT_FALSE(set.contains(100000));  // beyond the grown words
}

TEST(PageSetTest, AscendingWalkThatErasesVisitsWhatStdSetWalkVisits) {
  // XSchedule's readiness sweep: walk ascending, erasing some visited ids.
  Random rng(5);
  for (int round = 0; round < 50; ++round) {
    PageSet set;
    std::set<std::uint32_t> reference;
    for (int i = 0; i < 200; ++i) {
      const auto id = static_cast<std::uint32_t>(rng.NextBounded(1000));
      set.insert(id);
      reference.insert(id);
    }
    std::vector<std::uint32_t> erase_at;
    for (const std::uint32_t id : reference) {
      if (rng.NextBool(0.5)) erase_at.push_back(id);
    }
    auto erases = [&](std::uint32_t id) {
      return std::binary_search(erase_at.begin(), erase_at.end(), id);
    };
    std::vector<std::uint32_t> walked, expected;
    for (std::uint32_t id = set.NextAtOrAfter(0); id != PageSet::kNone;
         id = set.NextAtOrAfter(id + 1)) {
      walked.push_back(id);
      if (erases(id)) set.erase(id);
    }
    for (auto it = reference.begin(); it != reference.end();) {
      const std::uint32_t id = *it++;
      expected.push_back(id);
      if (erases(id)) reference.erase(id);
    }
    ASSERT_EQ(walked, expected);
    ASSERT_EQ(set.size(), reference.size());
    for (const std::uint32_t id : reference) ASSERT_TRUE(set.contains(id));
  }
}

}  // namespace
}  // namespace navpath

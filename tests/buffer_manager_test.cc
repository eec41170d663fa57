// Unit tests for the buffer manager: pinning, LRU eviction, write-back,
// prefetch, per-owner pending counts, swizzle accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "storage/buffer_manager.h"
#include "storage/fault_injector.h"

namespace navpath {
namespace {

constexpr std::size_t kPage = 512;

struct BufferFixture {
  SimClock clock;
  Metrics metrics;
  CpuCostModel costs;
  SimulatedDisk disk{DiskModel(), kPage, &clock, &metrics};
  BufferManager bm;

  explicit BufferFixture(std::size_t capacity)
      : bm(&disk, capacity, costs, &clock, &metrics) {}

  PageId NewDiskPage(std::uint8_t fill) {
    const PageId id = disk.AllocatePage();
    std::vector<std::byte> buf(kPage, static_cast<std::byte>(fill));
    disk.WriteSync(id, buf.data()).AbortIfNotOk();
    return id;
  }
};

TEST(BufferManagerTest, MissThenHit) {
  BufferFixture f(4);
  const PageId p = f.NewDiskPage(0x5A);
  {
    auto guard = f.bm.Fix(p);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<std::byte>(0x5A));
  }
  EXPECT_EQ(f.metrics.buffer_misses, 1u);
  {
    auto guard = f.bm.Fix(p);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(f.metrics.buffer_hits, 1u);
  EXPECT_EQ(f.metrics.buffer_misses, 1u);
}

TEST(BufferManagerTest, EvictsLeastRecentlyUsed) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }  // refresh a
  { auto g = f.bm.Fix(c); ASSERT_TRUE(g.ok()); }  // must evict b
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(b));
  EXPECT_TRUE(f.bm.IsResident(c));
  EXPECT_EQ(f.metrics.buffer_evictions, 1u);
}

TEST(BufferManagerTest, PinnedPagesSurviveEviction) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  auto ga = f.bm.Fix(a);
  ASSERT_TRUE(ga.ok());
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }
  { auto g = f.bm.Fix(c); ASSERT_TRUE(g.ok()); }  // evicts b, not pinned a
  EXPECT_TRUE(f.bm.IsResident(a));
  EXPECT_FALSE(f.bm.IsResident(b));
}

TEST(BufferManagerTest, AllPinnedIsResourceExhausted) {
  BufferFixture f(2);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  const PageId c = f.NewDiskPage(3);
  auto ga = f.bm.Fix(a);
  auto gb = f.bm.Fix(b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_TRUE(f.bm.Fix(c).status().IsResourceExhausted());
}

TEST(BufferManagerTest, DirtyPageWrittenBackOnEviction) {
  BufferFixture f(1);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  {
    auto guard = f.bm.Fix(a);
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<std::byte>(0x77);
    guard->MarkDirty();
  }
  { auto g = f.bm.Fix(b); ASSERT_TRUE(g.ok()); }  // evicts dirty a
  EXPECT_GE(f.metrics.disk_writes, 1u);
  {
    auto guard = f.bm.Fix(a);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<std::byte>(0x77));
  }
}

TEST(BufferManagerTest, NewPageAllocatesAndPins) {
  BufferFixture f(4);
  auto guard = f.bm.NewPage();
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->page_id(), 0u);
  std::memset(guard->data(), 0x42, kPage);
  guard->MarkDirty();
  guard->Release();
  ASSERT_TRUE(f.bm.FlushAll().ok());
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(f.disk.ReadSync(0, buf.data()).ok());
  EXPECT_EQ(buf[7], static_cast<std::byte>(0x42));
}

TEST(BufferManagerTest, SwizzleAccounting) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.swizzle_ops, 0u);
  { auto g = f.bm.FixSwizzle(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.swizzle_ops, 1u);
}

TEST(BufferManagerTest, PrefetchLifecycle) {
  BufferFixture f(8);
  const PageId a = f.NewDiskPage(1);
  const PageId b = f.NewDiskPage(2);
  auto o1 = f.bm.Prefetch(a);
  ASSERT_TRUE(o1.ok());
  EXPECT_EQ(*o1, BufferManager::PrefetchOutcome::kSubmitted);
  auto o2 = f.bm.Prefetch(a);
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(*o2, BufferManager::PrefetchOutcome::kInFlight);
  auto o3 = f.bm.Prefetch(b);
  ASSERT_TRUE(o3.ok());
  EXPECT_EQ(*o3, BufferManager::PrefetchOutcome::kSubmitted);
  EXPECT_TRUE(f.bm.HasPrefetchInFlight());
  for (int i = 0; i < 2; ++i) {
    auto done = f.bm.WaitAnyPrefetch();
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(f.bm.IsResident(*done));
  }
  EXPECT_FALSE(f.bm.HasPrefetchInFlight());
  // The page is now resident: fixing it is a hit, and further prefetches
  // report residency.
  const auto hits_before = f.metrics.buffer_hits;
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(f.metrics.buffer_hits, hits_before + 1);
  auto o4 = f.bm.Prefetch(a);
  ASSERT_TRUE(o4.ok());
  EXPECT_EQ(*o4, BufferManager::PrefetchOutcome::kResident);
}

// PendingFor is a counter maintained on every in-flight change; at each
// step of a scripted sequence it must equal a brute-force count over the
// requests still in flight.
TEST(BufferManagerTest, PendingForMatchesBruteForceCount) {
  BufferFixture f(16);
  std::vector<PageId> pages;
  for (std::uint8_t i = 1; i <= 5; ++i) pages.push_back(f.NewDiskPage(i));
  const PageId bad = f.NewDiskPage(0xEE);
  FaultInjectorOptions faults;
  faults.permanent_bad_pages = {bad};
  FaultInjector injector(faults);
  f.disk.SetFaultInjector(&injector);

  std::map<PageId, std::set<std::uint32_t>> in_flight;  // page -> owners
  auto expect_counts = [&](const std::string& step) {
    for (std::uint32_t owner = 0; owner < 4; ++owner) {
      std::size_t n = 0;
      for (const auto& entry : in_flight) n += entry.second.count(owner);
      EXPECT_EQ(f.bm.PendingFor(owner), n) << step << ", owner " << owner;
    }
    EXPECT_EQ(f.bm.HasPrefetchInFlight(), !in_flight.empty()) << step;
  };
  auto prefetch = [&](PageId page, std::uint32_t owner) {
    auto outcome = f.bm.Prefetch(page, owner);
    ASSERT_TRUE(outcome.ok());
    if (*outcome != BufferManager::PrefetchOutcome::kResident) {
      in_flight[page].insert(owner);
    }
    expect_counts("prefetch of page " + std::to_string(page));
  };
  auto retire = [&](PageId page, const std::string& step) {
    in_flight.erase(page);
    expect_counts(step + " of page " + std::to_string(page));
  };

  prefetch(pages[0], 1);  // submit
  prefetch(pages[0], 2);  // cross-owner merge
  prefetch(pages[0], 1);  // same-owner repeat
  prefetch(pages[1], 2);
  prefetch(pages[2], 0);
  prefetch(pages[3], 3);
  prefetch(pages[3], 1);
  EXPECT_EQ(f.metrics.requests_merged, 2u);

  // Completions, first collected by a poll once due, then by waits.
  f.clock.WaitUntil(f.clock.now() + kSimSecond);
  auto polled = f.bm.PollAnyPrefetch();
  ASSERT_TRUE(polled.ok());
  ASSERT_NE(*polled, kInvalidPageId);
  retire(*polled, "poll");
  while (!in_flight.empty()) {
    auto done = f.bm.WaitAnyPrefetch();
    ASSERT_TRUE(done.ok());
    retire(*done, "wait");
  }
  prefetch(pages[0], 3);  // resident now: no request, no count

  // A corrupted completion falls back to a synchronous re-read. On a
  // permanently bad page that fails too, and the merged request must
  // still be released for both owners.
  prefetch(bad, 1);
  prefetch(bad, 2);
  prefetch(pages[4], 2);
  std::size_t failed = 0;
  while (!in_flight.empty()) {
    auto done = f.bm.WaitAnyPrefetch();
    if (done.ok()) {
      retire(*done, "wait");
    } else {
      EXPECT_TRUE(done.status().IsCorruption()) << done.status().ToString();
      ++failed;
      retire(bad, "failed fallback");
    }
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(f.metrics.fault_fallbacks, 1u);
}

TEST(BufferManagerTest, InvalidateAllDropsCleanly) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  { auto g = f.bm.Fix(a); ASSERT_TRUE(g.ok()); }
  EXPECT_TRUE(f.bm.IsResident(a));
  ASSERT_TRUE(f.bm.InvalidateAll().ok());
  EXPECT_FALSE(f.bm.IsResident(a));
  EXPECT_EQ(f.bm.pages_resident(), 0u);
}

TEST(BufferManagerTest, InvalidateRefusesWhilePinned) {
  BufferFixture f(4);
  const PageId a = f.NewDiskPage(1);
  auto g = f.bm.Fix(a);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(f.bm.InvalidateAll().ok());
}

}  // namespace
}  // namespace navpath

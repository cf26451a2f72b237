#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"

namespace bulkdel {
namespace {

TEST(DiskManagerTest, AllocateReadWrite) {
  DiskManager disk;
  auto p0 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok());
  char buf[kPageSize];
  std::memset(buf, 0xAB, kPageSize);
  ASSERT_TRUE(disk.WritePage(*p0, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(*p0, out).ok());
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
}

TEST(DiskManagerTest, FreeListReusesPages) {
  DiskManager disk;
  PageId a = *disk.AllocatePage();
  PageId b = *disk.AllocatePage();
  (void)b;
  ASSERT_TRUE(disk.FreePage(a).ok());
  EXPECT_EQ(disk.NumFreePages(), 1u);
  PageId c = *disk.AllocatePage();
  EXPECT_EQ(c, a);
  EXPECT_EQ(disk.NumFreePages(), 0u);
}

TEST(DiskManagerTest, OutOfBoundsRejected) {
  DiskManager disk;
  char buf[kPageSize];
  EXPECT_FALSE(disk.ReadPage(17, buf).ok());
  EXPECT_FALSE(disk.WritePage(17, buf).ok());
  EXPECT_FALSE(disk.FreePage(17).ok());
}

TEST(DiskManagerTest, SequentialVsRandomAccounting) {
  DiskModel model;
  DiskManager disk(model);
  std::vector<PageId> pages;
  for (int i = 0; i < 10; ++i) pages.push_back(*disk.AllocatePage());
  char buf[kPageSize] = {};
  disk.ResetStats();
  // Ascending pass: first access random, the rest sequential.
  for (PageId p : pages) ASSERT_TRUE(disk.WritePage(p, buf).ok());
  IoStats s = disk.stats();
  EXPECT_EQ(s.writes, 10);
  EXPECT_EQ(s.random_accesses, 1);
  EXPECT_EQ(s.sequential_accesses, 9);
  EXPECT_EQ(s.simulated_micros,
            model.random_page_micros + 9 * model.sequential_page_micros);

  disk.ResetStats();
  // Strided pass: all random.
  for (int i = 9; i >= 0; --i) ASSERT_TRUE(disk.ReadPage(pages[i], buf).ok());
  s = disk.stats();
  EXPECT_EQ(s.random_accesses, 10);
}

TEST(DiskManagerTest, FileBackedRoundTrip) {
  std::string path = ::testing::TempDir() + "/bulkdel_disk_test.db";
  PageId p;
  {
    DiskManager disk(path, /*truncate=*/true);
    p = *disk.AllocatePage();
    char buf[kPageSize];
    std::memset(buf, 0x5C, kPageSize);
    ASSERT_TRUE(disk.WritePage(p, buf).ok());
  }
  DiskManager disk(path, /*truncate=*/false);
  char out[kPageSize];
  ASSERT_TRUE(disk.ReadPage(p, out).ok());
  EXPECT_EQ(out[0], 0x5C);
  EXPECT_EQ(out[kPageSize - 1], 0x5C);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  DiskManager disk_;
  BufferPool pool_{&disk_, 8 * kPageSize};
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndPersists) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard->page_id();
    for (uint32_t i = 0; i < kPageSize; ++i) EXPECT_EQ(guard->data()[i], 0);
    guard->data()[0] = 'x';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(disk_.ReadPage(id, buf).ok());
  EXPECT_EQ(buf[0], 'x');
}

TEST_F(BufferPoolTest, FetchHitDoesNotTouchDisk) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    id = guard->page_id();
  }
  int64_t reads_before = disk_.stats().reads;
  {
    auto guard = pool_.FetchPage(id);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(disk_.stats().reads, reads_before);
  EXPECT_GE(pool_.stats().hits, 1);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  // Fill beyond capacity; early dirty pages must be written back and
  // re-readable.
  std::vector<PageId> ids;
  for (int i = 0; i < 20; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<char>(i);
    guard->MarkDirty();
    ids.push_back(guard->page_id());
  }
  EXPECT_GT(pool_.stats().evictions, 0);
  for (int i = 0; i < 20; ++i) {
    auto guard = pool_.FetchPage(ids[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<char>(i));
  }
}

TEST_F(BufferPoolTest, AllPinnedIsResourceExhausted) {
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < pool_.capacity_frames(); ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guards.push_back(std::move(*guard));
  }
  auto extra = pool_.NewPage();
  EXPECT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kResourceExhausted);
  guards.clear();
  EXPECT_TRUE(pool_.NewPage().ok());
}

TEST_F(BufferPoolTest, DeletePageFreesFrameAndDiskPage) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    id = guard->page_id();
  }
  ASSERT_TRUE(pool_.DeletePage(id).ok());
  EXPECT_EQ(disk_.NumFreePages(), 1u);
}

TEST_F(BufferPoolTest, DeletePinnedPageRefused) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(pool_.DeletePage(guard->page_id()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BufferPoolTest, DiscardAllForCrashTestDropsUnflushedWrites) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    id = guard->page_id();
    guard->data()[0] = 'x';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  {
    auto guard = pool_.FetchPage(id);
    guard->data()[0] = 'y';  // modified but never flushed
    guard->MarkDirty();
  }
  pool_.DiscardAllForCrashTest();
  auto guard = pool_.FetchPage(id);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->data()[0], 'x');
}

TEST_F(BufferPoolTest, MovedGuardReleasesOnce) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    id = guard->page_id();
    PageGuard moved = std::move(*guard);
    EXPECT_TRUE(moved.valid());
    EXPECT_FALSE(guard->valid());
  }
  // If pin accounting broke, the page would be unevictable; deleting it
  // verifies pin count is back to zero.
  EXPECT_TRUE(pool_.DeletePage(id).ok());
}

TEST_F(BufferPoolTest, MoveAssignReleasesPreviousPin) {
  auto a = pool_.NewPage();
  auto b = pool_.NewPage();
  ASSERT_TRUE(a.ok() && b.ok());
  PageId a_id = a->page_id();
  PageId b_id = b->page_id();

  *a = std::move(*b);  // must unpin a's original page, then take over b's
  EXPECT_EQ(a->page_id(), b_id);
  EXPECT_TRUE(a->valid());
  EXPECT_FALSE(b->valid());
  // b is moved-from: it must not report the stale page id.
  EXPECT_EQ(b->page_id(), kInvalidPageId);

  // a's original page was unpinned by the assignment.
  EXPECT_TRUE(pool_.DeletePage(a_id).ok());
  a->Release();
  EXPECT_TRUE(pool_.DeletePage(b_id).ok());
}

TEST_F(BufferPoolTest, SelfMoveAssignKeepsGuardValid) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  PageId id = guard->page_id();
  PageGuard& alias = *guard;
  *guard = std::move(alias);  // self-move must be a no-op, not a release
  EXPECT_TRUE(guard->valid());
  EXPECT_EQ(guard->page_id(), id);
  EXPECT_NE(guard->data(), nullptr);
  // Still pinned: DeletePage must refuse.
  EXPECT_EQ(pool_.DeletePage(id).code(), StatusCode::kFailedPrecondition);
  guard->Release();
  EXPECT_TRUE(pool_.DeletePage(id).ok());
}

TEST_F(BufferPoolTest, DoubleReleaseIsIdempotent) {
  auto guard = pool_.NewPage();
  ASSERT_TRUE(guard.ok());
  PageId id = guard->page_id();
  guard->Release();
  EXPECT_FALSE(guard->valid());
  EXPECT_EQ(guard->page_id(), kInvalidPageId);
  guard->Release();  // second release: no-op, must not corrupt pin counts
  // Pin count reached exactly zero: page is deletable, and fetching it anew
  // still works (the frame was not double-unpinned into a negative count).
  {
    auto again = pool_.FetchPage(id);
    ASSERT_TRUE(again.ok());
  }
  EXPECT_TRUE(pool_.DeletePage(id).ok());
}

TEST_F(BufferPoolTest, ReleaseThenDestructorDoesNotDoubleUnpin) {
  PageId shared;
  {
    auto first = pool_.NewPage();
    shared = first->page_id();
    // Two pins on the same page; releasing one explicitly and letting the
    // other die must leave exactly zero pins — not minus one.
    auto second = pool_.FetchPage(shared);
    ASSERT_TRUE(second.ok());
    second->Release();
    second->Release();
  }
  EXPECT_TRUE(pool_.DeletePage(shared).ok());
}

TEST(BufferPoolOptionsTest, BudgetBytesReportsConfiguredValue) {
  DiskManager disk;
  // A budget that is not a whole number of frames: budget_bytes() must
  // report the configured value, while the frame math still rounds down
  // (this is what the Fig. 9 sweep labels — 2.5 MB must not print as
  // 2.49 MB).
  size_t budget = 8 * kPageSize + 123;
  BufferPool pool(&disk, budget);
  EXPECT_EQ(pool.budget_bytes(), budget);
  EXPECT_EQ(pool.capacity_frames(), 8u);
}

TEST(BufferPoolOptionsTest, ShardCountHonoredAndClamped) {
  DiskManager disk;
  BufferPoolOptions options;
  options.budget_bytes = 64 * kPageSize;
  options.shards = 4;
  BufferPool pool(&disk, options);
  EXPECT_EQ(pool.num_shards(), 4u);
  EXPECT_EQ(pool.capacity_frames(), 64u);

  // A tiny pool collapses to fewer shards instead of starving each one.
  BufferPoolOptions tiny;
  tiny.budget_bytes = 8 * kPageSize;
  tiny.shards = 8;
  BufferPool tiny_pool(&disk, tiny);
  EXPECT_EQ(tiny_pool.num_shards(), 1u);
  EXPECT_EQ(tiny_pool.capacity_frames(), 8u);
}

TEST_F(BufferPoolTest, DiscardAllForCrashTestZeroesStats) {
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
    ids.push_back(guard->page_id());
  }
  for (PageId id : ids) ASSERT_TRUE(pool_.FetchPage(id).ok());
  BufferPoolStats before = pool_.stats();
  EXPECT_GT(before.hits + before.misses + before.evictions, 0);

  pool_.DiscardAllForCrashTest();
  // A restarted process has cold counters; carrying the pre-crash numbers
  // forward would double-count the crash sweep's per-run I/O reporting.
  BufferPoolStats after = pool_.stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.dirty_writebacks, 0);
}

// Regression test for the Reset() write-back race: the old implementation
// released the pool mutex between the inner FlushAll() and re-acquiring it to
// drop frames, so a page dirtied by a concurrent thread in that window was
// dropped without write-back. The pre-writeback hook fires during Reset's
// flush sweep (with all shard latches held); we use it as the rendezvous to
// launch a concurrent writer at exactly the vulnerable moment.
TEST(BufferPoolResetRaceTest, ConcurrentDirtyPageIsNotDroppedUnflushed) {
  DiskManager disk;
  BufferPoolOptions options;
  options.budget_bytes = 16 * kPageSize;
  options.shards = 2;
  BufferPool pool(&disk, options);

  PageId victim;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    victim = guard->page_id();
    guard->data()[0] = 'x';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    // A second dirty page so Reset's flush sweep has work and the hook fires.
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }

  std::atomic<bool> go{false};
  std::atomic<bool> fired{false};
  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    // With the fix this blocks on the shard latch until Reset has dropped
    // every frame, so the update lands strictly after the reset. With the
    // old bug it could slip between flush and drop and be lost.
    auto guard = pool.FetchPage(victim);
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = 'y';
    guard->MarkDirty();
  });
  pool.SetPreWritebackHook([&] {
    if (!fired.exchange(true)) {
      go.store(true, std::memory_order_release);
      // Give the writer a moment to reach the pool while the sweep runs.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  ASSERT_TRUE(pool.Reset().ok());
  writer.join();
  ASSERT_TRUE(fired.load());

  auto guard = pool.FetchPage(victim);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->data()[0], 'y') << "concurrent dirty update was dropped "
                                      "without write-back during Reset";
}

}  // namespace
}  // namespace bulkdel

#ifndef BULKDEL_STORAGE_BUFFER_POOL_H_
#define BULKDEL_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

namespace obs {
class Histogram;
class MetricsRegistry;
}  // namespace obs

class BufferPool;

/// RAII pin on a buffered page. While a guard lives, the frame cannot be
/// evicted. Destroying (or Release()-ing) the guard unpins the page and, if
/// MarkDirty() was called, schedules a write-back on eviction/flush.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame, PageId page_id, char* data)
      : pool_(pool), frame_(frame), page_id_(page_id), data_(data) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Marks the page as modified; it will be written back before eviction.
  void MarkDirty();

  /// Unpins immediately (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;  // slot index within the page's shard
  PageId page_id_ = kInvalidPageId;
  char* data_ = nullptr;
};

struct BufferPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;

  BufferPoolStats& operator+=(const BufferPoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    dirty_writebacks += o.dirty_writebacks;
    return *this;
  }
  BufferPoolStats operator-(const BufferPoolStats& o) const {
    BufferPoolStats d;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.dirty_writebacks = dirty_writebacks - o.dirty_writebacks;
    return d;
  }
};

/// Construction knobs. `shards` is a request: the pool clamps it so every
/// shard keeps a workable number of frames (tiny pools collapse to fewer
/// shards rather than starve).
struct BufferPoolOptions {
  size_t budget_bytes = 0;
  size_t shards = 1;
};

/// Fixed-budget, demand-paged LRU buffer pool over a DiskManager,
/// lock-striped into `shards` sub-pools keyed by PageId.
///
/// The byte budget models the experiment's "available main memory": the
/// paper varies it between 2 and 10 MB (Fig. 9). The pool never holds more
/// than budget/kPageSize frames in total; every miss beyond a shard's share
/// evicts that shard's least-recently-used unpinned frame, writing it back
/// if dirty.
///
/// Sharding: pages map to shards by extent ((page_id / 16) % shards), so a
/// contiguous leaf chain stays mostly within one shard while distinct
/// indices — living in distinct extent ranges — land on distinct shards and
/// stop contending on one mutex under parallel phases. LRU, page table, free list and stats
/// are all per-shard; FlushAll/Reset/DiscardAllForCrashTest lock every shard
/// in index order and preserve the global page-id-ordered checkpoint sweep.
///
/// Thread safety: all operations are internally synchronized per shard.
/// Concurrent mutation of the *contents* of distinct pinned pages is safe;
/// callers serialize access to the same page with higher-level latches.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t budget_bytes)
      : BufferPool(disk, BufferPoolOptions{budget_bytes, 1}) {}
  BufferPool(DiskManager* disk, BufferPoolOptions options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a fresh zeroed page on disk and pins it (dirty).
  Result<PageGuard> NewPage();

  /// Pins `page_id`, reading it from disk on a miss.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Drops `page_id` from the pool (must be unpinned) and frees it on disk.
  Status DeletePage(PageId page_id);

  /// Writes back every dirty frame across all shards in one page-id-ordered
  /// sweep (adjacent ids batched into sequential WriteRuns — same per-page
  /// charges, fewer disk-mutex round trips). Frames stay resident.
  Status FlushAll();

  /// Writes back and drops every frame (must all be unpinned). Used to
  /// simulate a clean shutdown or to reset cache state between benchmark
  /// phases. All shard latches are held from the flush through the frame
  /// drop, so a page dirtied by a concurrent thread either misses the sweep
  /// entirely (and survives resident) or is flushed before being dropped —
  /// never dropped with an unwritten update.
  Status Reset();

  /// Drops every frame *without* writing dirty ones back, and zeroes the
  /// stats (a restarted process starts with cold counters). This is the
  /// crash switch for the recovery tests: volatile state vanishes, the
  /// DiskManager keeps only what was flushed.
  void DiscardAllForCrashTest();

  /// Invoked immediately before any dirty frame is written to disk (eviction
  /// or flush). The recovery layer uses this to enforce the WAL rule: log
  /// records become durable before the page changes they describe. The hook
  /// runs with at least the affected shard's latch held (all of them during
  /// a flush sweep) and must not call back into the pool.
  void SetPreWritebackHook(std::function<void()> hook);

  /// Resolves the pool's metric instruments (bp.fetch_ns, bp.latch_wait_ns)
  /// from `metrics` (nullptr = none; the registry must outlive the pool).
  /// The clock-reading observations only happen while the global
  /// TraceRecorder is enabled, so the default fetch path stays clock-free.
  void SetMetrics(obs::MetricsRegistry* metrics);

  /// Installs a fault injector on the write-back paths (nullptr = none; the
  /// injector must outlive the pool): `pool.evict` fires before a dirty
  /// eviction victim is written back (now inside the victim's shard),
  /// `pool.flush` before a cross-shard FlushAll sweep.
  void SetFaultInjector(FaultInjector* injector);

  size_t capacity_frames() const { return total_frames_; }
  /// The configured byte budget (not rounded down to whole frames): what the
  /// Fig. 9 memory sweep labels report.
  size_t budget_bytes() const { return budget_bytes_; }
  size_t num_shards() const { return shards_.size(); }
  /// Aggregate over all shards.
  BufferPoolStats stats() const;
  void ResetStats();
  DiskManager* disk() { return disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool in_use = false;
    std::unique_ptr<char[]> data;
    std::list<size_t>::iterator lru_it;
    bool in_lru = false;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    std::vector<size_t> free_frames;
    std::unordered_map<PageId, size_t> page_table;
    std::list<size_t> lru;  // front = most recent, back = victim candidate
    BufferPoolStats stats;
  };

  /// Pages map to shards by extent so adjacent ids share a shard.
  static constexpr PageId kShardExtentPages = 16;
  size_t ShardOf(PageId page_id) const {
    return (page_id / kShardExtentPages) % shards_.size();
  }

  void Unpin(size_t frame, PageId page_id);
  void MarkDirtyFrame(size_t frame, PageId page_id);

  /// Finds a frame in `shard` to host a new page: a never-used frame or the
  /// LRU victim. Called with the shard latch held. Writes back the victim if
  /// dirty.
  Result<size_t> AcquireFrameLocked(Shard& shard);

  /// Locks every shard in index order (the global-operation lock order).
  std::vector<std::unique_lock<std::mutex>> LockAllShards() const;
  /// The page-id-ordered dirty sweep; all shard latches must be held.
  Status FlushAllLocked();

  DiskManager* disk_;
  size_t budget_bytes_;
  size_t total_frames_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Read under any shard latch; written under all of them.
  std::function<void()> pre_writeback_hook_;
  FaultInjector* injector_ = nullptr;
  /// Written under all shard latches (SetMetrics); read on the fetch path.
  obs::Histogram* fetch_ns_hist_ = nullptr;
  obs::Histogram* latch_wait_hist_ = nullptr;
};

}  // namespace bulkdel

#endif  // BULKDEL_STORAGE_BUFFER_POOL_H_

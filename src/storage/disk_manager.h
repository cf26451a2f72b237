#ifndef BULKDEL_STORAGE_DISK_MANAGER_H_
#define BULKDEL_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "fault/fault_injector.h"
#include "storage/disk_model.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace bulkdel {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// Counters accumulated by the DiskManager. All page accesses in the system
/// go through here (buffer pool misses, write-backs, sort spills), so these
/// counters are the ground truth for the benchmark harness.
struct IoStats {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t sequential_accesses = 0;
  int64_t random_accesses = 0;
  /// Simulated elapsed disk time under the DiskModel, in microseconds.
  int64_t simulated_micros = 0;

  IoStats operator-(const IoStats& other) const {
    IoStats d;
    d.reads = reads - other.reads;
    d.writes = writes - other.writes;
    d.sequential_accesses = sequential_accesses - other.sequential_accesses;
    d.random_accesses = random_accesses - other.random_accesses;
    d.simulated_micros = simulated_micros - other.simulated_micros;
    return d;
  }

  IoStats& operator+=(const IoStats& other) {
    reads += other.reads;
    writes += other.writes;
    sequential_accesses += other.sequential_accesses;
    random_accesses += other.random_accesses;
    simulated_micros += other.simulated_micros;
    return *this;
  }

  IoStats operator+(const IoStats& other) const {
    IoStats s = *this;
    s += other;
    return s;
  }
};

/// A per-context I/O account. While installed on a thread (via
/// DiskManager::AttributionScope), every page access that thread performs is
/// charged here in addition to the DiskManager's global counters.
///
/// Each attribution carries its *own* disk-head position for the
/// sequential/random classification, so a phase's I/O profile is a property
/// of its page-access sequence alone — independent of how concurrently
/// running phases interleave on the shared disk. That is what makes
/// per-phase simulated time reproducible across `exec_threads` settings.
///
/// Counters are atomics: Snapshot() is safe while other threads are still
/// accounting into the same attribution.
class IoAttribution {
 public:
  IoAttribution() = default;
  IoAttribution(const IoAttribution&) = delete;
  IoAttribution& operator=(const IoAttribution&) = delete;

  IoStats Snapshot() const {
    IoStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.sequential_accesses = sequential_.load(std::memory_order_relaxed);
    s.random_accesses = random_.load(std::memory_order_relaxed);
    s.simulated_micros = simulated_micros_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class DiskManager;
  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> sequential_{0};
  std::atomic<int64_t> random_{0};
  std::atomic<int64_t> simulated_micros_{0};
  /// Private head position for seq/random classification. Only mutated under
  /// the DiskManager mutex.
  PageId last_accessed_ = kInvalidPageId;
};

/// Page-granular storage with allocation, a free list, and I/O accounting.
///
/// Two backings are supported:
///  * in-memory (empty path): pages live in a heap vector. This is the
///    default for tests and benchmarks — the simulated DiskModel provides
///    timing, so results are deterministic and host-independent.
///  * file-backed (non-empty path): pages are pread/pwritten to a file.
///
/// Crash semantics for the recovery tests: the DiskManager itself *is* the
/// durable medium. Simulating a crash means discarding every volatile layer
/// above it (buffer pool, catalogs) and re-opening against the same
/// DiskManager contents.
///
/// Thread safety: all public methods are internally synchronized.
class DiskManager {
 public:
  /// Installs `attribution` as the calling thread's I/O account for the
  /// scope's lifetime. Scopes nest: the innermost installed attribution
  /// receives the charges, and the previous one is restored on destruction.
  /// The attribution pointer must outlive the scope.
  class AttributionScope {
   public:
    // Defined out of line: the thread-local slot must only be touched from
    // the translation unit that defines it (keeps TLS-wrapper codegen and
    // sanitizer instrumentation in one place).
    explicit AttributionScope(IoAttribution* attribution);
    ~AttributionScope();
    AttributionScope(const AttributionScope&) = delete;
    AttributionScope& operator=(const AttributionScope&) = delete;

   private:
    IoAttribution* previous_;
  };

  /// In-memory backing.
  explicit DiskManager(DiskModel model = DiskModel());
  /// File backing; the file is created (truncated) if `truncate` is set.
  DiskManager(const std::string& path, bool truncate,
              DiskModel model = DiskModel());
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a page (reusing a freed page if available). The page contents
  /// are zeroed. Allocation itself performs no charged I/O; the first write
  /// does.
  Result<PageId> AllocatePage();

  /// Returns a page to the free list. Freeing is a metadata operation.
  /// Idempotent: freeing an already-free page is a no-op. Recovery rolls an
  /// interrupted bulk delete forward by re-running its phases, and a re-run
  /// may re-free a leaf whose free preceded the crash while the page write
  /// unlinking it did not — the second free must not duplicate the page in
  /// the free list (a duplicate would later be allocated twice).
  Status FreePage(PageId page_id);

  /// Reads `kPageSize` bytes of `page_id` into `out`.
  Status ReadPage(PageId page_id, char* out);

  /// Writes `kPageSize` bytes from `data` to `page_id`.
  Status WritePage(PageId page_id, const char* data);

  /// Writes the contiguous run [first, first + datas.size()) under a single
  /// mutex acquisition; the per-page accounting and fault semantics match the
  /// equivalent sequence of WritePage calls exactly (a torn/short fault still
  /// mangles only the page it fires on and fails there). With the file
  /// backing, the verified pages go out as one pwritev(2) vectored write.
  /// Used by the buffer pool's checkpoint sweep (FlushAll).
  Status WriteRun(PageId first, const std::vector<const char*>& datas);

  /// Durability barrier: forces every written page to the medium (fsync(2)
  /// with the file backing; a charged no-op for the in-memory backing so the
  /// `disk.sync` fault site and disk.syncs counter fire identically on both).
  /// Called at checkpoint/commit barriers.
  Status Flush();

  /// Clean-shutdown protocol for the file backing: fsyncs the page file and
  /// writes a checksummed meta sidecar (`<path>.meta`) carrying the
  /// allocation high-water mark and free list. A non-truncating reopen
  /// consumes and *deletes* the sidecar, so only a cleanly closed file ever
  /// restores its free list — a crash reopen finds no sidecar and safely
  /// leaks the free pages instead of risking double allocation. No-op for
  /// the in-memory backing.
  Status MarkCleanShutdown();

  /// Number of pages ever allocated (high-water mark), including freed ones.
  uint32_t NumAllocatedPages() const;
  /// Pages currently on the free list.
  uint32_t NumFreePages() const;

  IoStats stats() const;
  void ResetStats();
  const DiskModel& disk_model() const { return model_; }

  /// Installs a fault injector on the read/write paths (nullptr = none; the
  /// injector must outlive the DiskManager). Reads and whole-page writes
  /// check the `disk.read` / `disk.write` sites; a firing `disk.write` in
  /// torn/short mode leaves the page partially updated before failing, and a
  /// tripped injector fails every later operation including alloc/free (a
  /// dead process performs no metadata updates either).
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Resolves the disk's metric instruments (disk.write_runs) from `metrics`
  /// (nullptr = none; the registry must outlive the DiskManager). Metrics
  /// and trace events never feed back into the simulated I/O model.
  void SetMetrics(obs::MetricsRegistry* metrics);

 private:
  Status CheckBounds(PageId page_id) const;
  /// Single-page write body; must be called with mu_ held.
  Status WritePageLocked(PageId page_id, const char* data);
  /// Classifies the access against the previous head position and charges
  /// simulated time, both globally and into the calling thread's installed
  /// IoAttribution (if any). Must be called with mu_ held.
  void Account(PageId page_id, bool is_write);

  /// The calling thread's current I/O account (nullptr = global only).
  static thread_local IoAttribution* tls_attribution_;

  /// Loads the clean-shutdown sidecar (if present and valid) and deletes it;
  /// called from the non-truncating file constructor.
  void LoadCleanShutdownMeta();

  DiskModel model_;
  FaultInjector* injector_ = nullptr;
  obs::Counter* write_runs_counter_ = nullptr;
  obs::Counter* syncs_counter_ = nullptr;
  mutable std::mutex mu_;

  // In-memory backing (used when fd_ < 0).
  std::vector<std::unique_ptr<char[]>> pages_;

  // File backing.
  std::string path_;
  int fd_ = -1;
  uint32_t file_pages_ = 0;

  std::vector<PageId> free_list_;
  /// Mirror of free_list_ for O(1) double-free detection.
  std::unordered_set<PageId> free_set_;
  IoStats stats_;
  PageId last_accessed_ = kInvalidPageId;
};

}  // namespace bulkdel

#endif  // BULKDEL_STORAGE_DISK_MANAGER_H_

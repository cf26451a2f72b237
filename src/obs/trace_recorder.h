#ifndef BULKDEL_OBS_TRACE_RECORDER_H_
#define BULKDEL_OBS_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace bulkdel {
namespace obs {

/// Event taxonomy. Categories map to the `cat` field of the exported Chrome
/// trace events, so Perfetto can filter lanes by subsystem. Keep in sync
/// with TraceCategoryName()/KnownTraceCategories().
enum class TraceCategory : uint8_t {
  kPhase,       ///< executor phases (one span per PhaseScope)
  kSched,       ///< phase-DAG scheduler dispatch
  kPool,        ///< buffer pool fetch/evict/flush
  kDisk,        ///< disk manager write runs
  kWal,         ///< log append/sync
  kCheckpoint,  ///< phase-end checkpoints
  kLatch,       ///< latch acquisition waits
};
inline constexpr int kNumTraceCategories = 7;

const char* TraceCategoryName(TraceCategory category);
const std::vector<const char*>& KnownTraceCategories();

/// One recorded event. Fixed-size so ring slots never allocate: the name is
/// truncation-copied inline, the optional argument key and parent label are
/// static strings / small inline copies.
struct TraceEvent {
  enum class Kind : uint8_t { kComplete, kInstant };

  static constexpr size_t kNameCapacity = 48;
  static constexpr size_t kDetailCapacity = 32;

  int64_t ts_nanos = 0;   ///< MonotonicNanos() at event start
  int64_t dur_nanos = 0;  ///< kComplete only
  int64_t arg = 0;        ///< numeric payload, exported when arg_name != null
  const char* arg_name = nullptr;  ///< static string or null
  Kind kind = Kind::kInstant;
  TraceCategory category = TraceCategory::kPhase;
  char name[kNameCapacity] = {};
  /// Free-form secondary label; phase spans carry their upstream phase here
  /// (exported as args.parent, the edge bulkdel_tracecat walks for the
  /// critical path).
  char detail[kDetailCapacity] = {};
};

/// Low-overhead in-memory trace sink: per-thread rings written lock-free by
/// their owning thread, exported as Chrome trace-event JSON ("one lane per
/// worker thread" in Perfetto / chrome://tracing).
///
/// Design constraints, in order:
///  * disabled cost ~ one relaxed atomic load per instrumentation site (the
///    recorder is always present; `enabled_` gates recording);
///  * enabled recording takes no lock and never blocks: each thread owns a
///    ring of fixed-size chunks, appended with a release-store cursor. When
///    a ring is full, *new* events are dropped (and counted) rather than
///    overwriting old ones — so every slot below the cursor is immutable,
///    and an exporter that acquire-loads the cursor may read concurrently
///    with recording without a data race;
///  * recording never performs I/O and never touches the DiskManager, so
///    simulated per-phase I/O is bit-identical with tracing on or off (the
///    PR 3 identity invariant; asserted by obs_test).
///
/// Timestamps come from util/clock.h's MonotonicNanos — the same source as
/// Stopwatch — so span times align with bench wall timings.
///
/// One recorder serves the whole process (Global()): worker threads spawned
/// by any statement land in the same trace, and a bench's --perfetto-out
/// exports every run of the process into one file.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Records a complete span [begin, end). No-op while disabled.
  void RecordComplete(TraceCategory category, std::string_view name,
                      int64_t begin_nanos, int64_t end_nanos,
                      const char* arg_name = nullptr, int64_t arg = 0,
                      std::string_view parent = {});

  /// Records a point event at now(). No-op while disabled.
  void RecordInstant(TraceCategory category, std::string_view name,
                     const char* arg_name = nullptr, int64_t arg = 0);

  /// The whole trace as one Chrome trace-event JSON object
  /// ({"traceEvents":[...]}), events sorted by timestamp, with thread_name
  /// metadata naming each lane. Safe to call while other threads record
  /// (their not-yet-published tail is simply absent).
  std::string ToChromeTraceJson() const;

  /// ToChromeTraceJson() written to `path` (truncating).
  Status ExportChromeTrace(const std::string& path) const;

  /// Events currently published across all threads / dropped for capacity.
  uint64_t EventCount() const;
  uint64_t DroppedCount() const;

  /// Discards all recorded events and resets drop counters. Caller must
  /// ensure no thread is concurrently recording (test/bench setup only).
  void Reset();

  /// Per-thread ring capacity in events, applied to threads that register
  /// after the call. Test seam; the default (kDefaultCapacity) holds a full
  /// reduced-scale bench run.
  void SetThreadCapacity(size_t events);

  static constexpr size_t kChunkEvents = 4096;
  static constexpr size_t kDefaultCapacity = 1u << 16;

 private:
  /// Single-producer ring: the owning thread appends, anyone may read the
  /// published prefix. Chunks are allocated on demand (release-stored into a
  /// fixed pointer table) so an idle thread costs ~nothing and a reader
  /// never sees a reallocation.
  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid_in, size_t capacity_in)
        : tid(tid_in),
          capacity(capacity_in),
          chunks((capacity_in + kChunkEvents - 1) / kChunkEvents) {}

    const uint32_t tid;
    const size_t capacity;
    std::atomic<uint64_t> published{0};  ///< events visible to readers
    std::atomic<uint64_t> dropped{0};
    std::vector<std::atomic<TraceEvent*>> chunks;
    std::vector<std::unique_ptr<TraceEvent[]>> owned;  ///< under registry mu
  };

  ThreadBuffer* BufferForThisThread();
  TraceEvent* SlotForWrite(ThreadBuffer* buffer);

  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  size_t thread_capacity_ = kDefaultCapacity;
};

/// RAII complete-span helper: captures begin on construction when the
/// recorder is enabled, records on destruction. Cheap no-op when disabled.
class TraceSpan {
 public:
  TraceSpan(TraceCategory category, std::string_view name,
            const char* arg_name = nullptr)
      : category_(category), name_(name), arg_name_(arg_name) {
    if (TraceRecorder::Global().enabled()) begin_nanos_ = MonotonicNanos();
  }
  ~TraceSpan() {
    if (begin_nanos_ == 0) return;
    TraceRecorder::Global().RecordComplete(category_, name_, begin_nanos_,
                                           MonotonicNanos(), arg_name_, arg_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return begin_nanos_ != 0; }
  void set_arg(int64_t arg) { arg_ = arg; }

 private:
  TraceCategory category_;
  std::string_view name_;
  const char* arg_name_;
  int64_t arg_ = 0;
  int64_t begin_nanos_ = 0;
};

}  // namespace obs
}  // namespace bulkdel

#endif  // BULKDEL_OBS_TRACE_RECORDER_H_

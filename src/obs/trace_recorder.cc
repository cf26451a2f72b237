#include "obs/trace_recorder.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace bulkdel {
namespace obs {

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case TraceCategory::kPhase:
      return "phase";
    case TraceCategory::kSched:
      return "sched";
    case TraceCategory::kPool:
      return "pool";
    case TraceCategory::kDisk:
      return "disk";
    case TraceCategory::kWal:
      return "wal";
    case TraceCategory::kCheckpoint:
      return "checkpoint";
    case TraceCategory::kLatch:
      return "latch";
  }
  return "unknown";
}

const std::vector<const char*>& KnownTraceCategories() {
  static const std::vector<const char*> kCategories = [] {
    std::vector<const char*> names;
    for (int c = 0; c < kNumTraceCategories; ++c) {
      names.push_back(TraceCategoryName(static_cast<TraceCategory>(c)));
    }
    return names;
  }();
  return kCategories;
}

namespace {

/// Distinguishes recorder instances so the thread-local buffer cache can
/// never hand a stale buffer to a different (possibly reallocated) recorder.
std::atomic<uint64_t> g_recorder_ids{0};

struct TlsCache {
  uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local TlsCache tls_cache;

uint64_t NextRecorderId() {
  return g_recorder_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Recorder id lives beside the object, not in the header-visible layout.
struct RecorderId {
  uint64_t value = NextRecorderId();
};

void CopyTruncated(char* dst, size_t cap, std::string_view src) {
  size_t n = std::min(cap - 1, src.size());
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

// One id per recorder, keyed by address while alive. Kept in a side map so
// TraceEvent/ThreadBuffer layouts stay POD-simple.
static std::mutex g_id_mu;
static std::vector<std::pair<const TraceRecorder*, uint64_t>> g_ids;

static uint64_t IdOf(const TraceRecorder* recorder) {
  std::lock_guard<std::mutex> lock(g_id_mu);
  for (auto& [r, id] : g_ids) {
    if (r == recorder) return id;
  }
  g_ids.emplace_back(recorder, NextRecorderId());
  return g_ids.back().second;
}

static void DropId(const TraceRecorder* recorder) {
  std::lock_guard<std::mutex> lock(g_id_mu);
  for (auto it = g_ids.begin(); it != g_ids.end(); ++it) {
    if (it->first == recorder) {
      g_ids.erase(it);
      return;
    }
  }
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* instance = new TraceRecorder();  // never destroyed
  return *instance;
}

TraceRecorder::TraceRecorder() { IdOf(this); }

TraceRecorder::~TraceRecorder() { DropId(this); }

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  uint64_t my_id = IdOf(this);
  if (tls_cache.recorder_id == my_id && tls_cache.buffer != nullptr) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto buffer = std::make_unique<ThreadBuffer>(
      static_cast<uint32_t>(buffers_.size()), thread_capacity_);
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_cache.recorder_id = my_id;
  tls_cache.buffer = raw;
  return raw;
}

TraceEvent* TraceRecorder::SlotForWrite(ThreadBuffer* buffer) {
  uint64_t index = buffer->published.load(std::memory_order_relaxed);
  if (index >= buffer->capacity) {
    // Ring full: drop the new event (never overwrite — published slots are
    // immutable, which is what makes concurrent export race-free).
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  size_t chunk_index = static_cast<size_t>(index / kChunkEvents);
  TraceEvent* chunk =
      buffer->chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    auto fresh = std::make_unique<TraceEvent[]>(kChunkEvents);
    chunk = fresh.get();
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      buffer->owned.push_back(std::move(fresh));
    }
    buffer->chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  return &chunk[index % kChunkEvents];
}

void TraceRecorder::RecordComplete(TraceCategory category,
                                   std::string_view name, int64_t begin_nanos,
                                   int64_t end_nanos, const char* arg_name,
                                   int64_t arg, std::string_view parent) {
  if (!enabled()) return;
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent* slot = SlotForWrite(buffer);
  if (slot == nullptr) return;
  slot->kind = TraceEvent::Kind::kComplete;
  slot->category = category;
  slot->ts_nanos = begin_nanos;
  slot->dur_nanos = end_nanos - begin_nanos;
  slot->arg_name = arg_name;
  slot->arg = arg;
  CopyTruncated(slot->name, TraceEvent::kNameCapacity, name);
  CopyTruncated(slot->detail, TraceEvent::kDetailCapacity, parent);
  buffer->published.fetch_add(1, std::memory_order_release);
}

void TraceRecorder::RecordInstant(TraceCategory category,
                                  std::string_view name, const char* arg_name,
                                  int64_t arg) {
  if (!enabled()) return;
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent* slot = SlotForWrite(buffer);
  if (slot == nullptr) return;
  slot->kind = TraceEvent::Kind::kInstant;
  slot->category = category;
  slot->ts_nanos = MonotonicNanos();
  slot->dur_nanos = 0;
  slot->arg_name = arg_name;
  slot->arg = arg;
  CopyTruncated(slot->name, TraceEvent::kNameCapacity, name);
  slot->detail[0] = '\0';
  buffer->published.fetch_add(1, std::memory_order_release);
}

std::string TraceRecorder::ToChromeTraceJson() const {
  struct Ref {
    const TraceEvent* event;
    uint32_t tid;
  };
  std::vector<Ref> refs;
  uint64_t dropped = 0;
  uint32_t max_tid = 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const auto& buffer : buffers_) {
      uint64_t published = buffer->published.load(std::memory_order_acquire);
      dropped += buffer->dropped.load(std::memory_order_relaxed);
      max_tid = std::max(max_tid, buffer->tid);
      for (uint64_t i = 0; i < published; ++i) {
        const TraceEvent* chunk =
            buffer->chunks[static_cast<size_t>(i / kChunkEvents)].load(
                std::memory_order_acquire);
        if (chunk == nullptr) break;  // unpublished tail
        refs.push_back(Ref{&chunk[i % kChunkEvents], buffer->tid});
      }
    }
  }
  std::stable_sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.event->ts_nanos < b.event->ts_nanos;
  });

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };
  // Lane names: tid 0 is the thread that first recorded (normally the
  // statement thread); later tids are scheduler workers / other threads.
  for (uint32_t tid = 0; tid <= max_tid && !refs.empty(); ++tid) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":\"" +
           (tid == 0 ? std::string("statement") :
                       "worker-" + std::to_string(tid)) +
           "\"}}";
  }
  char buf[64];
  for (const Ref& ref : refs) {
    const TraceEvent& e = *ref.event;
    comma();
    out += "{\"name\":";
    json::AppendEscaped(&out, e.name);
    out += ",\"cat\":\"";
    out += TraceCategoryName(e.category);
    out += "\",\"ph\":\"";
    out += e.kind == TraceEvent::Kind::kComplete ? 'X' : 'i';
    out += '"';
    if (e.kind == TraceEvent::Kind::kInstant) out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof(buf), ",\"ts\":%lld.%03lld",
                  static_cast<long long>(e.ts_nanos / 1000),
                  static_cast<long long>(e.ts_nanos % 1000));
    out += buf;
    if (e.kind == TraceEvent::Kind::kComplete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%lld.%03lld",
                    static_cast<long long>(e.dur_nanos / 1000),
                    static_cast<long long>(e.dur_nanos % 1000));
      out += buf;
    }
    out += ",\"pid\":1,\"tid\":" + std::to_string(ref.tid);
    bool has_parent = e.detail[0] != '\0';
    if (e.arg_name != nullptr || has_parent) {
      out += ",\"args\":{";
      if (e.arg_name != nullptr) {
        out += '"';
        out += e.arg_name;
        out += "\":" + std::to_string(e.arg);
        if (has_parent) out += ',';
      }
      if (has_parent) {
        out += "\"parent\":";
        json::AppendEscaped(&out, e.detail);
      }
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":" +
         std::to_string(dropped) + "}}";
  return out;
}

Status TraceRecorder::ExportChromeTrace(const std::string& path) const {
  std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to trace output " + path);
  }
  return Status::OK();
}

uint64_t TraceRecorder::EventCount() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->published.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t TraceRecorder::DroppedCount() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void TraceRecorder::Reset() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  // Buffers may be cached in other threads' TLS: keep the objects, drop the
  // contents. The caller guarantees quiescence.
  for (auto& buffer : buffers_) {
    buffer->published.store(0, std::memory_order_relaxed);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

void TraceRecorder::SetThreadCapacity(size_t events) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  thread_capacity_ = std::max<size_t>(events, kChunkEvents);
}

}  // namespace obs
}  // namespace bulkdel

// BulkDeleteReport rendering: the human-readable summary the examples print
// and the machine-readable JSON trace the benches emit via --trace-out.
// FromJson() exists so tooling (and the phase-trace tests) can round-trip a
// report exactly; parsing rides on util/json (the same dialect tools like
// bulkdel_tracecat read).

#include "core/report.h"

#include <cstdio>

#include "util/json.h"

namespace bulkdel {

std::string BulkDeleteReport::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "BulkDeleteReport strategy=%s rows=%llu index_entries=%llu\n"
                "  simulated time: %.2f s   wall: %.1f ms\n"
                "  io: %lld reads, %lld writes (%lld seq, %lld rand)\n",
                StrategyName(strategy_used),
                static_cast<unsigned long long>(rows_deleted),
                static_cast<unsigned long long>(index_entries_deleted),
                simulated_seconds(),
                static_cast<double>(wall_micros) / 1000.0,
                static_cast<long long>(io.reads),
                static_cast<long long>(io.writes),
                static_cast<long long>(io.sequential_accesses),
                static_cast<long long>(io.random_accesses));
  out += buf;
  for (const CascadeTableRows& c : cascade_tables) {
    std::snprintf(buf, sizeof(buf), "  cascade %-15s rows=%llu\n",
                  c.table.c_str(), static_cast<unsigned long long>(c.rows));
    out += buf;
  }
  for (const PhaseStats& p : phases) {
    std::snprintf(buf, sizeof(buf),
                  "  phase %-16s items=%-8llu sim=%8.3f s  io=%lld/%lld"
                  "  t%d [%lld..%lld us]\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.items),
                  p.simulated_seconds(), static_cast<long long>(p.io.reads),
                  static_cast<long long>(p.io.writes), p.thread_id,
                  static_cast<long long>(p.begin_micros),
                  static_cast<long long>(p.end_micros));
    out += buf;
  }
  return out;
}

namespace {

using json::AppendEscaped;
using JsonValue = json::Value;

void AppendField(std::string* out, const char* key, int64_t value,
                 bool comma = true) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
  if (comma) *out += ',';
}

void AppendIoStats(std::string* out, const IoStats& io) {
  *out += '{';
  AppendField(out, "reads", io.reads);
  AppendField(out, "writes", io.writes);
  AppendField(out, "sequential_accesses", io.sequential_accesses);
  AppendField(out, "random_accesses", io.random_accesses);
  AppendField(out, "simulated_micros", io.simulated_micros,
              /*comma=*/false);
  *out += '}';
}

void AppendPoolStats(std::string* out, const BufferPoolStats& pool) {
  *out += '{';
  AppendField(out, "hits", pool.hits);
  AppendField(out, "misses", pool.misses);
  AppendField(out, "evictions", pool.evictions);
  AppendField(out, "dirty_writebacks", pool.dirty_writebacks,
              /*comma=*/false);
  *out += '}';
}

/// One metrics snapshot as {"counters":[{name,value}...],
/// "histograms":[{name,count,sum,buckets:[...]}...]}.
void AppendMetrics(std::string* out, const obs::MetricsSnapshot& metrics) {
  *out += "{\"counters\":[";
  for (size_t i = 0; i < metrics.counters.size(); ++i) {
    if (i > 0) *out += ',';
    *out += "{\"name\":";
    AppendEscaped(out, metrics.counters[i].first);
    *out += ',';
    AppendField(out, "value", metrics.counters[i].second, /*comma=*/false);
    *out += '}';
  }
  *out += "],\"histograms\":[";
  for (size_t i = 0; i < metrics.histograms.size(); ++i) {
    const obs::HistogramSnapshot& h = metrics.histograms[i];
    if (i > 0) *out += ',';
    *out += "{\"name\":";
    AppendEscaped(out, h.name);
    *out += ',';
    AppendField(out, "count", h.count);
    AppendField(out, "sum", h.sum);
    *out += "\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) *out += ',';
      *out += std::to_string(h.buckets[b]);
    }
    *out += "]}";
  }
  *out += "]}";
}

obs::MetricsSnapshot MetricsFromJson(const JsonValue& v) {
  obs::MetricsSnapshot metrics;
  if (const JsonValue* counters = v.Find("counters")) {
    for (const JsonValue& cv : counters->array) {
      metrics.counters.emplace_back(cv.StringOr("name"), cv.IntOr("value"));
    }
  }
  if (const JsonValue* histograms = v.Find("histograms")) {
    for (const JsonValue& hv : histograms->array) {
      obs::HistogramSnapshot h;
      h.name = hv.StringOr("name");
      h.count = hv.IntOr("count");
      h.sum = hv.IntOr("sum");
      if (const JsonValue* buckets = hv.Find("buckets")) {
        for (const JsonValue& bv : buckets->array) {
          h.buckets.push_back(bv.integer);
        }
      }
      metrics.histograms.push_back(std::move(h));
    }
  }
  return metrics;
}

IoStats IoStatsFromJson(const JsonValue& v) {
  IoStats io;
  io.reads = v.IntOr("reads");
  io.writes = v.IntOr("writes");
  io.sequential_accesses = v.IntOr("sequential_accesses");
  io.random_accesses = v.IntOr("random_accesses");
  io.simulated_micros = v.IntOr("simulated_micros");
  return io;
}

BufferPoolStats PoolStatsFromJson(const JsonValue& v) {
  BufferPoolStats pool;
  pool.hits = v.IntOr("hits");
  pool.misses = v.IntOr("misses");
  pool.evictions = v.IntOr("evictions");
  pool.dirty_writebacks = v.IntOr("dirty_writebacks");
  return pool;
}

Result<Strategy> StrategyFromString(const std::string& name) {
  for (Strategy s :
       {Strategy::kTraditional, Strategy::kTraditionalSorted,
        Strategy::kDropCreate, Strategy::kVerticalSortMerge,
        Strategy::kVerticalHash, Strategy::kVerticalPartitionedHash,
        Strategy::kOptimizer}) {
    if (name == StrategyName(s)) return s;
  }
  return Status::InvalidArgument("unknown strategy name: " + name);
}

}  // namespace

std::string BulkDeleteReport::ToJson() const {
  std::string out = "{";
  out += "\"strategy\":";
  AppendEscaped(&out, StrategyName(strategy_used));
  out += ',';
  AppendField(&out, "rows_deleted", static_cast<int64_t>(rows_deleted));
  AppendField(&out, "index_entries_deleted",
              static_cast<int64_t>(index_entries_deleted));
  AppendField(&out, "cascaded_rows", static_cast<int64_t>(cascaded_rows));
  out += "\"cascade_tables\":[";
  for (size_t i = 0; i < cascade_tables.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"table\":";
    AppendEscaped(&out, cascade_tables[i].table);
    out += ',';
    AppendField(&out, "rows", static_cast<int64_t>(cascade_tables[i].rows),
                /*comma=*/false);
    out += '}';
  }
  out += "],";
  AppendField(&out, "wall_micros", wall_micros);
  out += "\"backend\":";
  AppendEscaped(&out, backend);
  out += ',';
  out += "\"io\":";
  AppendIoStats(&out, io);
  out += ",\"pool\":";
  AppendPoolStats(&out, pool);
  out += ",\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendEscaped(&out, p.name);
    out += ',';
    AppendField(&out, "items", static_cast<int64_t>(p.items));
    AppendField(&out, "wall_micros", p.wall_micros);
    AppendField(&out, "begin_micros", p.begin_micros);
    AppendField(&out, "end_micros", p.end_micros);
    AppendField(&out, "thread_id", p.thread_id);
    out += "\"parent\":";
    AppendEscaped(&out, p.parent);
    out += ",\"io\":";
    AppendIoStats(&out, p.io);
    out += '}';
  }
  out += "],\"metrics\":";
  AppendMetrics(&out, metrics);
  out += ",\"plan_explain\":";
  AppendEscaped(&out, plan_explain);
  out += '}';
  return out;
}

Result<BulkDeleteReport> BulkDeleteReport::FromJson(const std::string& json) {
  BULKDEL_ASSIGN_OR_RETURN(JsonValue root, json::Parse(json));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("report JSON must be an object");
  }
  BulkDeleteReport report;
  BULKDEL_ASSIGN_OR_RETURN(report.strategy_used,
                           StrategyFromString(root.StringOr("strategy")));
  report.rows_deleted = static_cast<uint64_t>(root.IntOr("rows_deleted"));
  report.index_entries_deleted =
      static_cast<uint64_t>(root.IntOr("index_entries_deleted"));
  report.cascaded_rows = static_cast<uint64_t>(root.IntOr("cascaded_rows"));
  if (const JsonValue* cascades = root.Find("cascade_tables")) {
    if (cascades->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument("\"cascade_tables\" must be an array");
    }
    for (const JsonValue& cv : cascades->array) {
      CascadeTableRows c;
      c.table = cv.StringOr("table");
      c.rows = static_cast<uint64_t>(cv.IntOr("rows"));
      report.cascade_tables.push_back(std::move(c));
    }
  }
  report.wall_micros = root.IntOr("wall_micros");
  // Older traces predate the backend field; they were all simulation runs.
  report.backend = root.Find("backend") ? root.StringOr("backend") : "sim";
  report.plan_explain = root.StringOr("plan_explain");
  if (const JsonValue* io = root.Find("io")) {
    report.io = IoStatsFromJson(*io);
  }
  if (const JsonValue* pool = root.Find("pool")) {
    report.pool = PoolStatsFromJson(*pool);
  }
  if (const JsonValue* phases = root.Find("phases")) {
    if (phases->kind != JsonValue::Kind::kArray) {
      return Status::InvalidArgument("\"phases\" must be an array");
    }
    for (const JsonValue& pv : phases->array) {
      PhaseStats p;
      p.name = pv.StringOr("name");
      p.items = static_cast<uint64_t>(pv.IntOr("items"));
      p.wall_micros = pv.IntOr("wall_micros");
      p.begin_micros = pv.IntOr("begin_micros");
      p.end_micros = pv.IntOr("end_micros");
      p.thread_id = static_cast<int>(pv.IntOr("thread_id"));
      p.parent = pv.StringOr("parent");
      if (const JsonValue* io = pv.Find("io")) {
        p.io = IoStatsFromJson(*io);
      }
      report.phases.push_back(std::move(p));
    }
  }
  if (const JsonValue* metrics = root.Find("metrics")) {
    report.metrics = MetricsFromJson(*metrics);
  }
  return report;
}

}  // namespace bulkdel

#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void StartTraceWindow(bool traced) {
  if (traced) bulkdel::obs::TraceRecorder::Global().Reset();
}

void BenchSpans::Record(const char* name, int64_t begin_nanos,
                        int64_t end_nanos, int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, begin_nanos, end_nanos, lane});
}

std::string BenchSpans::MergeIntoChromeTrace(
    const std::string& library_trace) const {
  // The recorder's document starts with {"traceEvents":[ — splice the bench
  // spans in front of its events. Bench lanes sit at tid 1000+ so they never
  // collide with the recorder's dense thread ids.
  static const std::string kHead = "{\"traceEvents\":[";
  std::string events;
  char buf[256];
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> lanes;
  for (const Span& s : spans_) {
    if (std::find(lanes.begin(), lanes.end(), s.lane) == lanes.end()) {
      lanes.push_back(s.lane);
    }
  }
  for (int lane : lanes) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"name\":\"bench-%d\"}},",
                  1000 + lane, lane);
    events += buf;
  }
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%lld.%03lld,"
                  "\"dur\":%lld.%03lld,\"pid\":1,\"tid\":%d},",
                  s.name, static_cast<long long>(s.begin / 1000),
                  static_cast<long long>(s.begin % 1000),
                  static_cast<long long>((s.end - s.begin) / 1000),
                  static_cast<long long>((s.end - s.begin) % 1000),
                  1000 + s.lane);
    events += buf;
  }
  if (library_trace.compare(0, kHead.size(), kHead) != 0) return library_trace;
  std::string rest = library_trace.substr(kHead.size());
  if (!rest.empty() && rest[0] == ']' && !events.empty()) {
    events.pop_back();  // no library events: drop the trailing comma
  }
  return kHead + events + rest;
}

std::vector<int64_t> KeyModel::Sample(size_t n, bulkdel::Random* rng) const {
  // Floyd's algorithm: n distinct positions without materializing a
  // permutation of the whole key vector.
  n = std::min(n, live_.size());
  std::vector<size_t> picked;
  picked.reserve(n);
  std::vector<char> taken(live_.size(), 0);
  for (size_t j = live_.size() - n; j < live_.size(); ++j) {
    size_t t = static_cast<size_t>(rng->Uniform(j + 1));
    size_t pos = taken[t] ? j : t;
    taken[pos] = 1;
    picked.push_back(pos);
  }
  std::vector<int64_t> keys;
  keys.reserve(n);
  for (size_t pos : picked) keys.push_back(live_[pos]);
  return keys;
}

size_t KeyModel::CountRange(int64_t lo, int64_t hi) const {
  if (lo > hi) return 0;
  auto first = std::lower_bound(live_.begin(), live_.end(), lo);
  auto last = std::upper_bound(live_.begin(), live_.end(), hi);
  return static_cast<size_t>(last - first);
}

bool KeyModel::Contains(int64_t key) const {
  return std::binary_search(live_.begin(), live_.end(), key);
}

size_t KeyModel::Remove(const std::vector<int64_t>& keys) {
  std::vector<int64_t> doomed = keys;
  std::sort(doomed.begin(), doomed.end());
  size_t before = live_.size();
  std::vector<int64_t> kept;
  kept.reserve(live_.size());
  std::set_difference(live_.begin(), live_.end(), doomed.begin(),
                      doomed.end(), std::back_inserter(kept));
  live_ = std::move(kept);
  return before - live_.size();
}

size_t KeyModel::RemoveRange(int64_t lo, int64_t hi) {
  if (lo > hi) return 0;
  auto first = std::lower_bound(live_.begin(), live_.end(), lo);
  auto last = std::upper_bound(live_.begin(), live_.end(), hi);
  size_t n = static_cast<size_t>(last - first);
  live_.erase(first, last);
  return n;
}

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

namespace {

bool IsVertical(bulkdel::Strategy s) {
  return s == bulkdel::Strategy::kVerticalSortMerge ||
         s == bulkdel::Strategy::kVerticalHash ||
         s == bulkdel::Strategy::kVerticalPartitionedHash;
}

/// The plan's estimate in microseconds, from the first line of
/// BulkDeletePlan::Explain() ("BulkDeletePlan strategy=... est=12.3 ms").
double EstimateMicros(const std::string& explain) {
  size_t pos = explain.find(" est=");
  if (pos == std::string::npos) return 0;
  return std::strtod(explain.c_str() + pos + 5, nullptr) * 1000.0;
}

size_t CountOccurrences(const std::string& text, std::string_view needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t HistogramSum(const bulkdel::obs::MetricsSnapshot& m, const char* name) {
  const bulkdel::obs::HistogramSnapshot* h = m.FindHistogram(name);
  return h != nullptr ? h->sum : 0;
}

}  // namespace

void DeleteClass::Account(double latency, uint64_t rows_deleted,
                          int64_t simulated_micros, bulkdel::Strategy used) {
  latency_ms.Add(latency);
  rows += rows_deleted;
  sim_micros += simulated_micros;
  ++(IsVertical(used) ? vertical_picks : horizontal_picks);
}

void DeleteClass::Merge(const DeleteClass& o) {
  latency_ms.Append(o.latency_ms);
  rows += o.rows;
  sim_micros += o.sim_micros;
  vertical_picks += o.vertical_picks;
  horizontal_picks += o.horizontal_picks;
  est_over_sim.Append(o.est_over_sim);
}

void DeleteClass::AddEstimate(const bulkdel::BulkDeleteReport& report) {
  if (report.io.simulated_micros > 0) {
    est_over_sim.Add(EstimateMicros(report.plan_explain) /
                     static_cast<double>(report.io.simulated_micros));
  }
}

void LayerStats::Add(const bulkdel::BulkDeleteReport& report) {
  namespace names = bulkdel::obs::metric_names;
  ++statements;
  rows += report.rows_deleted;
  io += report.io;
  pool += report.pool;
  for (const bulkdel::PhaseStats& p : report.phases) {
    const double ms = static_cast<double>(p.wall_micros) / 1000.0;
    if (p.name == "sort-keys") {
      sort_ms += ms;
      sort_spill_pages += p.io.writes;
    } else if (p.name == "index:R.A") {
      key_index_ms += ms;
      index_reads += p.io.reads;
    } else if (p.name.rfind("index:", 0) == 0) {
      secondary_ms += ms;
      index_reads += p.io.reads;
    } else if (p.name == "table") {
      table_ms += ms;
      table_pages += p.io.reads + p.io.writes;
    } else if (p.name == "finalize") {
      finalize_ms += ms;
    } else if (p.name == "record-at-a-time" || p.name == "range-scan-keys") {
      horizontal_ms += ms;
    }
  }
  leaves_freed += HistogramSum(report.metrics, names::kLeafPagesReorganized);
  disk_syncs += report.metrics.CounterOr(names::kDiskSyncs);
  sidefile_appends += report.metrics.CounterOr(names::kSideFileAppends);
  sidefile_spill_pages += report.metrics.CounterOr(names::kSideFileSpillPages);
  sidefile_catchup_ns += HistogramSum(report.metrics, names::kSideFileCatchupNs);
  hash_steps += static_cast<int64_t>(CountOccurrences(report.plan_explain, "[hash by") +
                                     CountOccurrences(report.plan_explain, "[partitioned-hash by"));
  merge_steps += static_cast<int64_t>(CountOccurrences(report.plan_explain, "[merge by"));
}

void LayerStats::Emit(RunResult* out) const {
  const double n = static_cast<double>(statements);
  const double r = static_cast<double>(rows);
  out->Add("phase.sort_ms", Ratio(sort_ms, n), "ms");
  out->Add("phase.key_index_ms", Ratio(key_index_ms, n), "ms");
  out->Add("phase.table_ms", Ratio(table_ms, n), "ms");
  out->Add("phase.secondary_index_ms", Ratio(secondary_ms, n), "ms");
  out->Add("phase.finalize_ms", Ratio(finalize_ms, n), "ms");
  out->Add("phase.horizontal_ms", Ratio(horizontal_ms, n), "ms");
  out->Add("exec.hash_steps", Ratio(static_cast<double>(hash_steps), n), "count");
  out->Add("exec.merge_steps", Ratio(static_cast<double>(merge_steps), n), "count");
  out->Add("sort.spill_pages", Ratio(static_cast<double>(sort_spill_pages), n), "pages");
  out->Add("btree.leaf_reads_per_row", Ratio(static_cast<double>(index_reads), r), "pages");
  out->Add("btree.leaves_freed", Ratio(static_cast<double>(leaves_freed), n), "pages");
  out->Add("table.pages_per_stmt", Ratio(static_cast<double>(table_pages), n), "pages");
  out->Add("pool.hit_ratio",
           Ratio(static_cast<double>(pool.hits),
                 static_cast<double>(pool.hits + pool.misses)),
           "ratio");
  out->Add("pool.evictions_per_stmt", Ratio(static_cast<double>(pool.evictions), n), "pages");
  out->Add("pool.writebacks_per_stmt",
           Ratio(static_cast<double>(pool.dirty_writebacks), n), "pages");
  out->Add("disk.reads_per_row", Ratio(static_cast<double>(io.reads), r), "pages");
  out->Add("disk.writes_per_row", Ratio(static_cast<double>(io.writes), r), "pages");
  out->Add("disk.random_share",
           Ratio(static_cast<double>(io.random_accesses),
                 static_cast<double>(io.random_accesses + io.sequential_accesses)),
           "ratio");
  out->Add("disk.write_bytes_per_user_byte",
           Ratio(static_cast<double>(io.writes) * 4096.0, r * tuple_size), "ratio");
  out->Add("disk.syncs", Ratio(static_cast<double>(disk_syncs), n), "count");
  out->Add("sidefile.appends", Ratio(static_cast<double>(sidefile_appends), n), "count");
  out->Add("sidefile.spill_pages", Ratio(static_cast<double>(sidefile_spill_pages), n),
           "pages");
  out->Add("sidefile.catchup_ms", Ratio(static_cast<double>(sidefile_catchup_ns) / 1e6, n),
           "ms");
}

void EmitEndToEnd(const EndToEnd& e, DeleteClasses* classes, RunResult* out) {
  out->Add("setup_s", e.setup_s.Median(), "s", e.setup_s.count());
  for (DeleteClass* c : classes->all()) {
    out->Add(c->name + "_p50_ms", c->latency_ms.Median(), "ms", c->latency_ms.count());
  }
  uint64_t rows = 0, statements = 0;
  int64_t sim_micros = 0;
  for (DeleteClass* c : classes->all()) {
    rows += c->rows;
    statements += c->latency_ms.count();
    sim_micros += c->sim_micros;
  }
  out->Add("rows_deleted_per_s", Ratio(static_cast<double>(rows), e.delete_s), "rows/s");
  out->Add("sim_io_s",
           Ratio(static_cast<double>(sim_micros) / 1e6, static_cast<double>(statements)),
           "sim_s", statements);
  out->Add("store_mb", e.store_mb, "MB");
  out->Add("ops_per_s", Ratio(static_cast<double>(e.ops), e.measured_s), "ops/s");
  out->Add("insert_p50_us", e.insert_us.Median(), "us", e.insert_us.count());
  out->Add("insert_p99_us", e.insert_us.Quantile(0.99), "us", e.insert_us.count());
  out->Add("read_p50_us", e.read_us.Median(), "us", e.read_us.count());
  out->Add("read_p99_us", e.read_us.Quantile(0.99), "us", e.read_us.count());
  out->Add("updater_p50_us", e.updater_us.Median(), "us", e.updater_us.count());
  out->Add("updater_p99_us", e.updater_us.Quantile(0.99), "us", e.updater_us.count());
  out->Add("peak_rss_mb", e.peak_rss_mb, "MB");
}

namespace {

/// Median of a log2-bucket histogram, interpolated linearly inside the
/// bucket that holds it (the registry keeps no exact samples).
double InterpolatedMedian(const bulkdel::obs::HistogramSnapshot* h) {
  if (h == nullptr || h->count == 0) return 0;
  const double rank = 0.5 * static_cast<double>(h->count);
  double seen = 0;
  for (size_t b = 0; b < h->buckets.size(); ++b) {
    const double n = static_cast<double>(h->buckets[b]);
    if (seen + n >= rank && n > 0) {
      const double lo = b == 0 ? 0 : static_cast<double>(int64_t{1} << (b - 1));
      const double hi = b == 0 ? 0 : static_cast<double>((int64_t{1} << b) - 1);
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return 0;
}

}  // namespace

void EmitPerLayer(const PerLayer& p, DeleteClasses* classes, RunResult* out) {
  namespace names = bulkdel::obs::metric_names;
  const double ops = static_cast<double>(p.ops);
  out->Add("net.ping_p50_us", p.ping_us.Median(), "us", p.ping_us.count());
  out->Add("net.server_req_p50_us", InterpolatedMedian(p.delta.FindHistogram(names::kNetReqNs)) / 1000.0,
           "us");
  out->Add("net.bytes_per_op",
           Ratio(static_cast<double>(p.delta.CounterOr(names::kNetBytesIn) +
                                     p.delta.CounterOr(names::kNetBytesOut)),
                 ops),
           "bytes");
  out->Add("sql.parse_us", p.parse_us.Median(), "us", p.parse_us.count());
  out->Add("plan.explain_us", p.explain_us.Median(), "us", p.explain_us.count());
  for (const DeleteClass* c : classes->all()) {
    out->Add("plan.vertical_picks." + c->name, static_cast<double>(c->vertical_picks),
             "count");
    out->Add("plan.horizontal_picks." + c->name,
             static_cast<double>(c->horizontal_picks), "count");
    out->Add("plan.est_over_sim." + c->name, c->est_over_sim.Median(), "ratio",
             c->est_over_sim.count());
    out->Add("plan.regret_sim." + c->name, c->regret_sim, "ratio");
  }
  p.layers.Emit(out);
  out->Add("table.insert_p50_us", p.insert_us.Median(), "us", p.insert_us.count());
  out->Add("wal.syncs", Ratio(static_cast<double>(p.delta.CounterOr(names::kWalSyncs)), ops),
           "count");
  out->Add("wal.fsyncs", Ratio(static_cast<double>(p.delta.CounterOr(names::kWalFsyncs)), ops),
           "count");
  const bulkdel::obs::HistogramSnapshot* group = p.delta.FindHistogram(names::kWalGroupSize);
  out->Add("wal.group_size",
           group != nullptr ? Ratio(static_cast<double>(group->sum),
                                    static_cast<double>(group->count))
                            : 0,
           "records");
  out->Add("recovery.reopen_ms", p.reopen_ms, "ms");
  out->Add("lock.wait_p99_us", p.lock_wait_p99_us, "us");
  out->Add("gen.lag_p99_us", p.gen_lag_p99_us, "us");
  const double traced = classes->big.latency_ms.Median();
  out->Add("trace.overhead_pct",
           p.baseline_delete_ms > 0 ? 100.0 * (traced / p.baseline_delete_ms - 1.0) : 0, "%");
}

bulkdel::Status RunReference(const BuildFn& build, bulkdel::DatabaseOptions options,
                             const std::string& dir,
                             const std::vector<ReferenceStatement>& statements) {
  using bulkdel::Strategy;
  const Strategy kStrategies[] = {
      Strategy::kOptimizer,         Strategy::kTraditional,
      Strategy::kTraditionalSorted, Strategy::kDropCreate,
      Strategy::kVerticalSortMerge, Strategy::kVerticalHash,
      Strategy::kVerticalPartitionedHash};
  constexpr size_t kN = std::size(kStrategies);
  struct Cell {
    double sim_s = 0, wall_ms = 0, secondary_ms = 0;
    bool failed = false;
  };
  std::map<DeleteClass*, std::vector<Cell>> cells;
  for (const ReferenceStatement& s : statements) cells[s.cls].assign(kN, Cell());

  // The set-up state once, closed cleanly; each strategy runs on a copy.
  const std::string base = dir + "/ref-base";
  options.trace_spans = false;
  options.path = base;
  {
    BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<bulkdel::Database> db, build(options));
    BULKDEL_RETURN_IF_ERROR(db->Close());
  }
  for (size_t i = 0; i < kN; ++i) {
    const std::string copy = dir + "/ref-" + std::to_string(i);
    std::error_code ec;
    std::filesystem::copy(base, copy, std::filesystem::copy_options::recursive, ec);
    if (ec) return bulkdel::Status::IOError("copy " + base + ": " + ec.message());
    options.path = copy;
    BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<bulkdel::Database> db,
                             bulkdel::Database::Open(options));
    for (const ReferenceStatement& s : statements) {
      bulkdel::Result<bulkdel::BulkDeleteReport> report = db->BulkDelete(s.spec, kStrategies[i]);
      Cell& cell = cells[s.cls][i];
      if (!report.ok()) {
        if (i == 0) return report.status();
        cell.failed = true;
        continue;
      }
      cell.sim_s += report->simulated_seconds();
      cell.wall_ms += static_cast<double>(report->wall_micros) / 1000.0;
      for (const bulkdel::PhaseStats& p : report->phases) {
        if (p.name.rfind("index:", 0) == 0 && p.name != "index:R.A") {
          cell.secondary_ms += static_cast<double>(p.wall_micros) / 1000.0;
        }
      }
    }
    db.reset();
    RemoveTree(copy);
  }
  RemoveTree(base);

  for (auto& [cls, row] : cells) {
    double best = -1;
    for (size_t i = 0; i < kN; ++i) {
      std::printf("reference %-13s %-26s %s\n", cls->name.c_str(),
                  bulkdel::StrategyName(kStrategies[i]),
                  row[i].failed ? "failed"
                                : ("sim_s=" + std::to_string(row[i].sim_s) +
                                   " wall_ms=" + std::to_string(row[i].wall_ms) +
                                   " secondary_index_ms=" + std::to_string(row[i].secondary_ms))
                                      .c_str());
      if (i > 0 && !row[i].failed && (best < 0 || row[i].sim_s < best)) best = row[i].sim_s;
    }
    cls->regret_sim = best > 0 ? row[0].sim_s / best : 0;
  }
  return bulkdel::Status::OK();
}

std::string InListSql(const std::vector<int64_t>& keys) {
  std::string sql = "DELETE FROM R WHERE A IN (";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += std::to_string(keys[i]);
  }
  sql += ")";
  return sql;
}

std::string BetweenSql(int64_t lo, int64_t hi) {
  return "DELETE FROM R WHERE A BETWEEN " + std::to_string(lo) + " AND " +
         std::to_string(hi);
}

void PinToOneCpu() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(std::max(0, sched_getcpu()), &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "could not pin to one CPU; running unpinned\n");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench

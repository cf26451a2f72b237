// Shared pieces of the bulkdel benchmark program: exact latency samples, the
// benchmark's own spans, the independent key model (oracle) and the result
// record every workload fills in.
#ifndef BULKDEL_PERFBENCH_HARNESS_H_
#define BULKDEL_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/report.h"
#include "util/clock.h"
#include "util/random.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the workload's database files (inside the
  /// checkout); created by the caller, removed by the caller.
  std::string dir;
  /// Traced runs write their Chrome trace here (bulkdel_tracecat input).
  std::string trace_out;
  /// Traced runs: delete_p50_ms of an untraced run of the same workload,
  /// the base of trace.overhead_pct.
  double baseline_delete_ms = 0;
};

/// Exact samples from the benchmark's own clock (no histogram buckets).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t count() const { return values_.size(); }
  /// Nearest-rank quantile of the samples (q in (0, 1]); 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Spans the benchmark records around each call it makes into a library
/// module ("sql.parse", "table.insert", ...). Recorded only in traced runs;
/// merged into the library's Chrome trace under category "bench".
class BenchSpans {
 public:
  explicit BenchSpans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Record(const char* name, int64_t begin_nanos, int64_t end_nanos,
              int lane = 0);
  /// The library's trace (obs::TraceRecorder) with these spans added, as one
  /// Chrome trace-event JSON document.
  std::string MergeIntoChromeTrace(const std::string& library_trace) const;

 private:
  struct Span {
    const char* name;
    int64_t begin;
    int64_t end;
    int lane;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Traced runs: drops what the library's span recorder holds, so the trace
/// starts at the measured window (its per-thread rings keep the first
/// events and drop later ones when full). Call while no thread records.
void StartTraceWindow(bool traced);

/// Placeholder status of a Result that has not been computed yet.
inline bulkdel::Status NotRun() { return bulkdel::Status::Internal("not run"); }

/// Runs `fn`, records span `name` when tracing, returns elapsed nanoseconds.
template <class Fn>
int64_t Timed(BenchSpans* spans, const char* name, Fn&& fn, int lane = 0) {
  int64_t begin = bulkdel::MonotonicNanos();
  fn();
  int64_t end = bulkdel::MonotonicNanos();
  if (spans->enabled()) spans->Record(name, begin, end, lane);
  return end - begin;
}

/// The benchmark's own model of one key column: the sorted live keys.
/// Fresh keys are always larger than every key ever used, so appending keeps
/// the vector sorted.
class KeyModel {
 public:
  void Append(int64_t key) { live_.push_back(key); }
  size_t size() const { return live_.size(); }
  const std::vector<int64_t>& live() const { return live_; }
  /// `n` distinct live keys chosen uniformly at random.
  std::vector<int64_t> Sample(size_t n, bulkdel::Random* rng) const;
  /// Live keys in [lo, hi].
  size_t CountRange(int64_t lo, int64_t hi) const;
  bool Contains(int64_t key) const;
  /// Removes the given keys (each must be live); returns how many were.
  size_t Remove(const std::vector<int64_t>& keys);
  /// Removes every live key in [lo, hi]; returns how many there were.
  size_t RemoveRange(int64_t lo, int64_t hi);

 private:
  std::vector<int64_t> live_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< 0 = not a sample statistic
};

/// What one run reports: the correctness verdict, operation counts and
/// metrics, printed by main() as the final JSON line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< first few correctness violations

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  /// Records a correctness violation (the program returned a wrong answer).
  void Wrong(const std::string& what);
  /// Counts one attempted operation; `ok == false` counts it failed.
  void Op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One delete class of a workload ("delete", "mid_delete", "range_delete"):
/// the end-to-end latencies plus what the statements' reports say about the
/// planner's choices.
struct DeleteClass {
  explicit DeleteClass(std::string class_name) : name(std::move(class_name)) {}
  std::string name;
  Samples latency_ms;
  uint64_t rows = 0;
  int64_t sim_micros = 0;
  uint64_t vertical_picks = 0;
  uint64_t horizontal_picks = 0;
  Samples est_over_sim;
  /// Optimizer simulated I/O over the best fixed strategy's, on the same
  /// statements in reference runs (0 = no reference runs made).
  double regret_sim = 0;

  /// Accounts one executed statement (latency from the benchmark's clock).
  void Account(double latency, uint64_t rows_deleted, int64_t simulated_micros,
               bulkdel::Strategy used);
  /// The plan's estimate over the statement's measured simulated I/O.
  void AddEstimate(const bulkdel::BulkDeleteReport& report);
  void AddStatement(double latency, const bulkdel::BulkDeleteReport& report) {
    Account(latency, report.rows_deleted, report.io.simulated_micros, report.strategy_used);
    AddEstimate(report);
  }
  /// Adds another connection's statements of the same class.
  void Merge(const DeleteClass& o);
};

/// Per-layer figures taken from the statements' BulkDeleteReports: phase
/// wall times, attributed disk I/O, buffer-pool activity and the metric
/// deltas the library records per statement.
struct LayerStats {
  uint64_t statements = 0;
  uint64_t rows = 0;
  uint32_t tuple_size = 0;
  double sort_ms = 0, key_index_ms = 0, table_ms = 0, secondary_ms = 0,
         finalize_ms = 0, horizontal_ms = 0;
  bulkdel::IoStats io;
  bulkdel::BufferPoolStats pool;
  int64_t sort_spill_pages = 0;
  int64_t index_reads = 0;
  int64_t leaves_freed = 0;
  int64_t table_pages = 0;
  int64_t disk_syncs = 0;
  int64_t hash_steps = 0, merge_steps = 0;
  int64_t sidefile_appends = 0, sidefile_spill_pages = 0;
  int64_t sidefile_catchup_ns = 0;

  void Add(const bulkdel::BulkDeleteReport& report);
  /// Emits the report-derived per-layer metrics (0 for a layer the
  /// workload's statements never reached).
  void Emit(RunResult* out) const;
};

/// A workload's three delete classes, in reporting order.
struct DeleteClasses {
  DeleteClass big{"delete"};
  DeleteClass mid{"mid_delete"};
  DeleteClass range{"range_delete"};
  std::vector<DeleteClass*> all() { return {&big, &mid, &range}; }
};

/// What an untraced run measures end to end. Every workload reports every
/// end-to-end metric; README.md says what each one means per workload.
struct EndToEnd {
  Samples setup_s;
  double measured_s = 0;  ///< wall seconds of the measured window
  uint64_t ops = 0;       ///< operations completed in it
  double delete_s = 0;    ///< denominator of rows_deleted_per_s
  double store_mb = 0;
  Samples insert_us, read_us, updater_us;
  double peak_rss_mb = 0;
};
void EmitEndToEnd(const EndToEnd& e, DeleteClasses* classes, RunResult* out);

/// What a traced run measures per layer. Each workload fills what its path
/// reaches; EmitPerLayer reports every per-layer metric, 0 for a layer the
/// workload does not reach.
struct PerLayer {
  Samples ping_us;     ///< net: Client::Ping
  Samples parse_us;    ///< core/sql: ParseBulkDelete
  Samples explain_us;  ///< plan: ExplainBulkDelete
  Samples insert_us;   ///< table: InsertRow
  double reopen_ms = 0;         ///< recovery: SimulateCrashAndRecover
  double lock_wait_p99_us = 0;  ///< txn: updater p99 over its between-statement p99
  double gen_lag_p99_us = 0;    ///< workload: open-loop schedule lateness
  uint64_t ops = 0;             ///< operations in the measured window
  double baseline_delete_ms = 0;  ///< untraced delete_p50_ms (Args)
  /// The database's metrics across the measured window.
  bulkdel::obs::MetricsSnapshot delta;
  LayerStats layers;
};
void EmitPerLayer(const PerLayer& p, DeleteClasses* classes, RunResult* out);

/// Reference runs behind plan.regret_sim: builds the workload's set-up
/// state once under `dir` with `build`, closes it, and per strategy reopens
/// a copy of its files and runs the same statements under that strategy
/// (kOptimizer and each fixed one). Prints each class's simulated I/O,
/// statement wall time and secondary-index phase time per strategy, and
/// stores in each class the optimizer's simulated I/O over the best fixed
/// strategy's.
using BuildFn = std::function<bulkdel::Result<std::unique_ptr<bulkdel::Database>>(
    bulkdel::DatabaseOptions)>;
struct ReferenceStatement {
  bulkdel::BulkDeleteSpec spec;
  DeleteClass* cls;
};
bulkdel::Status RunReference(const BuildFn& build, bulkdel::DatabaseOptions options,
                             const std::string& dir,
                             const std::vector<ReferenceStatement>& statements);

/// "DELETE FROM R WHERE A IN (...)" / "... BETWEEN lo AND hi".
std::string InListSql(const std::vector<int64_t>& keys);
std::string BetweenSql(int64_t lo, int64_t hi);

/// Pins the calling thread, and every thread it starts later, to the CPU it
/// runs on. Used by the multi-threaded workloads: their threads then hand
/// off on one CPU, so the figures measure the program's request path rather
/// than how fast a virtual machine wakes a halted CPU — on the reference
/// machine that wake-up moved unpinned oltp_server throughput by up to 30%
/// between identical runs, pinned by about 7%.
void PinToOneCpu();

/// Peak resident set of this process, MB.
double PeakRssMb();
/// Deterministic 64-bit mix (values of refill rows depend on the key only).
uint64_t Mix(uint64_t x);
/// Size of a file in MB (0 if absent).
double FileMb(const std::string& path);
/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

using WorkloadFn = RunResult (*)(const Args&, BenchSpans*);
RunResult RunWindowBulk(const Args& args, BenchSpans* spans);
RunResult RunOltpServer(const Args& args, BenchSpans* spans);
RunResult RunOnlineBulk(const Args& args, BenchSpans* spans);

}  // namespace perfbench

#endif  // BULKDEL_PERFBENCH_HARNESS_H_

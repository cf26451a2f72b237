#ifndef BULKDEL_BENCH_BENCH_COMMON_H_
#define BULKDEL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "workload/generator.h"

namespace bulkdel {
namespace bench {

/// Scale configuration shared by all figure/table benchmarks.
///
/// The paper runs 1,000,000 × 512 B tuples (a 512 MB table) with 5 MB of
/// main memory (Fig. 9 varies 2–10 MB). The benchmarks default to a
/// scaled-down table and scale every memory setting by the same
/// table-bytes ratio, so cache-pressure effects are preserved. Run with
/// `--tuples=1000000 --tuple-size=512` to reproduce at paper scale.
struct BenchConfig {
  uint64_t n_tuples = 50000;
  uint32_t tuple_size = 256;
  int n_int_columns = 10;
  uint64_t seed = 20010407;
  /// Worker threads for the phase-DAG scheduler (`--threads=N`); 1 = the
  /// historical serial execution.
  int exec_threads = 1;
  /// Durability backend (`--backend=sim|file`). "sim" (default) runs over
  /// in-memory pages and WAL image; "file" runs the identical workload over
  /// a real pwrite/fsync page file and on-disk WAL under `db_dir`. Simulated
  /// I/O totals are bit-identical between the two; only wall time changes.
  std::string backend = "sim";
  /// Directory for file-backed databases (`--db-dir=PATH`); each
  /// BuildBenchDb call gets its own numbered subdirectory. tmpfs recommended.
  std::string db_dir = "/tmp/bulkdel_bench";
  /// WAL group commit (`--wal-group-commit=0|1`, default on). Off = every
  /// Sync() performs its own flush+fsync; the ablation's baseline.
  bool wal_group_commit = true;
  /// If non-empty (`--trace-out=FILE`), every report produced via RunDelete
  /// is appended to FILE as one BulkDeleteReport::ToJson() line (JSONL), for
  /// machine-readable per-phase breakdowns of EXPERIMENTS runs.
  std::string trace_out;
  /// If non-empty (`--perfetto-out=FILE`), span tracing is enabled
  /// (DatabaseOptions::trace_spans) and the whole run's trace is written to
  /// FILE as Chrome trace-event JSON on MaybeExportPerfetto() — load it in
  /// Perfetto / chrome://tracing, or feed it to bulkdel_tracecat. Simulated
  /// I/O is bit-identical with or without this flag (docs/OBSERVABILITY.md).
  std::string perfetto_out;

  static BenchConfig FromArgs(int argc, char** argv);

  double ScaleFactor() const {
    return static_cast<double>(n_tuples) * tuple_size /
           (1000000.0 * 512.0);
  }

  /// Paper memory size (MB) scaled to this configuration's table size.
  size_t ScaledMemoryBytes(double paper_mb) const {
    double bytes = paper_mb * 1024.0 * 1024.0 * ScaleFactor();
    return static_cast<size_t>(bytes) < (64u << 10)
               ? (64u << 10)
               : static_cast<size_t>(bytes);
  }
};

/// A freshly built paper database plus its workload description.
struct BenchDb {
  std::unique_ptr<Database> db;
  Workload workload;
};

/// Builds R with indices on `columns` ("A" unique; clustered per flag) under
/// `memory_bytes` of buffer/sort memory. `a_options` tweaks the key index
/// (the height experiment shrinks its inner fan-out).
Result<BenchDb> BuildBenchDb(const BenchConfig& config,
                             const std::vector<std::string>& columns,
                             size_t memory_bytes, bool clustered_on_a = false,
                             IndexOptions a_options = {});

/// Runs one bulk delete of `fraction` of the rows with `strategy`; the
/// database is consumed (mutated).
Result<BulkDeleteReport> RunDelete(BenchDb* bench, double fraction,
                                   Strategy strategy, uint64_t key_seed = 1,
                                   bool pre_sort_keys = false);

/// Appends `report` as one JSON line to `config.trace_out`, if set. Errors
/// are reported to stderr but do not fail the benchmark.
void MaybeWriteTrace(const BenchConfig& config,
                     const BulkDeleteReport& report);

/// Writes the global TraceRecorder's Chrome trace to `config.perfetto_out`,
/// if set (call once, at the end of the benchmark). Errors are reported to
/// stderr but do not fail the benchmark.
void MaybeExportPerfetto(const BenchConfig& config);

/// Markdown-ish result table: one row per x-value, one column per series,
/// cells in simulated minutes — optionally with host wall milliseconds
/// alongside (`12.34 (56ms)`), so sim-model time and real-backend time read
/// side by side.
class ResultTable {
 public:
  ResultTable(std::string title, std::string x_label,
              std::vector<std::string> series);

  /// `wall_millis` < 0 omits the wall column for this cell.
  void AddCell(const std::string& x, const std::string& series,
               double sim_minutes, double wall_millis = -1.0);
  /// Renders and prints the table plus per-cell I/O footnotes if provided.
  void Print() const;

 private:
  std::string title_;
  std::string x_label_;
  std::vector<std::string> series_;
  std::vector<std::string> xs_;
  std::vector<std::vector<double>> cells_;  // [x][series], sim minutes
  std::vector<std::vector<double>> walls_;  // [x][series], wall ms (<0 = n/a)
};

}  // namespace bench
}  // namespace bulkdel

#endif  // BULKDEL_BENCH_BENCH_COMMON_H_

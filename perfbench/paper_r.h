// The paper's table R at the benchmark's scale, and the purger that keeps a
// sliding window of it: kOptimizer bulk deletes checked against the key
// model, and refills with fresh keys. Shared by window_bulk (alone) and
// online_bulk (beside concurrent updaters).
#ifndef BULKDEL_PERFBENCH_PAPER_R_H_
#define BULKDEL_PERFBENCH_PAPER_R_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/// R: 400k x 256 B, ten duplicate-free integer columns, A unique, B and C
/// indexed (the workload generator's paper database).
inline constexpr uint64_t kPaperTuples = 400000;
inline constexpr uint32_t kPaperTupleSize = 256;
inline constexpr int kPaperIntColumns = 10;
/// The paper's 5 MB for 1M x 512 B, scaled by (400k x 256) / (1M x 512).
inline constexpr size_t kPaperPoolBytes = 1u << 20;

/// File-backed options with the scaled pool and the recovery log on.
bulkdel::DatabaseOptions PaperOptions(bool trace);

/// Creates and loads R, then checkpoints it, so a crash right after set-up
/// loses nothing. Fills `model` with A's keys when non-null.
bulkdel::Result<std::unique_ptr<bulkdel::Database>> BuildPaperR(
    bulkdel::DatabaseOptions options, uint64_t seed, KeyModel* model);

/// Builds R `setups` times under args.dir/setup<i> (each from scratch,
/// removing the previous one); setup_s samples go to `setup_s`. Returns the
/// last database; `model` holds its keys.
bulkdel::Result<std::unique_ptr<bulkdel::Database>> SetUpPaperR(
    const Args& args, const bulkdel::DatabaseOptions& options, int setups,
    BenchSpans* spans, Samples* setup_s, KeyModel* model);

/// The purging side of a sliding window over R. Single-threaded: one
/// thread owns a Purger.
class Purger {
 public:
  Purger(bulkdel::Database* db, KeyModel model, uint64_t seed, BenchSpans* spans,
         RunResult* out, bool traced);

  /// Whether statements and inserts count in the figures. Statements run
  /// while not measuring (the warm-up) become the reference statements.
  void SetMeasuring(bool measured) { measured_ = measured; }

  /// IN-list of `n` random live keys.
  void DeleteKeys(size_t n, DeleteClass* c);
  /// BETWEEN over the `n` lowest live keys: the window's old end.
  void DeleteLowest(size_t n, DeleteClass* c);
  /// Tops R up to kPaperTuples live rows with fresh ascending keys.
  void Refill();
  /// One fresh row through InsertRow; false on failure.
  bool Insert();

  KeyModel& model() { return model_; }
  const std::vector<int64_t>& deleted() const { return deleted_; }
  bulkdel::Random& rng() { return rng_; }
  DeleteClasses& classes() { return cls_; }
  EndToEnd& e2e() { return e2e_; }
  PerLayer& layer() { return layer_; }
  const std::vector<ReferenceStatement>& reference() const { return reference_; }
  /// [begin, end) of every measured statement, MonotonicNanos.
  const std::vector<std::pair<int64_t, int64_t>>& statement_windows() const {
    return windows_;
  }

 private:
  /// Parses and runs one statement; checks rows_deleted against the model.
  /// Its latency is parse + execute, as ExecuteSql runs it.
  void Delete(const std::string& sql, size_t expected, DeleteClass* c);

  bulkdel::Database* db_;
  KeyModel model_;
  std::vector<int64_t> deleted_;  ///< every acknowledged deleted key
  int64_t next_key_ = static_cast<int64_t>(8 * kPaperTuples);
  bulkdel::Random rng_;
  BenchSpans* spans_;
  RunResult* out_;
  bool traced_;
  bool measured_ = false;

  DeleteClasses cls_;
  EndToEnd e2e_;
  PerLayer layer_;
  std::vector<ReferenceStatement> reference_;
  std::vector<std::pair<int64_t, int64_t>> windows_;
};

}  // namespace perfbench

#endif  // BULKDEL_PERFBENCH_PAPER_R_H_

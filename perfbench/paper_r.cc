#include "paper_r.h"

#include <algorithm>

#include "core/sql.h"
#include "workload/generator.h"

namespace perfbench {

using bulkdel::BulkDeleteReport;
using bulkdel::BulkDeleteSpec;
using bulkdel::Database;
using bulkdel::DatabaseOptions;
using bulkdel::Result;
using bulkdel::Status;
using bulkdel::Strategy;

namespace {

/// Refill rows: every column but A derives from the key alone, so a refill
/// row is the same whatever the seed.
std::vector<int64_t> RefillRow(int64_t key) {
  std::vector<int64_t> row(kPaperIntColumns);
  row[0] = key;
  for (int c = 1; c < kPaperIntColumns; ++c) {
    row[static_cast<size_t>(c)] =
        static_cast<int64_t>(Mix(static_cast<uint64_t>(key) * 16 + static_cast<uint64_t>(c)) %
                             (8 * kPaperTuples));
  }
  return row;
}

}  // namespace

DatabaseOptions PaperOptions(bool trace) {
  DatabaseOptions options;
  options.memory_budget_bytes = kPaperPoolBytes;
  options.enable_recovery_log = true;
  options.trace_spans = trace;
  return options;
}

Result<std::unique_ptr<Database>> BuildPaperR(DatabaseOptions options, uint64_t seed,
                                              KeyModel* model) {
  BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Create(options));
  bulkdel::WorkloadSpec spec;
  spec.n_tuples = kPaperTuples;
  spec.n_int_columns = kPaperIntColumns;
  spec.tuple_size = kPaperTupleSize;
  spec.seed = seed;
  BULKDEL_ASSIGN_OR_RETURN(bulkdel::Workload workload,
                           bulkdel::SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"}));
  BULKDEL_RETURN_IF_ERROR(db->Checkpoint());
  if (model != nullptr) {
    std::vector<int64_t> keys = workload.values[0];
    std::sort(keys.begin(), keys.end());
    *model = KeyModel();
    for (int64_t k : keys) model->Append(k);
  }
  return db;
}

Result<std::unique_ptr<Database>> SetUpPaperR(const Args& args,
                                              const DatabaseOptions& options, int setups,
                                              BenchSpans* spans, Samples* setup_s,
                                              KeyModel* model) {
  std::unique_ptr<Database> db;
  for (int i = 0; i < setups; ++i) {
    db.reset();
    RemoveTree(args.dir + "/setup" + std::to_string(i - 1));
    DatabaseOptions o = options;
    o.path = args.dir + "/setup" + std::to_string(i);
    Result<std::unique_ptr<Database>> built = NotRun();
    int64_t ns = Timed(spans, "workload.setup", [&] { built = BuildPaperR(o, args.seed, model); });
    if (!built.ok()) return built.status();
    db = std::move(*built);
    setup_s->Add(static_cast<double>(ns) / 1e9);
  }
  return db;
}

Purger::Purger(Database* db, KeyModel model, uint64_t seed, BenchSpans* spans,
               RunResult* out, bool traced)
    : db_(db),
      model_(std::move(model)),
      rng_(seed * 7919 + 1),
      spans_(spans),
      out_(out),
      traced_(traced) {}

void Purger::Delete(const std::string& sql, size_t expected, DeleteClass* c) {
  Result<BulkDeleteSpec> spec = NotRun();
  Result<BulkDeleteReport> report = NotRun();
  int64_t parse_ns = Timed(spans_, "sql.parse", [&] { spec = bulkdel::ParseBulkDelete(db_, sql); });
  if (spec.ok() && traced_ && measured_) {
    // Planning alone, outside the statement's latency.
    layer_.explain_us.Add(static_cast<double>(Timed(spans_, "plan.explain", [&] {
                            (void)db_->ExplainBulkDelete(*spec, Strategy::kOptimizer);
                          })) / 1000.0);
  }
  int64_t begin = bulkdel::MonotonicNanos();
  if (spec.ok()) {
    Timed(spans_, "core.bulk_delete",
          [&] { report = db_->BulkDelete(*spec, Strategy::kOptimizer); });
  }
  int64_t end = bulkdel::MonotonicNanos();
  out_->Op(spec.ok() && report.ok());
  if (!spec.ok() || !report.ok()) {
    out_->Wrong("statement failed: " + (spec.ok() ? report.status() : spec.status()).ToString());
    return;
  }
  if (report->rows_deleted != expected) {
    out_->Wrong(c->name + " deleted " + std::to_string(report->rows_deleted) +
                " rows, model says " + std::to_string(expected));
  }
  if (!measured_) {
    reference_.push_back(ReferenceStatement{*spec, c});
    return;
  }
  const int64_t latency_ns = parse_ns + (end - begin);
  ++e2e_.ops;
  e2e_.delete_s += static_cast<double>(latency_ns) / 1e9;
  c->AddStatement(static_cast<double>(latency_ns) / 1e6, *report);
  windows_.emplace_back(begin, end);
  layer_.parse_us.Add(static_cast<double>(parse_ns) / 1000.0);
  layer_.layers.Add(*report);
}

void Purger::DeleteKeys(size_t n, DeleteClass* c) {
  std::vector<int64_t> keys = model_.Sample(n, &rng_);
  Delete(InListSql(keys), keys.size(), c);
  model_.Remove(keys);
  deleted_.insert(deleted_.end(), keys.begin(), keys.end());
}

void Purger::DeleteLowest(size_t n, DeleteClass* c) {
  const std::vector<int64_t>& live = model_.live();
  const int64_t lo = live.front(), hi = live[n - 1];
  deleted_.insert(deleted_.end(), live.begin(), live.begin() + static_cast<std::ptrdiff_t>(n));
  Delete(BetweenSql(lo, hi), model_.CountRange(lo, hi), c);
  model_.RemoveRange(lo, hi);
}

void Purger::Refill() {
  while (model_.size() < kPaperTuples && Insert()) {
  }
}

bool Purger::Insert() {
  const int64_t key = next_key_;
  next_key_ += 8;
  std::vector<int64_t> row = RefillRow(key);
  Result<bulkdel::Rid> rid = NotRun();
  int64_t ns = Timed(spans_, "table.insert", [&] { rid = db_->InsertRow("R", row); });
  out_->Op(rid.ok());
  if (!rid.ok()) {
    out_->Wrong("InsertRow failed: " + rid.status().ToString());
    return false;
  }
  model_.Append(key);
  if (measured_) {
    ++e2e_.ops;
    layer_.insert_us.Add(static_cast<double>(ns) / 1000.0);
  }
  return true;
}

}  // namespace perfbench

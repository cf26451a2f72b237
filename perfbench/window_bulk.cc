// window_bulk: the paper's operator under buffer-pool pressure, as a sliding
// window over R (paper_r.h) with the ~100 MB table behind a 1 MiB pool.
// Each round refills the window with fresh keys through InsertRow, runs
// point reads beside the deleted range, then runs three kOptimizer
// statements: an IN-list of 1% random live keys, an IN-list of 0.2%, and a
// BETWEEN over the lowest 1% of live keys. The run ends with a
// crash-restart check.
//
// The round count follows --seconds, not the clock, so the simulated I/O,
// the store size and the crash-restart check's failed share are the same in
// every run of one seed.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/sql.h"
#include "harness.h"
#include "obs/trace_recorder.h"
#include "paper_r.h"

namespace perfbench {
namespace {

using bulkdel::Database;
using bulkdel::DatabaseOptions;
using bulkdel::Result;
using bulkdel::Status;

constexpr size_t kBigKeys = kPaperTuples / 100;    // 1%
constexpr size_t kMidKeys = kPaperTuples / 500;    // 0.2%
constexpr size_t kRangeRows = kPaperTuples / 100;  // lowest 1% of live keys
constexpr size_t kReadsPerRound = 400;
/// Rows inserted between the last statement and the crash.
constexpr size_t kFinalBatch = 16;
constexpr int kSetups = 3;
/// Measured rounds per second of --seconds, so a run measures for about
/// --seconds on the reference machine (README.md).
constexpr double kRoundsPerSecond = 3.5;

struct Window {
  Database* db;
  Purger purger;
  RunResult* out;
  BenchSpans* spans;
  Samples read_us;

  /// Point reads through the SQL front end, alternating a live key and one
  /// the last range delete removed.
  void Reads(bool measured) {
    const std::vector<int64_t>& live = purger.model().live();
    const std::vector<int64_t>& deleted = purger.deleted();
    for (size_t i = 0; i < kReadsPerRound; ++i) {
      int64_t key = (i % 2 == 0 || deleted.empty())
                        ? live[purger.rng().Uniform(live.size())]
                        : deleted[deleted.size() - 1 - purger.rng().Uniform(kRangeRows)];
      std::string sql = "SELECT COUNT(*) FROM R WHERE A BETWEEN " + std::to_string(key) +
                        " AND " + std::to_string(key);
      Result<std::string> reply = NotRun();
      int64_t ns = Timed(spans, "sql.select", [&] { reply = bulkdel::ExecuteStatement(db, sql); });
      out->Op(reply.ok());
      if (!reply.ok()) {
        out->Wrong("point read failed: " + reply.status().ToString());
        continue;
      }
      std::string expect =
          std::string("count = ") + (purger.model().Contains(key) ? "1" : "0") + " ";
      if (reply->compare(0, expect.size(), expect) != 0) {
        out->Wrong("point read of " + std::to_string(key) + " returned '" + *reply + "'");
      }
      if (measured) {
        read_us.Add(static_cast<double>(ns) / 1000.0);
        ++purger.e2e().ops;
      }
    }
  }

  /// One round; it ends with a statement, so with an end-of-statement flush.
  void Round(bool measured) {
    purger.Refill();
    Reads(measured);
    DeleteClasses& cls = purger.classes();
    purger.DeleteKeys(kBigKeys, &cls.big);
    purger.DeleteKeys(kMidKeys, &cls.mid);
    purger.DeleteLowest(kRangeRows, &cls.range);
  }

  /// Final contents against the model: the A index holds exactly the
  /// model's live keys, and VerifyIntegrity passes.
  void CheckContents() {
    std::vector<int64_t> keys;
    Status scan = db->GetIndex("R", "A")->tree->ScanAll(
        [&](int64_t key, const bulkdel::Rid&, uint16_t) {
          keys.push_back(key);
          return Status::OK();
        });
    const bool same = scan.ok() && keys == purger.model().live();
    out->Op(same);
    if (!same) {
      out->Wrong("final contents differ from the model (" + std::to_string(keys.size()) +
                 " keys in R.A, model " + std::to_string(purger.model().size()) + ")");
    }
    Status integrity = db->VerifyIntegrity();
    out->Op(integrity.ok());
    if (!integrity.ok()) out->Wrong("VerifyIntegrity: " + integrity.ToString());
  }

  /// A last refill batch after the final statement's flush, then crash,
  /// reopen and recover. Every acknowledged live row must then be found by
  /// key, every acknowledged deleted row must be absent, and the reopened
  /// database must pass VerifyIntegrity; each miss counts as a failed
  /// operation. Rows inserted after the last end-of-statement flush are not
  /// logged (Database::InsertRow logs only inside a bulk delete), so the
  /// batch is lost. Its rows do not depend on the seed, and it is small
  /// enough that none of its pages is written back before the crash, so the
  /// loss is the same in every run. Returns the reopen time in ms.
  double CrashRestart() {
    for (size_t i = 0; i < kFinalBatch; ++i) {
      if (!purger.Insert()) return 0;
    }
    Status recovered = NotRun();
    int64_t ns = Timed(spans, "recovery.crash_reopen",
                       [&] { recovered = db->SimulateCrashAndRecover(); });
    out->Op(recovered.ok());
    if (!recovered.ok()) {
      out->Wrong("SimulateCrashAndRecover: " + recovered.ToString());
      return 0;
    }
    bulkdel::IndexDef* index = db->GetIndex("R", "A");
    auto present = [&](int64_t key) {
      Result<std::vector<bulkdel::Rid>> hits = index->tree->Search(key);
      return hits.ok() && !hits->empty();
    };
    for (int64_t key : purger.model().live()) out->Op(present(key));
    for (int64_t key : purger.deleted()) out->Op(!present(key));
    out->Op(db->VerifyIntegrity().ok());
    return static_cast<double>(ns) / 1e6;
  }
};

}  // namespace

RunResult RunWindowBulk(const Args& args, BenchSpans* spans) {
  RunResult out;
  Samples setup_s;
  KeyModel model;
  Result<std::unique_ptr<Database>> built =
      SetUpPaperR(args, PaperOptions(args.trace), kSetups, spans, &setup_s, &model);
  out.Op(built.ok());
  if (!built.ok()) {
    out.Wrong("set-up failed: " + built.status().ToString());
    return out;
  }
  std::unique_ptr<Database> db = std::move(*built);
  Window w{db.get(), Purger(db.get(), std::move(model), args.seed, spans, &out, args.trace),
           &out, spans, Samples()};
  const int rounds = std::max(2, static_cast<int>(args.seconds * kRoundsPerSecond + 0.5));

  w.Round(/*measured=*/false);  // warm-up: fills the pool, first-use paths
  w.purger.SetMeasuring(true);
  StartTraceWindow(args.trace);
  const bulkdel::obs::MetricsSnapshot before = db->metrics().Snapshot();
  const int64_t begin = bulkdel::MonotonicNanos();
  for (int r = 0; r < rounds && out.correct; ++r) w.Round(/*measured=*/true);
  EndToEnd& e2e = w.purger.e2e();
  PerLayer& layer = w.purger.layer();
  e2e.measured_s = static_cast<double>(bulkdel::MonotonicNanos() - begin) / 1e9;
  layer.delta = db->metrics().Snapshot() - before;
  layer.ops = e2e.ops;
  e2e.setup_s = setup_s;
  e2e.peak_rss_mb = PeakRssMb();
  e2e.store_mb = FileMb(args.dir + "/setup" + std::to_string(kSetups - 1) + "/pages.db");
  // The refill inserts and the point reads are the record-at-a-time ops.
  e2e.insert_us = layer.insert_us;
  e2e.read_us = w.read_us;
  e2e.updater_us = layer.insert_us;
  e2e.updater_us.Append(w.read_us);
  w.purger.SetMeasuring(false);
  std::printf("window_bulk: %d measured rounds in %.2f s\n", rounds, e2e.measured_s);

  w.CheckContents();
  layer.reopen_ms = w.CrashRestart();
  if (!args.trace) {
    EmitEndToEnd(e2e, &w.purger.classes(), &out);
    return out;
  }
  bulkdel::obs::TraceRecorder::Global().SetEnabled(false);
  Status ref = NotRun();
  Timed(spans, "plan.reference_runs", [&] {
    ref = RunReference([&](DatabaseOptions o) { return BuildPaperR(o, args.seed, nullptr); },
                       PaperOptions(false), args.dir, w.purger.reference());
  });
  if (!ref.ok()) std::fprintf(stderr, "reference runs: %s\n", ref.ToString().c_str());
  layer.layers.tuple_size = kPaperTupleSize;
  layer.baseline_delete_ms = args.baseline_delete_ms;
  EmitPerLayer(layer, &w.purger.classes(), &out);
  return out;
}

}  // namespace perfbench

// online_bulk: §3.1 online bulk deletes. R of window_bulk (paper_r.h) runs
// under ConcurrencyProtocol::kSideFile with the recovery log on. One thread
// purges back to back — a 2% IN-list, a 0.4% IN-list and a BETWEEN over the
// lowest 2% of live keys, each kOptimizer and each followed by a refill —
// while two open-loop updater threads insert and read their own rows at a
// fixed rate well below saturation. Updater latency is timed from when each
// operation was due, so a statement's exclusive window shows as updater
// tail latency.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/trace_recorder.h"
#include "paper_r.h"

namespace perfbench {
namespace {

using bulkdel::Database;
using bulkdel::DatabaseOptions;
using bulkdel::Result;
using bulkdel::Status;

constexpr size_t kBigKeys = kPaperTuples / 50;     // 2%
constexpr size_t kMidKeys = kPaperTuples / 250;    // 0.4%
constexpr size_t kRangeRows = kPaperTuples / 50;   // lowest 2% of live keys
constexpr int kUpdaters = 2;
/// Operations per second per updater; a fraction of what one updater
/// sustains between statements.
constexpr int64_t kUpdaterRate = 1000;
constexpr int kSetups = 3;

DatabaseOptions OnlineOptions(bool trace) {
  DatabaseOptions options = PaperOptions(trace);
  options.concurrency = bulkdel::ConcurrencyProtocol::kSideFile;
  return options;
}

/// One open-loop updater: alternately inserts a fresh row of its own key
/// range and reads back one of its earlier rows by RID.
struct Updater {
  int id = 0;
  Database* db = nullptr;
  BenchSpans* spans = nullptr;
  int64_t next_key = 0;
  bulkdel::Random rng{0};
  std::vector<std::pair<int64_t, bulkdel::Rid>> rows;  ///< acknowledged inserts

  Samples insert_us, read_us, all_us, lag_us;
  std::vector<std::pair<int64_t, int64_t>> ops;  ///< (due, end) per operation
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  static std::vector<int64_t> Row(int64_t key) {
    std::vector<int64_t> row(kPaperIntColumns);
    row[0] = key;
    for (int c = 1; c < kPaperIntColumns; ++c) {
      row[static_cast<size_t>(c)] = static_cast<int64_t>(
          Mix(static_cast<uint64_t>(key) ^ static_cast<uint64_t>(c)) % (8 * kPaperTuples));
    }
    return row;
  }

  void Wrong(const std::string& what) {
    if (errors.size() < 4) errors.push_back("updater " + std::to_string(id) + ": " + what);
  }

  /// Runs whole insert+read pairs on the schedule start + k * period until
  /// `stop`; each op's latency runs from its due time.
  void Run(int64_t start, const std::atomic<bool>* stop) {
    // Wake as close to each due time as the kernel can (the default 50 us
    // timer slack would show as generator lag in every latency).
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t period = 1000000000 / kUpdaterRate;
    for (int64_t k = 0; !stop->load(std::memory_order_relaxed) || k % 2 != 0; ++k) {
      const int64_t due = start + k * period;
      int64_t now = bulkdel::MonotonicNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = bulkdel::MonotonicNanos();
      }
      lag_us.Add(static_cast<double>(now - due) / 1000.0);
      const bool insert = k % 2 == 0 || rows.empty();
      bool ok = insert ? Insert() : Read();
      const int64_t end = bulkdel::MonotonicNanos();
      ++attempted;
      if (!ok) ++failed;
      const double us = static_cast<double>(end - due) / 1000.0;
      (insert ? insert_us : read_us).Add(us);
      all_us.Add(us);
      ops.emplace_back(due, end);
    }
  }

  bool Insert() {
    const int64_t key = next_key++;
    Result<bulkdel::Rid> rid = NotRun();
    Timed(spans, "table.insert", [&] { rid = db->InsertRow("R", Row(key)); }, 1 + id);
    if (!rid.ok()) {
      Wrong("InsertRow: " + rid.status().ToString());
      return false;
    }
    rows.emplace_back(key, *rid);
    return true;
  }

  bool Read() {
    const auto& [key, rid] = rows[rng.Uniform(rows.size())];
    Result<std::vector<int64_t>> row = NotRun();
    Timed(spans, "table.get", [&] { row = db->GetRow("R", rid); }, 1 + id);
    if (!row.ok()) {
      Wrong("GetRow: " + row.status().ToString());
      return false;
    }
    if (*row != Row(key)) Wrong("GetRow of key " + std::to_string(key) + " returned another row");
    return true;
  }
};

/// p99 of all updater ops minus p99 of those that overlapped no statement:
/// the tail the statements' exclusive windows add.
double LockWaitP99(const std::vector<Updater>& updaters,
                   const std::vector<std::pair<int64_t, int64_t>>& statements) {
  Samples all, between;
  for (const Updater& u : updaters) {
    for (const auto& [due, end] : u.ops) {
      const double us = static_cast<double>(end - due) / 1000.0;
      all.Add(us);
      auto it = std::lower_bound(statements.begin(), statements.end(),
                                 std::pair<int64_t, int64_t>{end, end});
      // Statements run one after another, so the last one to begin before
      // the op ended is the only one that can still overlap it.
      const bool overlaps = it != statements.begin() && std::prev(it)->second > due;
      if (!overlaps) between.Add(us);
    }
  }
  return all.Quantile(0.99) - between.Quantile(0.99);
}

}  // namespace

RunResult RunOnlineBulk(const Args& args, BenchSpans* spans) {
  RunResult out;
  Samples setup_s;
  KeyModel model;
  Result<std::unique_ptr<Database>> built =
      SetUpPaperR(args, OnlineOptions(args.trace), kSetups, spans, &setup_s, &model);
  out.Op(built.ok());
  if (!built.ok()) {
    out.Wrong("set-up failed: " + built.status().ToString());
    return out;
  }
  std::unique_ptr<Database> db = std::move(*built);
  PinToOneCpu();  // the purger and both updaters
  Purger purger(db.get(), std::move(model), args.seed, spans, &out, args.trace);
  DeleteClasses& cls = purger.classes();
  auto cycle = [&] {
    purger.DeleteKeys(kBigKeys, &cls.big);
    purger.Refill();
    purger.DeleteKeys(kMidKeys, &cls.mid);
    purger.Refill();
    purger.DeleteLowest(kRangeRows, &cls.range);
    purger.Refill();
  };
  cycle();  // warm-up, without updaters
  purger.SetMeasuring(true);

  std::vector<Updater> updaters(kUpdaters);
  for (int u = 0; u < kUpdaters; ++u) {
    Updater& up = updaters[static_cast<size_t>(u)];
    up.id = u;
    up.db = db.get();
    up.spans = spans;
    up.next_key = (int64_t{1} << 40) * (u + 1);
    up.rng = bulkdel::Random(args.seed * 104729 + static_cast<uint64_t>(u));
  }
  std::atomic<bool> stop{false};
  StartTraceWindow(args.trace);
  const bulkdel::obs::MetricsSnapshot before = db->metrics().Snapshot();
  const int64_t begin = bulkdel::MonotonicNanos();
  const int64_t deadline = begin + static_cast<int64_t>(args.seconds) * 1000000000;
  std::vector<std::thread> threads;
  for (Updater& up : updaters) {
    threads.emplace_back([&up, &stop, begin] { up.Run(begin, &stop); });
  }
  while (bulkdel::MonotonicNanos() < deadline && out.correct) cycle();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  EndToEnd& e2e = purger.e2e();
  PerLayer& layer = purger.layer();
  e2e.measured_s = static_cast<double>(bulkdel::MonotonicNanos() - begin) / 1e9;
  layer.delta = db->metrics().Snapshot() - before;
  purger.SetMeasuring(false);
  e2e.setup_s = setup_s;
  e2e.delete_s = e2e.measured_s;  // rows deleted per second of the run
  e2e.peak_rss_mb = PeakRssMb();
  e2e.store_mb = FileMb(args.dir + "/setup" + std::to_string(kSetups - 1) + "/pages.db");
  Samples lag;
  std::vector<int64_t> expected = purger.model().live();
  for (Updater& up : updaters) {
    out.attempted += up.attempted;
    out.failed += up.failed;
    for (const std::string& e : up.errors) out.Wrong(e);
    e2e.ops += up.attempted;
    e2e.insert_us.Append(up.insert_us);
    e2e.read_us.Append(up.read_us);
    e2e.updater_us.Append(up.all_us);
    lag.Append(up.lag_us);
    for (const auto& row : up.rows) expected.push_back(row.first);
  }
  layer.ops = e2e.ops;
  layer.gen_lag_p99_us = lag.Quantile(0.99);
  layer.lock_wait_p99_us = LockWaitP99(updaters, purger.statement_windows());
  std::printf("online_bulk: %zu statements, %zu updater ops in %.2f s\n",
              purger.statement_windows().size(), e2e.updater_us.count(), e2e.measured_s);

  // Final contents: R.A holds the purger's window plus every updater row.
  std::sort(expected.begin(), expected.end());
  std::vector<int64_t> keys;
  Status scan = db->GetIndex("R", "A")->tree->ScanAll(
      [&](int64_t key, const bulkdel::Rid&, uint16_t) {
        keys.push_back(key);
        return Status::OK();
      });
  out.Op(scan.ok() && keys == expected);
  if (!scan.ok() || keys != expected) {
    out.Wrong("final contents differ from the model (" + std::to_string(keys.size()) +
              " keys in R.A, model " + std::to_string(expected.size()) + ")");
  }
  Status integrity = db->VerifyIntegrity();
  out.Op(integrity.ok());
  if (!integrity.ok()) out.Wrong("VerifyIntegrity: " + integrity.ToString());

  if (!args.trace) {
    EmitEndToEnd(e2e, &cls, &out);
    return out;
  }
  bulkdel::obs::TraceRecorder::Global().SetEnabled(false);
  Status ref = RunReference(
      [&](DatabaseOptions o) { return BuildPaperR(o, args.seed, nullptr); },
      OnlineOptions(false), args.dir, purger.reference());
  if (!ref.ok()) std::fprintf(stderr, "reference runs: %s\n", ref.ToString().c_str());
  layer.layers.tuple_size = kPaperTupleSize;
  layer.baseline_delete_ms = args.baseline_delete_ms;
  EmitPerLayer(layer, &cls, &out);
  return out;
}

}  // namespace perfbench

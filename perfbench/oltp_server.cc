// oltp_server: small statements through the SQL server. One process runs an
// in-process net::Server on loopback; two closed-loop client connections
// each own a key range and repeat the same cycle of INSERTs, point
// SELECT COUNT(*) ... BETWEEN k AND k reads, and three deletes: an IN-list
// of 32 live keys, an IN-list of 8, and a BETWEEN over the 32 lowest live
// keys of the range. R(A,B,C) is preloaded to fit well inside the pool, so
// the net, SQL-parse, planner and horizontal executor sit on the critical
// path while the pool always hits.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sql.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace_recorder.h"

namespace perfbench {
namespace {

using bulkdel::BulkDeleteSpec;
using bulkdel::Database;
using bulkdel::DatabaseOptions;
using bulkdel::Result;
using bulkdel::Status;
using bulkdel::Strategy;
using bulkdel::net::Client;
using bulkdel::net::Server;
using bulkdel::net::ServerOptions;

constexpr int kClients = 2;
constexpr uint64_t kRowsPerClient = 250000;
constexpr int64_t kRangeSpan = int64_t{1} << 40;  ///< key range per client
constexpr size_t kPoolBytes = 128u << 20;         ///< the whole R fits
constexpr size_t kBigKeys = 32;
constexpr size_t kMidKeys = 8;
constexpr size_t kRangeRows = 32;
/// Each third of a cycle: this many INSERTs with a point read after every
/// kInsertsPerRead-th, then a delete. A cycle inserts as many rows as it
/// deletes, so R keeps its size. About 2-3% of the reads then wait for the
/// other client's delete, so read_p99_us lies inside that wait rather than
/// on the edge between it and the reads that do not wait (with a read per
/// insert, ~1% waited and the p99 moved by up to 3x between runs).
constexpr size_t kInsertsPerPart = (kBigKeys + kMidKeys + kRangeRows) / 3;
constexpr size_t kInsertsPerRead = 9;
constexpr int kSetups = 3;

DatabaseOptions BaseOptions(bool trace) {
  DatabaseOptions options;
  options.memory_budget_bytes = kPoolBytes;
  options.enable_recovery_log = true;
  options.trace_spans = trace;
  return options;
}

int64_t ClientBase(int client) { return (client + 1) * kRangeSpan; }

/// Creates R(A,B,C) with A unique and B, C indexed, and preloads each
/// client's range with ascending keys (gaps drawn from the seed), B and C
/// random. Fills `models` with the live keys per client when non-null.
Result<std::unique_ptr<Database>> Build(DatabaseOptions options, uint64_t seed,
                                        std::vector<KeyModel>* models,
                                        Samples* insert_us) {
  BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Create(options));
  for (const char* ddl : {"CREATE TABLE R (A INT, B INT, C INT)",
                          "CREATE UNIQUE INDEX ON R (A)", "CREATE INDEX ON R (B)",
                          "CREATE INDEX ON R (C)"}) {
    BULKDEL_RETURN_IF_ERROR(bulkdel::ExecuteStatement(db.get(), ddl).status());
  }
  bulkdel::Random rng(seed);
  for (int c = 0; c < kClients; ++c) {
    int64_t key = ClientBase(c);
    for (uint64_t i = 0; i < kRowsPerClient; ++i) {
      key += 1 + static_cast<int64_t>(rng.Uniform(2));
      std::vector<int64_t> row = {key, static_cast<int64_t>(rng.Uniform(1000003)),
                                  static_cast<int64_t>(rng.Uniform(1009))};
      int64_t begin = bulkdel::MonotonicNanos();
      BULKDEL_RETURN_IF_ERROR(db->InsertRow("R", row).status());
      if (insert_us != nullptr) {
        insert_us->Add(static_cast<double>(bulkdel::MonotonicNanos() - begin) / 1000.0);
      }
      if (models != nullptr) (*models)[static_cast<size_t>(c)].Append(key);
    }
  }
  BULKDEL_RETURN_IF_ERROR(db->Checkpoint());
  return db;
}

/// One closed-loop client connection with its own key range and model.
struct ClientLoop {
  int id = 0;
  Client conn;
  KeyModel model;
  std::vector<int64_t> deleted;
  int64_t next_key = 0;
  bulkdel::Random rng{0};
  BenchSpans* spans = nullptr;
  Database* db = nullptr;  ///< traced runs: parse/explain timing only
  bool traced = false;
  bool measured = false;  ///< false during the warm-up cycle

  DeleteClasses cls;
  Samples insert_us, read_us, updater_us, ping_us, parse_us, explain_us;
  uint64_t ops = 0, attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void Wrong(const std::string& what) {
    if (errors.size() < 4) errors.push_back("client " + std::to_string(id) + ": " + what);
  }

  int Lane() const { return 1 + id; }

  /// Sends one statement; false on an error reply. `*us` is the round trip.
  bool Send(const std::string& sql, const char* span, std::string* reply, double* us) {
    Result<std::string> r = NotRun();
    int64_t ns = Timed(spans, span, [&] { r = conn.Execute(sql); }, Lane());
    *us = static_cast<double>(ns) / 1000.0;
    ++attempted;
    if (measured) ++ops;
    if (!r.ok()) {
      ++failed;
      Wrong(sql.substr(0, 40) + ": " + r.status().ToString());
      return false;
    }
    *reply = *r;
    return true;
  }

  void Insert() {
    int64_t key = next_key++;
    std::string sql = "INSERT INTO R VALUES (" + std::to_string(key) + ", " +
                      std::to_string(rng.Uniform(1000003)) + ", " +
                      std::to_string(rng.Uniform(1009)) + ")";
    std::string reply;
    double us = 0;
    if (!Send(sql, "net.insert", &reply, &us)) return;
    if (reply.rfind("inserted 1 row", 0) != 0) Wrong("INSERT replied '" + reply + "'");
    model.Append(key);
    if (!measured) return;
    insert_us.Add(us);
    updater_us.Add(us);
  }

  /// Point read of a live key or of one the last range delete removed.
  void Read(bool live_key) {
    const std::vector<int64_t>& live = model.live();
    int64_t key = live_key || deleted.empty()
                      ? live[rng.Uniform(live.size())]
                      : deleted[deleted.size() - 1 - rng.Uniform(kRangeRows)];
    std::string sql = "SELECT COUNT(*) FROM R WHERE A BETWEEN " + std::to_string(key) +
                      " AND " + std::to_string(key);
    std::string reply;
    double us = 0;
    if (!Send(sql, "net.select", &reply, &us)) return;
    std::string expect = std::string("count = ") + (model.Contains(key) ? "1" : "0") + " ";
    if (reply.compare(0, expect.size(), expect) != 0) {
      Wrong("read of " + std::to_string(key) + " replied '" + reply + "'");
    }
    if (!measured) return;
    read_us.Add(us);
    updater_us.Add(us);
  }

  /// Checks "deleted N row(s) [strategy, S simulated s]" against the model
  /// and accounts the class latency, the planner's pick and simulated I/O.
  void Delete(const std::string& sql, size_t expected, DeleteClass* c) {
    if (traced && measured) {
      // The layers below the wire, timed from this thread on the same
      // statement text: parse, plan, and a bare round trip.
      Result<BulkDeleteSpec> spec = NotRun();
      parse_us.Add(static_cast<double>(Timed(spans, "sql.parse", [&] {
                     spec = bulkdel::ParseBulkDelete(db, sql);
                   }, Lane())) / 1000.0);
      if (spec.ok()) {
        explain_us.Add(static_cast<double>(Timed(spans, "plan.explain", [&] {
                         (void)db->ExplainBulkDelete(*spec, Strategy::kOptimizer);
                       }, Lane())) / 1000.0);
      }
      ping_us.Add(static_cast<double>(Timed(spans, "net.ping", [&] {
                    if (!conn.Ping().ok()) Wrong("ping failed");
                  }, Lane())) / 1000.0);
    }
    std::string reply;
    double us = 0;
    if (!Send(sql, "net.delete", &reply, &us)) return;
    unsigned long long rows = 0;
    char strategy[64] = {0};
    double sim_s = 0;
    if (std::sscanf(reply.c_str(), "deleted %llu row(s) [%63[^,], %lf simulated s]", &rows,
                    strategy, &sim_s) != 3) {
      Wrong("DELETE replied '" + reply + "'");
      return;
    }
    if (rows != expected) {
      Wrong(c->name + " deleted " + std::to_string(rows) + " rows, model says " +
            std::to_string(expected));
    }
    Strategy used = Strategy::kOptimizer;
    if (!bulkdel::StrategyFromName(strategy, &used)) Wrong("unknown strategy " + reply);
    if (measured) {
      c->Account(us / 1000.0, rows, static_cast<int64_t>(sim_s * 1e6 + 0.5), used);
    }
  }

  void DeleteKeys(size_t n, DeleteClass* c) {
    std::vector<int64_t> keys = model.Sample(n, &rng);
    Delete(InListSql(keys), keys.size(), c);
    model.Remove(keys);
    deleted.insert(deleted.end(), keys.begin(), keys.end());
  }

  void DeleteLowest() {
    const std::vector<int64_t>& live = model.live();
    int64_t lo = live.front(), hi = live[kRangeRows - 1];
    size_t expected = model.CountRange(lo, hi);
    deleted.insert(deleted.end(), live.begin(), live.begin() + kRangeRows);
    Delete(BetweenSql(lo, hi), expected, &cls.range);
    model.RemoveRange(lo, hi);
  }

  void Part() {
    for (size_t i = 0; i < kInsertsPerPart; ++i) {
      Insert();
      if (i % kInsertsPerRead == kInsertsPerRead - 1) Read(i % 2 == 0);
    }
  }

  /// One whole cycle; a run stops only between cycles.
  void Cycle() {
    Part();
    DeleteKeys(kBigKeys, &cls.big);
    Part();
    DeleteKeys(kMidKeys, &cls.mid);
    Part();
    DeleteLowest();
  }
};

/// The reference statements behind plan.regret_sim: a few of each class,
/// drawn from client 0's preloaded keys.
std::vector<ReferenceStatement> ReferenceStatements(KeyModel model, uint64_t seed,
                                                    DeleteClasses* cls) {
  std::vector<ReferenceStatement> out;
  bulkdel::Random rng(seed * 31 + 7);
  for (int i = 0; i < 4; ++i) {
    for (auto [n, c] : {std::pair{kBigKeys, &cls->big}, std::pair{kMidKeys, &cls->mid}}) {
      BulkDeleteSpec spec;
      spec.table = "R";
      spec.key_column = "A";
      spec.keys = model.Sample(n, &rng);
      model.Remove(spec.keys);
      out.push_back(ReferenceStatement{spec, c});
    }
    BulkDeleteSpec range;
    range.table = "R";
    range.key_column = "A";
    range.predicate = bulkdel::DeletePredicate::kRange;
    range.range_lo = model.live().front();
    range.range_hi = model.live()[kRangeRows - 1];
    model.RemoveRange(range.range_lo, range.range_hi);
    out.push_back(ReferenceStatement{range, &cls->range});
  }
  return out;
}

/// Folds the slow-query log's DELETE records (every statement of a traced
/// run) into the per-layer figures and the classes' plan estimates.
void ReadSlowLog(const std::string& path, DeleteClasses* cls, LayerStats* layers) {
  std::ifstream in(path);
  std::string line;
  static const std::string kReport = ",\"report\":";
  while (std::getline(in, line)) {
    size_t pos = line.find(kReport);
    if (pos == std::string::npos || line.empty() || line.back() != '}') continue;
    std::string json = line.substr(pos + kReport.size());
    json.pop_back();  // the record's closing brace
    Result<bulkdel::BulkDeleteReport> report = bulkdel::BulkDeleteReport::FromJson(json);
    if (!report.ok()) continue;
    // The class follows from the statement text (JSON-escaped, no quotes).
    static const std::string kStatement = "\"statement\":\"";
    size_t begin = line.find(kStatement);
    if (begin == std::string::npos) continue;
    begin += kStatement.size();
    const std::string sql = line.substr(begin, line.find('"', begin) - begin);
    const size_t keys = static_cast<size_t>(std::count(sql.begin(), sql.end(), ',')) + 1;
    DeleteClass* c = sql.find("BETWEEN") != std::string::npos ? &cls->range
                     : keys >= kBigKeys                        ? &cls->big
                                                               : &cls->mid;
    c->AddEstimate(*report);
    layers->Add(*report);
  }
}

}  // namespace

RunResult RunOltpServer(const Args& args, BenchSpans* spans) {
  RunResult out;
  PinToOneCpu();  // the server, its sessions and both clients
  EndToEnd e2e;
  PerLayer layer;
  DeleteClasses cls;
  std::vector<KeyModel> models;
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
  std::vector<ClientLoop> clients(kClients);
  const std::string slow_log = args.dir + "/slow.jsonl";

  // Set up several times (create, preload, checkpoint, start the server,
  // connect); setup_s is the median. The last one is measured.
  for (int i = 0; i < kSetups; ++i) {
    for (ClientLoop& c : clients) c.conn.Close();
    if (server != nullptr) (void)server->Stop();
    server.reset();
    db.reset();
    RemoveTree(args.dir + "/setup" + std::to_string(i - 1));
    RemoveTree(slow_log);
    models.assign(kClients, KeyModel());
    layer.insert_us = Samples();
    Status status = NotRun();
    int64_t ns = Timed(spans, "workload.setup", [&] {
      DatabaseOptions options = BaseOptions(args.trace);
      options.path = args.dir + "/setup" + std::to_string(i);
      Result<std::unique_ptr<Database>> built =
          Build(options, args.seed, &models, args.trace ? &layer.insert_us : nullptr);
      if (!built.ok()) {
        status = built.status();
        return;
      }
      db = std::move(*built);
      ServerOptions sopts;
      if (args.trace) {
        // Every statement's report goes to the slow-query log: the per-layer
        // figures of the server's statements come from there.
        sopts.slow_query_ns = 1;
        sopts.slow_query_log = slow_log;
      }
      Result<std::unique_ptr<Server>> started = Server::Start(db.get(), sopts);
      if (!started.ok()) {
        status = started.status();
        return;
      }
      server = std::move(*started);
      for (ClientLoop& c : clients) {
        Result<Client> conn = Client::Connect("127.0.0.1", server->port());
        if (!conn.ok()) {
          status = conn.status();
          return;
        }
        c.conn = std::move(*conn);
      }
      status = Status::OK();
    });
    out.Op(status.ok());
    if (!status.ok()) {
      out.Wrong("set-up failed: " + status.ToString());
      return out;
    }
    e2e.setup_s.Add(static_cast<double>(ns) / 1e9);
  }
  const KeyModel preload0 = models[0];

  for (int c = 0; c < kClients; ++c) {
    ClientLoop& loop = clients[static_cast<size_t>(c)];
    loop.id = c;
    loop.model = std::move(models[static_cast<size_t>(c)]);
    loop.next_key = loop.model.live().back() + 1;
    loop.rng = bulkdel::Random(args.seed * 1000003 + static_cast<uint64_t>(c));
    loop.spans = spans;
    loop.db = db.get();
    loop.traced = args.trace;
    loop.Cycle();  // warm-up, one client after the other
    loop.measured = true;
  }
  if (args.trace) {
    // Keep only the measured statements' records.
    std::ofstream truncate(slow_log, std::ios::trunc);
  }

  StartTraceWindow(args.trace);
  const bulkdel::obs::MetricsSnapshot before = db->metrics().Snapshot();
  const int64_t begin = bulkdel::MonotonicNanos();
  const int64_t deadline = begin + static_cast<int64_t>(args.seconds) * 1000000000;
  std::vector<std::thread> threads;
  for (ClientLoop& loop : clients) {
    threads.emplace_back([&loop, deadline] {
      while (bulkdel::MonotonicNanos() < deadline && loop.errors.empty()) loop.Cycle();
    });
  }
  for (std::thread& t : threads) t.join();
  e2e.measured_s = static_cast<double>(bulkdel::MonotonicNanos() - begin) / 1e9;
  layer.delta = db->metrics().Snapshot() - before;
  e2e.peak_rss_mb = PeakRssMb();

  for (ClientLoop& loop : clients) {
    out.attempted += loop.attempted;
    out.failed += loop.failed;
    for (const std::string& e : loop.errors) out.Wrong(e);
    e2e.ops += loop.ops;
    e2e.insert_us.Append(loop.insert_us);
    e2e.read_us.Append(loop.read_us);
    e2e.updater_us.Append(loop.updater_us);
    layer.ping_us.Append(loop.ping_us);
    layer.parse_us.Append(loop.parse_us);
    layer.explain_us.Append(loop.explain_us);
    cls.big.Merge(loop.cls.big);
    cls.mid.Merge(loop.cls.mid);
    cls.range.Merge(loop.cls.range);
    loop.conn.Close();
  }
  e2e.delete_s = e2e.measured_s;  // rows deleted per second of the run
  layer.ops = e2e.ops;
  Status stopped = server->Stop();
  if (!stopped.ok()) out.Wrong("server stop: " + stopped.ToString());
  server.reset();
  const std::string dir = args.dir + "/setup" + std::to_string(kSetups - 1);
  e2e.store_mb = FileMb(dir + "/pages.db");
  std::printf("oltp_server: %llu ops in %.2f s\n", static_cast<unsigned long long>(e2e.ops),
              e2e.measured_s);

  // Final contents: R.A holds exactly the clients' live keys.
  std::vector<int64_t> expected;
  for (const ClientLoop& loop : clients) {
    expected.insert(expected.end(), loop.model.live().begin(), loop.model.live().end());
  }
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
  ReadSlowLog(slow_log, &cls, &layer.layers);
  layer.layers.tuple_size = 24;
  std::vector<ReferenceStatement> reference = ReferenceStatements(preload0, args.seed, &cls);
  Status ref = RunReference(
      [&](DatabaseOptions o) { return Build(o, args.seed, nullptr, nullptr); },
      BaseOptions(false), args.dir, reference);
  if (!ref.ok()) std::fprintf(stderr, "reference runs: %s\n", ref.ToString().c_str());
  layer.baseline_delete_ms = args.baseline_delete_ms;
  EmitPerLayer(layer, &cls, &out);
  return out;
}

}  // namespace perfbench

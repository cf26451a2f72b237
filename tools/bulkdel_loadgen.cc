// Sustained mixed-workload load generator for the src/net SQL server
// (docs/SERVER.md).
//
// Spawns an in-process Database + net::Server on an ephemeral loopback port
// (or connects to an already-running server with --connect=HOST:PORT), then
// drives it from N client threads over real sockets. Each client owns a
// disjoint key range and replays a seeded mix of
//   INSERT INTO R VALUES (k, k%997, k%101)        -- "insert"
//   SELECT COUNT(*) FROM R WHERE A BETWEEN k AND k -- "point_read"
//   DELETE FROM R WHERE A IN (k1, ..., kB)         -- "bulk_delete"
//   DELETE FROM R WHERE A BETWEEN k1 AND kB        -- "range_delete"
// recording per-class latency histograms (p50/p99/p999 at log2-bucket
// granularity) and sustained throughput. Bulk deletes ride the §3.1
// concurrent-DML machinery: with --protocol=sidefile the other clients'
// inserts land in side-files while the delete holds indices off-line.
//
//   bulkdel_loadgen --clients=4 --seconds=10 --json-out=load.json
//   bulkdel_loadgen --backend=file --db-dir=/dev/shm/loadgen --seconds=60
//
// Exit status: 0 iff every acknowledged statement succeeded, the final row
// count equals preload + inserts - deletes, and (spawn mode) the database
// passes VerifyIntegrity().

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/sql.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/json.h"

namespace {

using bulkdel::ConcurrencyProtocol;
using bulkdel::Database;
using bulkdel::DatabaseOptions;
using bulkdel::MonotonicNanos;
using bulkdel::Result;
using bulkdel::Status;
using bulkdel::StorageBackend;
using bulkdel::net::Client;
using bulkdel::net::Server;
using bulkdel::net::ServerOptions;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --clients=N          client threads (default 4)\n"
      "  --seconds=S          run duration (default 10; 0 = use --ops)\n"
      "  --ops=N              per-client op cap (0 = time-bounded)\n"
      "  --mix=I:R:D[:G]      insert:point_read:bulk_delete:range_delete\n"
      "                       weights (default 8:8:1:1)\n"
      "  --bulk-batch=N       keys per bulk/range delete (default 64)\n"
      "  --preload=N          rows loaded before the clock starts (20000)\n"
      "  --seed=N             workload seed (default 1)\n"
      "  --backend=sim|file   durability backend (default sim)\n"
      "  --db-dir=PATH        file backend directory\n"
      "  --protocol=none|sidefile|direct   §3.1 updater protocol (sidefile)\n"
      "  --wal-group-commit=on|off         (default on)\n"
      "  --memory=BYTES       buffer-pool budget (default 8 MiB)\n"
      "  --max-sessions=N     server admission bound (default clients+4)\n"
      "  --json-out=PATH      write the machine-readable summary here\n"
      "  --server-log=PATH    append the server's session log here\n"
      "  --connect=HOST:PORT  drive an external server instead of spawning\n"
      "  --metrics-port=P     expose GET /metrics on 127.0.0.1:P during the\n"
      "                       run (0 = ephemeral; default off; spawn only)\n"
      "  --trace-spans=on|off enable the span recorder so *_ns phase\n"
      "                       histograms (bp.fetch_ns, ...) populate (off)\n"
      "  --slow-query-ns=N    statements slower than N ns land in the\n"
      "                       slow-query JSONL (0 = off; spawn only)\n"
      "  --slow-query-log=P   slow-query JSONL path (with --slow-query-ns)\n"
      "  --probe-ms=N         every N ms an extra session SELECTs\n"
      "                       sys.statements and records what it saw (off)\n",
      argv0);
  return 2;
}

/// One op class's merged latency distribution. Latencies are client-observed
/// round-trip times; quantiles are log2-bucket upper bounds (see
/// obs::Histogram), so p999=4095us means "in (2047, 4095]".
struct OpStats {
  bulkdel::obs::HistogramSnapshot latency_ns;
  int64_t max_ns = 0;
  int64_t errors = 0;

  void Merge(const bulkdel::obs::Histogram& h, int64_t max, int64_t errs) {
    latency_ns.count += h.count();
    latency_ns.sum += h.sum();
    if (latency_ns.buckets.size() <
        static_cast<size_t>(bulkdel::obs::Histogram::kBuckets)) {
      latency_ns.buckets.resize(bulkdel::obs::Histogram::kBuckets, 0);
    }
    for (int b = 0; b < bulkdel::obs::Histogram::kBuckets; ++b) {
      latency_ns.buckets[static_cast<size_t>(b)] += h.bucket(b);
    }
    max_ns = std::max(max_ns, max);
    errors += errs;
  }
};

struct ClientState {
  std::thread thread;
  bulkdel::obs::Histogram insert_ns, read_ns, delete_ns, range_ns;
  int64_t insert_max = 0, read_max = 0, delete_max = 0, range_max = 0;
  int64_t inserts = 0, reads = 0, deletes = 0;  ///< acknowledged ops
  int64_t range_deletes = 0;
  int64_t rows_deleted = 0;
  int64_t errors = 0;
  std::string first_error;
};

struct Config {
  int clients = 4;
  double seconds = 10.0;
  int64_t ops = 0;
  int64_t mix_insert = 8, mix_read = 8, mix_delete = 1, mix_range = 1;
  int bulk_batch = 64;
  int64_t preload = 20000;
  uint64_t seed = 1;
  std::string backend = "sim";
  std::string db_dir;
  std::string protocol = "sidefile";
  bool wal_group_commit = true;
  size_t memory = 8u << 20;
  int max_sessions = 0;  // 0 = clients + 4
  std::string json_out;
  std::string server_log;
  std::string connect_host;
  uint16_t connect_port = 0;
  int metrics_port = -1;  // -1 = no /metrics endpoint, 0 = ephemeral
  bool trace_spans = false;
  int64_t slow_query_ns = 0;
  std::string slow_query_log;
  int probe_ms = 0;  // 0 = no sys.statements probe session
};

std::string InsertStatement(int64_t key) {
  return "INSERT INTO R VALUES (" + std::to_string(key) + ", " +
         std::to_string(key % 997) + ", " + std::to_string(key % 101) + ")";
}

void RunClient(const Config& cfg, const std::string& host, uint16_t port,
               int tid, int64_t deadline_ns, std::deque<int64_t> live,
               ClientState* state) {
  Result<Client> conn = Client::Connect(host, port);
  if (!conn.ok()) {
    state->errors = 1;
    state->first_error = "connect: " + conn.status().ToString();
    return;
  }
  Client client = std::move(*conn);
  std::mt19937_64 rng(cfg.seed * 1000003u + static_cast<uint64_t>(tid));
  // Client tid owns keys [base, base + 2^40): disjoint from the preload
  // range and every other client, so a delete always hits its own rows.
  int64_t next_key = (static_cast<int64_t>(tid) + 1) << 40;
  const int64_t mix_total =
      cfg.mix_insert + cfg.mix_read + cfg.mix_delete + cfg.mix_range;
  int64_t ops_done = 0;
  while ((cfg.ops == 0 || ops_done < cfg.ops) &&
         (deadline_ns == 0 || MonotonicNanos() < deadline_ns)) {
    int64_t draw = static_cast<int64_t>(rng() % mix_total);
    // Any delete needs a backlog of this client's own rows; fall back to
    // an insert until the backlog exists (self-balancing steady state).
    bool backlog = live.size() >= static_cast<size_t>(2 * cfg.bulk_batch);
    bool want_range =
        backlog && draw >= cfg.mix_insert + cfg.mix_read + cfg.mix_delete;
    bool want_delete = !want_range && backlog &&
                       draw >= cfg.mix_insert + cfg.mix_read;
    bool want_read = !want_range && !want_delete && draw >= cfg.mix_insert &&
                     !live.empty();
    size_t batch = static_cast<size_t>(cfg.bulk_batch);
    // The oldest `batch` keys form one contiguous block exactly when the
    // window does not straddle the preload-block/own-space gap; a BETWEEN
    // over a non-contiguous window would doom rows this client still counts
    // as live, so fall back to the IN-list shape for that window.
    if (want_range && live[batch - 1] - live[0] !=
                          static_cast<int64_t>(batch) - 1) {
      want_range = false;
      want_delete = true;
    }
    std::string statement;
    if (want_range) {
      statement = "DELETE FROM R WHERE A BETWEEN " +
                  std::to_string(live[0]) + " AND " +
                  std::to_string(live[batch - 1]);
    } else if (want_delete) {
      statement = "DELETE FROM R WHERE A IN (";
      for (int i = 0; i < cfg.bulk_batch; ++i) {
        if (i > 0) statement += ", ";
        statement += std::to_string(live[static_cast<size_t>(i)]);
      }
      statement += ")";
    } else if (want_read) {
      int64_t key = live[rng() % live.size()];
      statement = "SELECT COUNT(*) FROM R WHERE A BETWEEN " +
                  std::to_string(key) + " AND " + std::to_string(key);
    } else {
      statement = InsertStatement(next_key);
    }
    int64_t begin = MonotonicNanos();
    Result<std::string> reply = client.Execute(statement);
    int64_t ns = MonotonicNanos() - begin;
    ++ops_done;
    if (!reply.ok()) {
      ++state->errors;
      if (state->first_error.empty()) {
        state->first_error = reply.status().ToString() + " [" +
                             statement.substr(0, 80) + "]";
      }
      if (!client.connected()) break;  // socket-level failure: stop
      continue;
    }
    if (want_range) {
      state->range_ns.Observe(ns);
      state->range_max = std::max(state->range_max, ns);
      ++state->range_deletes;
      state->rows_deleted += cfg.bulk_batch;
      live.erase(live.begin(), live.begin() + cfg.bulk_batch);
    } else if (want_delete) {
      state->delete_ns.Observe(ns);
      state->delete_max = std::max(state->delete_max, ns);
      ++state->deletes;
      state->rows_deleted += cfg.bulk_batch;
      live.erase(live.begin(), live.begin() + cfg.bulk_batch);
    } else if (want_read) {
      state->read_ns.Observe(ns);
      state->read_max = std::max(state->read_max, ns);
      ++state->reads;
    } else {
      state->insert_ns.Observe(ns);
      state->insert_max = std::max(state->insert_max, ns);
      ++state->inserts;
      live.push_back(next_key++);
    }
  }
}

/// What the sys.statements probe session observed during the run. The probe
/// is an ordinary client: it proves the observability plane answers over the
/// wire while the workload races, not just in-process.
struct ProbeStats {
  int64_t scrapes = 0;   ///< successful SELECT * FROM sys.statements replies
  int64_t errors = 0;
  bool saw_inflight_delete = false;  ///< a DELETE row with state "run"
  std::string phase_seen;            ///< its phase column, e.g. "delete_index"
};

void RunProbe(const std::string& host, uint16_t port, int interval_ms,
              const std::atomic<bool>* stop, ProbeStats* stats) {
  Result<Client> conn = Client::Connect(host, port);
  if (!conn.ok()) {
    stats->errors = 1;
    return;
  }
  Client client = std::move(*conn);
  while (!stop->load(std::memory_order_acquire)) {
    Result<std::string> reply = client.Execute("SELECT * FROM sys.statements");
    if (!reply.ok()) {
      ++stats->errors;
      if (!client.connected()) break;
    } else {
      ++stats->scrapes;
      // Rows: id session state phase elapsed_us rows d_wal d_phases stmt...
      std::istringstream lines(*reply);
      std::string line;
      std::getline(lines, line);  // header
      while (std::getline(lines, line)) {
        std::istringstream cols(line);
        std::string id, session, state, phase;
        cols >> id >> session >> state >> phase;
        if (state == "run" && line.find("DELETE") != std::string::npos) {
          stats->saw_inflight_delete = true;
          if (phase != "-") stats->phase_seen = phase;
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  client.Close();
}

void AppendOpJson(std::string* out, const char* name, const OpStats& s,
                  double elapsed_s) {
  *out += "\"";
  *out += name;
  *out += "\": {\"ops\": " + std::to_string(s.latency_ns.count);
  double rate = elapsed_s > 0
                    ? static_cast<double>(s.latency_ns.count) / elapsed_s
                    : 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", rate);
  *out += std::string(", \"ops_per_sec\": ") + buf;
  // Each quantile is a log2-bucket: *_us is the bucket's inclusive upper
  // bound, *_us_lo its exclusive lower bound, so the true quantile lies in
  // (*_us_lo, *_us]. Reporting only the upper bound overstates latency by up
  // to 2x at the tail — consumers that care about quantization keep both.
  *out += ", \"p50_us\": " +
          std::to_string(s.latency_ns.ApproxQuantile(0.5) / 1000);
  *out += ", \"p50_us_lo\": " +
          std::to_string(s.latency_ns.ApproxQuantileLo(0.5) / 1000);
  *out += ", \"p99_us\": " +
          std::to_string(s.latency_ns.ApproxQuantile(0.99) / 1000);
  *out += ", \"p99_us_lo\": " +
          std::to_string(s.latency_ns.ApproxQuantileLo(0.99) / 1000);
  *out += ", \"p999_us\": " +
          std::to_string(s.latency_ns.ApproxQuantile(0.999) / 1000);
  *out += ", \"p999_us_lo\": " +
          std::to_string(s.latency_ns.ApproxQuantileLo(0.999) / 1000);
  *out += ", \"max_us\": " + std::to_string(s.max_ns / 1000);
  *out += ", \"errors\": " + std::to_string(s.errors) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "clients", &v)) {
      cfg.clients = std::stoi(v);
    } else if (ParseFlag(argv[i], "seconds", &v)) {
      cfg.seconds = std::stod(v);
    } else if (ParseFlag(argv[i], "ops", &v)) {
      cfg.ops = std::stoll(v);
    } else if (ParseFlag(argv[i], "mix", &v)) {
      std::vector<int64_t> weights;
      size_t pos = 0;
      while (pos <= v.size()) {
        size_t colon = v.find(':', pos);
        if (colon == std::string::npos) colon = v.size();
        weights.push_back(std::stoll(v.substr(pos, colon - pos)));
        pos = colon + 1;
      }
      if (weights.size() < 3 || weights.size() > 4) return Usage(argv[0]);
      cfg.mix_insert = weights[0];
      cfg.mix_read = weights[1];
      cfg.mix_delete = weights[2];
      // Three-part mixes predate the range class; they keep its default
      // weight so the op class still exercises the range-plan path.
      if (weights.size() == 4) cfg.mix_range = weights[3];
    } else if (ParseFlag(argv[i], "bulk-batch", &v)) {
      cfg.bulk_batch = std::stoi(v);
    } else if (ParseFlag(argv[i], "preload", &v)) {
      cfg.preload = std::stoll(v);
    } else if (ParseFlag(argv[i], "seed", &v)) {
      cfg.seed = std::stoull(v);
    } else if (ParseFlag(argv[i], "backend", &v)) {
      cfg.backend = v;
    } else if (ParseFlag(argv[i], "db-dir", &v)) {
      cfg.db_dir = v;
    } else if (ParseFlag(argv[i], "protocol", &v)) {
      cfg.protocol = v;
    } else if (ParseFlag(argv[i], "wal-group-commit", &v)) {
      cfg.wal_group_commit = v != "off";
    } else if (ParseFlag(argv[i], "memory", &v)) {
      cfg.memory = static_cast<size_t>(std::stoull(v));
    } else if (ParseFlag(argv[i], "max-sessions", &v)) {
      cfg.max_sessions = std::stoi(v);
    } else if (ParseFlag(argv[i], "json-out", &v)) {
      cfg.json_out = v;
    } else if (ParseFlag(argv[i], "server-log", &v)) {
      cfg.server_log = v;
    } else if (ParseFlag(argv[i], "connect", &v)) {
      size_t colon = v.rfind(':');
      if (colon == std::string::npos) return Usage(argv[0]);
      cfg.connect_host = v.substr(0, colon);
      cfg.connect_port = static_cast<uint16_t>(std::stoi(v.substr(colon + 1)));
    } else if (ParseFlag(argv[i], "metrics-port", &v)) {
      cfg.metrics_port = std::stoi(v);
    } else if (ParseFlag(argv[i], "trace-spans", &v)) {
      cfg.trace_spans = v != "off";
    } else if (ParseFlag(argv[i], "slow-query-ns", &v)) {
      cfg.slow_query_ns = std::stoll(v);
    } else if (ParseFlag(argv[i], "slow-query-log", &v)) {
      cfg.slow_query_log = v;
    } else if (ParseFlag(argv[i], "probe-ms", &v)) {
      cfg.probe_ms = std::stoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (cfg.clients < 1 || cfg.bulk_batch < 1 || cfg.mix_insert < 0 ||
      cfg.mix_read < 0 || cfg.mix_delete < 0 || cfg.mix_range < 0 ||
      (cfg.mix_insert + cfg.mix_read + cfg.mix_delete + cfg.mix_range) <=
          0) {
    return Usage(argv[0]);
  }
  if (cfg.backend == "file" && cfg.db_dir.empty() &&
      cfg.connect_host.empty()) {
    std::fprintf(stderr, "--backend=file needs --db-dir=PATH\n");
    return 2;
  }

  // -- Spawn (or connect) ----------------------------------------------------
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
  std::ofstream server_log;
  std::mutex log_mu;
  std::string host = cfg.connect_host;
  uint16_t port = cfg.connect_port;
  const bool spawn = cfg.connect_host.empty();
  if (spawn) {
    DatabaseOptions options;
    options.memory_budget_bytes = cfg.memory;
    options.enable_recovery_log = true;
    options.wal_group_commit = cfg.wal_group_commit;
    // The *_ns phase histograms (bp.fetch_ns, ...) only populate while the
    // span recorder runs; CI's /metrics gate needs them live.
    options.trace_spans = cfg.trace_spans;
    if (cfg.protocol == "sidefile") {
      options.concurrency = ConcurrencyProtocol::kSideFile;
    } else if (cfg.protocol == "direct") {
      options.concurrency = ConcurrencyProtocol::kDirectPropagation;
    } else if (cfg.protocol != "none") {
      std::fprintf(stderr, "unknown --protocol=%s\n", cfg.protocol.c_str());
      return 2;
    }
    if (cfg.backend == "file") {
      options.path = cfg.db_dir;
    } else if (cfg.backend != "sim") {
      std::fprintf(stderr, "unknown --backend=%s\n", cfg.backend.c_str());
      return 2;
    }
    Result<std::unique_ptr<Database>> opened = Database::Create(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "Database::Create: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(*opened);
    ServerOptions sopts;
    sopts.max_sessions =
        cfg.max_sessions > 0 ? cfg.max_sessions : cfg.clients + 4;
    sopts.metrics_port = cfg.metrics_port;
    sopts.slow_query_ns = cfg.slow_query_ns;
    sopts.slow_query_log = cfg.slow_query_log;
    if (!cfg.server_log.empty()) {
      server_log.open(cfg.server_log, std::ios::app);
      sopts.logger = [&server_log, &log_mu](const std::string& line) {
        std::lock_guard<std::mutex> lock(log_mu);
        server_log << line << "\n";
        server_log.flush();
      };
    }
    Result<std::unique_ptr<Server>> started =
        Server::Start(db.get(), std::move(sopts));
    if (!started.ok()) {
      std::fprintf(stderr, "Server::Start: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    server = std::move(*started);
    host = "127.0.0.1";
    port = server->port();
    if (server->metrics_port() != 0) {
      // Announce early (and on stderr, away from the JSON summary) so a
      // scraper started alongside the run can find the endpoint.
      std::fprintf(stderr, "metrics endpoint: http://%s:%u/metrics\n",
                   host.c_str(), server->metrics_port());
    }
  }

  // -- Schema + preload (through the socket, like any client) ----------------
  Result<Client> boot = Client::Connect(host, port);
  if (!boot.ok()) {
    std::fprintf(stderr, "bootstrap connect: %s\n",
                 boot.status().ToString().c_str());
    return 1;
  }
  for (const char* ddl : {"CREATE TABLE R (A INT, B INT, C INT)",
                          "CREATE UNIQUE INDEX ON R (A)",
                          "CREATE INDEX ON R (B)", "CREATE INDEX ON R (C)"}) {
    Result<std::string> r = boot->Execute(ddl);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", ddl, r.status().ToString().c_str());
      return 1;
    }
  }
  for (int64_t k = 1; k <= cfg.preload; ++k) {
    Result<std::string> r = boot->Execute(InsertStatement(k));
    if (!r.ok()) {
      std::fprintf(stderr, "preload: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  // Metrics baseline after preload so the deltas cover only the timed run.
  bulkdel::obs::MetricsSnapshot before;
  if (spawn) before = db->metrics().Snapshot();

  // -- Timed run -------------------------------------------------------------
  // Preloaded keys are dealt out as one contiguous block per client so
  // deletes fire from the first seconds of the run — and so the oldest keys
  // of each backlog form a dense range a BETWEEN delete can cover exactly
  // (round-robin dealing would interleave the clients' key spaces and every
  // range window would fall back to the IN-list shape).
  std::vector<std::deque<int64_t>> initial(
      static_cast<size_t>(cfg.clients));
  int64_t block = cfg.preload / cfg.clients;
  for (int64_t k = 1; k <= cfg.preload; ++k) {
    size_t owner = block > 0 ? static_cast<size_t>((k - 1) / block)
                             : static_cast<size_t>(cfg.clients) - 1;
    if (owner >= static_cast<size_t>(cfg.clients)) {
      owner = static_cast<size_t>(cfg.clients) - 1;  // remainder to the last
    }
    initial[owner].push_back(k);
  }
  int64_t start_ns = MonotonicNanos();
  int64_t deadline_ns =
      cfg.seconds > 0 ? start_ns + static_cast<int64_t>(cfg.seconds * 1e9)
                      : 0;
  std::vector<ClientState> clients(static_cast<size_t>(cfg.clients));
  ProbeStats probe;
  std::atomic<bool> probe_stop{false};
  std::thread probe_thread;
  if (cfg.probe_ms > 0) {
    probe_thread = std::thread([&cfg, &host, port, &probe_stop, &probe] {
      RunProbe(host, port, cfg.probe_ms, &probe_stop, &probe);
    });
  }
  for (int t = 0; t < cfg.clients; ++t) {
    ClientState* state = &clients[static_cast<size_t>(t)];
    std::deque<int64_t> live = std::move(initial[static_cast<size_t>(t)]);
    clients[static_cast<size_t>(t)].thread =
        std::thread([&cfg, &host, port, t, deadline_ns, state,
                     live = std::move(live)]() mutable {
          RunClient(cfg, host, port, t, deadline_ns, std::move(live), state);
        });
  }
  for (ClientState& c : clients) c.thread.join();
  if (probe_thread.joinable()) {
    probe_stop.store(true, std::memory_order_release);
    probe_thread.join();
  }
  double elapsed_s =
      static_cast<double>(MonotonicNanos() - start_ns) / 1e9;

  // -- Aggregate -------------------------------------------------------------
  OpStats insert_stats, read_stats, delete_stats, range_stats;
  int64_t inserts = 0, reads = 0, deletes = 0, range_deletes = 0;
  int64_t rows_deleted = 0, errors = 0;
  std::string first_error;
  for (ClientState& c : clients) {
    insert_stats.Merge(c.insert_ns, c.insert_max, 0);
    read_stats.Merge(c.read_ns, c.read_max, 0);
    delete_stats.Merge(c.delete_ns, c.delete_max, 0);
    range_stats.Merge(c.range_ns, c.range_max, 0);
    inserts += c.inserts;
    reads += c.reads;
    deletes += c.deletes;
    range_deletes += c.range_deletes;
    rows_deleted += c.rows_deleted;
    errors += c.errors;
    if (first_error.empty()) first_error = c.first_error;
  }
  int64_t total_ops = inserts + reads + deletes + range_deletes;

  // -- Consistency check: acked effects must all be visible ------------------
  int exit_code = 0;
  if (errors > 0) {
    std::fprintf(stderr, "%lld statement error(s); first: %s\n",
                 static_cast<long long>(errors), first_error.c_str());
    exit_code = 1;
  }
  int64_t expected_rows = cfg.preload + inserts - rows_deleted;
  Result<std::string> count = boot->Execute("SELECT COUNT(*) FROM R");
  if (!count.ok()) {
    std::fprintf(stderr, "final count: %s\n",
                 count.status().ToString().c_str());
    exit_code = 1;
  } else if (*count != "count = " + std::to_string(expected_rows)) {
    std::fprintf(stderr,
                 "row count mismatch: got \"%s\", expected %lld "
                 "(preload %lld + inserts %lld - deleted %lld)\n",
                 count->c_str(), static_cast<long long>(expected_rows),
                 static_cast<long long>(cfg.preload),
                 static_cast<long long>(inserts),
                 static_cast<long long>(rows_deleted));
    exit_code = 1;
  }
  boot->Close();

  std::string metrics_json = "{}";
  int64_t slow_queries = 0;
  int metrics_port = 0;
  if (spawn) {
    slow_queries = static_cast<int64_t>(server->slow_queries_logged());
    metrics_port = server->metrics_port();
    Status stopped = server->Stop();
    if (!stopped.ok()) {
      std::fprintf(stderr, "Stop: %s\n", stopped.ToString().c_str());
      exit_code = 1;
    }
    Status integrity = db->VerifyIntegrity();
    if (!integrity.ok()) {
      std::fprintf(stderr, "VerifyIntegrity: %s\n",
                   integrity.ToString().c_str());
      exit_code = 1;
    }
    bulkdel::obs::MetricsSnapshot delta = db->metrics().Snapshot() - before;
    metrics_json = "{";
    bool first = true;
    for (const char* name :
         {"wal.syncs", "wal.fsyncs", "disk.syncs", "sidefile.appends",
          "net.accepted", "net.rejected", "net.bytes_in", "net.bytes_out"}) {
      if (!first) metrics_json += ", ";
      first = false;
      bulkdel::json::AppendEscaped(&metrics_json, name);
      metrics_json += ": " + std::to_string(delta.CounterOr(name));
    }
    for (const char* name :
         {"net.req_ns", "sched.queue_depth", "bp.fetch_ns"}) {
      const bulkdel::obs::HistogramSnapshot* h = delta.FindHistogram(name);
      if (h == nullptr) continue;
      metrics_json += ", ";
      bulkdel::json::AppendEscaped(&metrics_json, name);
      metrics_json += ": {\"count\": " + std::to_string(h->count) +
                      ", \"p50\": " + std::to_string(h->ApproxQuantile(0.5)) +
                      ", \"p99\": " + std::to_string(h->ApproxQuantile(0.99)) +
                      ", \"p999\": " +
                      std::to_string(h->ApproxQuantile(0.999)) + "}";
    }
    metrics_json += "}";
    Status closed = db->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "Close: %s\n", closed.ToString().c_str());
      exit_code = 1;
    }
  }

  // -- Report ----------------------------------------------------------------
  char rate_buf[64];
  std::snprintf(rate_buf, sizeof(rate_buf), "%.1f",
                elapsed_s > 0 ? static_cast<double>(total_ops) / elapsed_s
                              : 0.0);
  std::string summary = "{\"tool\": \"bulkdel_loadgen\", \"backend\": ";
  bulkdel::json::AppendEscaped(&summary, cfg.backend);
  summary += ", \"protocol\": ";
  bulkdel::json::AppendEscaped(&summary, cfg.protocol);
  summary += ", \"clients\": " + std::to_string(cfg.clients);
  char sec_buf[64];
  std::snprintf(sec_buf, sizeof(sec_buf), "%.3f", elapsed_s);
  summary += std::string(", \"elapsed_s\": ") + sec_buf;
  summary += ", \"seed\": " + std::to_string(cfg.seed);
  summary += ", \"mix\": ";
  bulkdel::json::AppendEscaped(
      &summary, std::to_string(cfg.mix_insert) + ":" +
                    std::to_string(cfg.mix_read) + ":" +
                    std::to_string(cfg.mix_delete) + ":" +
                    std::to_string(cfg.mix_range));
  summary += ", \"bulk_batch\": " + std::to_string(cfg.bulk_batch);
  summary += ", \"preload\": " + std::to_string(cfg.preload);
  summary += ", \"total_ops\": " + std::to_string(total_ops);
  summary += std::string(", \"total_ops_per_sec\": ") + rate_buf;
  summary += ", \"rows_deleted\": " + std::to_string(rows_deleted);
  summary += ", \"errors\": " + std::to_string(errors);
  summary += ", \"op_classes\": {";
  AppendOpJson(&summary, "insert", insert_stats, elapsed_s);
  summary += ", ";
  AppendOpJson(&summary, "point_read", read_stats, elapsed_s);
  summary += ", ";
  AppendOpJson(&summary, "bulk_delete", delete_stats, elapsed_s);
  summary += ", ";
  AppendOpJson(&summary, "range_delete", range_stats, elapsed_s);
  summary += "}, \"metrics\": " + metrics_json;
  summary += ", \"metrics_port\": " + std::to_string(metrics_port);
  summary += ", \"slow_queries\": " + std::to_string(slow_queries);
  if (cfg.probe_ms > 0) {
    summary += ", \"probe\": {\"scrapes\": " + std::to_string(probe.scrapes) +
               ", \"errors\": " + std::to_string(probe.errors) +
               ", \"saw_inflight_delete\": " +
               (probe.saw_inflight_delete ? "true" : "false") +
               ", \"phase_seen\": ";
    bulkdel::json::AppendEscaped(&summary, probe.phase_seen);
    summary += "}";
  }
  summary += "}";

  std::printf("%s\n", summary.c_str());
  if (!cfg.json_out.empty()) {
    std::ofstream out(cfg.json_out, std::ios::trunc);
    out << summary << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed writing %s\n", cfg.json_out.c_str());
      exit_code = 1;
    }
  }
  return exit_code;
}

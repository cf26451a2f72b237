// bulkdel_perfbench: runs one benchmark workload and prints its metrics.
//
//   bulkdel_perfbench --workload window_bulk|oltp_server|online_bulk
//                     --seed N --seconds S --trace 0|1 --dir DIR
//                     [--trace-out FILE] [--baseline-delete-ms X]
//
// Human-readable lines first (every metric with its sample count), then the
// result as the last line of standard output:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 turns on the library's
// span recorder, adds the benchmark's own spans, reports the per-layer
// metrics and writes the Chrome trace to --trace-out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "obs/trace_recorder.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "bulkdel_perfbench: %s\n"
               "usage: bulkdel_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --dir DIR [--trace-out FILE] [--baseline-delete-ms X]\n",
               why);
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--baseline-delete-ms") {
      args.baseline_delete_ms = std::strtod(value, nullptr);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.dir.empty()) return Usage("--dir is required");
  if (args.seconds < 1) return Usage("--seconds must be at least 1");

  perfbench::WorkloadFn run = nullptr;
  if (args.workload == "window_bulk") run = perfbench::RunWindowBulk;
  if (args.workload == "oltp_server") run = perfbench::RunOltpServer;
  if (args.workload == "online_bulk") run = perfbench::RunOnlineBulk;
  if (run == nullptr) return Usage(("unknown workload " + args.workload).c_str());

  if (args.trace) {
    bulkdel::obs::TraceRecorder::Global().SetThreadCapacity(1u << 19);
  }
  perfbench::BenchSpans spans(args.trace);
  perfbench::RunResult result = run(args, &spans);

  if (args.trace && !args.trace_out.empty()) {
    std::string trace = spans.MergeIntoChromeTrace(
        bulkdel::obs::TraceRecorder::Global().ToChromeTraceJson());
    std::FILE* f = std::fopen(args.trace_out.c_str(), "w");
    if (f == nullptr || std::fwrite(trace.data(), 1, trace.size(), f) != trace.size()) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
  }

  for (const std::string& e : result.errors) std::printf("WRONG: %s\n", e.c_str());
  for (const perfbench::Metric& m : result.metrics) {
    if (m.samples > 0) {
      std::printf("%-34s %14.4f %-8s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else {
      std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}

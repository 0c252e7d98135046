// Repository benchmark driver.
//
//   perfbench --workload <query_pems04|district_fleet|metro_stream|
//                         train_pems08>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace is 0 and, when it is 1, the
// per-layer metrics of the layers this workload reaches (perfbench/run.py
// checks the names and units against BENCHMARK.json and fills in the other
// workloads' per-layer metrics). A human-readable summary, the run record
// (seed, nproc, thread budgets, commit, sample counts) and, for traced
// runs, the span table go to standard error; the record and the trace
// files are also written under --out-dir. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "perfbench/src/bench.h"
#include "src/core/parallel.h"

namespace perfbench {
namespace {

// Every workload gives the program under test at most this many threads.
constexpr int kProgramThreads = 2;

bool ParseArgs(int argc, char** argv, Args* args, std::string* commit) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0.0 &&
                     args->seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->trace = std::strcmp(value, "1") == 0;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--commit") {
      *commit = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

void MakeDirs(const std::string& path) {
  for (size_t pos = path.find('/', 1); ; pos = path.find('/', pos + 1)) {
    ::mkdir(path.substr(0, pos).c_str(), 0755);
    if (pos == std::string::npos) break;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string commit = "unknown";
  if (!ParseArgs(argc, argv, &args, &commit)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n");
    return 2;
  }
  const std::string problem = SelfCheck();
  if (!problem.empty()) {
    std::fprintf(stderr, "benchmark self-check failed: %s\n",
                 problem.c_str());
    return 1;
  }
  MakeDirs(args.out_dir);
  dyhsl::ConfigureParallelism(kProgramThreads);

  Tracer tracer(args.trace);
  Report report;
  if (args.workload == "query_pems04") {
    report = RunQueryPems04(args, &tracer);
  } else if (args.workload == "district_fleet") {
    report = RunDistrictFleet(args, &tracer);
  } else if (args.workload == "metro_stream") {
    report = RunMetroStream(args, &tracer);
  } else if (args.workload == "train_pems08") {
    report = RunTrainPems08(args, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (report.attempted() < 1) {
    std::fprintf(stderr, "workload %s attempted nothing\n",
                 args.workload.c_str());
    return 1;
  }
  for (const auto& [name, metric] : report.metrics()) {
    if (!std::isfinite(metric.first)) {
      report.Fail("metric " + name + " is not finite");
    }
    if (!args.trace && metric.first <= 0.0) {
      report.Fail("end-to-end metric " + name + " is not positive");
    }
  }

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  report.Note("workload", args.workload);
  report.Note("seed", std::to_string(args.seed));
  report.Note("seconds", args.seconds);
  report.Note("nproc", std::to_string(dyhsl::core::HardwareThreads()));
  report.Note("program_threads", std::to_string(kProgramThreads));
  report.Note("commit", commit);
  if (args.trace) {
    const std::string table =
        tracer.Write(stem + ".trace.json", stem + ".spans.txt");
    std::fprintf(stderr, "%s", table.c_str());
  }

  std::string record = "{";
  for (const auto& [key, value] : report.notes()) {
    if (record.size() > 1) record += ", ";
    record += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
  }
  record += "}";
  if (std::FILE* out = std::fopen((stem + ".record.json").c_str(), "w")) {
    std::fprintf(out, "%s\n", record.c_str());
    std::fclose(out);
  }
  std::fprintf(stderr, "record %s\n", record.c_str());
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::fprintf(stderr, "attempted %lld, failed %lld, error_rate %.6g\n",
               static_cast<long long>(report.attempted()),
               static_cast<long long>(report.failed()),
               static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted()));

  std::string result = "{\"correct\": ";
  result += report.correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(report.attempted());
  result += ", \"failed\": " + std::to_string(report.failed());
  result += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : report.metrics()) {
    std::fprintf(stderr, "  %-44s %16.6f %s\n", name.c_str(), metric.first,
                 metric.second.c_str());
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(metric.first) ? metric.first : 0.0);
    result += first ? "" : ", ";
    result += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
              metric.second + "\"}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

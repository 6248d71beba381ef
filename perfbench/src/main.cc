// perfbench: the repository benchmark binary.
//
//   perfbench --workload <serve_fresh_large|serve_ingest_small|
//                         engine_durable>
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 runs one untraced pass and prints its end-to-end metrics.
// --trace 1 runs an untraced pass, then a traced one, each for half of
// --seconds, and prints the per-layer metrics of the traced pass plus
// the tracing overhead (the traced-minus-untraced difference of each
// end-to-end metric). Either way the last stdout line is one JSON object
//   {"correct": true, "attempted": N, "failed": N, "metrics": {name: value}}
// which run.py checks against BENCHMARK.json, the one list of metric
// names and units. A failed correctness check prints the reason to
// stderr, exits 1 and prints no metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --out-dir DIR\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed expects a number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace expects 0 or 1");
      }
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0 || args.trace < 0 ||
      args.out_dir.empty()) {
    Usage("--workload, --seconds, --trace and --out-dir are required");
  }
  return args;
}

using WorkloadFn = PassResult (*)(const RunConfig&, Tracer&);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"serve_fresh_large", &RunServeFreshLarge},
      {"serve_ingest_small", &RunServeIngestSmall},
      {"engine_durable", &RunEngineDurable},
  };
  return workloads;
}

PassResult RunPass(WorkloadFn fn, const RunConfig& config, Tracer& tracer,
                   const char* label) {
  std::cout << "[" << label << " pass]\n";
  PassResult result = fn(config, tracer);
  if (tracer.enabled()) AddLayerSelfTimes(tracer, &result);
  for (const std::string& line : result.report) std::cout << line << "\n";
  if (!result.correct) {
    std::cerr << "perfbench: correctness check failed (" << label
              << " pass): " << result.failure << "\n";
  }
  return result;
}

std::string MetricsJson(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (out.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const auto it = Workloads().find(args.workload);
  if (it == Workloads().end()) Usage("unknown workload " + args.workload);
  std::filesystem::create_directories(args.out_dir);
  RunConfig config;
  config.seed = args.seed;
  // A traced run splits its time between the untraced and traced pass,
  // so every run takes about --seconds.
  config.seconds = args.trace == 1 ? args.seconds / 2 : args.seconds;
  config.workdir = args.out_dir;
  std::cout << "perfbench: workload=" << args.workload
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << args.trace << "\n";

  Tracer untraced(false);
  const PassResult base = RunPass(it->second, config, untraced, "untraced");
  if (!base.correct) return 1;

  if (args.trace == 0) {
    std::cout << "{\"correct\": true, \"attempted\": " << base.attempted
              << ", \"failed\": " << base.failed
              << ", \"metrics\": " << MetricsJson(base.e2e) << "}"
              << std::endl;
    return 0;
  }
  Tracer tracer(true);
  PassResult traced = RunPass(it->second, config, tracer, "traced");
  if (!traced.correct) return 1;
  // One file per workload, overwritten by the next traced run.
  const std::string tsv = args.out_dir + "/trace-" + args.workload + ".tsv";
  if (!tracer.WriteTsv(tsv)) {
    std::cerr << "perfbench: cannot write " << tsv << "\n";
    return 1;
  }
  std::cout << "spans written to " << tsv << "\n";
  for (const auto& [name, value] : base.e2e) {
    traced.layer["trace.overhead." + name] = traced.e2e.at(name) - value;
  }
  std::cout << "{\"correct\": true, \"attempted\": "
            << base.attempted + traced.attempted
            << ", \"failed\": " << base.failed + traced.failed
            << ", \"metrics\": " << MetricsJson(traced.layer) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

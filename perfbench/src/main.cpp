// wsf-perfbench: runs one benchmark workload against the wsf library's
// public API and writes a JSON report (metrics with units and sample
// counts, the full configuration, the machine fingerprint, and the
// correctness checks). perfbench/run.py builds this binary, runs it, and
// prints the result.
//
//   wsf-perfbench --workload=steal-heavy --seed=1 --seconds=20 --trace=0
//                 --report=out.json [--trace-out=spans.json]
//                 [--reference-digest=HEX] [--commit=ID]
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

#ifndef WSF_BENCH_BUILD_TYPE
#define WSF_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "wsf-perfbench: %s\nusage: wsf-perfbench --workload=NAME "
               "--seed=N --seconds=S --trace=0|1 --report=PATH "
               "[--trace-out=PATH] [--reference-digest=HEX] [--commit=ID]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      return usage("bad argument '" + a + "'");
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "report"})
    if (!args.count(required))
      return usage(std::string("missing --") + required);

  RunOptions opts;
  opts.workload = args["workload"];
  if (!is_known_workload(opts.workload))
    return usage("unknown workload '" + opts.workload + "'");
  char* end = nullptr;
  opts.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return usage("--seed must be a whole number");
  opts.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 600)
    return usage("--seconds must be in (0, 600]");
  if (args["trace"] != "0" && args["trace"] != "1")
    return usage("--trace must be 0 or 1");
  opts.trace = args["trace"] == "1";
  opts.reference_digest = args["reference-digest"];

  Report report;
  report.config["workload"] = opts.workload;
  report.config["seed"] = args["seed"];
  report.config["seconds"] = args["seconds"];
  report.config["trace"] = args["trace"];
  report.config["machine.nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  report.config["machine.cpu_model"] = cpu_model();
  report.config["build.compiler"] = compiler();
  report.config["build.type"] = WSF_BENCH_BUILD_TYPE;
  report.config["build.commit"] = args.count("commit") ? args["commit"] : "";

  try {
    if (is_runtime_workload(opts.workload))
      run_runtime_workload(opts, report);
    else
      run_sim_sweep(opts, report);
  } catch (const std::exception& e) {
    report.checks.expect(false, std::string("run aborted: ") + e.what());
  }
  if (!opts.trace)
    report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
  const std::string trace_path = args["trace-out"];
  if (opts.trace && !trace_path.empty() && !trace::write(trace_path))
    report.checks.expect(false, "could not write " + trace_path);

  std::ofstream out(args["report"]);
  out << report.to_json();
  out.close();
  if (!out) {
    std::fprintf(stderr, "wsf-perfbench: could not write %s\n",
                 args["report"].c_str());
    return 1;
  }
  for (const std::string& m : report.checks.messages())
    std::fprintf(stderr, "check failed: %s\n", m.c_str());
  return report.checks.ok() ? 0 : 1;
}

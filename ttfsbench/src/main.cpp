// ttfsbench: the repository benchmark, one workload per invocation.
//
//   ttfsbench --workload NAME --seed N --seconds S --trace 0|1 [--git-sha SHA] [--src-digest HEX]
//
// NAME is wire_light, wire_poisson, offline_event or offline_quant (see
// workloads.h and README.md). Prints a readable report, a provenance line,
// and, as the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {"p50_ms": {"value": ..., "unit": "ms"}, ...}}
//
// --trace 0 measures the end-to-end metrics with no tracing anywhere.
// --trace 1 runs the workload twice at half the time each, untraced then
// traced; it reports the per-layer metrics of the traced pass, the tracing
// overhead (traced minus untraced), and writes the spans to
// .bench_build/ttfsbench/spans/<workload>-seed<N>.jsonl under the working
// directory.
//
// Exit status: 0 when every output was correct; 1 on any mismatch (the
// result line still prints, with "correct": false); 2 on bad arguments; 3
// when the hard wall-clock limit (kLimitS) hits; 4 on any other failure.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "logic.h"
#include "report.h"
#include "snn/simd.h"
#include "tracing.h"
#include "workloads.h"

#ifndef TTFSBENCH_BUILD_TYPE
#define TTFSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TTFSBENCH_COMPILER
#define TTFSBENCH_COMPILER "unknown"
#endif

namespace {

using namespace ttfsbench;

// Hard wall-clock limit of one run, inside the 180 s a run may take.
constexpr double kLimitS = 170.0;
constexpr const char* kSpansDir = ".bench_build/ttfsbench/spans";

// Ends the process with a clear message if the run outlives its limit. The
// thread is joined on destruction, so a finished run leaves nothing behind.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) : limit_s_{limit_s}, thread_{[this] { watch(); }} {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void watch() {
    std::unique_lock<std::mutex> lock{mu_};
    if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s_), [this] { return done_; })) {
      std::fprintf(stderr,
                   "ttfsbench: hard wall-clock limit of %.0f s hit; aborting without a result\n",
                   limit_s_);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  const double limit_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ttfsbench: " << why
            << "\nusage: ttfsbench --workload wire_light|wire_poisson|offline_event|offline_quant"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA] [--src-digest HEX]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(v >= 0.0)) usage(flag + " needs a non-negative number, got '" + text + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const double v = parse_number(flag, value);
      if (v != static_cast<double>(static_cast<std::uint64_t>(v))) usage("--seed must be a whole number");
      a.seed = static_cast<std::uint64_t>(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--src-digest") {
      a.src_digest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "wire_light" && a.workload != "wire_poisson" &&
      a.workload != "offline_event" && a.workload != "offline_quant") {
    usage("unknown or missing --workload '" + a.workload + "'");
  }
  if (!have_seed || !have_trace || a.seconds <= 0.0) usage("--seed, --seconds and --trace are required");
  return a;
}

Report run(const Args& args, double seconds, SpanRecorder* spans) {
  const RunSpec spec{args.seed, seconds, spans};
  if (args.workload == "wire_light") return run_wire_light(spec);
  if (args.workload == "wire_poisson") return run_wire_poisson(spec);
  return run_offline(spec, args.workload == "offline_quant");
}

void finish_end_to_end(Report& r) {
  const double ok = r.attempted == 0 ? 0.0
                                     : 100.0 * static_cast<double>(r.attempted - r.failed) /
                                           static_cast<double>(r.attempted);
  r.set("ok_pct", ok, r.attempted);
  r.set("rss_mb", peak_rss_mb(), 1);
}

std::string provenance(const Args& args, const Report& r) {
  const char* threads = std::getenv("TTFS_THREADS");  // NOLINT(concurrency-mt-unsafe)
  std::ostringstream o;
  o << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
    << ", \"seconds\": " << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"git_sha\": " << json_string(args.git_sha)
    << ", \"src_digest\": " << json_string(args.src_digest)
    << ", \"build_type\": " << json_string(TTFSBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_string(TTFSBENCH_COMPILER)
    << ", \"simd\": " << json_string(ttfs::snn::kernels::isa())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_threads\": " << pool_threads()
    << ", \"TTFS_THREADS\": " << json_string(threads == nullptr ? "unset" : threads);
  for (const auto& [key, value] : r.notes) {
    o << ", " << json_string(key) << ": " << value;
  }
  o << "}";
  return o.str();
}

void print_table(const Args& args, const Report& r, bool per_layer) {
  const auto& defs = per_layer ? per_layer_defs() : end_to_end_defs();
  std::printf("\n%s metrics, %s, seed %llu, %.0f s\n", per_layer ? "per-layer" : "end-to-end",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds);
  for (const MetricDef& d : defs) {
    if (per_layer) {
      const auto it = r.per_layer.find(d.name);
      std::printf("  %-26s %14.6g %-6s\n", d.name.c_str(), it == r.per_layer.end() ? 0.0 : it->second,
                  d.unit.c_str());
    } else {
      const Measured m = r.end_to_end.count(d.name) != 0 ? r.end_to_end.at(d.name) : Measured{};
      const std::string alias = workload_alias(args.workload, d.name);
      std::printf("  %-10s %14.6g %-4s n=%-8zu %s\n", d.name.c_str(), m.value, d.unit.c_str(),
                  m.samples, alias.c_str());
    }
  }
  if (!per_layer && r.per_layer.count("client.p99_ms") != 0) {
    std::printf("  (p99 %.6g ms over the p50_ms samples; the traced run reports it as client.p99_ms)\n",
                r.per_layer.at("client.p99_ms"));
  }
}

std::string result_line(const Report& r, bool per_layer) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.problems.empty() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : per_layer ? per_layer_defs() : end_to_end_defs()) {
    double v = 0.0;
    if (per_layer) {
      if (const auto it = r.per_layer.find(d.name); it != r.per_layer.end()) v = it->second;
    } else if (const auto it = r.end_to_end.find(d.name); it != r.end_to_end.end()) {
      v = it->second.value;
    }
    o << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": " << json_number(v)
      << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }
  o << "}}";
  return o.str();
}

int bench_main(const Args& args) {
  Report report;
  if (!args.trace) {
    report = run(args, args.seconds, nullptr);
    finish_end_to_end(report);
    print_table(args, report, false);
  } else {
    Report plain = run(args, args.seconds / 2.0, nullptr);
    SpanRecorder spans;
    report = run(args, args.seconds / 2.0, &spans);
    finish_end_to_end(plain);
    finish_end_to_end(report);
    std::printf("\ntracing overhead (traced minus untraced, %.1f s each):\n", args.seconds / 2.0);
    for (const MetricDef& d : end_to_end_defs()) {
      const double a = plain.end_to_end[d.name].value;
      const double b = report.end_to_end[d.name].value;
      std::printf("  %-10s untraced %12.6g  traced %12.6g  diff %+12.6g %s\n", d.name.c_str(), a, b,
                  b - a, d.unit.c_str());
    }
    const double base = plain.end_to_end["p50_ms"].value;
    report.layer("trace.overhead_pct",
                 base > 0.0 ? 100.0 * (report.end_to_end["p50_ms"].value - base) / base : 0.0);
    report.layer("client.p99_ms", plain.per_layer["client.p99_ms"]);  // untraced tail
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.problems.insert(report.problems.end(), plain.problems.begin(), plain.problems.end());
    print_table(args, report, true);

    std::filesystem::create_directories(kSpansDir);
    const std::string path = std::string{kSpansDir} + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!spans.write(path, provenance(args, report))) {
      std::cerr << "ttfsbench: cannot write spans to " << path << "\n";
      return 4;
    }
    std::printf("spans: %s\n", path.c_str());
  }
  for (const std::string& p : report.problems) std::printf("OUTPUT CHECK FAILED: %s\n", p.c_str());
  std::printf("provenance: %s\n", provenance(args, report).c_str());
  std::printf("%s\n", result_line(report, args.trace).c_str());
  std::fflush(stdout);
  return report.problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  int status = 4;
  {
    const Watchdog watchdog{kLimitS};
    try {
      status = bench_main(args);
    } catch (const std::exception& e) {
      std::cerr << "ttfsbench: " << args.workload << " failed: " << e.what() << "\n";
    }
  }
  return status;
}

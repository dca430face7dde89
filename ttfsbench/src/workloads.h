// The benchmark's workloads and what they share.
//
//   wire_light     closed loop, 1 connection (then 4), model m0, over loopback
//   wire_poisson   open-loop Poisson over 4 connections on m0/m1: a fixed-rate
//                  phase, then a capacity search
//   offline_event  InferenceSession::run on the 32x32 VGG-style stack, event
//                  backend, batch 1 and batch 64
//   offline_quant  the same on a log-quantized copy, quantized backend
//
// Each takes its measuring time and, for a traced run, the span recorder
// (null = untraced: no decorator is loaded anywhere).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "tracing.h"

namespace ttfsbench {

struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  SpanRecorder* spans = nullptr;  // traced run when set
};

Report run_wire_light(const RunSpec& spec);
Report run_wire_poisson(const RunSpec& spec);
Report run_offline(const RunSpec& spec, bool quantized);

// Setups per run; setup_s is their median.
inline constexpr int kSetups = 3;
// The tail percentile reported, and the sample count it needs.
inline constexpr double kTailPercentile = 99.0;

// The tail of a phase's latencies, client.p99_ms: per-layer, since its
// run-to-run spread is wider than an end-to-end bound allows. Fewer samples
// than the p99 needs is a problem.
void set_tail(const std::vector<double>& latency_ms, Report& report);
// p50_ms of a phase's latencies, and their tail.
void set_latency(const std::vector<double>& latency_ms, Report& report);

// Threads of the compute pool every workload uses (global_pool()).
std::size_t pool_threads();

// Exact per-image activity of a set of traces, and the hardware model's
// price of it (hw::price_trace on the paper's processor configuration).
struct TraceSummary {
  std::vector<double> layer_spikes;           // mean per image, per trace layer
  std::vector<double> layer_ops;
  std::vector<std::int64_t> ops_per_image;    // exact, in image order
  double spikes = 0.0;                        // mean per image
  double ops = 0.0;
  double energy_uj = 0.0;                     // mean per image
  std::vector<double> hw_cycles;              // mean per image, per priced layer
  double price_us = 0.0;                      // median time of one price_trace
};
TraceSummary summarize_traces(const ttfs::snn::SnnNetwork& net,
                              const std::vector<ttfs::snn::EventTrace>& traces,
                              std::int64_t height, std::int64_t width);
// Writes the snn.* activity and hw.* metrics of `summary` into `report`.
void put_trace_layers(const TraceSummary& summary, Report& report);

// Peak resident set size of this process so far.
double peak_rss_mb();

}  // namespace ttfsbench

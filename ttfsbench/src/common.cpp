// Helpers every workload shares: pool size, trace summaries and their
// hardware price, peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "hw/processor.h"
#include "hw/tech.h"
#include "hw/trace_run.h"
#include "logic.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ttfsbench {

std::size_t pool_threads() { return ttfs::global_pool().size(); }

void set_latency(const std::vector<double>& latency_ms, Report& report) {
  report.set("p50_ms", median(latency_ms), latency_ms.size());
  set_tail(latency_ms, report);
}

void set_tail(const std::vector<double>& latency_ms, Report& report) {
  report.layer("client.p99_ms", quantile(latency_ms, kTailPercentile / 100.0));
  if (!percentile_supported(latency_ms.size(), kTailPercentile)) {
    report.problems.push_back("p99 has " + std::to_string(latency_ms.size()) +
                              " samples, fewer than " +
                              std::to_string(samples_for_percentile(kTailPercentile)));
  }
}

TraceSummary summarize_traces(const ttfs::snn::SnnNetwork& net,
                              const std::vector<ttfs::snn::EventTrace>& traces,
                              std::int64_t height, std::int64_t width) {
  TraceSummary s;
  if (traces.empty()) return s;
  const double n = static_cast<double>(traces.size());
  const ttfs::hw::SnnProcessorModel model{ttfs::hw::ArchConfig{}, ttfs::hw::default_tech()};
  std::vector<double> price_us;
  for (const ttfs::snn::EventTrace& t : traces) {
    s.layer_spikes.resize(std::max(s.layer_spikes.size(), t.layers.size()));
    s.layer_ops.resize(std::max(s.layer_ops.size(), t.layers.size()));
    for (std::size_t k = 0; k < t.layers.size(); ++k) {
      s.layer_spikes[k] += static_cast<double>(t.layers[k].spikes.size()) / n;
      s.layer_ops[k] += static_cast<double>(t.layers[k].integration_ops) / n;
    }
    s.spikes += static_cast<double>(t.total_spikes()) / n;
    s.ops += static_cast<double>(t.total_integration_ops()) / n;
    s.ops_per_image.push_back(t.total_integration_ops());

    const auto t0 = Clock::now();
    const ttfs::hw::ProcessorReport report = ttfs::hw::price_trace(model, net, t, height, width);
    price_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    s.energy_uj += report.energy_per_image_uj() / n;
    s.hw_cycles.resize(std::max(s.hw_cycles.size(), report.layers.size()));
    for (std::size_t k = 0; k < report.layers.size(); ++k) {
      s.hw_cycles[k] += static_cast<double>(report.layers[k].cycles) / n;
    }
  }
  s.price_us = median(price_us);
  return s;
}

void put_trace_layers(const TraceSummary& s, Report& report) {
  report.layer("snn.spikes_per_sample", s.spikes);
  report.layer("snn.ops_per_sample", s.ops);
  for (std::size_t k = 0; k < s.layer_spikes.size() && k < kSnnLayers; ++k) {
    report.layer("snn.L" + std::to_string(k) + ".spikes", s.layer_spikes[k]);
    report.layer("snn.L" + std::to_string(k) + ".ops", s.layer_ops[k]);
  }
  report.layer("hw.energy_uj", s.energy_uj);
  for (std::size_t k = 0; k < s.hw_cycles.size() && k < kHwLayers; ++k) {
    report.layer("hw.L" + std::to_string(k) + ".cycles", s.hw_cycles[k]);
  }
  report.layer("hw.price_us", s.price_us);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace ttfsbench

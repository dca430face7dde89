#include "report.h"

#include <cmath>
#include <cstdio>

namespace ttfsbench {

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"}, {"rss_mb", "MB"}, {"ok_pct", "%"},
      {"p50_ms", "ms"}, {"rps", "1/s"},   {"peak_rps", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d{
        {"client.p99_ms", "ms"},
        {"net.self_ms_per_req", "ms"},
        {"net.parse_ns_per_frame", "ns"},
        {"net.bytes_per_req", "B"},
        {"net.read_pauses", "count"},
        {"serve.latency_p50_ms", "ms"},
        {"serve.self_ms_per_req", "ms"},
        {"serve.batch_mean", "count"},
        {"serve.batches", "count"},
        {"serve.replica_util", "ratio"},
        {"serve.queue_depth_p99", "count"},
        {"serve.refused", "count"},
        {"snn.sample_us_p50", "us"},
        {"snn.batch_us_p50", "us"},
        {"snn.mops_per_s.event", "Mop/s"},
        {"snn.mops_per_s.quant", "Mop/s"},
        {"snn.spikes_per_sample", "count"},
        {"snn.ops_per_sample", "count"},
    };
    for (std::size_t k = 0; k < kSnnLayers; ++k) {
      d.push_back({"snn.L" + std::to_string(k) + ".spikes", "count"});
      d.push_back({"snn.L" + std::to_string(k) + ".ops", "count"});
    }
    d.push_back({"snn.pack_ms", "ms"});
    d.push_back({"snn.registry.hits", "count"});
    d.push_back({"snn.registry.misses", "count"});
    d.push_back({"snn.registry.warm_bytes", "B"});
    d.push_back({"hw.energy_uj", "uJ"});
    for (std::size_t k = 0; k < kHwLayers; ++k) {
      d.push_back({"hw.L" + std::to_string(k) + ".cycles", "count"});
    }
    d.push_back({"hw.price_us", "us"});
    d.push_back({"cat.quantize_ms", "ms"});
    d.push_back({"trace.overhead_pct", "%"});
    return d;
  }();
  return defs;
}

std::string workload_alias(const std::string& workload, const std::string& metric) {
  static const std::map<std::pair<std::string, std::string>, std::string> aliases{
      {{"wire_light", "peak_rps"}, "rps at 4 connections"},
      {{"wire_poisson", "rps"}, "fixed-rate completions/s"},
      {{"wire_poisson", "peak_rps"}, "capacity_rps"},
      {{"offline_event", "rps"}, "event_b1_sps"},
      {{"offline_event", "peak_rps"}, "event_b64_sps"},
      {{"offline_quant", "rps"}, "quant_b1_sps"},
      {{"offline_quant", "peak_rps"}, "quant_b64_sps"},
  };
  if (metric == "ok_pct") return "100 - error_pct";
  const auto it = aliases.find({workload, metric});
  return it == aliases.end() ? std::string{} : it->second;
}

void Report::note(const std::string& key, double value) {
  notes.emplace_back(key, json_number(value));
}

void Report::note_text(const std::string& key, const std::string& value) {
  notes.emplace_back(key, json_string(value));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ttfsbench

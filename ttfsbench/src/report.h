// What a workload hands back, and the metric names every run prints.
//
// Every workload reports every end-to-end metric (the names are generic; the
// per-workload meaning is in README.md) and, in a traced run, every
// per-layer metric. A layer a workload does not exercise reads 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ttfsbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

// The end-to-end metrics, in print order.
const std::vector<MetricDef>& end_to_end_defs();
// The per-layer metrics, in print order. Network layers are numbered as the
// largest model has them (snn.L0..L8, hw.L0..L8).
const std::vector<MetricDef>& per_layer_defs();
inline constexpr std::size_t kSnnLayers = 9;
inline constexpr std::size_t kHwLayers = 9;

// The workload-specific name of a generic metric ("capacity_rps" for
// peak_rps on wire_poisson), printed next to it; empty when it has none.
std::string workload_alias(const std::string& workload, const std::string& metric);

struct Measured {
  double value = 0.0;
  std::size_t samples = 0;
};

struct Report {
  std::map<std::string, Measured> end_to_end;
  std::map<std::string, double> per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Output mismatches and broken runs, one line each; any one fails the run.
  std::vector<std::string> problems;
  // Extra provenance (generator lateness, ...) as JSON values, printed with
  // the rest.
  std::vector<std::pair<std::string, std::string>> notes;

  void set(const std::string& name, double value, std::size_t samples) {
    end_to_end[name] = Measured{value, samples};
  }
  void layer(const std::string& name, double value) { per_layer[name] = value; }
  void note(const std::string& key, double value);
  void note_text(const std::string& key, const std::string& value);
};

// JSON helpers for the one-line outputs.
std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace ttfsbench

// The arithmetic behind the benchmark's reported numbers: the percentile
// rule, the capacity-search ladder, and the layer self-time formulas. No
// clocks and no I/O, so tests/logic_test.cpp can pin each rule down exactly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ttfsbench {

// Exact q-quantile (0 <= q <= 1) by linear interpolation between closest
// ranks; NaN when `values` is empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// The percentile rule: a tail percentile p is reported only when at least
// kTailSamples samples lie beyond it, i.e. n * (100 - p) / 100 >= 10.
inline constexpr double kTailSamples = 10.0;
bool percentile_supported(std::size_t n, double percentile);
// Smallest sample count that supports `percentile` (1000 for p99).
std::size_t samples_for_percentile(double percentile);

// Verdict of one capacity-search step.
struct StepOutcome {
  std::size_t arrivals = 0;        // requests scheduled in the step
  std::size_t completed = 0;       // answered within the step window plus the p99 bound
  std::size_t failed = 0;          // refused, failed or wrong answers
  double p99_ms = 0.0;             // over the step's answered requests
};
// A step passes when its p99 stays inside kP99BoundMs, at least
// kMinCompletion of its arrivals were answered, and nothing failed.
inline constexpr double kP99BoundMs = 25.0;
inline constexpr double kMinCompletion = 0.98;  // completed / arrivals
bool step_passes(const StepOutcome& step);

// Ascending search for the highest offered rate that passes, from
// kSearchStartRate. Coarse steps (x kCoarseStep) find the first failure
// fast; the search then climbs again from the last passing rate in fine
// steps (x kFineStep, the resolution) and stops at the first fine step that
// fails. If the very first rate fails, it descends in fine steps until one
// passes. A rate fails only when two probes in a row fail at it, so one
// stall of the host does not end the climb. kMaxSteps probes end any search;
// the capacity is always the most recent passing rate, 0 when none passed.
inline constexpr double kSearchStartRate = 4000.0;
inline constexpr double kCoarseStep = 1.25;
inline constexpr double kFineStep = 1.05;
inline constexpr int kMaxSteps = 40;

class CapacitySearch {
 public:
  bool done() const { return phase_ == Phase::kDone; }
  // Rate to probe next; valid while !done().
  double next_rate() const { return rate_; }
  // Records the verdict of the probe at next_rate() and picks the next one.
  void record(bool passed);
  // Highest passing rate so far; 0 when nothing passed.
  double capacity() const { return last_pass_; }
  int steps() const { return steps_; }

 private:
  enum class Phase { kCoarse, kFine, kDescend, kDone };
  Phase phase_ = Phase::kCoarse;
  double rate_ = kSearchStartRate;
  double last_pass_ = 0.0;
  int steps_ = 0;
  int fails_here_ = 0;  // failed probes in a row at rate_
};

// net self time per request: mean of (client latency - server stamp). Both
// vectors are per request, in the same order and unit.
double net_self_per_req(const std::vector<double>& client, const std::vector<double>& server);

// One batch as the backend saw it: its span and how many requests it ran.
struct BatchSpan {
  double duration = 0.0;
  std::size_t size = 0;
};
// serve self time per request: (sum of server stamps - sum over batches of
// span x size) / requests. A request waits for its whole batch, so the
// batch span counts once per request in it.
double serve_self_per_req(double stamp_sum, const std::vector<BatchSpan>& batches,
                          std::size_t requests);

}  // namespace ttfsbench

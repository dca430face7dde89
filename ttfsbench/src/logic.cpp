#include "logic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ttfsbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool percentile_supported(std::size_t n, double percentile) {
  // Compared in hundredths so p99 needs exactly 1000 samples, not 1001 from
  // the rounding of 1 - 0.99.
  return static_cast<double>(n) * (100.0 - percentile) >= kTailSamples * 100.0 - 1e-6;
}

std::size_t samples_for_percentile(double percentile) {
  return static_cast<std::size_t>(std::ceil(kTailSamples * 100.0 / (100.0 - percentile) - 1e-6));
}

bool step_passes(const StepOutcome& step) {
  if (step.arrivals == 0 || step.failed != 0) return false;
  if (static_cast<double>(step.completed) < kMinCompletion * static_cast<double>(step.arrivals)) {
    return false;
  }
  return step.p99_ms <= kP99BoundMs;
}

void CapacitySearch::record(bool passed) {
  if (done()) return;
  ++steps_;
  if (passed) {
    last_pass_ = rate_;
    fails_here_ = 0;
  } else if (++fails_here_ < 2) {
    if (steps_ >= kMaxSteps) phase_ = Phase::kDone;
    return;  // probe the same rate again
  } else {
    fails_here_ = 0;
  }
  switch (phase_) {
    case Phase::kCoarse:
      if (passed) {
        rate_ *= kCoarseStep;
      } else if (last_pass_ > 0.0) {
        phase_ = Phase::kFine;
        rate_ = last_pass_ * kFineStep;
      } else {
        phase_ = Phase::kDescend;
        rate_ /= kFineStep;
      }
      break;
    case Phase::kFine:
      if (passed) {
        rate_ *= kFineStep;
      } else {
        phase_ = Phase::kDone;
      }
      break;
    case Phase::kDescend:
      if (passed) {
        phase_ = Phase::kDone;
      } else {
        rate_ /= kFineStep;
      }
      break;
    case Phase::kDone:
      break;
  }
  if (steps_ >= kMaxSteps) phase_ = Phase::kDone;
}

double net_self_per_req(const std::vector<double>& client, const std::vector<double>& server) {
  const std::size_t n = std::min(client.size(), server.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += client[i] - server[i];
  return sum / static_cast<double>(n);
}

double serve_self_per_req(double stamp_sum, const std::vector<BatchSpan>& batches,
                          std::size_t requests) {
  if (requests == 0) return 0.0;
  double compute = 0.0;
  for (const BatchSpan& b : batches) compute += b.duration * static_cast<double>(b.size);
  return (stamp_sum - compute) / static_cast<double>(requests);
}

}  // namespace ttfsbench

// Tests of the benchmark's own arithmetic: the percentile rule, the
// capacity search, and the self-time formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "logic.h"
#include "tracing.h"

namespace ttfsbench {
namespace {

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_TRUE(percentile_supported(10000, 99.9));
  EXPECT_FALSE(percentile_supported(9999, 99.9));
  EXPECT_TRUE(percentile_supported(20, 50.0));
}

TEST(PercentileRule, SampleCountMatchesRule) {
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const std::size_t n = samples_for_percentile(p);
    EXPECT_TRUE(percentile_supported(n, p)) << p;
    EXPECT_FALSE(percentile_supported(n - 1, p)) << p;
  }
  EXPECT_EQ(samples_for_percentile(99.0), 1000U);
}

TEST(StepVerdict, FailsOnTailBacklogOrError) {
  EXPECT_TRUE(step_passes(StepOutcome{1000, 1000, 0, 5.0}));
  EXPECT_TRUE(step_passes(StepOutcome{1000, 980, 0, kP99BoundMs}));
  EXPECT_FALSE(step_passes(StepOutcome{1000, 979, 0, 5.0}));  // backlog
  EXPECT_FALSE(step_passes(StepOutcome{1000, 1000, 1, 5.0})); // an error
  EXPECT_FALSE(step_passes(StepOutcome{1000, 1000, 0, kP99BoundMs + 0.1}));
  EXPECT_FALSE(step_passes(StepOutcome{0, 0, 0, 0.0}));
}

// Runs a search against a server that passes every rate up to `capacity`.
double search(double capacity, std::vector<double>* probed = nullptr) {
  CapacitySearch s;
  while (!s.done()) {
    if (probed != nullptr) probed->push_back(s.next_rate());
    s.record(s.next_rate() <= capacity);
  }
  return s.capacity();
}

TEST(CapacitySearch, FindsCapacityWithinTheFineStep) {
  for (const double share : {1.02, 1.3, 1.9, 1.97, 3.0, 7.5}) {
    const double capacity = share * kSearchStartRate;
    const double found = search(capacity);
    EXPECT_LE(found, capacity) << capacity;
    EXPECT_GT(found * kFineStep, capacity) << capacity;
  }
}

TEST(CapacitySearch, StopsAtFirstFailingFineStep) {
  // Two coarse steps pass and the third fails; then four fine steps pass.
  const double top = kSearchStartRate * kCoarseStep * kCoarseStep;
  const double found = top * std::pow(kFineStep, 4);
  std::vector<double> probed;
  EXPECT_DOUBLE_EQ(search(found * 1.01, &probed), found);
  // Coarse: start, x1, x2, x3 (fails twice); fine: x1..x5 (the last fails
  // twice).
  ASSERT_EQ(probed.size(), 11U);
  EXPECT_DOUBLE_EQ(probed[3], top * kCoarseStep);
  EXPECT_DOUBLE_EQ(probed[4], top * kCoarseStep);
  EXPECT_DOUBLE_EQ(probed[5], top * kFineStep);
  EXPECT_GT(probed.back(), found * 1.01);
  EXPECT_DOUBLE_EQ(probed[9], probed[10]);
}

TEST(CapacitySearch, OneFailedProbeIsRetried) {
  // The first probe at the second rate stalls; the retry passes and the
  // climb goes on.
  const double capacity = 1.9 * kSearchStartRate;
  const double stall_rate = kSearchStartRate * kCoarseStep;
  CapacitySearch s;
  bool stalled = false;
  while (!s.done()) {
    const double rate = s.next_rate();
    const bool stall = rate == stall_rate && !stalled;
    stalled = stalled || stall;
    s.record(!stall && rate <= capacity);
  }
  EXPECT_TRUE(stalled);
  EXPECT_DOUBLE_EQ(s.capacity(), search(capacity));
}

TEST(CapacitySearch, DescendsWhenTheStartFails) {
  const double capacity = 0.75 * kSearchStartRate;
  const double found = search(capacity);
  EXPECT_LE(found, capacity);
  EXPECT_GT(found * kFineStep, capacity);
}

TEST(CapacitySearch, GivesZeroWhenNothingPasses) {
  CapacitySearch s;
  while (!s.done()) s.record(false);
  EXPECT_EQ(s.steps(), kMaxSteps);
  EXPECT_EQ(s.capacity(), 0.0);
}

TEST(CapacitySearch, StepLimitKeepsLastPass) {
  CapacitySearch s;
  while (!s.done()) s.record(true);
  EXPECT_EQ(s.steps(), kMaxSteps);
  EXPECT_DOUBLE_EQ(s.capacity(), kSearchStartRate * std::pow(kCoarseStep, kMaxSteps - 1));
}

TEST(SelfTime, NetIsClientMinusServerStamp) {
  EXPECT_DOUBLE_EQ(net_self_per_req({3.0, 5.0}, {2.0, 3.0}), 1.5);
  EXPECT_DOUBLE_EQ(net_self_per_req({}, {}), 0.0);
}

TEST(SelfTime, ServeChargesEachRequestItsWholeBatch) {
  // Two batches: 4 requests in a 1 ms batch, 2 in a 2 ms batch. Stamps sum
  // to 20 ms over 6 requests; compute is 4*1 + 2*2 = 8 ms.
  EXPECT_DOUBLE_EQ(serve_self_per_req(20.0, {{1.0, 4}, {2.0, 2}}, 6), 2.0);
  EXPECT_DOUBLE_EQ(serve_self_per_req(20.0, {}, 0), 0.0);
}

TEST(Spans, RecorderAssignsIdsAndFilters) {
  SpanRecorder spans;
  const std::int64_t a = spans.add(Span{"snn.batch", 0.0, 5.0, 0, -1, -1, 4});
  const std::int64_t b = spans.add(Span{"snn.sample", 1.0, 2.0, 0, a, -1, 1});
  EXPECT_NE(a, b);
  const std::vector<Span> samples = spans.named("snn.sample");
  ASSERT_EQ(samples.size(), 1U);
  EXPECT_EQ(samples[0].parent, a);
  EXPECT_DOUBLE_EQ(samples[0].duration_us(), 1.0);
}

}  // namespace
}  // namespace ttfsbench

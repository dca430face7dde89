// Event-simulator hot-path units: fire_phase edge cases (the step-bucketed
// encoder must behave at the boundaries the priority-encoder hardware hits),
// ThresholdLut equivalence with the closed-form fire_step, and SimArena
// reuse across samples and networks of different shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/kernel.h"
#include "snn/network.h"
#include "util/rng.h"

namespace ttfs::snn {
namespace {

TEST(FirePhaseEdge, EmptyVmem) {
  const Base2Kernel k{24, 4.0, 1.0};
  const LayerEventTrace t = fire_phase(k, {});
  EXPECT_TRUE(t.spikes.empty());
  EXPECT_EQ(t.neuron_count, 0);
  EXPECT_EQ(t.integration_ops, 0);
  // The encoder still scans its full window even with nothing to emit.
  EXPECT_EQ(t.encoder_cycles, 24);
}

TEST(FirePhaseEdge, AllSubThreshold) {
  const Base2Kernel k{8, 2.0, 1.0};
  // Below min_level, exactly zero, and negative: none may fire.
  const std::vector<double> vmem{k.min_level() / 2.0, 0.0, -3.5, 1e-12};
  const LayerEventTrace t = fire_phase(k, vmem);
  EXPECT_TRUE(t.spikes.empty());
  EXPECT_EQ(t.neuron_count, 4);
  EXPECT_EQ(t.encoder_cycles, 8);
}

TEST(FirePhaseEdge, AllFireAtStepZero) {
  const Base2Kernel k{8, 2.0, 1.0};
  // Everything at or above theta0 fires immediately; the priority encoder
  // serializes them in ascending neuron order within the single step bucket.
  const std::vector<double> vmem{1.0, 5.0, 1.0 + 1e-9, 2.0};
  const LayerEventTrace t = fire_phase(k, vmem);
  ASSERT_EQ(t.spikes.size(), 4U);
  for (std::size_t i = 0; i < t.spikes.size(); ++i) {
    EXPECT_EQ(t.spikes[i].step, 0);
    EXPECT_EQ(t.spikes[i].neuron, static_cast<std::int32_t>(i));
  }
  // One cycle per scanned timestep plus one per serialized spike.
  EXPECT_EQ(t.encoder_cycles, 8 + 4);
}

TEST(FirePhaseEdge, EncoderCycleAccounting) {
  const Base2Kernel k{16, 4.0, 1.0};
  Rng rng{77};
  std::vector<double> vmem(200);
  for (auto& v : vmem) v = rng.uniform(-0.5, 1.5);
  const LayerEventTrace t = fire_phase(k, vmem);
  EXPECT_EQ(t.encoder_cycles,
            k.window() + static_cast<std::int64_t>(t.spikes.size()));
  // And bit-identical to the retained pre-overhaul encoder.
  const LayerEventTrace ref = reference::fire_phase(k, vmem);
  ASSERT_EQ(t.spikes.size(), ref.spikes.size());
  for (std::size_t i = 0; i < ref.spikes.size(); ++i) {
    EXPECT_EQ(t.spikes[i].neuron, ref.spikes[i].neuron);
    EXPECT_EQ(t.spikes[i].step, ref.spikes[i].step);
  }
  EXPECT_EQ(t.neuron_count, ref.neuron_count);
  EXPECT_EQ(t.encoder_cycles, ref.encoder_cycles);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(), -std::nan(""), kInf,
                             -kInf};

TEST(ThresholdLutTest, MatchesBase2FireStepEverywhere) {
  for (const double tau : {2.0, 4.0, 3.7}) {
    const Base2Kernel k{24, tau, 1.0};
    const ThresholdLut lut{k};
    ASSERT_EQ(lut.window(), k.window());
    // Exact grid points, midpoints, and the boundaries round-trip identically.
    for (int step = 0; step < k.window(); ++step) {
      EXPECT_EQ(lut.level(step), k.level(step));
      EXPECT_EQ(lut.fire_step(k.level(step)), k.fire_step(k.level(step))) << "tau " << tau;
      const double mid = k.level(step) * 1.01;
      EXPECT_EQ(lut.fire_step(mid), k.fire_step(mid));
    }
    Rng rng{static_cast<std::uint64_t>(tau * 100)};
    for (int trial = 0; trial < 2000; ++trial) {
      const double u = rng.uniform(-0.1, 1.5);
      EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "u " << u;
    }
    EXPECT_EQ(lut.fire_step(0.0), kNoSpike);
    EXPECT_EQ(lut.fire_step(k.min_level()), k.window() - 1);
    EXPECT_EQ(lut.fire_step(std::nextafter(k.min_level(), 0.0)), kNoSpike);
    // Non-finite membranes: NaN never fires, +Inf fires at once, -Inf never.
    for (const double u : kNonFinite) EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "u " << u;
    EXPECT_EQ(lut.fire_step(std::nan("")), kNoSpike);
    EXPECT_EQ(lut.fire_step(kInf), 0);
    EXPECT_EQ(lut.fire_step(-kInf), kNoSpike);
  }
}

TEST(ThresholdLutTest, MatchesBaseEFireStepEverywhere) {
  for (const double td : {0.0, 5.0}) {
    const BaseEKernel k{80, 20.0, td, 1.0};
    const ThresholdLut lut{k};
    Rng rng{static_cast<std::uint64_t>(td) + 9};
    for (int trial = 0; trial < 2000; ++trial) {
      const double u = rng.uniform(-0.1, 2.0);
      EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "td " << td << " u " << u;
    }
    for (int step = 0; step < k.window(); ++step) {
      EXPECT_EQ(lut.fire_step(k.level(step)), k.fire_step(k.level(step)));
    }
    for (const double u : kNonFinite) EXPECT_EQ(lut.fire_step(u), k.fire_step(u)) << "u " << u;
    EXPECT_EQ(k.fire_step(std::nan("")), kNoSpike);
    EXPECT_EQ(k.fire_step(kInf), 0);
  }
}

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

TEST(SimArenaTest, ReuseAcrossSamplesAndShapesIsStateless) {
  // One arena serving many samples — and then a *differently shaped* network —
  // must behave exactly like a fresh arena each time (no stale scratch).
  Rng rng{88};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({6, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({6}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({4, 6 * 5 * 5}, rng, -0.1F, 0.12F), Tensor{{4}});

  SnnNetwork tiny{Base2Kernel{24, 4.0, 1.0}};
  tiny.add_conv(random_tensor({2, 1, 3, 3}, rng, -0.2F, 0.3F), Tensor{{2}}, 1, 0);
  tiny.add_fc(random_tensor({3, 2 * 2 * 2}, rng, -0.2F, 0.25F), Tensor{{3}});

  SimArena shared;
  for (int trial = 0; trial < 4; ++trial) {
    const Tensor img = random_tensor({3, 10, 10}, rng, 0.0F, 1.0F);
    const EventTrace with_shared = run_event_sim(net, img, shared);
    const EventTrace fresh = run_event_sim(net, img);
    ASSERT_EQ(with_shared.layers.size(), fresh.layers.size());
    for (std::size_t l = 0; l < fresh.layers.size(); ++l) {
      ASSERT_EQ(with_shared.layers[l].spikes.size(), fresh.layers[l].spikes.size());
      for (std::size_t s = 0; s < fresh.layers[l].spikes.size(); ++s) {
        EXPECT_EQ(with_shared.layers[l].spikes[s].neuron, fresh.layers[l].spikes[s].neuron);
        EXPECT_EQ(with_shared.layers[l].spikes[s].step, fresh.layers[l].spikes[s].step);
      }
      EXPECT_EQ(with_shared.layers[l].integration_ops, fresh.layers[l].integration_ops);
      EXPECT_EQ(with_shared.layers[l].encoder_cycles, fresh.layers[l].encoder_cycles);
    }
    for (std::int64_t i = 0; i < fresh.logits.numel(); ++i) {
      EXPECT_EQ(with_shared.logits[i], fresh.logits[i]);
    }

    // Interleave the small net through the same (now oversized) arena.
    const Tensor small_img = random_tensor({1, 4, 4}, rng, 0.0F, 1.0F);
    const EventTrace a = run_event_sim(tiny, small_img, shared);
    const EventTrace b = run_event_sim(tiny, small_img);
    ASSERT_EQ(a.logits.numel(), b.logits.numel());
    for (std::int64_t i = 0; i < b.logits.numel(); ++i) EXPECT_EQ(a.logits[i], b.logits[i]);
  }
}

TEST(PackedWeights, RepackRebuildsAfterMutation) {
  // mutable_layers() dirties the pack; the next simulation must see the new
  // weights, not the stale repack.
  Rng rng{89};
  SnnNetwork net{Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({4, 2, 3, 3}, rng, -0.2F, 0.3F), Tensor{{4}}, 1, 1);
  net.add_fc(random_tensor({3, 4 * 6 * 6}, rng, -0.1F, 0.15F), Tensor{{3}});
  const Tensor img = random_tensor({2, 6, 6}, rng, 0.2F, 1.0F);

  const EventTrace before = run_event_sim(net, img);
  for (auto& layer : net.mutable_layers()) {
    if (auto* conv = std::get_if<SnnConv>(&layer)) {
      for (std::int64_t i = 0; i < conv->weight.numel(); ++i) conv->weight[i] *= 0.5F;
    }
  }
  const EventTrace after = run_event_sim(net, img);
  const EventTrace ref = reference::run_event_sim(net, img);
  ASSERT_EQ(after.logits.numel(), ref.logits.numel());
  bool changed = false;
  for (std::int64_t i = 0; i < ref.logits.numel(); ++i) {
    EXPECT_EQ(after.logits[i], ref.logits[i]);
    if (after.logits[i] != before.logits[i]) changed = true;
  }
  EXPECT_TRUE(changed) << "halved conv weights must change the logits";
}

}  // namespace
}  // namespace ttfs::snn

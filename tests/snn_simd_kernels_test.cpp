// Kernel-layer tests (snn/simd.h): primitive bit-identity between the SIMD
// and scalar paths across tail geometries, the aligned-buffer contract, the
// packed-row bias broadcast, cache-block tiling, and full-simulator
// conformance against the frozen reference for geometries that stress the
// lane padding — cout/out not a multiple of the vector width, stride-2 +
// padded conv taps, single-pixel layers, and empty timestep groups — and the
// log-code kernels' 8-wide add against their scalar loop and cat::LogPe. In a
// TTFS_SIMD=OFF build force_scalar() is a no-op and every case still runs:
// the suite then asserts the scalar fallback against the reference, which is
// exactly what the CI simd-off lane is for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/event_sim_reference.h"
#include "snn/kernel.h"
#include "snn/network.h"
#include "snn/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ttfs {
namespace {

namespace k = snn::kernels;

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// RAII: force the scalar path for one scope, restore on exit.
struct ScopedScalar {
  explicit ScopedScalar(bool on) { k::force_scalar(on); }
  ~ScopedScalar() { k::force_scalar(false); }
};

// RAII: shrink the accumulator cache block for one scope.
struct ScopedBlockBytes {
  explicit ScopedBlockBytes(std::int64_t bytes) { k::set_acc_block_bytes(bytes); }
  ~ScopedBlockBytes() { k::set_acc_block_bytes(0); }
};

TEST(AlignedBuffer, PlacesEveryAllocationOnACacheLine) {
  k::AlignedBuffer<float> buf;
  for (const std::int64_t n : {1, 7, 8, 63, 64, 65, 1000}) {
    float* p = buf.ensure(n);
    ASSERT_NE(p, nullptr) << "n=" << n;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % k::kAlignBytes, 0U) << "n=" << n;
    EXPECT_GE(buf.size(), n);
  }
  // Move steals the allocation.
  float* p = buf.data();
  k::AlignedBuffer<float> moved{std::move(buf)};
  EXPECT_EQ(moved.data(), p);
}

TEST(KernelDispatch, ForceScalarFlipsTheActivePath) {
  // In a SIMD build on an AVX2 machine the default path is "avx2" and
  // force_scalar(true) must demote it; in a scalar build both reads say
  // "scalar". Either way the flag round-trips.
  const bool simd_default = k::simd_active();
  EXPECT_STREQ(k::isa(), simd_default ? "avx2" : "scalar");
  {
    ScopedScalar scalar{true};
    EXPECT_FALSE(k::simd_active());
    EXPECT_STREQ(k::isa(), "scalar");
  }
  EXPECT_EQ(k::simd_active(), simd_default);
}

TEST(AxpyKernel, BitIdenticalToScalarForEveryTailAndOffset) {
  // n = 1..33 covers sub-lane, exact-lane, and every tail length around the
  // 8- and 16-float strips; offsets 0..3 de-align both operands. The kernel
  // value is a real TTFS level (a float-rounded transcendental, the operand
  // class where an FMA would diverge).
  Rng rng{900};
  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  std::vector<float> w(64), a(64), b(64);
  for (std::int64_t n = 1; n <= 33; ++n) {
    for (std::int64_t off = 0; off < 4; ++off) {
      for (float& x : w) x = rng.uniform_f(-1.0F, 1.0F);
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = b[i] = rng.uniform_f(-2.0F, 2.0F);
      const float v = static_cast<float>(kernel.level(static_cast<int>(n) % 24));
      k::axpy(a.data() + off, w.data() + off, v, n);
      k::axpy_scalar(b.data() + off, w.data() + off, v, n);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << "n=" << n << " off=" << off << " i=" << i;
      }
    }
  }
}

TEST(BroadcastRows, MatchesPerPixelLoopIncludingPadding) {
  for (const std::int64_t rows : {1, 2, 3, 7, 64}) {
    const std::int64_t cout = 13;
    const std::int64_t cstride = k::padded(cout);
    std::vector<float> acc(static_cast<std::size_t>(rows * cstride), -99.0F);
    for (std::int64_t co = 0; co < cout; ++co) acc[static_cast<std::size_t>(co)] = 0.5F * co;
    for (std::int64_t co = cout; co < cstride; ++co) acc[static_cast<std::size_t>(co)] = 0.0F;
    k::broadcast_rows(acc.data(), rows, cstride);
    for (std::int64_t p = 0; p < rows; ++p) {
      for (std::int64_t co = 0; co < cstride; ++co) {
        const float want = co < cout ? 0.5F * co : 0.0F;
        ASSERT_EQ(acc[static_cast<std::size_t>(p * cstride + co)], want)
            << "row " << p << " lane " << co;
      }
    }
  }
}

TEST(PackedLayout, PadsOutputSpansAndAlignsStorage) {
  Rng rng{901};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({13, 3, 3, 3}, rng, -0.2F, 0.2F), Tensor{{13}}, 1, 1);
  net.add_fc(random_tensor({10, 13 * 8 * 8}, rng, -0.1F, 0.1F), Tensor{{10}});
  net.ensure_packed();

  const auto& conv = std::get<snn::PackedConv>(net.packed_layers()[0]);
  EXPECT_EQ(conv.cstride, k::padded(conv.cout));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(conv.w.data()) % k::kAlignBytes, 0U);
  // Padding lanes of every slot are zero.
  for (std::int64_t slot = 0; slot < conv.cin * conv.kh * conv.kw; ++slot) {
    for (std::int64_t co = conv.cout; co < conv.cstride; ++co) {
      ASSERT_EQ(conv.w.data()[slot * conv.cstride + co], 0.0F) << "slot " << slot;
    }
  }

  const auto& fc = std::get<snn::PackedFc>(net.packed_layers()[1]);
  EXPECT_EQ(fc.ostride, k::padded(fc.out));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(fc.w.data()) % k::kAlignBytes, 0U);
  for (std::int64_t i = 0; i < fc.in; ++i) {
    for (std::int64_t j = fc.out; j < fc.ostride; ++j) {
      ASSERT_EQ(fc.w.data()[i * fc.ostride + j], 0.0F) << "column " << i;
    }
  }
}

// Asserts one trace is bit-identical to another: every spike in emission
// order, every per-layer counter and, unless `logits` is false, every logit.
void expect_traces_identical(const snn::EventTrace& got, const snn::EventTrace& want,
                             const char* what, bool logits = true) {
  ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
  for (std::size_t l = 0; l < want.layers.size(); ++l) {
    ASSERT_EQ(got.layers[l].spikes.size(), want.layers[l].spikes.size())
        << what << " layer " << l;
    for (std::size_t s = 0; s < want.layers[l].spikes.size(); ++s) {
      ASSERT_EQ(got.layers[l].spikes[s].neuron, want.layers[l].spikes[s].neuron)
          << what << " layer " << l << " spike " << s;
      ASSERT_EQ(got.layers[l].spikes[s].step, want.layers[l].spikes[s].step)
          << what << " layer " << l << " spike " << s;
    }
    EXPECT_EQ(got.layers[l].neuron_count, want.layers[l].neuron_count) << what << " layer " << l;
    EXPECT_EQ(got.layers[l].integration_ops, want.layers[l].integration_ops)
        << what << " layer " << l;
    EXPECT_EQ(got.layers[l].encoder_cycles, want.layers[l].encoder_cycles)
        << what << " layer " << l;
  }
  ASSERT_EQ(got.logits.numel(), want.logits.numel()) << what;
  if (!logits) return;
  for (std::int64_t i = 0; i < want.logits.numel(); ++i) {
    ASSERT_EQ(got.logits[i], want.logits[i]) << what << " logit " << i;
  }
}

// A stack chosen to stress the kernel layer's geometry handling: cout 13 and
// fc out 10 (not lane multiples), a stride-2 padded conv, and a conv whose
// output is a single pixel.
snn::SnnNetwork tail_geometry_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({13, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({13}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/1);
  net.add_conv(random_tensor({9, 13, 3, 3}, rng, -0.1F, 0.15F), Tensor{{9}},
               /*stride=*/2, /*pad=*/1);
  net.add_conv(random_tensor({11, 9, 5, 5}, rng, -0.1F, 0.15F),
               random_tensor({11}, rng, -0.05F, 0.1F), /*stride=*/1, /*pad=*/0);
  net.add_fc(random_tensor({10, 11 * 1 * 1}, rng, -0.2F, 0.22F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

// Runs `img` through the event sim and the frozen reference and asserts
// bit-identity, once on the dispatch-default path and once forced scalar.
void expect_matches_reference(const snn::SnnNetwork& net, const Tensor& img,
                              const char* what) {
  const snn::EventTrace ref = snn::reference::run_event_sim(net, img);
  expect_traces_identical(snn::run_event_sim(net, img), ref, what);
  ScopedScalar scalar{true};
  expect_traces_identical(snn::run_event_sim(net, img), ref, what);
}

TEST(KernelConformance, TailGeometriesMatchReferenceOnBothPaths) {
  // 3x9x9 input -> 13x9x9 -> 9x5x5 -> 11x1x1 (single pixel) -> 10.
  Rng rng{902};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  for (int trial = 0; trial < 3; ++trial) {
    const Tensor img = random_tensor({3, 9, 9}, rng, 0.0F, 1.0F);
    expect_matches_reference(net, img, "tail-geometry");
  }
}

TEST(KernelConformance, SparseAndSilentInputsMatchReference) {
  Rng rng{903};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  // Mostly-zero image: only a few neurons spike, so most timestep groups in
  // the window are empty and several layers integrate tiny spike trains.
  Tensor sparse{{3, 9, 9}};
  sparse[0] = 0.9F;
  sparse[40] = 0.3F;
  expect_matches_reference(net, sparse, "sparse-input");
  // All-zero image: the encoding window emits nothing at all; every layer
  // must integrate an empty spike train (bias-only membranes).
  const Tensor silent{{3, 9, 9}};
  expect_matches_reference(net, silent, "silent-input");
}

TEST(KernelConformance, CacheBlockTilingDoesNotChangeBits) {
  // A tiny block budget forces integrate_conv into many row blocks and
  // integrate_fc into many column blocks (64 bytes = 16 floats, smaller than
  // one padded row); results must not change by a single bit.
  Rng rng{904};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  const Tensor img = random_tensor({3, 9, 9}, rng, 0.0F, 1.0F);
  const snn::EventTrace want = snn::run_event_sim(net, img);
  ScopedBlockBytes tiny{64};
  expect_traces_identical(snn::run_event_sim(net, img), want, "tiny-block");
  expect_matches_reference(net, img, "tiny-block-vs-reference");
}

TEST(KernelConformance, BatchOfFiveMatchesReferenceOnBothPaths) {
  Rng rng{905};
  const snn::SnnNetwork net = tail_geometry_net(rng);
  const Tensor images = random_tensor({5, 3, 9, 9}, rng, 0.0F, 1.0F);
  ThreadPool pool{3};
  for (const bool scalar : {false, true}) {
    ScopedScalar guard{scalar};
    const snn::BatchEventResult batched = snn::run_event_sim_batch(net, images, &pool);
    ASSERT_EQ(batched.traces.size(), 5U);
    for (std::int64_t i = 0; i < images.dim(0); ++i) {
      const snn::EventTrace ref = snn::reference::run_event_sim(net, images.sample0(i));
      expect_traces_identical(batched.traces[static_cast<std::size_t>(i)], ref,
                              scalar ? "batch-scalar" : "batch-simd");
    }
  }
}

TEST(KernelConformance, IntraSampleSplitMatchesReference) {
  // Batch of 1 on a multi-worker pool: the session enables the arena's intra
  // pool, so large layers split disjoint output ranges across workers. A
  // 3x16x16 input through a 3x3 conv clears the split's work threshold; the
  // shrunken block budget additionally composes tiling with the split.
  Rng rng{906};
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({12, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({12}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 12 * 8 * 8}, rng, -0.05F, 0.06F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  const Tensor img = random_tensor({3, 16, 16}, rng, 0.1F, 1.0F);
  const snn::EventTrace ref = snn::reference::run_event_sim(net, img);

  ThreadPool pool{4};
  snn::SessionOptions sopts;
  sopts.pool = &pool;
  snn::InferenceSession session{net, snn::make_backend(snn::BackendKind::kEventSim),
                                std::move(sopts)};
  snn::RunOptions ropts;
  ropts.traces = true;
  const Tensor one = img.reshaped({1, 3, 16, 16});
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{256}}) {
    ScopedBlockBytes guard{block};
    for (const bool scalar : {false, true}) {
      ScopedScalar path{scalar};
      snn::RunResult run = session.run(snn::BatchView{one}, ropts);
      ASSERT_EQ(run.traces.size(), 1U);
      expect_traces_identical(run.traces[0], ref, scalar ? "intra-scalar" : "intra-simd");
    }
  }

  // The log-code policy shares the split: on a log-quantized copy of the net,
  // the split run's logits equal an inline (0-thread pool) run's bitwise —
  // each saturating int32 add happens in the same order — and its spikes,
  // ops and cycles equal the float reference's on that copy.
  snn::SnnNetwork qnet = net;
  cat::log_quantize_network(qnet, cat::LogQuantConfig{});
  const snn::EventTrace qref = snn::reference::run_event_sim(qnet, img);
  ThreadPool no_workers{0};
  snn::SessionOptions inline_opts;
  inline_opts.pool = &no_workers;
  snn::InferenceSession qinline{qnet, snn::make_backend(snn::BackendKind::kQuantized),
                                std::move(inline_opts)};
  snn::SessionOptions split_opts;
  split_opts.pool = &pool;
  snn::InferenceSession qsplit{qnet, snn::make_backend(snn::BackendKind::kQuantized),
                               std::move(split_opts)};
  for (const std::int64_t block : {std::int64_t{0}, std::int64_t{256}}) {
    ScopedBlockBytes guard{block};
    for (const bool scalar : {false, true}) {
      ScopedScalar path{scalar};
      const snn::RunResult split = qsplit.run(snn::BatchView{one}, ropts);
      const snn::RunResult inline_run = qinline.run(snn::BatchView{one}, ropts);
      ASSERT_EQ(split.traces.size(), 1U);
      ASSERT_EQ(inline_run.traces.size(), 1U);
      const char* what = scalar ? "quant-intra-scalar" : "quant-intra-simd";
      expect_traces_identical(split.traces[0], inline_run.traces[0], what);
      expect_traces_identical(split.traces[0], qref, what, /*logits=*/false);
    }
  }
}

// --- Log-code kernels: 8-wide add vs scalar loop vs cat::LogPe ---------------

// Kernel parameters for a LogPe geometry and code range, as the quantized
// backend derives them from its pack.
k::QuantKernelParams quant_params(const cat::LogPe& pe, int q_lo, int q_hi) {
  const cat::LogPeConfig& c = pe.config();
  k::QuantKernelParams qp;
  qp.lut = pe.lut().data();
  qp.frac_bits = c.frac_bits();
  qp.lut_bits = c.lut_bits;
  qp.acc_frac_bits = c.acc_frac_bits;
  qp.acc_limit = std::int64_t{1} << (c.acc_int_bits + c.acc_frac_bits);
  qp.wmul = 1 << (qp.frac_bits - c.z);
  qp.smul = 1 << (qp.frac_bits - c.p);
  qp.q_lo = q_lo;
  qp.q_hi = q_hi;
  return qp;
}

// `count` spikes over `neurons` inputs, (step, neuron)-sorted across the
// 24-step window, several per step group.
std::vector<snn::Spike> random_spike_train(Rng& rng, std::int64_t neurons, int count) {
  std::vector<snn::Spike> spikes;
  for (int i = 0; i < count; ++i) {
    spikes.push_back({static_cast<std::int32_t>(rng.uniform_int(0, neurons - 1)),
                      static_cast<int>(rng.uniform_int(0, 23))});
  }
  std::stable_sort(spikes.begin(), spikes.end(),
                   [](const snn::Spike& a, const snn::Spike& b) { return a.step < b.step; });
  return spikes;
}

// `n` sign+q codes over [q_lo, q_hi] with kQuantZeroCode interleaved at
// random; every code of the range appears at least once when n allows.
std::vector<std::int16_t> random_codes(Rng& rng, std::int64_t n, int q_lo, int q_hi) {
  std::vector<std::int16_t> codes(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const int q = i <= q_hi - q_lo ? q_lo + static_cast<int>(i)
                                   : static_cast<int>(rng.uniform_int(q_lo, q_hi));
    codes[static_cast<std::size_t>(i)] =
        rng.bernoulli(0.25) ? snn::kQuantZeroCode
                            : static_cast<std::int16_t>(q * 2 + (rng.bernoulli(0.5) ? 1 : 0));
  }
  rng.shuffle(codes);
  return codes;
}

// Register seeds: a third within 2^24 LSBs of each rail, a third anywhere.
std::vector<std::int32_t> seeded_acc(Rng& rng, std::int64_t n, std::int64_t limit) {
  std::vector<std::int32_t> acc(static_cast<std::size_t>(n));
  for (std::int32_t& a : acc) {
    const std::int64_t near = rng.uniform_int(0, std::int64_t{1} << 24);
    switch (rng.uniform_int(0, 2)) {
      case 0: a = static_cast<std::int32_t>(limit - 1 - near); break;
      case 1: a = static_cast<std::int32_t>(-limit + near); break;
      default: a = static_cast<std::int32_t>(rng.uniform_int(-limit, limit - 1)); break;
    }
  }
  return acc;
}

// One synaptic add as the PE does it: LogPe's product, saturated into the
// register range.
void pe_add(cat::LogPe& pe, std::int16_t code, int step, std::int64_t limit, std::int32_t& acc) {
  if (code == snn::kQuantZeroCode) return;
  pe.reset();
  const std::int64_t v = acc + pe.accumulate((code & 1) != 0 ? -1 : 1, code >> 1, step);
  acc = static_cast<std::int32_t>(std::clamp(v, -limit, limit - 1));
}

struct QuantRun {
  std::vector<std::int32_t> acc;
  std::int64_t ops = 0;
};

// Runs `kernel` on a copy of `seed` on the dispatch-default path and forced
// scalar; asserts the two bitwise equal and returns the default run.
template <typename Kernel>
QuantRun run_simd_and_scalar(const std::vector<std::int32_t>& seed, Kernel kernel,
                             const char* what) {
  QuantRun simd{seed, 0};
  simd.ops = kernel(simd.acc.data());
  QuantRun scalar{seed, 0};
  {
    ScopedScalar path{true};
    scalar.ops = kernel(scalar.acc.data());
  }
  EXPECT_EQ(simd.ops, scalar.ops) << what;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_EQ(simd.acc[i], scalar.acc[i]) << what << " lane " << i;
  }
  return simd;
}

// One log-code scenario: register width, code range, spike count.
struct QuantCase {
  const char* what;
  int acc_int_bits;  // with acc_frac_bits = 24
  int q_lo, q_hi;
  int spikes;
};

// 26-bit registers saturate inside int32; 31-bit registers saturate at the
// int32 rails, where the 8-wide sum wraps and must be caught. Ranges of 16
// codes take the 8-wide add, 17 the scalar fallback; q up to 16 at 31 bits
// puts products past INT32_MAX in the early step groups only, so one
// integration mixes vector and fallback groups.
const QuantCase kQuantCases[] = {
    {"w26 q[-10,0]", 2, -10, 0, 60},   {"w31 q[-10,0]", 7, -10, 0, 60},
    {"w26 16 codes", 2, -15, 0, 60},   {"w26 17 codes", 2, -16, 0, 60},
    {"w31 16 codes", 7, -15, 0, 60},   {"w31 17 codes", 7, -16, 0, 60},
    {"w31 > INT32_MAX", 7, 4, 16, 60},
};

cat::LogPe case_pe(const QuantCase& c) {
  cat::LogPeConfig cfg;  // p = 2, z = 1
  cfg.lut_bits = 24;
  cfg.acc_frac_bits = 24;
  cfg.acc_int_bits = c.acc_int_bits;
  return cat::LogPe{cfg};
}

TEST(QuantKernelSimd, FcMatchesScalarAndLogPeOnEverySpan) {
  // out = 13 in a 16-lane column: spans [0, 13) (8 vector + 5 tail lanes),
  // [0, 16) (padding included), [8, 13) (tail only) and [0, 5) (sub-lane).
  Rng rng{907};
  const std::int64_t in = 7, out = 13, ostride = k::padded(out);
  for (const QuantCase& c : kQuantCases) {
    cat::LogPe pe = case_pe(c);
    const k::QuantKernelParams qp = quant_params(pe, c.q_lo, c.q_hi);
    std::vector<std::int16_t> w = random_codes(rng, in * ostride, c.q_lo, c.q_hi);
    for (std::int64_t i = 0; i < in; ++i) {
      std::fill(w.begin() + i * ostride + out, w.begin() + (i + 1) * ostride,
                snn::kQuantZeroCode);
    }
    const std::vector<snn::Spike> spikes = random_spike_train(rng, in, c.spikes);
    const auto n = static_cast<std::int64_t>(spikes.size());
    for (const auto& [j0, j1] : {std::pair<std::int64_t, std::int64_t>{0, out},
                                 {0, ostride}, {8, out}, {0, 5}}) {
      const std::vector<std::int32_t> seed = seeded_acc(rng, ostride, qp.acc_limit);
      const QuantRun got = run_simd_and_scalar(
          seed,
          [&](std::int32_t* acc) {
            return k::integrate_fc_q(out, ostride, w.data(), spikes.data(), n, qp, acc, j0, j1);
          },
          c.what);
      std::vector<std::int32_t> want = seed;
      for (const snn::Spike& s : spikes) {
        for (std::int64_t j = j0; j < j1; ++j) {
          pe_add(pe, w[static_cast<std::size_t>(s.neuron * ostride + j)], s.step, qp.acc_limit,
                 want[static_cast<std::size_t>(j)]);
        }
      }
      EXPECT_EQ(got.ops, (std::min(j1, out) - std::min(j0, out)) * n) << c.what;
      for (std::int64_t j = 0; j < ostride; ++j) {
        ASSERT_EQ(got.acc[static_cast<std::size_t>(j)], want[static_cast<std::size_t>(j)])
            << c.what << " span [" << j0 << ", " << j1 << ") lane " << j;
      }
    }
  }
}

TEST(QuantKernelSimd, ConvMatchesScalarAndLogPe) {
  // cout 13 (two 8-lane strips, the second half padding), 3x3 taps with
  // pad 1 over a 5x5 grid: edge taps clip, interior taps land 9 times.
  Rng rng{908};
  k::ConvGeom g;
  g.cin = 3;
  g.hin = g.win = 5;
  g.cout = 13;
  g.cstride = k::padded(g.cout);
  g.kh = g.kw = 3;
  g.stride = 1;
  g.pad = 1;
  g.oh = g.ow = 5;
  const std::int64_t slots = g.cin * g.kh * g.kw;
  for (const QuantCase& c : kQuantCases) {
    cat::LogPe pe = case_pe(c);
    const k::QuantKernelParams qp = quant_params(pe, c.q_lo, c.q_hi);
    std::vector<std::int16_t> w = random_codes(rng, slots * g.cstride, c.q_lo, c.q_hi);
    for (std::int64_t slot = 0; slot < slots; ++slot) {
      std::fill(w.begin() + slot * g.cstride + g.cout, w.begin() + (slot + 1) * g.cstride,
                snn::kQuantZeroCode);
    }
    const std::vector<snn::Spike> spikes =
        random_spike_train(rng, g.cin * g.hin * g.win, c.spikes);
    const auto n = static_cast<std::int64_t>(spikes.size());
    const std::vector<std::int32_t> seed =
        seeded_acc(rng, g.oh * g.ow * g.cstride, qp.acc_limit);
    const QuantRun got = run_simd_and_scalar(
        seed,
        [&](std::int32_t* acc) {
          return k::integrate_conv_q(g, w.data(), spikes.data(), n, qp, acc, 0, g.oh);
        },
        c.what);

    std::vector<std::int32_t> want = seed;
    std::int64_t ops = 0;
    for (const snn::Spike& s : spikes) {
      const std::int64_t ci = s.neuron / (g.hin * g.win);
      const std::int64_t yi = s.neuron / g.win % g.hin;
      const std::int64_t xi = s.neuron % g.win;
      for (std::int64_t ky = 0; ky < g.kh; ++ky) {
        for (std::int64_t kx = 0; kx < g.kw; ++kx) {
          const std::int64_t yo = yi + g.pad - ky;
          const std::int64_t xo = xi + g.pad - kx;
          if (yo < 0 || yo >= g.oh || xo < 0 || xo >= g.ow) continue;
          ops += g.cout;
          for (std::int64_t co = 0; co < g.cstride; ++co) {
            pe_add(pe, w[static_cast<std::size_t>(((ci * g.kh + ky) * g.kw + kx) * g.cstride + co)],
                   s.step, qp.acc_limit,
                   want[static_cast<std::size_t>((yo * g.ow + xo) * g.cstride + co)]);
          }
        }
      }
    }
    EXPECT_EQ(got.ops, ops) << c.what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.acc[i], want[i]) << c.what << " acc " << i;
    }
  }
}

}  // namespace
}  // namespace ttfs

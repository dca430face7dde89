// Quantized integer inference path (snn/quant.h): pack construction, the
// integer kernels, and the quantized simulator's fixed-point arithmetic.
//
// The load-bearing properties, each pinned here:
//  * the pack's int16 codes are EXACTLY the codes cat::log_quantize_code
//    emits — not re-derived from the expanded floats (lossy at the clamp
//    edge) — and round-trip through cat::expand_code to the stored weights;
//  * the pack's LUT is bit-identical to cat::LogPe's, and one synaptic add
//    through integrate_fc_q equals LogPe::accumulate add-for-add, so traces
//    from the quantized kernels co-simulate against hw/processor exactly;
//  * the saturating int32 accumulator clamps to [-limit, limit - 1] like the
//    PE's Vmem register, and a product too large to shift (a 2^50 weight)
//    is capped without overflow and saturates the same way;
//  * the pack build rejects unquantized weights and non-hardware kernels
//    instead of silently packing nearest codes;
//  * the quantized pack is ~2x smaller than the float event pack under the
//    same byte accounting the model registry uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cat/logpe.h"
#include "cat/logquant.h"
#include "snn/engine.h"
#include "snn/event_sim.h"
#include "snn/network.h"
#include "snn/quant.h"
#include "snn/simd.h"
#include "util/rng.h"

namespace ttfs {
namespace {

Tensor random_tensor(std::vector<std::int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t{std::move(shape)};
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
  return t;
}

// Conv/pool/fc stack on 3x8x8 inputs, same shape family as the engine
// conformance net. theta0 = 1 and tau = 4 = 2^2 satisfy the hardware kernel
// constraints (Eq. 18) the pack build enforces.
snn::SnnNetwork make_net(Rng& rng) {
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_conv(random_tensor({8, 3, 3, 3}, rng, -0.15F, 0.25F),
               random_tensor({8}, rng, -0.05F, 0.1F), 1, 1);
  net.add_pool(2, 2);
  net.add_fc(random_tensor({10, 8 * 4 * 4}, rng, -0.1F, 0.12F),
             random_tensor({10}, rng, -0.05F, 0.05F));
  return net;
}

// Kernel parameters over a LogPe's own table and geometry, for one code range.
snn::kernels::QuantKernelParams kernel_params(const cat::LogPe& pe, int q_lo, int q_hi) {
  const cat::LogPeConfig& c = pe.config();
  snn::kernels::QuantKernelParams qp;
  qp.lut = pe.lut().data();  // the shared table, by construction
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

// Walks one weight tensor against its packed codes via an accessor
// (tensor index -> packed int16), asserting the pack stores exactly the code
// the quantizer emits for the ORIGINAL weight — the property that breaks if
// the pack re-derives q from the expanded float at the clamp edge.
template <typename CodeAt>
void expect_codes_match(const Tensor& original, const Tensor& quantized, int q_max,
                        const cat::LogQuantConfig& qconfig, CodeAt code_at,
                        const std::string& what) {
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    const cat::LogQuantCode code = cat::log_quantize_code(original[i], q_max, qconfig);
    const std::int16_t packed = code_at(i);
    if (code.zero) {
      EXPECT_EQ(packed, snn::kQuantZeroCode) << what << " weight " << i;
      EXPECT_EQ(quantized[i], 0.0F) << what << " weight " << i;
    } else {
      const std::int16_t want =
          static_cast<std::int16_t>(code.q * 2 + (code.sign < 0 ? 1 : 0));
      EXPECT_EQ(packed, want) << what << " weight " << i;
      // Decode the packed lane back to (sign, q) and expand: must hit the
      // quantized tensor's float exactly (the round-trip property).
      cat::LogQuantCode back;
      back.zero = false;
      back.q = packed >> 1;  // arithmetic shift recovers q for either sign
      back.sign = (packed & 1) != 0 ? -1 : 1;
      EXPECT_EQ(static_cast<float>(cat::expand_code(back, qconfig)), quantized[i])
          << what << " weight " << i;
    }
  }
}

// The pack stores the quantizer's exact code stream, per layer, for both
// layouts (conv slot-major, fc column-major).
TEST(QuantizedWeightPack, PackCodesAreExactlyTheQuantizerCodes) {
  Rng rng{2024};
  snn::SnnNetwork net = make_net(rng);
  const snn::SnnNetwork original = net;  // pre-quantization copy

  cat::LogQuantConfig qconfig;  // bits = 5, z = 1
  const std::vector<cat::LayerQuantInfo> infos = cat::log_quantize_network(net, qconfig);

  snn::QuantPackConfig pconfig;  // z = 1 matches the quantizer
  const snn::QuantizedWeightPack pack = snn::build_quantized_pack(net, pconfig);
  ASSERT_EQ(pack.layers.size(), net.layers().size());

  std::size_t info_idx = 0;
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    if (const auto* conv = std::get_if<snn::SnnConv>(&net.layers()[li])) {
      const auto& orig = std::get<snn::SnnConv>(original.layers()[li]);
      const auto& qc = std::get<snn::QuantizedConv>(pack.layers[li]);
      const int q_max = infos[info_idx++].q_max;
      const std::int64_t slots = qc.cin * qc.kh * qc.kw;
      // Tensor index (co, ci, ky, kx) row-major -> pack lane slot*cstride+co.
      expect_codes_match(orig.weight, conv->weight, q_max, qconfig,
                         [&](std::int64_t i) {
                           const std::int64_t co = i / slots;
                           const std::int64_t slot = i % slots;
                           return qc.w.data()[slot * qc.cstride + co];
                         },
                         "conv layer " + std::to_string(li));
    } else if (const auto* fc = std::get_if<snn::SnnFc>(&net.layers()[li])) {
      const auto& orig = std::get<snn::SnnFc>(original.layers()[li]);
      const auto& qf = std::get<snn::QuantizedFc>(pack.layers[li]);
      const int q_max = infos[info_idx++].q_max;
      expect_codes_match(orig.weight, fc->weight, q_max, qconfig,
                         [&](std::int64_t i) {
                           const std::int64_t j = i / qf.in;
                           const std::int64_t col = i % qf.in;
                           return qf.w.data()[col * qf.ostride + j];
                         },
                         "fc layer " + std::to_string(li));
    }
  }
}

// The pack's LUT must be bit-identical to LogPe's for the same geometry —
// this is the shared table that makes kernel products equal PE products.
TEST(QuantizedWeightPack, LutIsBitIdenticalToLogPe) {
  Rng rng{7};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});
  snn::QuantPackConfig pconfig;
  const snn::QuantizedWeightPack pack = snn::build_quantized_pack(net, pconfig);

  cat::LogPeConfig pe_config;
  pe_config.p = pack.p;
  pe_config.z = pconfig.z;
  pe_config.lut_bits = pconfig.lut_bits;
  pe_config.acc_frac_bits = pconfig.acc_frac_bits;
  pe_config.acc_int_bits = pconfig.acc_int_bits;
  const cat::LogPe pe{pe_config};
  ASSERT_EQ(pack.lut.size(), pe.lut().size());
  for (std::size_t i = 0; i < pack.lut.size(); ++i) {
    EXPECT_EQ(pack.lut[i], pe.lut()[i]) << "LUT entry " << i;
  }
  EXPECT_EQ(pack.frac_bits(), pe_config.frac_bits());
}

// One synaptic add through the integer FC kernel equals LogPe::accumulate
// add-for-add, across the full (sign, q, step) grid: the conformance that
// lets quantized traces co-simulate against hw/processor with no drift.
TEST(QuantKernels, IntegrateFcMatchesLogPeAccumulateAddForAdd) {
  cat::LogPeConfig pe_config;  // p = 2, z = 1
  pe_config.lut_bits = 24;
  pe_config.acc_frac_bits = 24;
  pe_config.acc_int_bits = 7;
  cat::LogPe pe{pe_config};

  const std::int64_t ostride = snn::kernels::kLaneFloats;
  for (int q = -12; q <= 12; ++q) {
    const snn::kernels::QuantKernelParams qp = kernel_params(pe, q, q);
    for (const int sign : {1, -1}) {
      std::int16_t codes[8];
      std::fill(codes, codes + 8, snn::kQuantZeroCode);
      codes[0] = static_cast<std::int16_t>(q * 2 + (sign < 0 ? 1 : 0));
      for (const int step : {0, 1, 5, 11, 23}) {
        std::int32_t acc[8] = {0};
        const snn::Spike spike{0, step};
        const std::int64_t ops = snn::kernels::integrate_fc_q(
            /*out=*/1, ostride, codes, &spike, 1, qp, acc, 0, ostride);
        EXPECT_EQ(ops, 1) << "q=" << q << " step=" << step;

        pe.reset();
        const std::int64_t add = pe.accumulate(sign, q, step);
        // Single add, no saturation at this config: the kernel's int32
        // accumulator must hold exactly the PE's added LSBs.
        EXPECT_EQ(static_cast<std::int64_t>(acc[0]), add)
            << "sign=" << sign << " q=" << q << " step=" << step;
        EXPECT_EQ(std::ldexp(static_cast<double>(acc[0]), -qp.acc_frac_bits), pe.membrane())
            << "sign=" << sign << " q=" << q << " step=" << step;
        // Zero lanes stay untouched.
        for (int lane = 1; lane < 8; ++lane) EXPECT_EQ(acc[lane], 0);
      }
    }
  }
}

// The kernel accumulator saturates to the two's-complement register range
// [-limit, limit - 1], matching LogPe's post-fix clamp on both rails.
TEST(QuantKernels, AccumulatorSaturatesToRegisterRange) {
  cat::LogPeConfig pe_config;
  pe_config.lut_bits = 24;
  pe_config.acc_frac_bits = 24;
  pe_config.acc_int_bits = 2;  // limit = 2^26 LSBs = 4.0: easy to overflow
  cat::LogPe pe{pe_config};

  const snn::kernels::QuantKernelParams qp =
      kernel_params(pe, 4, 4);  // q = 4, z = 1 -> weight 2^2 = 4.0

  for (const int sign : {1, -1}) {
    std::int16_t codes[8];
    std::fill(codes, codes + 8, snn::kQuantZeroCode);
    codes[0] = static_cast<std::int16_t>(4 * 2 + (sign < 0 ? 1 : 0));
    // Two spikes at step 0: each adds sign * 4.0, so the second add pushes
    // past the +-4.0 register and must clamp, exactly like the PE.
    const snn::Spike spikes[2] = {{0, 0}, {0, 0}};
    std::int32_t acc[8] = {0};
    (void)snn::kernels::integrate_fc_q(1, 8, codes, spikes, 2, qp, acc, 0, 8);

    pe.reset();
    pe.accumulate(sign, 4, 0);
    pe.accumulate(sign, 4, 0);
    EXPECT_EQ(std::ldexp(static_cast<double>(acc[0]), -qp.acc_frac_bits), pe.membrane())
        << "sign=" << sign;
    if (sign > 0) {
      EXPECT_EQ(static_cast<std::int64_t>(acc[0]), qp.acc_limit - 1);
    } else {
      EXPECT_EQ(static_cast<std::int64_t>(acc[0]), -qp.acc_limit);
    }
  }
}

// A weight of exactly 2^50 (z = 1, q = 100) asks the barrel shifter for a
// 50-place shift of a 2^24-scale LUT entry, far past int64. Both the kernel
// and LogPe cap the product at 2 * limit - 1 before shifting — an add that
// already lands any register value on the rail the exact product would — so
// they agree add for add, and the run is clean under -fsanitize=undefined
// (which checks shifts). The same weight through a packed net saturates the
// logits instead of wrapping.
TEST(QuantKernels, HugeWeightCapsTheShiftAndSaturates) {
  cat::LogPeConfig pe_config;  // p = 2, z = 1; register geometry = pack defaults
  const snn::QuantPackConfig pack_defaults;
  pe_config.lut_bits = pack_defaults.lut_bits;
  pe_config.acc_frac_bits = pack_defaults.acc_frac_bits;
  pe_config.acc_int_bits = pack_defaults.acc_int_bits;
  cat::LogPe pe{pe_config};

  const int q = 100;  // |w| = 2^(100 / 2) = 2^50
  const snn::kernels::QuantKernelParams qp = kernel_params(pe, q, q);

  for (const int sign : {1, -1}) {
    std::int16_t codes[8];
    std::fill(codes, codes + 8, snn::kQuantZeroCode);
    codes[0] = static_cast<std::int16_t>(q * 2 + (sign < 0 ? 1 : 0));
    for (const int step : {0, 1, 23}) {
      std::int32_t acc[8] = {0};
      const snn::Spike spike{0, step};
      (void)snn::kernels::integrate_fc_q(1, 8, codes, &spike, 1, qp, acc, 0, 8);

      pe.reset();
      const std::int64_t add = pe.accumulate(sign, q, step);
      EXPECT_EQ(add, sign * (2 * qp.acc_limit - 1)) << "sign=" << sign << " step=" << step;
      EXPECT_EQ(static_cast<std::int64_t>(acc[0]), sign > 0 ? qp.acc_limit - 1 : -qp.acc_limit)
          << "sign=" << sign << " step=" << step;
      EXPECT_EQ(std::ldexp(static_cast<double>(acc[0]), -qp.acc_frac_bits), pe.membrane())
          << "sign=" << sign << " step=" << step;
    }
  }

  // Packed through the quantized backend: one input, outputs +2^50 and -2^50.
  snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
  net.add_fc(Tensor{{2, 1}, std::vector<float>{std::ldexp(1.0F, 50), -std::ldexp(1.0F, 50)}},
             Tensor{{2}});
  net.ensure_quantized(pack_defaults);
  const Tensor img{{1, 1, 1}, std::vector<float>{1.0F}};
  snn::SimArena arena;
  const snn::EventTrace trace =
      snn::detail::run_quantized_event_sim_span(net, img.data(), 1, 1, 1, arena);
  ASSERT_EQ(trace.logits.numel(), 2);
  EXPECT_EQ(trace.logits[0], static_cast<float>(std::ldexp(static_cast<double>(qp.acc_limit - 1),
                                                           -qp.acc_frac_bits)));
  EXPECT_EQ(trace.logits[1],
            static_cast<float>(std::ldexp(static_cast<double>(-qp.acc_limit), -qp.acc_frac_bits)));
}

// Unquantized weights must be rejected with a pointer at the quantizer, not
// silently snapped to the nearest code.
TEST(QuantizedWeightPack, RejectsUnquantizedNetwork) {
  Rng rng{11};
  const snn::SnnNetwork net = make_net(rng);  // raw random weights
  EXPECT_THROW((void)snn::build_quantized_pack(net, snn::QuantPackConfig{}),
               std::invalid_argument);
}

// The hardware kernel constraints (Eq. 18) gate the build.
TEST(QuantizedWeightPack, RejectsNonHardwareKernels) {
  const Tensor w{{1, 1}, std::vector<float>{1.0F}};  // exactly on the grid
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 3.0, 1.0}};  // tau not a power of 2
    net.add_fc(w, Tensor{{1}});
    EXPECT_THROW((void)snn::build_quantized_pack(net, snn::QuantPackConfig{}),
                 std::invalid_argument);
  }
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.5}};  // theta0 != 1
    net.add_fc(w, Tensor{{1}});
    EXPECT_THROW((void)snn::build_quantized_pack(net, snn::QuantPackConfig{}),
                 std::invalid_argument);
  }
  {
    snn::SnnNetwork net{snn::Base2Kernel{24, 4.0, 1.0}};
    net.add_fc(w, Tensor{{1}});
    snn::QuantPackConfig bad;
    bad.acc_int_bits = 10;
    bad.acc_frac_bits = 24;  // 34 > 31: does not fit the int32 register
    EXPECT_THROW((void)snn::build_quantized_pack(net, bad), std::invalid_argument);
  }
}

// Registry-accounting footprint: the quantized pack (int16 codes + int32
// bias registers + the shared LUT) must come in at <= 0.6x the float event
// pack for the conformance-net shape family.
TEST(QuantizedWeightPack, PackBytesAreAtMost60PercentOfFloatPack) {
  Rng rng{99};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});

  net.ensure_packed();
  net.ensure_quantized(snn::QuantPackConfig{});
  const std::size_t float_bytes = net.packed_bytes();
  const std::size_t quant_bytes = net.quantized_bytes();
  ASSERT_GT(float_bytes, 0U);
  ASSERT_GT(quant_bytes, 0U);
  EXPECT_LE(static_cast<double>(quant_bytes), 0.6 * static_cast<double>(float_bytes))
      << "quantized " << quant_bytes << " bytes vs float " << float_bytes;
}

// ensure/release lifecycle: release drops the bytes to zero, ensure rebuilds
// bit-identically, and a config change rebuilds for the new geometry.
TEST(QuantizedWeightPack, EnsureReleaseRebuildLifecycle) {
  Rng rng{42};
  snn::SnnNetwork net = make_net(rng);
  cat::log_quantize_network(net, cat::LogQuantConfig{});

  snn::QuantPackConfig a;
  net.ensure_quantized(a);
  const std::size_t bytes_a = net.quantized_bytes();
  ASSERT_GT(bytes_a, 0U);

  net.release_quantized();
  EXPECT_EQ(net.quantized_bytes(), 0U);
  EXPECT_THROW((void)net.quantized_pack(), std::invalid_argument);

  net.ensure_quantized(a);
  EXPECT_EQ(net.quantized_bytes(), bytes_a);

  snn::QuantPackConfig b = a;
  b.acc_int_bits = 5;
  b.acc_frac_bits = 20;
  net.ensure_quantized(b);  // config change forces a rebuild
  EXPECT_TRUE(net.quantized_pack().config == b);

  // The simulator end-to-end still runs after the lifecycle churn.
  Rng img_rng{5};
  const Tensor img = random_tensor({3, 8, 8}, img_rng, 0.0F, 1.0F);
  snn::SimArena arena;
  const snn::EventTrace trace =
      snn::detail::run_quantized_event_sim_span(net, img.data(), 3, 8, 8, arena);
  EXPECT_EQ(trace.logits.numel(), 10);
}

}  // namespace
}  // namespace ttfs

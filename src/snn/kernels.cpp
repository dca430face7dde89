// Tuned implementations of the event simulator's hot loops (see simd.h for
// the layout/bit-exactness contract). This is the only translation unit
// compiled with vector ISA flags (-mavx2 -mfma when TTFS_SIMD=ON on x86-64)
// and it is compiled with -ffp-contract=off in every configuration: each
// element update is exactly `acc[i] = acc[i] + (w[i] * v)` — two
// correctly-rounded IEEE ops, never a fused one — so the AVX2 lanes, the
// scalar tail, the scalar fallback build and the frozen reference simulator
// all produce the same bits.
#include "snn/simd.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "snn/event_sim.h"
#include "snn/kernel.h"

#if defined(TTFS_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ttfs::snn::kernels {

namespace {

constexpr std::int64_t kDefaultAccBlockBytes = 128 * 1024;

std::atomic<bool> g_force_scalar{false};
std::atomic<std::int64_t> g_acc_block_bytes{kDefaultAccBlockBytes};

// The one per-element semantic, shared by every path.
inline void axpy_elems(float* acc, const float* w, float v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += w[i] * v;
}

#if defined(TTFS_SIMD_AVX2)
// 8-wide mul+add (deliberately not vfmadd: see simd.h). Unaligned loads are
// penalty-free on actually-aligned addresses, and callers inside the
// simulator always hand 64-byte-aligned, lane-padded spans — the tail loop
// only runs for ad-hoc callers (tests, benches).
inline void axpy_avx2(float* acc, const float* w, float v, std::int64_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 p0 = _mm256_mul_ps(_mm256_loadu_ps(w + i), vv);
    const __m256 p1 = _mm256_mul_ps(_mm256_loadu_ps(w + i + 8), vv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), p0));
    _mm256_storeu_ps(acc + i + 8, _mm256_add_ps(_mm256_loadu_ps(acc + i + 8), p1));
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 p = _mm256_mul_ps(_mm256_loadu_ps(w + i), vv);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), p));
  }
  axpy_elems(acc + i, w + i, v, n - i);
}
#endif

// Compile-time-selected tap update for the integration loops: one branch per
// integrate_* call picks the instantiation, not one per tap.
template <bool Simd>
inline void tap_axpy(float* acc, const float* w, float v, std::int64_t n) {
#if defined(TTFS_SIMD_AVX2)
  if constexpr (Simd) {
    axpy_avx2(acc, w, v, n);
    return;
  }
#endif
  axpy_elems(acc, w, v, n);
}

// --- Quantized (fixed-point) synaptic product ---------------------------------
//
// One synaptic product in accumulator LSBs: the LogPe datapath (exponent add,
// 2^f-entry LUT read, barrel shift with round-to-nearest) for weight code q
// and a spike at `step`. Mirrors cat::LogPe::accumulate exactly — asserted
// add-for-add in tests/snn_quant_test.cpp — so traces from these kernels
// co-simulate against hw/processor with no drift.
inline std::int64_t quant_product(const QuantKernelParams& qp, int q, int step) {
  const std::int32_t code = static_cast<std::int32_t>(q) * qp.wmul -
                            static_cast<std::int32_t>(step) * qp.smul;
  const std::int32_t mask = (1 << qp.frac_bits) - 1;
  const std::int32_t int_part = code >> qp.frac_bits;  // floor division
  const std::int64_t lut_value = qp.lut[static_cast<std::size_t>(code & mask)];
  const int shift = int_part + qp.acc_frac_bits - qp.lut_bits;
  if (shift >= 0) return lut_value << shift;
  if (-shift < 63) {
    // Round-to-nearest on the right shift (the hardware adds the dropped MSB).
    return (lut_value + (std::int64_t{1} << (-shift - 1))) >> -shift;
  }
  return 0;
}

// Signed saturating add into the int32 membrane register: clamp to the
// two's-complement range [-limit, limit - 1], like LogPe's Vmem model.
inline void quant_add(std::int32_t& acc, std::int64_t add, std::int64_t limit) {
  std::int64_t v = static_cast<std::int64_t>(acc) + add;
  if (v > limit - 1) v = limit - 1;
  if (v < -limit) v = -limit;
  acc = static_cast<std::int32_t>(v);
}

// --- Accumulator policies ------------------------------------------------------
//
// The two layer traversals below are written once and templated on a policy
// that names the weight and register types and supplies the only per-synapse
// difference between float and log-code arithmetic (Eq. 17):
//   step_prepare(step) — once per timestep group, like the hardware presenting
//                        one threshold per cycle;
//   span_add(acc, w, n) — one tap's weight span into one accumulator span.

// Float membranes: acc[i] += w[i] * level(step), AVX2 or scalar.
template <bool Simd>
struct FloatTaps {
  using Weight = float;
  using Acc = float;

  explicit FloatTaps(const ThresholdLut& l) : lut{l} {}
  void step_prepare(int step) { value = static_cast<float>(lut.level(step)); }
  void span_add(float* acc, const float* w, std::int64_t n) const {
    tap_axpy<Simd>(acc, w, value, n);
  }

  const ThresholdLut& lut;
  float value = 0.0F;
};

// Log-code membranes: each add is the LogPe product into a saturating int32.
struct LogCodeTaps {
  using Weight = std::int16_t;
  using Acc = std::int32_t;

  explicit LogCodeTaps(const QuantKernelParams& p) : qp{p} {}
  // One product per distinct weight code per timestep group, so the inner
  // loop runs pure table-indexed adds. Bounded at kMaxQuantCodes (simd.h);
  // the pack build caps the range.
  void step_prepare(int step) {
    for (int q = qp.q_lo; q <= qp.q_hi; ++q) table[q - qp.q_lo] = quant_product(qp, q, step);
  }
  // Codes are sign+q pairs (code = q*2 + negbit); kQuantZeroCode lanes (zero
  // weights, padding) contribute nothing, like the float pack's 0.0 weights.
  // q_lo and the limit are read into locals once: an int32 store into acc
  // may alias the int fields of qp, so reading them in the loop would
  // reload them after every add.
  void span_add(std::int32_t* acc, const std::int16_t* codes, std::int64_t n) const {
    const int q_lo = qp.q_lo;
    const std::int64_t limit = qp.acc_limit;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int16_t c = codes[i];
      if (c == kQuantZeroCode) continue;
      const std::int64_t add = table[(c >> 1) - q_lo];  // arithmetic shift: q
      quant_add(acc[i], (c & 1) != 0 ? -add : add, limit);
    }
  }

  const QuantKernelParams& qp;
  std::int64_t table[kMaxQuantCodes];
};

// --- Layer traversals ----------------------------------------------------------

template <typename Taps>
std::int64_t integrate_conv_impl(const ConvGeom& g, const typename Taps::Weight* w,
                                 const Spike* spikes, std::int64_t nspikes, Taps taps,
                                 typename Taps::Acc* acc, std::int64_t yo0, std::int64_t yo1) {
  // Cache blocking: tile [yo0, yo1) into row blocks whose accumulator spans
  // fit acc_block_bytes(), block outermost — each tile's rows are touched by
  // every timestep group while resident instead of the whole accumulator
  // streaming through cache once per group. Per-accumulator add order is
  // untouched (a (yo, xo) row lives in exactly one block and sees the spike
  // train in its original order), which also keeps saturating adds exact.
  const std::int64_t row_bytes =
      g.ow * g.cstride * static_cast<std::int64_t>(sizeof(typename Taps::Acc));
  std::int64_t block_rows = yo1 - yo0;
  if (row_bytes > 0) {
    const std::int64_t budget = acc_block_bytes() / row_bytes;
    block_rows = std::max<std::int64_t>(1, std::min(block_rows, budget));
  }

  const std::int64_t plane = g.hin * g.win;
  std::int64_t ops = 0;
  for (std::int64_t b0 = yo0; b0 < yo1; b0 += block_rows) {
    const std::int64_t b1 = std::min(yo1, b0 + block_rows);
    for (std::int64_t si = 0; si < nspikes;) {
      const int step = spikes[si].step;
      std::int64_t se = si;
      while (se < nspikes && spikes[se].step == step) ++se;
      taps.step_prepare(step);
      for (std::int64_t s = si; s < se; ++s) {
        const std::int64_t neuron = spikes[s].neuron;
        const std::int64_t ci = neuron / plane;
        const std::int64_t yi = (neuron / g.win) % g.hin;
        const std::int64_t xi = neuron % g.win;
        const typename Taps::Weight* wslots = w + ci * g.kh * g.kw * g.cstride;
        for (std::int64_t ky = 0; ky < g.kh; ++ky) {
          const std::int64_t ynum = yi + g.pad - ky;
          if (ynum < 0 || ynum % g.stride != 0) continue;
          const std::int64_t yo = ynum / g.stride;
          if (yo < b0 || yo >= b1) continue;
          for (std::int64_t kx = 0; kx < g.kw; ++kx) {
            const std::int64_t xnum = xi + g.pad - kx;
            if (xnum < 0 || xnum % g.stride != 0) continue;
            const std::int64_t xo = xnum / g.stride;
            if (xo >= g.ow) continue;
            taps.span_add(acc + (yo * g.ow + xo) * g.cstride,
                          wslots + (ky * g.kw + kx) * g.cstride, g.cstride);
            ops += g.cout;  // padding lanes do not count as work
          }
        }
      }
      si = se;
    }
  }
  return ops;
}

template <typename Taps>
std::int64_t integrate_fc_impl(std::int64_t out, std::int64_t ostride,
                               const typename Taps::Weight* w, const Spike* spikes,
                               std::int64_t nspikes, Taps taps, typename Taps::Acc* acc,
                               std::int64_t j0, std::int64_t j1) {
  // Column blocks sized to acc_block_bytes(), rounded to whole lanes so
  // every inner span stays lane-aligned.
  std::int64_t block = acc_block_bytes() / static_cast<std::int64_t>(sizeof(typename Taps::Acc)) /
                       kLaneFloats * kLaneFloats;
  block = std::max(block, kLaneFloats);

  std::int64_t ops = 0;
  for (std::int64_t b0 = j0; b0 < j1; b0 += block) {
    const std::int64_t b1 = std::min(j1, b0 + block);
    // Real (unpadded) columns in this block: what the op counter owes.
    const std::int64_t real = std::max<std::int64_t>(
        0, std::min(b1, out) - std::min(b0, out));
    for (std::int64_t si = 0; si < nspikes;) {
      const int step = spikes[si].step;
      std::int64_t se = si;
      while (se < nspikes && spikes[se].step == step) ++se;
      taps.step_prepare(step);
      for (std::int64_t s = si; s < se; ++s) {
        const typename Taps::Weight* col =
            w + static_cast<std::int64_t>(spikes[s].neuron) * ostride;
        taps.span_add(acc + b0, col + b0, b1 - b0);
      }
      si = se;
    }
    ops += real * nspikes;
  }
  return ops;
}

}  // namespace

bool simd_active() {
#if defined(TTFS_SIMD_AVX2)
  static const bool cpu_ok = __builtin_cpu_supports("avx2") != 0;
  return cpu_ok && !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

const char* isa() { return simd_active() ? "avx2" : "scalar"; }

void force_scalar(bool on) { g_force_scalar.store(on, std::memory_order_relaxed); }

std::int64_t acc_block_bytes() { return g_acc_block_bytes.load(std::memory_order_relaxed); }

void set_acc_block_bytes(std::int64_t bytes) {
  g_acc_block_bytes.store(bytes > 0 ? bytes : kDefaultAccBlockBytes,
                          std::memory_order_relaxed);
}

void axpy(float* acc, const float* w, float v, std::int64_t n) {
#if defined(TTFS_SIMD_AVX2)
  if (simd_active()) {
    axpy_avx2(acc, w, v, n);
    return;
  }
#endif
  axpy_elems(acc, w, v, n);
}

void axpy_scalar(float* acc, const float* w, float v, std::int64_t n) {
  axpy_elems(acc, w, v, n);
}

template <typename T>
void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride) {
  // Doubling copy: row 0 -> row 1, rows [0,2) -> [2,4), ... O(log rows)
  // memcpys instead of a per-pixel scalar loop.
  std::int64_t filled = 1;
  while (filled < rows) {
    const std::int64_t count = std::min(filled, rows - filled);
    std::memcpy(acc + filled * stride, acc, static_cast<std::size_t>(count * stride) * sizeof(T));
    filled += count;
  }
}
template void broadcast_rows(float*, std::int64_t, std::int64_t);
template void broadcast_rows(std::int32_t*, std::int64_t, std::int64_t);

std::int64_t integrate_conv(const ConvGeom& g, const float* w, const Spike* spikes,
                            std::int64_t nspikes, const ThresholdLut& lut, float* acc,
                            std::int64_t yo0, std::int64_t yo1) {
  if (simd_active()) {
    return integrate_conv_impl(g, w, spikes, nspikes, FloatTaps<true>{lut}, acc, yo0, yo1);
  }
  return integrate_conv_impl(g, w, spikes, nspikes, FloatTaps<false>{lut}, acc, yo0, yo1);
}

std::int64_t integrate_fc(std::int64_t out, std::int64_t ostride, const float* w,
                          const Spike* spikes, std::int64_t nspikes, const ThresholdLut& lut,
                          float* acc, std::int64_t j0, std::int64_t j1) {
  if (simd_active()) {
    return integrate_fc_impl(out, ostride, w, spikes, nspikes, FloatTaps<true>{lut}, acc, j0, j1);
  }
  return integrate_fc_impl(out, ostride, w, spikes, nspikes, FloatTaps<false>{lut}, acc, j0, j1);
}

std::int64_t integrate_conv_q(const ConvGeom& g, const std::int16_t* w, const Spike* spikes,
                              std::int64_t nspikes, const QuantKernelParams& qp,
                              std::int32_t* acc, std::int64_t yo0, std::int64_t yo1) {
  return integrate_conv_impl(g, w, spikes, nspikes, LogCodeTaps{qp}, acc, yo0, yo1);
}

std::int64_t integrate_fc_q(std::int64_t out, std::int64_t ostride, const std::int16_t* w,
                            const Spike* spikes, std::int64_t nspikes,
                            const QuantKernelParams& qp, std::int32_t* acc, std::int64_t j0,
                            std::int64_t j1) {
  return integrate_fc_impl(out, ostride, w, spikes, nspikes, LogCodeTaps{qp}, acc, j0, j1);
}

}  // namespace ttfs::snn::kernels

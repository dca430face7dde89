// Kernel layer for the event simulator's hot loops: layout contract + API.
//
// The event path's integration cost is dominated by two contiguous
// vector-adds (the PR 2 repack set them up): the conv tap update
// `acc[co] += w[co] * value` over cout output channels per (ky, kx) tap, and
// the FC column add over `out` rows per spike. This header is the contract
// between the simulator and their tuned implementations in kernels.cpp:
//
//  * Padding — every output-contiguous span (a conv pack's cout row, an FC
//    pack's column, and the matching accumulator rows) is padded to a
//    multiple of kLaneFloats (8 floats = one AVX2 register). Padding weights
//    are 0 and padding accumulator lanes start at 0, so the vector kernels
//    run with no tail loop and the padding lanes only ever accumulate
//    0 * value; they are never read. `padded()` is the one rounding rule —
//    the pack (network.h), the arena (event_sim.h) and the kernels all agree
//    through it, in SIMD and scalar builds alike.
//  * Alignment — AlignedBuffer places every pack and every SimArena chunk on
//    a kAlignBytes (64-byte, one cache line) boundary with the allocation
//    size rounded up to a whole line, so accumulator rows neither split
//    cache lines nor false-share across worker arenas.
//  * Bit-exactness — the SIMD and scalar paths are bit-identical by
//    construction: both perform exactly `acc[i] = acc[i] + (w[i] * v)` per
//    element with no fused contraction (kernels.cpp is compiled with
//    -ffp-contract=off in every configuration; the kernel levels `v` are
//    float-rounded transcendentals, NOT powers of two, so an FMA would
//    round differently than mul-then-add and diverge from the frozen
//    reference simulator). Cache blocking and the spike-parallel split
//    partition *disjoint output tiles* — per-accumulator contribution order
//    stays exactly the reference's (step, neuron) spike order — instead of
//    splitting sums into partial tiles, which could not be reduced
//    bit-identically in float. Only the integer op counters are reduced.
//
// Dispatch model: `TTFS_SIMD=ON` (the default) compiles kernels.cpp with
// -mavx2 -mfma on x86-64 gcc/clang; `TTFS_SIMD=OFF` builds the scalar
// fallback only — the CI `simd-off` lane proves that build bit-identical to
// the reference simulator on runners without AVX2. A SIMD build additionally
// checks AVX2 support once at runtime (__builtin_cpu_supports) and falls
// back to scalar on machines without it, so one binary is safe everywhere.
// force_scalar() lets tests exercise both paths in a single SIMD build.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <utility>

namespace ttfs::snn {

struct Spike;        // event_sim.h
class ThresholdLut;  // kernel.h

namespace kernels {

// One cache line; every AlignedBuffer allocation starts and ends on one.
inline constexpr std::int64_t kAlignBytes = 64;
// One AVX2 register of floats; the padding quantum for output spans.
inline constexpr std::int64_t kLaneFloats = 8;

// The single rounding rule for padded output spans (conv cout rows, FC
// columns, accumulator rows). Identical in SIMD and scalar builds so pack
// layout and arena sizing never depend on the configured ISA.
constexpr std::int64_t padded(std::int64_t n) {
  return (n + kLaneFloats - 1) / kLaneFloats * kLaneFloats;
}

// Grow-only 64-byte-aligned storage for packs and arena scratch. Growing
// discards contents (scratch semantics — callers rewrite what they read);
// never copies. Move-only.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_{other.data_}, size_{other.size_}, cap_{other.cap_} {
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = other.data_;
      size_ = other.size_;
      cap_ = other.cap_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.cap_ = 0;
    }
    return *this;
  }
  ~AlignedBuffer() { std::free(data_); }

  // Returns a span of at least n elements, 64-byte aligned. Existing
  // contents are discarded when growth is needed (and unspecified anyway).
  T* ensure(std::int64_t n) {
    if (n > cap_) {
      std::free(data_);
      // aligned_alloc requires the size to be a multiple of the alignment.
      const std::size_t bytes =
          (static_cast<std::size_t>(n) * sizeof(T) + kAlignBytes - 1) /
          kAlignBytes * kAlignBytes;
      data_ = static_cast<T*>(std::aligned_alloc(kAlignBytes, bytes));
      cap_ = static_cast<std::int64_t>(bytes / sizeof(T));
    }
    if (n > size_) size_ = n;
    return data_;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  // High-water element count (what ensure() has been asked for).
  std::int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  T* data_ = nullptr;
  std::int64_t size_ = 0;
  std::int64_t cap_ = 0;
};

// --- Dispatch introspection -------------------------------------------------

// True when the vector path will actually run: compiled with TTFS_SIMD, CPU
// supports AVX2, and force_scalar(true) is not in effect.
bool simd_active();
// "avx2" or "scalar" — what axpy()/integrate_*() will execute right now.
const char* isa();
// Test hook: force the scalar fallback at runtime so one SIMD build can
// assert SIMD/scalar bit-identity directly. Thread-safe flips; not meant to
// race against in-flight kernels.
void force_scalar(bool on);

// Accumulator cache-block size in bytes (default 128 KiB): integration tiles
// the output so one tile's accumulator rows stay resident in L2 while every
// timestep group streams over it. Exposed for tests/benches to force
// multi-block execution on small layers; set 0 to restore the default.
std::int64_t acc_block_bytes();
void set_acc_block_bytes(std::int64_t bytes);

// --- Primitive kernels ------------------------------------------------------

// acc[i] += w[i] * v for i in [0, n): the membrane vector-add. Dispatches to
// AVX2 when active; bit-identical to axpy_scalar for any operands.
void axpy(float* acc, const float* w, float v, std::int64_t n);
// The guaranteed-scalar implementation (the reference semantics).
void axpy_scalar(float* acc, const float* w, float v, std::int64_t n);

// Replicates row 0 (stride elements starting at acc) into rows [1, rows):
// the conv bias init as one packed-row broadcast instead of a per-pixel
// double loop. Doubling memcpy — O(log rows) copies. Instantiated for the
// float and int32 (quantized) accumulators.
template <typename T>
void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride);

// --- Layer integration kernels ----------------------------------------------

// Conv-layer geometry for the event path. `cstride` is padded(cout): both
// the weight pack rows and the accumulator rows use it.
struct ConvGeom {
  std::int64_t cin = 0, hin = 0, win = 0;    // input spike grid (C, H, W)
  std::int64_t cout = 0, cstride = 0;        // real / padded output channels
  std::int64_t kh = 0, kw = 0;               // kernel taps
  std::int64_t stride = 1, pad = 0;
  std::int64_t oh = 0, ow = 0;               // output pixel grid
};

// Integrates an entire layer's incoming spike train (already (step, neuron)
// sorted) into the HWC accumulator rows of output rows [yo0, yo1).
// `w` is the slot-major padded pack: slot (ci*kh + ky)*kw + kx holds cstride
// contiguous floats. Timestep groups are consumed in order with one level
// lookup per step; within [yo0, yo1) the accumulator is tiled into
// acc_block_bytes() row blocks, each block replaying the full spike train so
// its rows stay cache-resident. Per-accumulator contribution order is
// exactly the sequential spike order regardless of blocking or the caller's
// [yo0, yo1) partitioning (disjoint rows), so any split is bit-identical.
// Returns the integration ops performed (real cout per applied tap — padding
// lanes are not counted).
std::int64_t integrate_conv(const ConvGeom& g, const float* w, const Spike* spikes,
                            std::int64_t nspikes, const ThresholdLut& lut, float* acc,
                            std::int64_t yo0, std::int64_t yo1);

// FC integration over output columns [j0, j1) (caller-aligned to kLaneFloats
// except at the real boundaries). `w` is the column-major padded pack: input
// i's column is ostride contiguous floats. Same blocking and ordering
// contract as integrate_conv. Returns real ops ((j0,j1)∩[0,out) columns per
// spike).
std::int64_t integrate_fc(std::int64_t out, std::int64_t ostride, const float* w,
                          const Spike* spikes, std::int64_t nspikes, const ThresholdLut& lut,
                          float* acc, std::int64_t j0, std::int64_t j1);

// --- Quantized (fixed-point) integration kernels ---------------------------
//
// The same two layer traversals as integrate_conv / integrate_fc — one
// template in kernels.cpp, instantiated on a log-code accumulator policy —
// for the quantized path (quant.h): weights are int16 sign+exponent codes,
// the accumulator is a saturating int32 fixed-point register, and each
// synaptic add is the cat::LogPe LUT/barrel-shift product, bit-identical to
// LogPe::accumulate, so the traces co-simulate against hw/processor exactly.
// Blocking, timestep grouping, tap geometry and op accounting are shared
// code, so both policies emit identical spike orders and counters.
//
// The log-code span add runs 8 lanes per AVX2 iteration when simd_active():
// table lookup by two vpermd, sign and zero-code masking, then a saturating
// int32 add clamped to [-limit, limit - 1]. Exactness guard: the vector body
// runs only for timestep groups whose layer code range is <= 16 codes and
// whose every product is <= INT32_MAX (decided once per group); every other
// group, and each span's tail past a multiple of 8, takes the scalar loop,
// so the bits equal the scalar build's for any input. Products of a left
// shift are capped at 2 * limit - 1 (still exact: the register saturates
// on the same rail), so no exponent overflows int64.

// Upper bound on a layer's weight-code range q_hi - q_lo + 1: the kernels
// table one product per distinct code per timestep group on the stack, so the
// pack build rejects layers with a wider range (real log-quantized layers use
// 2^(bits-1) - 1 < 16 codes; see cat/logquant.h).
inline constexpr int kMaxQuantCodes = 256;

// Fixed-point geometry of one integration call, derived from the pack
// (quant.h) once per layer. All power-of-two scale factors are premultiplied.
struct QuantKernelParams {
  const std::int64_t* lut = nullptr;  // 2^frac_bits entries, lut_bits f.p.
  int frac_bits = 0;      // f = max(p, z): exponent codes are units of 2^-f
  int lut_bits = 0;       // fractional bits of each LUT entry
  int acc_frac_bits = 0;  // fractional bits of the int32 accumulator
  std::int64_t acc_limit = 0;  // 1 << (acc_int_bits + acc_frac_bits); the
                               // accumulator saturates to [-limit, limit - 1]
  int wmul = 0;  // 1 << (f - z): scales a weight code q to units of 2^-f
  int smul = 0;  // 1 << (f - p): scales a spike step to units of 2^-f
  int q_lo = 0, q_hi = 0;  // this layer's weight-code range (tabling bound)
};

// Conv counterpart of integrate_conv: `w` is the slot-major int16 code pack
// (kQuantZeroCode lanes contribute nothing), `acc` the HWC int32 accumulator
// at the same cstride. Identical tap geometry, blocking and op counting.
std::int64_t integrate_conv_q(const ConvGeom& g, const std::int16_t* w, const Spike* spikes,
                              std::int64_t nspikes, const QuantKernelParams& qp,
                              std::int32_t* acc, std::int64_t yo0, std::int64_t yo1);

// FC counterpart of integrate_fc over output columns [j0, j1).
std::int64_t integrate_fc_q(std::int64_t out, std::int64_t ostride, const std::int16_t* w,
                            const Spike* spikes, std::int64_t nspikes,
                            const QuantKernelParams& qp, std::int32_t* acc, std::int64_t j0,
                            std::int64_t j1);

}  // namespace kernels
}  // namespace ttfs::snn

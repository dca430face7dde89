#include "snn/event_sim.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "snn/engine.h"
#include "snn/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ttfs::snn {

std::int64_t EventTrace::total_spikes() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += static_cast<std::int64_t>(l.spikes.size());
  return n;
}

std::int64_t EventTrace::total_integration_ops() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.integration_ops;
  return n;
}

float* SimArena::acc(std::int64_t n) { return acc_.ensure(n); }

std::int32_t* SimArena::qacc(std::int64_t n) { return qacc_.ensure(n); }

int* SimArena::steps(std::int64_t n) { return steps_.ensure(n); }

int* SimArena::grid(std::int64_t n) { return grid_.ensure(n); }

std::int64_t* SimArena::counts(std::int64_t n) { return counts_.ensure(n); }

namespace {

struct Shape3 {
  std::int64_t c = 0, h = 0, w = 0;
  std::int64_t numel() const { return c * h * w; }
};

// Scatters the fire steps recorded in `steps` (CHW neuron order, kNoSpike for
// silent neurons) into `out.spikes` via the per-timestep histogram in
// `counts`: offsets are the exclusive prefix sum, and scanning neurons in
// ascending order fills each bucket in priority order. The concatenated
// buckets are exactly the (step, neuron)-sorted emission sequence, with no
// comparison sort. Sets neuron_count and encoder_cycles = window + spikes.
void scatter_buckets(const int* steps, std::int64_t n, std::int64_t* counts, int window,
                     LayerEventTrace& out) {
  std::int64_t total = 0;
  for (int t = 0; t < window; ++t) {
    const std::int64_t c = counts[t];
    counts[t] = total;
    total += c;
  }
  // lint-hotpath: allow(alloc) trace output, sized once per fire phase; only
  // the returned trace may allocate (scratch stays in SimArena).
  out.spikes.resize(static_cast<std::size_t>(total));
  for (std::int64_t i = 0; i < n; ++i) {
    const int k = steps[i];
    if (k == kNoSpike) continue;
    out.spikes[static_cast<std::size_t>(counts[k]++)] = {static_cast<std::int32_t>(i),
                                                         static_cast<std::int32_t>(k)};
  }
  out.neuron_count = n;
  out.encoder_cycles = window + total;
}

// Earliest-spike-wins pooling over one layer's incoming spikes on a
// (c, h, w) grid: pass through the minimum fire step of each window,
// building a step grid from the incoming spikes first. encoder_cycles is 0
// (pools reshuffle spikes, no encoder pass).
LayerEventTrace pool_layer(const SnnPool& pool, const std::vector<Spike>& in_spikes,
                           std::int64_t c, std::int64_t h, std::int64_t w, int window,
                           SimArena& arena) {
  const std::int64_t oh = (h - pool.kernel) / pool.stride + 1;
  const std::int64_t ow = (w - pool.kernel) / pool.stride + 1;
  TTFS_CHECK(oh > 0 && ow > 0);

  int* grid = arena.grid(c * h * w);
  std::fill(grid, grid + c * h * w, kNoSpike);
  for (const Spike& s : in_spikes) grid[s.neuron] = s.step;

  // Output steps in CHW order, then bucket like a fire phase (minus the
  // encoder-cycle cost: pooling is free in the spike domain).
  const std::int64_t out_n = c * oh * ow;
  int* steps = arena.steps(out_n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t ci = 0; ci < c; ++ci) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        int best = kNoSpike;
        for (std::int64_t ky = 0; ky < pool.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < pool.kernel; ++kx) {
            const std::int64_t iy = oy * pool.stride + ky;
            const std::int64_t ix = ox * pool.stride + kx;
            const int s = grid[(ci * h + iy) * w + ix];
            if (s != kNoSpike && (best == kNoSpike || s < best)) best = s;
          }
        }
        steps[(ci * oh + oy) * ow + ox] = best;
        if (best != kNoSpike) ++counts[best];
      }
    }
  }
  LayerEventTrace lt;
  scatter_buckets(steps, out_n, counts, window, lt);
  lt.encoder_cycles = 0;  // pools reshuffle spikes, no encoder pass
  return lt;
}

// Fire phase over a dense membrane span in CHW (= neuron) order. Implements
// the encoder loop of Sec. 4 — one threshold per timestep, ready neurons
// serialized through a priority encoder — by binning neurons into timestep
// buckets directly (see scatter_buckets). `read` turns one register into the
// real-valued membrane the threshold LUT compares; it is taken by value so
// its state stays in registers across the int stores into `steps`.
template <typename T, typename Read>
void fire_dense(const ThresholdLut& lut, const T* vmem, std::int64_t n, Read read,
                SimArena& arena, LayerEventTrace& out) {
  const int window = lut.window();
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const int k = lut.fire_step(read(vmem[i]));
    steps[i] = k;
    if (k != kNoSpike) ++counts[k];
  }
  scatter_buckets(steps, n, counts, window, out);
}

// Fire phase over the conv integration accumulator, which is stored HWC with
// a padded channel stride (pixel rows of cstride registers, the first cout
// real) so integration streams contiguously; neurons are walked in CHW
// priority order through a strided read.
template <typename T, typename Read>
void fire_hwc(const ThresholdLut& lut, const T* acc, std::int64_t cout, std::int64_t cstride,
              std::int64_t pixels, Read read, SimArena& arena, LayerEventTrace& out) {
  const int window = lut.window();
  const std::int64_t n = cout * pixels;
  int* steps = arena.steps(n);
  std::int64_t* counts = arena.counts(window);
  std::fill(counts, counts + window, 0);
  for (std::int64_t co = 0; co < cout; ++co) {
    int* row = steps + co * pixels;
    for (std::int64_t p = 0; p < pixels; ++p) {
      const int k = lut.fire_step(read(acc[p * cstride + co]));
      row[p] = k;
      if (k != kNoSpike) ++counts[k];
    }
  }
  scatter_buckets(steps, n, counts, window, out);
}

// The image and fire_phase inputs are real-valued already.
constexpr auto read_real = [](auto v) { return static_cast<double>(v); };

// Whether the intra-sample split is worth waking the pool for: a rough
// per-range work estimate in accumulated registers. Any threshold is
// bit-identical (the split itself is — see simd.h); this one just avoids
// paying fan-out latency on layers that integrate in microseconds.
constexpr std::int64_t kIntraMinWork = 1 << 16;

// Runs integrate(lo, hi) over [0, units * quantum) — conv output rows
// (quantum 1) or FC lane-aligned columns (quantum kLaneFloats) — splitting
// disjoint whole-quantum ranges across the arena's intra pool when one is
// set and `work` clears the threshold. Every accumulator lives in exactly one
// range and replays the full spike train in order, so the per-register add
// order (and with it every float rounding and every saturation) is the
// inline run's; only the integer op counts are merged. Returns total ops.
template <typename Integrate>
std::int64_t integrate_split(SimArena& arena, std::int64_t units, std::int64_t quantum,
                             std::int64_t work, const Integrate& integrate) {
  ThreadPool* pool = arena.intra_pool();
  if (pool == nullptr || pool->size() < 2 || units < 2 || work < kIntraMinWork) {
    return integrate(0, units * quantum);
  }
  std::atomic<std::int64_t> ops{0};
  pool->parallel_for_indexed(0, units, [&](std::size_t, std::int64_t lo, std::int64_t hi) {
    ops.fetch_add(integrate(lo * quantum, hi * quantum), std::memory_order_relaxed);
  });
  return ops.load(std::memory_order_relaxed);
}

// Accumulator policies of the one simulator driver below. Only the PE's
// per-synapse arithmetic differs between the float and log-code paths
// (Eq. 17), so a policy supplies just that: the register type and weight
// pack, the bias load, the layer integration (the kernels.cpp traversals
// instantiated on the matching tap policy), and fire_read — the register as
// the real-valued membrane the threshold LUT compares. Logits are fire_read
// rounded to float, which is the identity for float registers. Spike
// bookkeeping, pooling, op and cycle accounting are shared code.

// Float membranes over the network's float event pack (network.h).
struct FloatPolicy {
  using Acc = float;
  using Conv = PackedConv;
  using Fc = PackedFc;

  explicit FloatPolicy(const SnnNetwork& net)
      : lut{net.threshold_lut()}, layers{net.packed_layers()} {}

  static float* scratch(SimArena& arena, std::int64_t n) { return arena.acc(n); }
  // Writes the bias row (n real lanes, zeroed padding up to stride); false
  // when the layer has no bias.
  template <typename Pack>
  static bool load_bias(const Tensor& bias, const Pack&, std::int64_t n, std::int64_t stride,
                        float* row) {
    if (bias.empty()) return false;
    std::copy(bias.data(), bias.data() + n, row);
    std::fill(row + n, row + stride, 0.0F);
    return true;
  }
  std::int64_t integrate(const kernels::ConvGeom& g, const PackedConv& pw, const Spike* spikes,
                         std::int64_t n, float* acc, std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_conv(g, pw.w.data(), spikes, n, lut, acc, lo, hi);
  }
  std::int64_t integrate(const PackedFc& pw, const Spike* spikes, std::int64_t n, float* acc,
                         std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_fc(pw.out, pw.ostride, pw.w.data(), spikes, n, lut, acc, lo, hi);
  }
  static double fire_read(float acc) { return acc; }

  const ThresholdLut& lut;
  const std::vector<PackedLayer>& layers;
};

// Saturating int32 fixed-point membranes over the quantized pack (quant.h).
struct LogCodePolicy {
  using Acc = std::int32_t;
  using Conv = QuantizedConv;
  using Fc = QuantizedFc;

  explicit LogCodePolicy(const SnnNetwork& net)
      : pack{net.quantized_pack()},
        layers{pack.layers},
        lsb{std::ldexp(1.0, -pack.config.acc_frac_bits)} {}

  static std::int32_t* scratch(SimArena& arena, std::int64_t n) { return arena.qacc(n); }
  // The pack holds the bias row in accumulator LSBs, padding zeroed.
  template <typename Pack>
  static bool load_bias(const Tensor&, const Pack& pw, std::int64_t, std::int64_t stride,
                        std::int32_t* row) {
    if (!pw.has_bias) return false;
    std::memcpy(row, pw.bias_acc.data(), static_cast<std::size_t>(stride) * sizeof(*row));
    return true;
  }
  kernels::QuantKernelParams params(int q_lo, int q_hi) const {
    kernels::QuantKernelParams qp;
    qp.lut = pack.lut.data();
    qp.frac_bits = pack.frac_bits();
    qp.lut_bits = pack.config.lut_bits;
    qp.acc_frac_bits = pack.config.acc_frac_bits;
    qp.acc_limit = std::int64_t{1} << (pack.config.acc_int_bits + pack.config.acc_frac_bits);
    qp.wmul = 1 << (qp.frac_bits - pack.config.z);
    qp.smul = 1 << (qp.frac_bits - pack.p);
    qp.q_lo = q_lo;
    qp.q_hi = q_hi;
    return qp;
  }
  std::int64_t integrate(const kernels::ConvGeom& g, const QuantizedConv& pw,
                         const Spike* spikes, std::int64_t n, std::int32_t* acc, std::int64_t lo,
                         std::int64_t hi) const {
    return kernels::integrate_conv_q(g, pw.w.data(), spikes, n, params(pw.q_lo, pw.q_hi), acc,
                                     lo, hi);
  }
  std::int64_t integrate(const QuantizedFc& pw, const Spike* spikes, std::int64_t n,
                         std::int32_t* acc, std::int64_t lo, std::int64_t hi) const {
    return kernels::integrate_fc_q(pw.out, pw.ostride, pw.w.data(), spikes, n,
                                   params(pw.q_lo, pw.q_hi), acc, lo, hi);
  }
  // Exact: an int32 times a power of two is representable in double, so
  // this is ldexp(acc, -acc_frac_bits) bit for bit, without the libm call.
  double fire_read(std::int32_t acc) const { return static_cast<double>(acc) * lsb; }

  const QuantizedWeightPack& pack;
  const std::vector<QuantizedLayer>& layers;
  double lsb;  // 2^-acc_frac_bits
};

// Core single-sample simulation over a raw (C, H, W) image span. All scratch
// comes from `arena`; only the returned trace allocates.
template <typename Policy>
EventTrace run_event_sim_view(const SnnNetwork& net, const Policy& policy, const float* image,
                              Shape3 cur, SimArena& arena) {
  using Acc = typename Policy::Acc;
  const ThresholdLut& lut = net.threshold_lut();
  const auto read = [policy](Acc a) { return policy.fire_read(a); };
  EventTrace trace;
  trace.layers.reserve(net.layers().size() + 1);

  // --- Input encoding window ---
  {
    LayerEventTrace lt;
    fire_dense(lut, image, cur.numel(), read_real, arena, lt);
    trace.layers.push_back(std::move(lt));
  }
  const std::vector<Spike>* in_spikes = &trace.layers.back().spikes;

  const std::size_t weighted = net.weighted_layer_count();
  std::size_t weighted_seen = 0;

  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    const SnnLayer& layer = net.layers()[li];
    const Spike* spikes = in_spikes->data();
    const std::int64_t nspikes = static_cast<std::int64_t>(in_spikes->size());
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const auto& pw = std::get<typename Policy::Conv>(policy.layers[li]);
      const std::int64_t cout = pw.cout;
      const std::int64_t cstride = pw.cstride;
      const std::int64_t oh = (cur.h + 2 * conv->pad - pw.kh) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - pw.kw) / conv->stride + 1;
      TTFS_CHECK(pw.cin == cur.c && oh > 0 && ow > 0);

      // HWC accumulator: element (yo, xo, co) at acc[(yo*ow + xo)*cstride + co]
      // — pixel rows padded to the pack's cstride so both the weight slot and
      // the membrane update are whole-lane contiguous streams per tap. Bias
      // init is one packed-row broadcast.
      Acc* acc = Policy::scratch(arena, cstride * oh * ow);
      if (Policy::load_bias(conv->bias, pw, cout, cstride, acc)) {
        kernels::broadcast_rows(acc, oh * ow, cstride);
      } else {
        std::fill(acc, acc + cstride * oh * ow, Acc{0});
      }

      // Integration: spikes arrive (step, neuron)-sorted; the kernel layer
      // consumes them one timestep group at a time over cache-blocked output
      // tiles (simd.h), optionally split row-disjoint across the intra pool.
      kernels::ConvGeom geom;
      geom.cin = cur.c;
      geom.hin = cur.h;
      geom.win = cur.w;
      geom.cout = cout;
      geom.cstride = cstride;
      geom.kh = pw.kh;
      geom.kw = pw.kw;
      geom.stride = conv->stride;
      geom.pad = conv->pad;
      geom.oh = oh;
      geom.ow = ow;
      const std::int64_t ops = integrate_split(
          arena, oh, 1, nspikes * pw.kh * pw.kw * cstride,
          [&](std::int64_t lo, std::int64_t hi) {
            return policy.integrate(geom, pw, spikes, nspikes, acc, lo, hi);
          });

      ++weighted_seen;
      if (weighted_seen == weighted) {
        // Logits are reported CHW like the canonical simulator.
        trace.logits = Tensor{{1, cout * oh * ow}};
        float* lo = trace.logits.data();
        for (std::int64_t co = 0; co < cout; ++co) {
          for (std::int64_t p = 0; p < oh * ow; ++p) {
            lo[co * oh * ow + p] = static_cast<float>(read(acc[p * cstride + co]));
          }
        }
        return trace;
      }
      LayerEventTrace lt;
      fire_hwc(lut, acc, cout, cstride, oh * ow, read, arena, lt);
      lt.integration_ops = ops;
      trace.layers.push_back(std::move(lt));
      in_spikes = &trace.layers.back().spikes;
      cur = {cout, oh, ow};
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      const auto& pw = std::get<typename Policy::Fc>(policy.layers[li]);
      const std::int64_t out = pw.out;
      const std::int64_t ostride = pw.ostride;
      TTFS_CHECK(pw.in == cur.numel());

      Acc* acc = Policy::scratch(arena, ostride);
      if (!Policy::load_bias(fc->bias, pw, out, ostride, acc)) {
        std::fill(acc, acc + ostride, Acc{0});
      }

      // Column-major pack: each spiking input's whole weight column is one
      // contiguous lane-padded span add (column-split across the intra pool
      // when it pays).
      const std::int64_t ops = integrate_split(
          arena, ostride / kernels::kLaneFloats, kernels::kLaneFloats, nspikes * ostride,
          [&](std::int64_t lo, std::int64_t hi) {
            return policy.integrate(pw, spikes, nspikes, acc, lo, hi);
          });

      ++weighted_seen;
      if (weighted_seen == weighted) {
        trace.logits = Tensor{{1, out}};
        float* lo = trace.logits.data();
        for (std::int64_t j = 0; j < out; ++j) lo[j] = static_cast<float>(read(acc[j]));
        return trace;
      }
      LayerEventTrace lt;
      fire_dense(lut, acc, out, read, arena, lt);
      lt.integration_ops = ops;
      trace.layers.push_back(std::move(lt));
      in_spikes = &trace.layers.back().spikes;
      cur = {out, 1, 1};
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      const std::int64_t oh = (cur.h - pool.kernel) / pool.stride + 1;
      const std::int64_t ow = (cur.w - pool.kernel) / pool.stride + 1;
      trace.layers.push_back(
          pool_layer(pool, *in_spikes, cur.c, cur.h, cur.w, lut.window(), arena));
      in_spikes = &trace.layers.back().spikes;
      cur = {cur.c, oh, ow};
    }
  }
  TTFS_CHECK_MSG(false, "SNN has no output layer");
  return trace;
}

}  // namespace

namespace detail {

EventTrace run_event_sim_span(const SnnNetwork& net, const float* image, std::int64_t c,
                              std::int64_t h, std::int64_t w, SimArena& arena) {
  return run_event_sim_view(net, FloatPolicy{net}, image, {c, h, w}, arena);
}

EventTrace run_quantized_event_sim_span(const SnnNetwork& net, const float* image,
                                        std::int64_t c, std::int64_t h, std::int64_t w,
                                        SimArena& arena) {
  return run_event_sim_view(net, LogCodePolicy{net}, image, {c, h, w}, arena);
}

}  // namespace detail

LayerEventTrace fire_phase(const Base2Kernel& kernel, const std::vector<double>& vmem) {
  const ThresholdLut lut{kernel};
  SimArena arena;
  LayerEventTrace out;
  fire_dense(lut, vmem.data(), static_cast<std::int64_t>(vmem.size()), read_real, arena, out);
  return out;
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image, SimArena& arena) {
  TTFS_CHECK(image.rank() == 3);
  return detail::run_event_sim_span(net, image.data(), image.dim(0), image.dim(1), image.dim(2),
                                    arena);
}

EventTrace run_event_sim(const SnnNetwork& net, const Tensor& image) {
  SimArena arena;
  return run_event_sim(net, image, arena);
}

std::int64_t BatchEventResult::total_spikes() const {
  std::int64_t n = 0;
  for (const auto& t : traces) n += t.total_spikes();
  return n;
}

std::int64_t BatchEventResult::total_integration_ops() const {
  std::int64_t n = 0;
  for (const auto& t : traces) n += t.total_integration_ops();
  return n;
}

void SimArena::reserve_for(const SnnNetwork& net, std::int64_t c, std::int64_t h,
                           std::int64_t w) {
  Shape3 cur{c, h, w};
  std::int64_t max_acc = 0;
  std::int64_t max_steps = cur.numel();
  std::int64_t max_grid = 0;
  for (const auto& layer : net.layers()) {
    if (const auto* conv = std::get_if<SnnConv>(&layer)) {
      const std::int64_t oh = (cur.h + 2 * conv->pad - conv->weight.dim(2)) / conv->stride + 1;
      const std::int64_t ow = (cur.w + 2 * conv->pad - conv->weight.dim(3)) / conv->stride + 1;
      cur = {conv->weight.dim(0), oh, ow};
      // Accumulators are requested at the pack's padded channel stride.
      max_acc = std::max(max_acc, kernels::padded(cur.c) * oh * ow);
    } else if (const auto* fc = std::get_if<SnnFc>(&layer)) {
      cur = {fc->weight.dim(0), 1, 1};
      max_acc = std::max(max_acc, kernels::padded(cur.c));
    } else {
      const auto& pool = std::get<SnnPool>(layer);
      max_grid = std::max(max_grid, cur.numel());
      cur = {cur.c, (cur.h - pool.kernel) / pool.stride + 1,
             (cur.w - pool.kernel) / pool.stride + 1};
    }
    max_steps = std::max(max_steps, cur.numel());
  }
  (void)acc(max_acc);
  (void)steps(max_steps);
  (void)grid(max_grid);
  (void)counts(net.kernel().window());
}

BatchEventResult run_event_sim_batch(const SnnNetwork& net, const Tensor& nchw,
                                     ThreadPool* pool) {
  TTFS_CHECK(nchw.rank() == 4);
  // One-shot session on the shared event-sim backend: per-chunk arenas,
  // sample-order trace and logits merges — bit-identical to the sequential
  // run_event_sim loop (and to the pre-engine batch runner).
  SessionOptions sopts;
  sopts.pool = pool;
  InferenceSession session{net, make_backend(BackendKind::kEventSim), std::move(sopts)};
  RunOptions opts;
  opts.logits = true;
  opts.traces = true;
  RunResult run = session.run(BatchView{nchw}, opts);
  BatchEventResult out;
  out.traces = std::move(run.traces);
  out.logits = std::move(run.logits);
  return out;
}

}  // namespace ttfs::snn

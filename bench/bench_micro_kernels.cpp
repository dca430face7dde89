// Micro-benchmarks of the event-kernel layer (snn/simd.h): the membrane
// vector-add at several span lengths (dispatch path and pinned-scalar
// reference), the packed-row bias broadcast, the blocked conv/fc integration
// kernels on VGG-width geometry (the log-code ones also pinned scalar), and
// the fire-phase spike encoder.
//
//   ./build/bench/bench_micro_kernels [--reps R] [--ms M] [--json]
//
// Emits one BENCH_micro_kernels.json row per (case, n) on the shared Table
// harness, gated in CI by tools/bench_compare.py against the committed
// baseline (bench/baselines/BENCH_micro_kernels.json) — a kernel-level
// regression fails perf-smoke before it shows up in end-to-end numbers. The
// "isa" column records which path dispatch picked (informational, not a
// matching dimension: baselines from AVX2 runners still match elsewhere).
// Refresh after an intentional kernel change:
//   tools/bench_compare.py --current <artifact dir> --write-baseline
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "cat/logpe.h"
#include "common.h"
#include "snn/event_sim.h"
#include "snn/kernel.h"
#include "snn/simd.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace ttfs;
namespace k = snn::kernels;

// Runs `body` (which returns the op count of one pass) repeatedly for ~ms
// per rep and reports the best rep's Mops/s.
double measure(int reps, double ms, const std::function<std::int64_t()>& body) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::int64_t ops = 0;
    double elapsed = 0.0;
    do {
      ops += body();
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } while (elapsed * 1e3 < ms);
    best = std::max(best, static_cast<double>(ops) / elapsed / 1e6);
  }
  return best;
}

// An all-neurons spike train sorted by (step, neuron) — the order the fire
// phase emits — with steps spread across the kernel window.
std::vector<snn::Spike> full_spike_train(std::int64_t neurons, int window) {
  std::vector<snn::Spike> spikes;
  spikes.reserve(static_cast<std::size_t>(neurons));
  for (int step = 0; step < window; ++step) {
    for (std::int64_t i = 0; i < neurons; ++i) {
      if ((i * 7 + 3) % window == step) {
        spikes.push_back({static_cast<std::int32_t>(i), step});
      }
    }
  }
  return spikes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const CliArgs args{argc, argv};
  const int reps = args.get_int("reps", 3);
  const double ms = args.get_int("ms", 25);

  const snn::Base2Kernel kernel{24, 4.0, 1.0};
  const snn::ThresholdLut lut{kernel};
  const float level7 = static_cast<float>(lut.level(7));
  Rng rng{42};

  std::cout << "\n### micro kernels — isa " << k::isa() << ", best of " << reps << " reps ("
            << ms << " ms each)\n\n";

  Table table{"micro_kernels"};
  table.set_header({"case", "n", "isa", "Mops/s"});
  double checksum = 0.0;
  const auto add = [&](const std::string& name, std::int64_t n, double mops) {
    table.add_row({name, std::to_string(n), k::isa(), Table::num(mops, 1)});
  };

  // --- axpy: the membrane vector-add, dispatch path vs pinned scalar -------
  {
    k::AlignedBuffer<float> wbuf, abuf;
    float* w = wbuf.ensure(512);
    float* acc = abuf.ensure(512);
    for (std::int64_t i = 0; i < 512; ++i) w[i] = rng.uniform_f(-1.0F, 1.0F);
    for (const std::int64_t n : {std::int64_t{16}, std::int64_t{24}, std::int64_t{64},
                                 std::int64_t{512}}) {
      std::fill(acc, acc + 512, 0.0F);
      add("axpy", n, measure(reps, ms, [&] {
            for (int i = 0; i < 64; ++i) k::axpy(acc, w, level7, n);
            return 64 * n;
          }));
      checksum += acc[0];
    }
    std::fill(acc, acc + 512, 0.0F);
    add("axpy_scalar", 512, measure(reps, ms, [&] {
          for (int i = 0; i < 64; ++i) k::axpy_scalar(acc, w, level7, 512);
          return 64 * 512;
        }));
    checksum += acc[0];
  }

  // --- broadcast_rows: the conv bias init (ops = floats written) -----------
  {
    const std::int64_t rows = 4096, stride = 16;
    k::AlignedBuffer<float> abuf;
    float* acc = abuf.ensure(rows * stride);
    for (std::int64_t i = 0; i < stride; ++i) acc[i] = rng.uniform_f(-1.0F, 1.0F);
    add("broadcast_rows", rows, measure(reps, ms, [&] {
          k::broadcast_rows(acc, rows, stride);
          return rows * stride;
        }));
    checksum += acc[(rows - 1) * stride];
  }

  // --- integrate_conv: VGG-width layers, L2-resident and cache-blocked -----
  // 16 input channels spiking densely into 64 output channels through 3x3
  // taps. The 16x16 case's accumulator (64 KiB) fits one acc block; the
  // 32x32 case (256 KiB) spans several, exercising the row tiling.
  for (const std::int64_t hw : {std::int64_t{16}, std::int64_t{32}}) {
    k::ConvGeom g;
    g.cin = 16;
    g.hin = g.win = hw;
    g.cout = 64;
    g.cstride = k::padded(g.cout);
    g.kh = g.kw = 3;
    g.stride = 1;
    g.pad = 1;
    g.oh = g.ow = hw;
    k::AlignedBuffer<float> wbuf, abuf;
    float* w = wbuf.ensure(g.cin * g.kh * g.kw * g.cstride);
    for (std::int64_t i = 0; i < g.cin * g.kh * g.kw * g.cstride; ++i) {
      w[i] = rng.uniform_f(-0.2F, 0.2F);
    }
    float* acc = abuf.ensure(g.oh * g.ow * g.cstride);
    std::fill(acc, acc + g.oh * g.ow * g.cstride, 0.0F);
    const auto spikes = full_spike_train(g.cin * g.hin * g.win, kernel.window());
    add(hw == 16 ? "integrate_conv" : "integrate_conv_blocked", g.cout,
        measure(reps, ms, [&] {
          return k::integrate_conv(g, w, spikes.data(),
                                   static_cast<std::int64_t>(spikes.size()), lut, acc, 0, g.oh);
        }));
    checksum += acc[0];
  }

  // --- integrate_conv_q: the int16 fixed-point conv kernel ------------------
  // Same 16-channel VGG-width geometry as integrate_conv, weights as packed
  // sign+exponent codes, int32 accumulator — the quantized backend's hot
  // loop (one shift-add per tap via the shared LogPe LUT).
  {
    cat::LogPeConfig pe_config;
    pe_config.p = 2;  // tau = 4
    pe_config.z = 1;
    pe_config.lut_bits = 24;
    pe_config.acc_frac_bits = 24;
    pe_config.acc_int_bits = 7;
    const cat::LogPe pe{pe_config};
    k::QuantKernelParams qp;
    qp.lut = pe.lut().data();
    qp.frac_bits = pe_config.frac_bits();
    qp.lut_bits = pe_config.lut_bits;
    qp.acc_frac_bits = pe_config.acc_frac_bits;
    qp.acc_limit = std::int64_t{1} << (pe_config.acc_int_bits + pe_config.acc_frac_bits);
    qp.wmul = 1 << (qp.frac_bits - pe_config.z);
    qp.smul = 1 << (qp.frac_bits - pe_config.p);
    qp.q_lo = -10;
    qp.q_hi = 0;
    const auto random_code = [&] {
      const int q = static_cast<int>(rng.uniform_int(qp.q_lo, qp.q_hi));
      return static_cast<std::int16_t>(q * 2 + (rng.bernoulli(0.5) ? 1 : 0));
    };

    k::ConvGeom g;
    g.cin = 16;
    g.hin = g.win = 16;
    g.cout = 64;
    g.cstride = k::padded(g.cout);
    g.kh = g.kw = 3;
    g.stride = 1;
    g.pad = 1;
    g.oh = g.ow = 16;
    k::AlignedBuffer<std::int16_t> qwbuf;
    k::AlignedBuffer<std::int32_t> qabuf;
    std::int16_t* qw = qwbuf.ensure(g.cin * g.kh * g.kw * g.cstride);
    for (std::int64_t i = 0; i < g.cin * g.kh * g.kw * g.cstride; ++i) qw[i] = random_code();
    std::int32_t* qacc = qabuf.ensure(g.oh * g.ow * g.cstride);
    std::fill(qacc, qacc + g.oh * g.ow * g.cstride, 0);
    const auto conv_spikes = full_spike_train(g.cin * g.hin * g.win, kernel.window());
    const auto conv_q = [&] {
      return k::integrate_conv_q(g, qw, conv_spikes.data(),
                                 static_cast<std::int64_t>(conv_spikes.size()), qp, qacc, 0, g.oh);
    };
    add("integrate_conv_q", g.cout, measure(reps, ms, conv_q));
    // The same kernel pinned to its scalar loop: the row pair tracks the
    // 8-wide log-code add's speedup, like axpy vs axpy_scalar.
    k::force_scalar(true);
    add("integrate_conv_q_scalar", g.cout, measure(reps, ms, conv_q));
    k::force_scalar(false);
    checksum += static_cast<double>(qacc[0]);

    // --- integrate_fc_q: the int16 fixed-point classifier sweep -------------
    const std::int64_t in = 4096, out = 512, ostride = k::padded(out);
    std::int16_t* qfw = qwbuf.ensure(in * ostride);
    for (std::int64_t i = 0; i < in * ostride; ++i) qfw[i] = random_code();
    std::int32_t* qfacc = qabuf.ensure(ostride);
    std::fill(qfacc, qfacc + ostride, 0);
    const auto fc_spikes = full_spike_train(in, kernel.window());
    const auto fc_q = [&] {
      return k::integrate_fc_q(out, ostride, qfw, fc_spikes.data(),
                               static_cast<std::int64_t>(fc_spikes.size()), qp, qfacc, 0,
                               ostride);
    };
    add("integrate_fc_q", out, measure(reps, ms, fc_q));
    k::force_scalar(true);
    add("integrate_fc_q_scalar", out, measure(reps, ms, fc_q));
    k::force_scalar(false);
    checksum += static_cast<double>(qfacc[0]);
  }

  // --- integrate_fc: a dense classifier column sweep ------------------------
  {
    const std::int64_t in = 4096, out = 512, ostride = k::padded(out);
    k::AlignedBuffer<float> wbuf, abuf;
    float* w = wbuf.ensure(in * ostride);
    for (std::int64_t i = 0; i < in * ostride; ++i) w[i] = rng.uniform_f(-0.1F, 0.1F);
    float* acc = abuf.ensure(ostride);
    std::fill(acc, acc + ostride, 0.0F);
    const auto spikes = full_spike_train(in, kernel.window());
    add("integrate_fc", out, measure(reps, ms, [&] {
          return k::integrate_fc(out, ostride, w, spikes.data(),
                                 static_cast<std::int64_t>(spikes.size()), lut, acc, 0, ostride);
        }));
    checksum += acc[0];
  }

  // --- fire_phase: the spike encoder (ops = membranes scanned) --------------
  {
    std::vector<double> vmem(16384);
    for (double& v : vmem) v = rng.uniform(-0.5, 1.5);
    add("fire_phase", static_cast<std::int64_t>(vmem.size()), measure(reps, ms, [&] {
          const snn::LayerEventTrace t = snn::fire_phase(kernel, vmem);
          return t.neuron_count + static_cast<std::int64_t>(t.spikes.size() & 1);
        }));
  }

  bench::emit(table);
  std::cout << "(checksum " << checksum << ")\n";
  return 0;
}

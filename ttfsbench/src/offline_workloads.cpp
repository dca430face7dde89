// offline_event and offline_quant: InferenceSession::run in process on the
// 32x32 VGG-style stack, no net and no serve layer, so only the snn kernels
// are measured: the float event backend against the int16 log-code
// quantized backend (on a log-quantized copy), and batch 1 (one sample split
// across the pool) against batch 64 (samples fanned out across the pool).
#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "cat/logquant.h"
#include "logic.h"
#include "models.h"
#include "serve/result.h"
#include "snn/engine.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ttfsbench {

namespace {

namespace snn = ttfs::snn;
using ttfs::Tensor;
using ttfs::serve::seconds_since;

constexpr std::size_t kImages = 64;      // one batch-64 run covers the image set
constexpr std::size_t kWarmupB1 = 4;
constexpr std::size_t kReferenceSamples = 2;
constexpr std::size_t kMinBatchRuns = 3;
// The batch-1 phase may run past its share to reach the p99 sample count,
// but never past this.
constexpr double kPhaseCap = 100.0;

// One set-up: the network (log-quantized for the quantized backend) and a
// session over it. The session is declared last so it dies first.
struct Offline {
  std::unique_ptr<snn::SnnNetwork> net;
  std::shared_ptr<const TracingBackend> tracer;
  std::unique_ptr<snn::InferenceSession> session;
};

snn::BackendKind kind_of(bool quantized) {
  return quantized ? snn::BackendKind::kQuantized : snn::BackendKind::kEventSim;
}

std::vector<snn::EventTrace> traces_of(const snn::SnnNetwork& net, snn::BackendKind kind,
                                       const std::vector<const Tensor*>& views) {
  snn::InferenceSession session{net, snn::make_backend(kind)};
  snn::RunOptions opts;
  opts.logits = false;
  opts.traces = true;
  return session.run(snn::BatchView{views}, opts).traces;
}

bool same_trace(const snn::EventTrace& a, const snn::EventTrace& b) {
  if (a.layers.size() != b.layers.size() || a.logits.numel() != b.logits.numel()) return false;
  for (std::size_t k = 0; k < a.layers.size(); ++k) {
    const snn::LayerEventTrace& x = a.layers[k];
    const snn::LayerEventTrace& y = b.layers[k];
    if (x.spikes.size() != y.spikes.size() || x.integration_ops != y.integration_ops ||
        x.encoder_cycles != y.encoder_cycles || x.neuron_count != y.neuron_count) {
      return false;
    }
    for (std::size_t s = 0; s < x.spikes.size(); ++s) {
      if (x.spikes[s].neuron != y.spikes[s].neuron || x.spikes[s].step != y.spikes[s].step) {
        return false;
      }
    }
  }
  return std::memcmp(a.logits.data(), b.logits.data(),
                     static_cast<std::size_t>(a.logits.numel()) * sizeof(float)) == 0;
}

bool same_row(const Tensor& logits, std::int64_t row, const Tensor& want) {
  const std::int64_t classes = want.numel();
  return logits.dim(1) == classes &&
         std::memcmp(logits.data() + row * classes, want.data(),
                     static_cast<std::size_t>(classes) * sizeof(float)) == 0;
}

}  // namespace

Report run_offline(const RunSpec& spec, bool quantized) {
  Report report;
  const char* what = quantized ? "quantized" : "event";
  ttfs::Rng inputs{spec.seed};
  const std::vector<Tensor> images = make_images(kImages, 3, 32, 32, inputs);
  std::vector<const Tensor*> views;
  for (const Tensor& img : images) views.push_back(&img);
  const snn::BatchView batch{views};

  // kSetups full set-ups: build the net, quantize it, build the backend's
  // pack and the session's arenas, warm up at batch 64 and batch 1.
  std::vector<double> secs;
  std::vector<double> quantize_ms;
  Offline off;
  for (int k = 0; k < kSetups; ++k) {
    off.session.reset();  // before the network it points into
    off.net.reset();
    const Clock::time_point t0 = Clock::now();
    ttfs::Rng weights{kWeightSeed};
    off.net = std::make_unique<snn::SnnNetwork>(make_vgg_net(weights));
    if (quantized) {
      const Clock::time_point tq = Clock::now();
      ttfs::cat::log_quantize_network(*off.net, ttfs::cat::LogQuantConfig{});
      quantize_ms.push_back(seconds_since(tq) * 1e3);
    }
    std::shared_ptr<const snn::InferenceBackend> backend = snn::make_backend(kind_of(quantized));
    if (spec.spans != nullptr) {
      off.tracer = std::make_shared<const TracingBackend>(backend, *spec.spans);
      backend = off.tracer;
    }
    snn::SessionOptions sopts;
    sopts.pool = &ttfs::global_pool();
    sopts.max_batch_hint = static_cast<std::int64_t>(kImages);
    sopts.input_shape = {3, 32, 32};
    off.session = std::make_unique<snn::InferenceSession>(*off.net, backend, std::move(sopts));
    (void)off.session->run(batch);
    for (std::size_t i = 0; i < kWarmupB1; ++i) {
      (void)off.session->run(snn::BatchView{std::vector<const Tensor*>{views[i]}});
    }
    secs.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(secs), secs.size());

  // Untimed checks, and the expected logits of every timed run: the
  // backend's own traces; the quantized backend's spike and op counts equal
  // the event backend's on every image of the quantized net; the event
  // backend matches the frozen reference on a few images.
  const std::vector<snn::EventTrace> traces = traces_of(*off.net, kind_of(quantized), views);
  const std::vector<snn::EventTrace> event =
      quantized ? traces_of(*off.net, snn::BackendKind::kEventSim, views) : traces;
  if (quantized) {
    for (std::size_t i = 0; i < kImages; ++i) {
      for (std::size_t k = 0; k < traces[i].layers.size(); ++k) {
        const snn::LayerEventTrace& q = traces[i].layers[k];
        const snn::LayerEventTrace& e = event[i].layers[k];
        if (q.spikes.size() != e.spikes.size() || q.integration_ops != e.integration_ops) {
          report.problems.push_back("image " + std::to_string(i) + " layer " +
                                    std::to_string(k) +
                                    ": quantized spike/op counts differ from the event backend");
          ++report.failed;
        }
      }
    }
  }
  const std::vector<const Tensor*> few(views.begin(), views.begin() + kReferenceSamples);
  const std::vector<snn::EventTrace> reference =
      traces_of(*off.net, snn::BackendKind::kReference, few);
  for (std::size_t i = 0; i < kReferenceSamples; ++i) {
    if (!same_trace(event[i], reference[i])) {
      report.problems.push_back("image " + std::to_string(i) +
                                ": event backend differs from the reference simulator");
      ++report.failed;
    }
  }

  // Batch 1: one run per image in turn, for half the time and at least the
  // p99 sample count (about 16 runs of each image). rps and p50_ms take each
  // image's fastest run, as bench_event_sim_hotpath keeps the best of its
  // reps: on a shared host the time of one single-threaded run is bimodal
  // (14 ms or 27 ms for the quantized backend on a 4-vCPU KVM guest, mixing
  // second by second), so the median over all runs jumped between the modes
  // from one run of the benchmark to the next, and so did the fastest of
  // whole rounds once most seconds were slow ones.
  const std::size_t min_b1 = samples_for_percentile(kTailPercentile);
  const double b1_share = 0.5 * spec.seconds;
  std::vector<double> b1_ms;  // every run, for the tail
  std::vector<double> best_ms(kImages, std::numeric_limits<double>::infinity());
  std::size_t mismatched = 0;
  double ops = 0.0;
  const Clock::time_point b1_start = Clock::now();
  while (seconds_since(b1_start) < b1_share || b1_ms.size() < min_b1) {
    if (seconds_since(b1_start) > kPhaseCap) {
      report.problems.push_back("batch-1 phase abandoned after " + std::to_string(kPhaseCap) + " s");
      break;
    }
    const std::size_t i = b1_ms.size() % kImages;
    const Clock::time_point t0 = Clock::now();
    const snn::RunResult r = off.session->run(snn::BatchView{std::vector<const Tensor*>{views[i]}});
    b1_ms.push_back(seconds_since(t0) * 1e3);
    best_ms[i] = std::min(best_ms[i], b1_ms.back());
    if (!same_row(r.logits, 0, traces[i].logits)) ++mismatched;
    ops += static_cast<double>(traces[i].total_integration_ops());
  }
  const Clock::time_point b1_end = Clock::now();

  // Batch 64: the whole image set per run; the median run. Here the fast
  // mode needs all four workers fast at once, so most runs are slow ones and
  // the median is steady while the fastest run is not.
  std::vector<double> b64_rate;
  const Clock::time_point b64_start = Clock::now();
  while (seconds_since(b64_start) < 0.5 * spec.seconds || b64_rate.size() < kMinBatchRuns) {
    const Clock::time_point t0 = Clock::now();
    const snn::RunResult r = off.session->run(batch);
    b64_rate.push_back(static_cast<double>(kImages) / seconds_since(t0));
    for (std::size_t i = 0; i < kImages; ++i) {
      if (!same_row(r.logits, static_cast<std::int64_t>(i), traces[i].logits)) ++mismatched;
      ops += static_cast<double>(traces[i].total_integration_ops());
    }
  }

  report.attempted += b1_ms.size() + kImages * b64_rate.size();
  report.failed += mismatched;
  if (mismatched != 0) {
    report.problems.push_back(std::to_string(mismatched) + " " + what +
                              " samples gave logits that differ from the same backend's trace run");
  }
  report.set("p50_ms", median(best_ms), b1_ms.size());
  report.set("rps",
             static_cast<double>(kImages) * 1e3 / std::accumulate(best_ms.begin(), best_ms.end(), 0.0),
             b1_ms.size());
  report.set("peak_rps", median(b64_rate), b64_rate.size() * kImages);
  set_tail(b1_ms, report);
  report.note_text("backend", what);

  if (spec.spans != nullptr) {
    const double b1_from = spec.spans->to_us(b1_start);
    const double b1_to = spec.spans->to_us(b1_end);
    const double b64_from = spec.spans->to_us(b64_start);
    std::vector<double> sample_us;
    double busy_us = 0.0;
    for (const Span& s : spec.spans->named("snn.sample")) {
      if (s.start_us < b1_from) continue;
      if (s.start_us <= b1_to) sample_us.push_back(s.duration_us());
      busy_us += s.duration_us();
    }
    std::vector<double> batch_us;
    for (const Span& s : spec.spans->named("snn.batch")) {
      if (s.start_us >= b64_from) batch_us.push_back(s.duration_us());
    }
    report.layer("snn.sample_us_p50", median(sample_us));
    report.layer("snn.batch_us_p50", median(batch_us));
    report.layer(quantized ? "snn.mops_per_s.quant" : "snn.mops_per_s.event",
                 busy_us > 0.0 ? ops / busy_us : 0.0);
    report.layer("snn.pack_ms", off.tracer->max_ensure_ready_ms());
    if (quantized) report.layer("cat.quantize_ms", median(quantize_ms));
    put_trace_layers(summarize_traces(*off.net, traces, 32, 32), report);
  }
  return report;
}

}  // namespace ttfsbench

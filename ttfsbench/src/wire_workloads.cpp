// wire_light and wire_poisson: the real serving stack in this process
// (snn::ModelRegistry -> serve::SnnServer -> net::WireServer on an ephemeral
// loopback port), driven by one client thread (wire_client.h).
//
// The server sets only the registry, the default model, 2 replicas and the
// process compute pool; every batching and admission setting keeps its
// ServeOptions default, so a change to those defaults is measured as is.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "logic.h"
#include "models.h"
#include "net/protocol.h"
#include "net/wire_server.h"
#include "serve/server.h"
#include "snn/engine.h"
#include "snn/registry.h"
#include "util/thread_pool.h"
#include "wire_client.h"
#include "workloads.h"

namespace ttfsbench {

namespace {

namespace snn = ttfs::snn;
namespace serve = ttfs::serve;
namespace net = ttfs::net;
using ttfs::serve::seconds_since;

constexpr std::size_t kImagesPerModel = 64;
constexpr std::int64_t kReplicas = 2;
constexpr std::size_t kWarmupPerModel = 64;
// Fixed-rate phase of wire_poisson, absolute: about half the capacity of a
// 4-core x86 host, so it measures latency under load without overload.
constexpr double kFixedRate = 4000.0;
// A phase that overruns its planned length by this much is abandoned.
constexpr double kPhaseSlack = 20.0;

std::size_t max_connections() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n == 0 ? 1 : n, 1, 4);
}

// The client's catalog plus, for traced runs, each model's exact activity.
struct Prepared {
  Catalog catalog;
  std::vector<TraceSummary> summaries;  // per model; empty when untraced
};

Prepared prepare(std::size_t models, ttfs::Rng& inputs, bool summarize) {
  Prepared p;
  ttfs::Rng weights{kWeightSeed};
  for (std::size_t m = 0; m < models; ++m) {
    const std::string id = "m" + std::to_string(m);
    const snn::SnnNetwork net = make_wire_net(weights);
    const std::vector<ttfs::Tensor> images = make_images(kImagesPerModel, 3, 16, 16, inputs);
    std::vector<const ttfs::Tensor*> views;
    for (const ttfs::Tensor& img : images) views.push_back(&img);
    // The direct session run every wire answer must match bit for bit.
    snn::InferenceSession session{net, snn::make_backend(snn::BackendKind::kEventSim)};
    snn::RunOptions opts;
    opts.logits = false;
    opts.traces = true;
    const snn::RunResult run = session.run(snn::BatchView{views}, opts);

    p.catalog.models.push_back(id);
    p.catalog.frames.emplace_back();
    p.catalog.expected.emplace_back();
    for (std::size_t i = 0; i < images.size(); ++i) {
      p.catalog.frames.back().push_back(net::encode_request(0, id, images[i]));
      const ttfs::Tensor& logits = run.traces[i].logits;
      p.catalog.expected.back().emplace_back(logits.data(), logits.data() + logits.numel());
    }
    if (summarize) p.summaries.push_back(summarize_traces(net, run.traces, 16, 16));
  }
  return p;
}

// The server's and the wire layer's counters at one moment; a phase's
// figures are the difference of two of these.
struct StatsSnapshot {
  serve::ServerStats server;
  net::WireStats wire;
};

// Registry -> server -> wire front end -> client, torn down in reverse.
class WireStack {
 public:
  WireStack(const Catalog& catalog, std::size_t connections, SpanRecorder* spans)
      : catalog_{catalog}, registry_{std::make_shared<snn::ModelRegistry>()} {
    ttfs::Rng weights{kWeightSeed};
    for (const std::string& id : catalog.models) {
      auto net = std::make_shared<const snn::SnnNetwork>(make_wire_net(weights));
      std::shared_ptr<const snn::InferenceBackend> backend =
          snn::make_backend(snn::BackendKind::kEventSim);
      if (spans != nullptr) {
        auto tracer = std::make_shared<const TracingBackend>(backend, *spans);
        tracers_.push_back(tracer);
        backend = tracer;
      }
      registry_->load(id, net, backend, {3, 16, 16});
    }
    serve::ServeOptions opts;
    opts.registry = registry_;
    opts.default_model = catalog.models.front();
    opts.replicas = kReplicas;
    opts.pool = &ttfs::global_pool();
    server_ = std::make_unique<serve::SnnServer>(opts);
    wire_ = std::make_unique<net::WireServer>(*server_);  // 127.0.0.1, ephemeral port
    client_ = std::make_unique<WireClient>(wire_->port(), connections, catalog);
  }
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;
  ~WireStack() { stop(); }

  // Closes the client, then drains the wire layer and the server. True when
  // nothing was left in flight.
  bool stop() {
    if (!server_) return true;
    client_.reset();
    wire_->stop();
    const bool drained = wire_->stats().in_flight == 0;
    server_->stop();
    wire_.reset();
    server_.reset();
    return drained;
  }

  // Replaces the client with a fresh one of `connections` sockets.
  void reconnect(std::size_t connections) {
    client_.reset();
    client_ = std::make_unique<WireClient>(wire_->port(), connections, catalog_);
  }

  StatsSnapshot snapshot() { return StatsSnapshot{server_->stats(), wire_->stats()}; }
  WireClient& client() { return *client_; }
  serve::SnnServer& server() { return *server_; }
  snn::ModelRegistry& registry() { return *registry_; }
  double pack_ms() const {
    double ms = 0.0;
    for (const auto& t : tracers_) ms = std::max(ms, t->max_ensure_ready_ms());
    return ms;
  }

 private:
  const Catalog& catalog_;
  std::vector<std::shared_ptr<const TracingBackend>> tracers_;
  std::shared_ptr<snn::ModelRegistry> registry_;
  std::unique_ptr<serve::SnnServer> server_;
  std::unique_ptr<net::WireServer> wire_;
  std::unique_ptr<WireClient> client_;
};

// Counts a phase's requests and turns broken phases and wrong answers into
// problems.
void account(const char* phase, const PhaseResult& r, Report& report) {
  report.attempted += r.requests.size();
  report.failed += r.failed();
  if (const std::size_t bad = r.mismatches(); bad != 0) {
    report.problems.push_back(std::string{phase} + ": " + std::to_string(bad) +
                              " wire answers differ from a direct session run");
  }
  if (!r.error.empty()) report.problems.push_back(std::string{phase} + ": " + r.error);
  if (r.deadline_hit) {
    report.problems.push_back(std::string{phase} + ": abandoned after its hard time limit");
  }
}

// kSetups full set-ups (build nets, pack, start server and wire front end,
// connect, warm up on every model); the last one stays up for measuring.
std::unique_ptr<WireStack> timed_setups(const Catalog& catalog, std::size_t connections,
                                        SpanRecorder* spans, ttfs::Rng& picks,
                                        Report& report) {
  std::vector<double> secs;
  std::unique_ptr<WireStack> stack;
  for (int k = 0; k < kSetups; ++k) {
    if (stack && !stack->stop()) report.problems.push_back("setup: server did not drain");
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<WireStack>(catalog, connections, spans);
    for (std::uint32_t m = 0; m < catalog.models.size(); ++m) {
      const PhaseResult warm = stack->client().closed_loop(
          connections, m, 0.0, kWarmupPerModel, kWarmupPerModel, picks, kPhaseSlack);
      account("warm-up", warm, report);
    }
    secs.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(secs), secs.size());
  return stack;
}

std::vector<Arrival> poisson_schedule(double rate, double seconds, std::size_t models,
                                      ttfs::Rng& rng) {
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate;
    if (t >= seconds) break;
    const auto model = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(models) - 1));
    const auto image = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kImagesPerModel) - 1));
    schedule.push_back(Arrival{t, model, image});
  }
  return schedule;
}

// Median time for a fresh RequestParser to parse one of the phase's frames,
// replaying them (the bytes the client sent) from memory.
double parse_ns_per_frame(const PhaseResult& phase, const Catalog& catalog) {
  if (phase.requests.empty()) return 0.0;
  std::vector<double> per_frame;
  for (int rep = 0; rep < 5; ++rep) {
    net::RequestParser parser;
    std::size_t parsed = 0;
    const Clock::time_point t0 = Clock::now();
    for (const RequestRecord& rec : phase.requests) {
      const std::vector<std::uint8_t>& frame = catalog.frames[rec.model][rec.image];
      std::size_t off = 0;
      while (off < frame.size()) {
        const auto [slot, cap] = parser.read_slot();
        const std::size_t n = std::min(cap, frame.size() - off);
        std::copy_n(frame.data() + off, n, slot);
        off += n;
        if (parser.consume(n) == net::RequestParser::Event::kRequest) {
          (void)parser.take_payload();
          ++parsed;
        }
      }
    }
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_frame.push_back(ns / static_cast<double>(std::max<std::size_t>(parsed, 1)));
  }
  return median(per_frame);
}

// Per-layer metrics of one traced phase. `before`/`after` bracket it.
void wire_layers(WireStack& stack, const PhaseResult& phase, const StatsSnapshot& before,
                 const StatsSnapshot& after, const std::vector<double>& depths,
                 const Prepared& prepared, SpanRecorder& spans, Report& report) {
  const double t0 = spans.to_us(phase.start);
  const double t1 = t0 + phase.last_recv_s() * 1e6;

  // Client and server spans: the server stamp is a duration, so its span is
  // placed to end when the client received the answer.
  std::vector<double> wire_ms;
  std::vector<double> server_ms;
  double ops = 0.0;
  for (const RequestRecord& r : phase.requests) {
    if (!r.ok) continue;
    const double recv = t0 + r.recv_s * 1e6;
    const std::int64_t client = spans.add(Span{"client.request", t0 + r.due_s * 1e6, recv, 0,
                                               -1, static_cast<std::int64_t>(r.rid), 1});
    spans.add(Span{"serve.request", recv - r.server_s * 1e6, recv, 0, client,
                   static_cast<std::int64_t>(r.rid), 1});
    wire_ms.push_back((r.recv_s - r.sent_s) * 1e3);
    server_ms.push_back(r.server_s * 1e3);
    ops += static_cast<double>(prepared.summaries[r.model].ops_per_image[r.image]);
  }

  std::vector<BatchSpan> batches;
  std::vector<double> batch_us;
  double busy_us = 0.0;
  for (const Span& s : spans.named("snn.batch")) {
    if (s.start_us < t0 || s.start_us > t1) continue;
    batches.push_back(BatchSpan{s.duration_us() / 1e3, static_cast<std::size_t>(s.count)});
    batch_us.push_back(s.duration_us());
    busy_us += s.duration_us();
  }
  std::vector<double> sample_us;
  double sample_busy_us = 0.0;
  for (const Span& s : spans.named("snn.sample")) {
    if (s.start_us < t0 || s.start_us > t1) continue;
    sample_us.push_back(s.duration_us());
    sample_busy_us += s.duration_us();
  }

  double stamp_sum = 0.0;
  for (const double ms : server_ms) stamp_sum += ms;
  report.layer("net.self_ms_per_req", net_self_per_req(wire_ms, server_ms));
  report.layer("net.parse_ns_per_frame", parse_ns_per_frame(phase, prepared.catalog));
  const net::WireStats& w0 = before.wire;
  const net::WireStats& w1 = after.wire;
  const std::uint64_t frames = std::max<std::uint64_t>(w1.requests - w0.requests, 1);
  report.layer("net.bytes_per_req",
               static_cast<double>(w1.bytes_in - w0.bytes_in + w1.bytes_out - w0.bytes_out) /
                   static_cast<double>(frames));
  report.layer("net.read_pauses", static_cast<double>(w1.read_pauses - w0.read_pauses));

  const serve::ServerStats& s0 = before.server;
  const serve::ServerStats& s1 = after.server;
  const auto formed = static_cast<double>(s1.batches_formed - s0.batches_formed);
  const auto served = static_cast<double>(s1.completed - s0.completed);
  report.layer("serve.latency_p50_ms", median(server_ms));
  report.layer("serve.self_ms_per_req", serve_self_per_req(stamp_sum, batches, server_ms.size()));
  report.layer("serve.batch_mean", formed > 0 ? served / formed : 0.0);
  report.layer("serve.batches", formed);
  report.layer("serve.replica_util",
               t1 > t0 ? busy_us / ((t1 - t0) * static_cast<double>(kReplicas)) : 0.0);
  report.layer("serve.queue_depth_p99", depths.empty() ? 0.0 : quantile(depths, 0.99));
  report.layer("serve.refused",
               static_cast<double>((s1.rejected - s0.rejected) +
                                   (s1.rejected_overload - s0.rejected_overload) +
                                   (s1.shed - s0.shed)));

  report.layer("snn.sample_us_p50", median(sample_us));
  report.layer("snn.batch_us_p50", median(batch_us));
  report.layer("snn.mops_per_s.event", sample_busy_us > 0 ? ops / sample_busy_us : 0.0);
  report.layer("snn.pack_ms", stack.pack_ms());
  const snn::RegistryStats rs = stack.registry().stats();
  report.layer("snn.registry.hits", static_cast<double>(rs.hits));
  report.layer("snn.registry.misses", static_cast<double>(rs.misses));
  report.layer("snn.registry.warm_bytes", static_cast<double>(rs.warm_bytes));

  // Exact activity and its hardware price, averaged over the models served.
  TraceSummary mean = prepared.summaries.front();
  for (std::size_t m = 1; m < prepared.summaries.size(); ++m) {
    const TraceSummary& s = prepared.summaries[m];
    const auto blend = [m](double& acc, double v) {
      acc += (v - acc) / static_cast<double>(m + 1);
    };
    for (std::size_t k = 0; k < mean.layer_spikes.size(); ++k) {
      blend(mean.layer_spikes[k], s.layer_spikes[k]);
      blend(mean.layer_ops[k], s.layer_ops[k]);
    }
    for (std::size_t k = 0; k < mean.hw_cycles.size(); ++k) blend(mean.hw_cycles[k], s.hw_cycles[k]);
    blend(mean.spikes, s.spikes);
    blend(mean.ops, s.ops);
    blend(mean.energy_uj, s.energy_uj);
    blend(mean.price_us, s.price_us);
  }
  put_trace_layers(mean, report);
}

void lateness_notes(const PhaseResult& phase, Report& report) {
  const std::vector<double> late = phase.lateness_ms();
  report.note("generator_lateness_p50_ms", median(late));
  report.note("generator_lateness_p99_ms", quantile(late, 0.99));
  report.note("generator_lateness_max_ms", quantile(late, 1.0));
}

void finish(WireStack& stack, Report& report) {
  if (!stack.stop()) report.problems.push_back("shutdown: requests left in flight");
}

}  // namespace

Report run_wire_light(const RunSpec& spec) {
  Report report;
  ttfs::Rng inputs{spec.seed};
  const Prepared prepared = prepare(1, inputs, spec.spans != nullptr);
  ttfs::Rng picks{spec.seed * 7919 + 1};
  const std::size_t conns = max_connections();
  std::unique_ptr<WireStack> stack =
      timed_setups(prepared.catalog, conns, spec.spans, picks, report);

  // Each phase gets fresh sockets and only the ones it uses: a socket left
  // idle through a long phase would be reaped by the server's idle timeout.
  stack->reconnect(1);
  std::vector<double> depths;
  if (spec.spans != nullptr) {
    stack->client().set_tick(
        [&] { depths.push_back(static_cast<double>(stack->server().stats().queue_depth)); });
  }
  const double light_s = 0.6 * spec.seconds;
  const StatsSnapshot before = stack->snapshot();
  const PhaseResult light = stack->client().closed_loop(
      1, 0, light_s, samples_for_percentile(kTailPercentile),
      std::numeric_limits<std::size_t>::max(), picks, light_s + kPhaseSlack);
  const StatsSnapshot after = stack->snapshot();
  account("closed loop, 1 connection", light, report);
  stack->reconnect(conns);
  const double busy_s = 0.4 * spec.seconds;
  const PhaseResult busy = stack->client().closed_loop(
      conns, 0, busy_s, 0, std::numeric_limits<std::size_t>::max(), picks, busy_s + kPhaseSlack);
  account("closed loop, all connections", busy, report);

  set_latency(light.latency_ms(), report);
  report.set("rps", static_cast<double>(light.ok()) / light.last_recv_s(), light.ok());
  report.set("peak_rps", static_cast<double>(busy.ok()) / busy.last_recv_s(), busy.ok());
  report.note("connections", static_cast<double>(conns));
  if (spec.spans != nullptr) {
    wire_layers(*stack, light, before, after, depths, prepared, *spec.spans, report);
  }
  finish(*stack, report);
  return report;
}

Report run_wire_poisson(const RunSpec& spec) {
  Report report;
  ttfs::Rng inputs{spec.seed};
  const Prepared prepared = prepare(2, inputs, spec.spans != nullptr);
  ttfs::Rng picks{spec.seed * 7919 + 1};
  const std::size_t conns = max_connections();
  std::unique_ptr<WireStack> stack =
      timed_setups(prepared.catalog, conns, spec.spans, picks, report);

  std::vector<double> depths;
  if (spec.spans != nullptr) {
    stack->client().set_tick(
        [&] { depths.push_back(static_cast<double>(stack->server().stats().queue_depth)); });
  }
  ttfs::Rng arrivals{spec.seed * 104729 + 3};
  const double fixed_s = 0.4 * spec.seconds;
  const StatsSnapshot before = stack->snapshot();
  const PhaseResult fixed = stack->client().open_loop(
      poisson_schedule(kFixedRate, fixed_s, 2, arrivals), fixed_s + kPhaseSlack);
  const StatsSnapshot after = stack->snapshot();
  stack->client().set_tick({});
  account("fixed rate", fixed, report);
  set_latency(fixed.latency_ms(), report);
  report.set("rps", static_cast<double>(fixed.ok()) / std::max(fixed_s, fixed.last_recv_s()),
             fixed.ok());
  lateness_notes(fixed, report);
  report.note("fixed_rate_rps", kFixedRate);

  // Capacity: the highest offered rate whose step keeps p99 inside the bound
  // with no backlog and no error. Each step is long enough for its p99.
  CapacitySearch search;
  const double base_step_s = 0.05 * spec.seconds;
  while (!search.done()) {
    const double rate = search.next_rate();
    const double tail_s = 1.2 * static_cast<double>(samples_for_percentile(kTailPercentile)) / rate;
    const double step_s = std::max(base_step_s, tail_s);
    const std::vector<Arrival> schedule = poisson_schedule(rate, step_s, 2, arrivals);
    const PhaseResult step = stack->client().open_loop(schedule, step_s + kPhaseSlack);
    StepOutcome outcome;
    outcome.arrivals = schedule.size();
    outcome.completed = step.answered_by(step_s + kP99BoundMs / 1e3);
    outcome.failed = step.failed();
    outcome.p99_ms = quantile(step.latency_ms(), kTailPercentile / 100.0);
    const bool passed = step_passes(outcome) && step.error.empty();
    if (passed) {
      account("capacity step", step, report);
    } else if (step.mismatches() != 0 || !step.error.empty()) {
      account("capacity step", step, report);  // a wrong answer counts even here
    }
    search.record(passed);
  }
  if (search.capacity() <= 0.0) report.problems.push_back("capacity search found no passing rate");
  report.set("peak_rps", search.capacity(), static_cast<std::size_t>(search.steps()));

  if (spec.spans != nullptr) {
    wire_layers(*stack, fixed, before, after, depths, prepared, *spec.spans, report);
  }
  finish(*stack, report);
  return report;
}

}  // namespace ttfsbench

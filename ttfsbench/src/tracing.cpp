#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace ttfsbench {

std::int64_t SpanRecorder::next_id() {
  const std::lock_guard<std::mutex> lock{mu_};
  return next_id_++;
}

std::int64_t SpanRecorder::add(Span span) {
  const std::lock_guard<std::mutex> lock{mu_};
  if (span.id == 0) span.id = next_id_++;
  spans_.push_back(span);
  return span.id;
}

std::vector<Span> SpanRecorder::named(const char* name) const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

bool SpanRecorder::write(const std::string& path, const std::string& provenance_json) const {
  std::ofstream f{path};
  if (!f) return false;
  f << "{\"provenance\": " << provenance_json << "}\n";
  const std::lock_guard<std::mutex> lock{mu_};
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"id\": %lld, "
                  "\"parent\": %lld, \"request\": %lld, \"count\": %lld}\n",
                  s.name, s.start_us, s.end_us, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), static_cast<long long>(s.request),
                  static_cast<long long>(s.count));
    f << line;
  }
  return static_cast<bool>(f);
}

void TracingBackend::ensure_ready(const ttfs::snn::SnnNetwork& net) const {
  const Clock::time_point t0 = Clock::now();
  inner_->ensure_ready(net);
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const std::lock_guard<std::mutex> lock{mu_};
  max_ensure_ms_ = std::max(max_ensure_ms_, ms);
}

double TracingBackend::max_ensure_ready_ms() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return max_ensure_ms_;
}

void TracingBackend::run_sample(const ttfs::snn::SnnNetwork& net,
                                const ttfs::snn::BatchView& batch, std::int64_t i,
                                ttfs::snn::SimArena& arena,
                                const ttfs::snn::SampleSlots& slots) const {
  const BatchKey key{&batch, batch.sample(0)};
  const double start = spans_->now_us();
  std::int64_t batch_id = 0;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    auto [it, fresh] = open_.try_emplace(key);
    if (fresh) {
      it->second.id = spans_->next_id();
      it->second.start_us = start;
      it->second.remaining = batch.size();
    }
    batch_id = it->second.id;
  }
  inner_->run_sample(net, batch, i, arena, slots);
  const double end = spans_->now_us();
  spans_->add(Span{"snn.sample", start, end, 0, batch_id, -1, 1});

  const std::lock_guard<std::mutex> lock{mu_};
  OpenBatch& open = open_.at(key);
  open.end_us = std::max(open.end_us, end);
  if (--open.remaining == 0) {
    spans_->add(Span{"snn.batch", open.start_us, open.end_us, open.id, -1, -1, batch.size()});
    open_.erase(key);
  }
}

}  // namespace ttfsbench

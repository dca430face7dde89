// Spans for the traced run, recorded from the benchmark's own files.
//
// SpanRecorder keeps every span in memory (name, start, end, parent, request
// id) and writes them as JSON lines at exit. TracingBackend is an
// InferenceBackend decorator the benchmark loads into the registry (or hands
// to a session) in place of the real backend: it forwards every virtual and
// records one "snn.sample" span per run_sample call and one "snn.batch" span
// per BatchView, the parent of that batch's sample spans. Untraced runs load
// the plain backend, so they pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "snn/engine.h"

namespace ttfsbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     // static string: "client.request", "snn.batch", ...
  double start_us = 0.0;     // since the recorder's epoch
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::int64_t request = -1; // wire request id; -1 where the layer cannot see it
  std::int64_t count = 1;    // samples in a batch span, 1 otherwise
  double duration_us() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  double now_us() const { return to_us(Clock::now()); }
  // Thread-safe. Assigns the span's id when it is 0 and returns it.
  std::int64_t add(Span span);
  std::int64_t next_id();
  // Copy of every span recorded so far whose name is `name`.
  std::vector<Span> named(const char* name) const;
  // One JSON object per line: a {"provenance": ...} header, then the spans.
  // Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& provenance_json) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

class TracingBackend final : public ttfs::snn::InferenceBackend {
 public:
  TracingBackend(std::shared_ptr<const ttfs::snn::InferenceBackend> inner, SpanRecorder& spans)
      : inner_{std::move(inner)}, spans_{&spans} {}

  std::string name() const override { return inner_->name(); }
  bool supports_traces() const override { return inner_->supports_traces(); }
  bool uses_arena() const override { return inner_->uses_arena(); }
  bool needs_packed_weights() const override { return inner_->needs_packed_weights(); }
  void ensure_ready(const ttfs::snn::SnnNetwork& net) const override;
  bool has_resident_pack() const override { return inner_->has_resident_pack(); }
  std::size_t resident_pack_bytes(const ttfs::snn::SnnNetwork& net) const override {
    return inner_->resident_pack_bytes(net);
  }
  void release_pack(const ttfs::snn::SnnNetwork& net) const override { inner_->release_pack(net); }
  void run_sample(const ttfs::snn::SnnNetwork& net, const ttfs::snn::BatchView& batch,
                  std::int64_t i, ttfs::snn::SimArena& arena,
                  const ttfs::snn::SampleSlots& slots) const override;

  // Longest single ensure_ready call: the one that built the pack.
  double max_ensure_ready_ms() const;

 private:
  // A batch is open from its first sample's start until its last sample
  // ends. The key (view address, first sample's data) tells apart the
  // batches that replicas run at the same time.
  using BatchKey = std::pair<const void*, const float*>;
  struct OpenBatch {
    std::int64_t id = 0;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t remaining = 0;
  };

  std::shared_ptr<const ttfs::snn::InferenceBackend> inner_;
  SpanRecorder* spans_;
  mutable std::mutex mu_;
  mutable std::map<BatchKey, OpenBatch> open_;
  mutable double max_ensure_ms_ = 0.0;
};

}  // namespace ttfsbench

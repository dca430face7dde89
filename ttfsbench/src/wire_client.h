// The benchmark's load client: one thread, pipelined nonblocking
// connections on one epoll loop, speaking net/protocol.h to a WireServer on
// loopback.
//
// Every answer is checked: a kOk response must carry logits bit-identical
// to the logits a direct InferenceSession run of the same image on the same
// model produced (Catalog::expected). Open-loop latency counts from the
// scheduled send, so a stalled generator or server is charged to the
// requests that waited; the lateness of the actual sends is kept too.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/epoll_loop.h"
#include "net/protocol.h"
#include "tracing.h"
#include "util/fd.h"
#include "util/rng.h"

namespace ttfsbench {

// What the client can send: per model, pre-encoded kInfer frames of an image
// pool (request id patched in per send) and each image's expected logits.
struct Catalog {
  std::vector<std::string> models;
  std::vector<std::vector<std::vector<std::uint8_t>>> frames;  // [model][image]
  std::vector<std::vector<std::vector<float>>> expected;       // [model][image]
};

struct Arrival {
  double t_s = 0.0;  // scheduled send, seconds from the phase start
  std::uint32_t model = 0;
  std::uint32_t image = 0;
};

struct RequestRecord {
  std::uint64_t rid = 0;
  std::uint32_t model = 0;
  std::uint32_t image = 0;
  std::uint32_t conn = 0;
  double due_s = 0.0;    // scheduled (open loop) or actual (closed loop) send
  double sent_s = -1.0;  // seconds from the phase start; -1 = never sent
  double recv_s = -1.0;  // -1 = never answered
  double server_s = 0.0; // server stamp from the kResult body
  bool ok = false;       // kOk with the expected logits
  bool mismatch = false; // kOk with any other logits
};

struct PhaseResult {
  Clock::time_point start;
  std::vector<RequestRecord> requests;
  bool deadline_hit = false;
  std::string error;  // connection failure; empty when none

  std::size_t ok() const;
  std::size_t failed() const { return requests.size() - ok(); }
  std::size_t mismatches() const;
  std::vector<double> latency_ms() const;  // recv - due, ok requests
  std::vector<double> server_ms() const;   // server stamps, ok requests
  std::vector<double> lateness_ms() const; // sent - due, sent requests
  std::size_t answered_by(double t_s) const;
  double last_recv_s() const;
};

class WireClient {
 public:
  // Opens `connections` sockets to 127.0.0.1:port. Throws std::runtime_error
  // when a socket cannot be set up.
  WireClient(std::uint16_t port, std::size_t connections, const Catalog& catalog);
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Runs `tick` about every 5 ms while a phase runs.
  void set_tick(std::function<void()> tick) { tick_ = std::move(tick); }

  // Closed loop on the first `conns` connections: each keeps one request for
  // `model` in flight (images drawn from `rng`) until `seconds` have passed
  // and `min_requests` were sent, or `max_requests` were sent; then the
  // outstanding ones drain. The phase is abandoned (deadline_hit) once
  // `limit_s` passes.
  PhaseResult closed_loop(std::size_t conns, std::uint32_t model, double seconds,
                          std::size_t min_requests, std::size_t max_requests, ttfs::Rng& rng,
                          double limit_s);
  // Open loop: arrival i goes out on connection i % connections at its
  // scheduled time, whether or not earlier requests were answered.
  PhaseResult open_loop(const std::vector<Arrival>& schedule, double limit_s);

 private:
  struct Conn {
    ttfs::util::Fd fd;
    ttfs::net::ResponseParser parser;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::size_t in_flight = 0;
  };

  void begin(PhaseResult& r);
  void send(PhaseResult& r, std::size_t idx);
  bool flush(Conn& conn);
  bool drain_reads(PhaseResult& r, Conn& conn);
  void on_response(PhaseResult& r, const ttfs::net::WireResponse& resp);
  // Waits up to timeout_ms for socket or timer events and handles them;
  // false (r.error set) when a connection broke.
  bool poll(PhaseResult& r, int timeout_ms);
  void arm_timer(Clock::time_point at);
  void maybe_tick();

  const Catalog& catalog_;
  ttfs::net::EpollLoop loop_;
  ttfs::util::Fd timer_;
  std::vector<Conn> conns_;
  std::function<void()> tick_;
  Clock::time_point last_tick_;
  std::uint64_t next_rid_ = 1;
  std::uint64_t base_rid_ = 1;
  std::size_t answered_ = 0;
};

}  // namespace ttfsbench

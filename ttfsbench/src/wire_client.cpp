#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "serve/result.h"

namespace ttfsbench {

namespace net = ttfs::net;
using ttfs::serve::seconds_since;

namespace {

constexpr std::uint64_t kTimerKey = 1U << 20;

}  // namespace

std::size_t PhaseResult::ok() const {
  return static_cast<std::size_t>(
      std::count_if(requests.begin(), requests.end(), [](const RequestRecord& r) { return r.ok; }));
}

std::size_t PhaseResult::mismatches() const {
  return static_cast<std::size_t>(std::count_if(
      requests.begin(), requests.end(), [](const RequestRecord& r) { return r.mismatch; }));
}

std::vector<double> PhaseResult::latency_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : requests) {
    if (r.ok) out.push_back((r.recv_s - r.due_s) * 1e3);
  }
  return out;
}

std::vector<double> PhaseResult::server_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : requests) {
    if (r.ok) out.push_back(r.server_s * 1e3);
  }
  return out;
}

std::vector<double> PhaseResult::lateness_ms() const {
  std::vector<double> out;
  for (const RequestRecord& r : requests) {
    if (r.sent_s >= 0.0) out.push_back((r.sent_s - r.due_s) * 1e3);
  }
  return out;
}

std::size_t PhaseResult::answered_by(double t_s) const {
  return static_cast<std::size_t>(std::count_if(
      requests.begin(), requests.end(),
      [t_s](const RequestRecord& r) { return r.recv_s >= 0.0 && r.recv_s <= t_s; }));
}

double PhaseResult::last_recv_s() const {
  double last = 0.0;
  for (const RequestRecord& r : requests) last = std::max(last, r.recv_s);
  return last;
}

WireClient::WireClient(std::uint16_t port, std::size_t connections, const Catalog& catalog)
    : catalog_{catalog}, conns_(std::max<std::size_t>(1, connections)) {
  // Scheduled sends wake on a timerfd rather than spinning a core the
  // server needs.
  timer_ = ttfs::util::Fd{::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)};
  if (!timer_.valid() || !loop_.add(timer_.get(), EPOLLIN, kTimerKey)) {
    throw std::runtime_error(std::string{"client: timerfd setup failed: "} + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    ttfs::util::Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
    if (!fd.valid() ||
        ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("client: connect to 127.0.0.1:" + std::to_string(port) +
                               " failed: " + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ttfs::util::set_nonblocking(fd.get());
    if (!loop_.add(fd.get(), EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c)) {
      throw std::runtime_error("client: epoll add failed");
    }
    conns_[c].fd = std::move(fd);
  }
}

void WireClient::begin(PhaseResult& r) {
  base_rid_ = next_rid_;
  answered_ = 0;
  r.start = Clock::now();
  last_tick_ = r.start;
}

void WireClient::send(PhaseResult& r, std::size_t idx) {
  RequestRecord& rec = r.requests[idx];
  Conn& conn = conns_[rec.conn];
  const std::vector<std::uint8_t>& frame = catalog_.frames[rec.model][rec.image];
  const std::size_t at = conn.out.size();
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  std::memcpy(conn.out.data() + at + 8, &rec.rid, sizeof(rec.rid));  // header request_id
  ++conn.in_flight;
  rec.sent_s = seconds_since(r.start);
  if (!flush(conn) && r.error.empty()) r.error = "client: send failed: " + std::string{std::strerror(errno)};
}

bool WireClient::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // EPOLLOUT resumes it
      if (errno == EINTR) continue;
      return false;
    }
    conn.out_off += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

void WireClient::on_response(PhaseResult& r, const net::WireResponse& resp) {
  const std::uint64_t idx = resp.request_id - base_rid_;  // wraps for stale ids
  if (resp.type == net::MessageType::kPong || idx >= r.requests.size()) return;
  RequestRecord& rec = r.requests[idx];
  if (rec.recv_s >= 0.0) return;
  rec.recv_s = seconds_since(r.start);
  rec.server_s = resp.latency_seconds;
  --conns_[rec.conn].in_flight;
  ++answered_;
  if (resp.type != net::MessageType::kResult || resp.status != net::WireStatus::kOk) return;
  const std::vector<float>& want = catalog_.expected[rec.model][rec.image];
  rec.ok = resp.logits.size() == want.size() &&
           std::memcmp(resp.logits.data(), want.data(), want.size() * sizeof(float)) == 0;
  rec.mismatch = !rec.ok;
}

bool WireClient::drain_reads(PhaseResult& r, Conn& conn) {
  for (;;) {
    const auto [buf, cap] = conn.parser.read_slot();
    if (cap == 0) return false;
    const ssize_t n = ::read(conn.fd.get(), buf, cap);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    const auto event = conn.parser.consume(static_cast<std::size_t>(n));
    if (event == net::ResponseParser::Event::kBad) return false;
    if (event == net::ResponseParser::Event::kResponse) on_response(r, conn.parser.response());
  }
}

bool WireClient::poll(PhaseResult& r, int timeout_ms) {
  std::vector<epoll_event> events;
  loop_.wait(timeout_ms, &events);
  for (const epoll_event& ev : events) {
    const std::uint64_t key = ev.data.u64;
    if (key == kTimerKey) {
      std::uint64_t expirations = 0;
      (void)!::read(timer_.get(), &expirations, sizeof(expirations));
      continue;
    }
    if (key >= conns_.size()) continue;
    Conn& conn = conns_[key];
    if ((ev.events & EPOLLOUT) != 0 && !flush(conn)) {
      r.error = "client: connection " + std::to_string(key) + " broke while sending";
      return false;
    }
    if ((ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 && !drain_reads(r, conn)) {
      r.error = "client: connection " + std::to_string(key) + " closed by the server";
      return false;
    }
  }
  maybe_tick();
  return r.error.empty();
}

void WireClient::arm_timer(Clock::time_point at) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(at.time_since_epoch()).count();
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1000000000);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
  ::timerfd_settime(timer_.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
}

void WireClient::maybe_tick() {
  if (!tick_) return;
  const Clock::time_point now = Clock::now();
  if (now - last_tick_ >= std::chrono::milliseconds{5}) {
    last_tick_ = now;
    tick_();
  }
}

PhaseResult WireClient::closed_loop(std::size_t conns, std::uint32_t model, double seconds,
                                    std::size_t min_requests, std::size_t max_requests,
                                    ttfs::Rng& rng, double limit_s) {
  PhaseResult r;
  conns = std::clamp<std::size_t>(conns, 1, conns_.size());
  begin(r);
  const auto images = static_cast<std::int64_t>(catalog_.frames[model].size());
  std::size_t total_in_flight = 0;
  for (;;) {
    const double now = seconds_since(r.start);
    const bool sending = (now < seconds || r.requests.size() < min_requests) &&
                         r.requests.size() < max_requests;
    if (sending) {
      for (std::size_t c = 0; c < conns && r.requests.size() < max_requests; ++c) {
        if (conns_[c].in_flight != 0) continue;
        RequestRecord rec;
        rec.rid = base_rid_ + r.requests.size();
        rec.model = model;
        rec.image = static_cast<std::uint32_t>(rng.uniform_int(0, images - 1));
        rec.conn = static_cast<std::uint32_t>(c);
        rec.due_s = seconds_since(r.start);
        r.requests.push_back(rec);
        send(r, r.requests.size() - 1);
      }
    }
    total_in_flight = 0;
    for (std::size_t c = 0; c < conns; ++c) total_in_flight += conns_[c].in_flight;
    if (!r.error.empty()) break;
    if (!sending && total_in_flight == 0) break;
    if (now > limit_s) {
      r.deadline_hit = true;
      break;
    }
    if (!poll(r, 5)) break;
  }
  next_rid_ = base_rid_ + r.requests.size();
  return r;
}

PhaseResult WireClient::open_loop(const std::vector<Arrival>& schedule, double limit_s) {
  PhaseResult r;
  r.requests.resize(schedule.size());
  begin(r);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    RequestRecord& rec = r.requests[i];
    rec.rid = base_rid_ + i;
    rec.model = schedule[i].model;
    rec.image = schedule[i].image;
    rec.conn = static_cast<std::uint32_t>(i % conns_.size());
    rec.due_s = schedule[i].t_s;
  }
  std::size_t next = 0;
  while (answered_ < schedule.size() && r.error.empty()) {
    const double now = seconds_since(r.start);
    if (now > limit_s) {
      r.deadline_hit = true;
      break;
    }
    while (next < schedule.size() && schedule[next].t_s <= now) send(r, next++);
    if (next < schedule.size()) {
      arm_timer(r.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(schedule[next].t_s)));
    }
    if (!poll(r, 50)) break;
  }
  next_rid_ = base_rid_ + r.requests.size();
  return r;
}

}  // namespace ttfsbench

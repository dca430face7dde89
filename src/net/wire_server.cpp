#ifdef __linux__

#include "net/wire_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ttfs::net {

namespace {

constexpr std::uint64_t kListenKey = 1;

}  // namespace

WireServer::WireServer(serve::SnnServer& server, WireOptions opts)
    : server_{server}, opts_{std::move(opts)} {
  util::Fd fd{::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)};
  if (!fd.valid()) {
    throw std::runtime_error(std::string{"wire server: socket() failed: "} +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("wire server: bad bind address " + opts_.bind_address);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("wire server: bind to " + opts_.bind_address + ":" +
                             std::to_string(opts_.port) + " failed: " + std::strerror(errno));
  }
  if (::listen(fd.get(), opts_.backlog) != 0) {
    throw std::runtime_error(std::string{"wire server: listen() failed: "} +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("wire server: getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  listener_ = std::move(fd);
  if (!loop_.add(listener_.get(), EPOLLIN | EPOLLET, kListenKey)) {
    throw std::runtime_error("wire server: registering the listener failed");
  }
  io_ = std::thread([this] { io_loop(); });
}

WireServer::~WireServer() { stop(); }

void WireServer::stop() {
  std::call_once(stopped_, [this] {
    stopping_.store(true, std::memory_order_release);
    loop_.wake();
    if (io_.joinable()) io_.join();
  });
}

WireStats WireServer::stats() const {
  util::MutexLock lock{mu_};
  WireStats s = stats_;
  s.active = static_cast<std::size_t>(s.accepted - s.closed);
  const std::int64_t in_flight = in_flight_total_.load(std::memory_order_acquire);
  s.in_flight = in_flight > 0 ? static_cast<std::size_t>(in_flight) : 0;
  return s;
}

void WireServer::io_loop() {
  std::vector<epoll_event> events;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  for (;;) {
    if (!draining && stopping_.load(std::memory_order_acquire)) {
      // Drain starts: no more accepts, no more reads. In-flight requests
      // keep resolving and their responses keep flushing below.
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() + opts_.drain_timeout;
      loop_.del(listener_.get());
      listener_.reset();
      for (auto& [key, conn] : conns_) {
        conn->events &= ~static_cast<std::uint32_t>(EPOLLIN | EPOLLRDHUP);
        update_interest(*conn);
      }
    }
    if (draining) {
      if (drained()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        // Flush bound hit: give up on sockets still holding bytes, but keep
        // waiting for outstanding completions — serve's drain contract says
        // they all arrive, and their callbacks reference this object.
        std::vector<std::uint64_t> keys;
        keys.reserve(conns_.size());
        for (const auto& [key, conn] : conns_) keys.push_back(key);
        for (const std::uint64_t key : keys) close_conn(key);
        if (drained()) break;
      }
    }

    int timeout_ms = 200;
    if (draining) {
      timeout_ms = 10;
    } else if (opts_.idle_timeout.count() > 0) {
      timeout_ms = static_cast<int>(
          std::clamp<std::int64_t>(opts_.idle_timeout.count() / 4, 10, 100));
    }
    loop_.wait(timeout_ms, &events);

    for (const epoll_event& ev : events) {
      const std::uint64_t key = ev.data.u64;
      if (key == kWakeKey) continue;  // completions drain below every round
      if (key == kListenKey) {
        if (!draining) handle_accept();
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn& conn = *it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        close_conn(key);
        continue;
      }
      if (ev.events & EPOLLOUT) {
        handle_writable(conn);
        if (conns_.find(key) == conns_.end()) continue;
      }
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) handle_readable(conn);
    }

    drain_completions();
    if (!draining) sweep_idle(std::chrono::steady_clock::now());
  }
  // Whatever is left (idle connections with nothing owed) closes now.
  std::vector<std::uint64_t> keys;
  keys.reserve(conns_.size());
  for (const auto& [key, conn] : conns_) keys.push_back(key);
  for (const std::uint64_t key : keys) close_conn(key);
}

void WireServer::handle_accept() {
  for (;;) {
    util::Fd fd{::accept4(listener_.get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC)};
    if (!fd.valid()) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (EMFILE/ECONNABORTED) — next edge retries
    }
    if (conns_.size() >= opts_.max_connections) {
      util::MutexLock lock{mu_};
      ++stats_.refused_capacity;
      continue;  // fd closes on scope exit
    }
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t key = next_key_++;
    auto conn = std::make_unique<Conn>(std::move(fd), key, opts_.limits);
    conn->events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    conn->last_activity = std::chrono::steady_clock::now();
    if (!loop_.add(conn->fd.get(), conn->events, key)) continue;
    conns_.emplace(key, std::move(conn));
    util::MutexLock lock{mu_};
    ++stats_.accepted;
  }
}

void WireServer::handle_readable(Conn& conn) {
  conn.last_activity = std::chrono::steady_clock::now();
  read_until_blocked(conn);
}

void WireServer::handle_writable(Conn& conn) {
  if (!flush_outbox(conn)) close_conn(conn.key);
}

bool WireServer::read_until_blocked(Conn& conn) {
  if (conn.reads_paused || conn.peer_half_closed || conn.close_after_flush) return true;
  for (;;) {
    const auto [buf, cap] = conn.parser.read_slot();
    if (cap == 0) {  // parser is in its terminal kBad state
      close_conn(conn.key);
      return false;
    }
    const ssize_t n = ::read(conn.fd.get(), buf, cap);
    if (n == 0) {
      // Peer finished sending (shutdown or close). Keep the connection while
      // responses are owed — a half-closing client still reads them; a fully
      // closed one fails the next write and closes then.
      conn.peer_half_closed = true;
      conn.events &= ~static_cast<std::uint32_t>(EPOLLIN | EPOLLRDHUP);
      update_interest(conn);
      if (conn.in_flight == 0 && conn.outbox.empty()) {
        close_conn(conn.key);
        return false;
      }
      return true;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      close_conn(conn.key);
      return false;
    }
    {
      util::MutexLock lock{mu_};
      stats_.bytes_in += static_cast<std::uint64_t>(n);
    }
    switch (conn.parser.consume(static_cast<std::size_t>(n))) {
      case RequestParser::Event::kNeedMore:
        break;
      case RequestParser::Event::kRequest:
        if (!submit_request(conn)) return false;
        if (conn.reads_paused) return true;  // backpressure engaged mid-burst
        break;
      case RequestParser::Event::kPing:
        {
          const std::uint64_t id = conn.parser.request_id();
          conn.parser.reset_frame();
          if (!enqueue_frame(conn, encode_pong(id))) return false;
        }
        if (conn.reads_paused) return true;
        break;
      case RequestParser::Event::kBad: {
        // Framing trust is gone: answer with the diagnostic, then close as
        // soon as it flushes. Reads stop immediately.
        {
          util::MutexLock lock{mu_};
          ++stats_.protocol_errors;
        }
        conn.close_after_flush = true;
        conn.events &= ~static_cast<std::uint32_t>(EPOLLIN | EPOLLRDHUP);
        update_interest(conn);
        enqueue_frame(conn, encode_error(conn.parser.request_id(),
                                         conn.parser.error_status(), conn.parser.error()));
        return false;  // closed, or closing once the error frame flushes
      }
    }
  }
}

bool WireServer::submit_request(Conn& conn) {
  const std::uint64_t request_id = conn.parser.request_id();
  const std::string model = conn.parser.model();
  Tensor image = conn.parser.take_payload();
  {
    util::MutexLock lock{mu_};
    ++stats_.requests;
  }
  // Unknown-model precheck for error fidelity: the serve layer folds unknown
  // ids into kRejected; the wire answer distinguishes them. A model unloaded
  // between this check and the submit still answers kRejected — that race is
  // inherent and harmless.
  if (!server_.registry().contains(model)) {
    {
      util::MutexLock lock{mu_};
      ++stats_.responses;
    }
    return enqueue_frame(conn, encode_error(request_id, WireStatus::kUnknownModel,
                                            "unknown model \"" + model + "\""));
  }
  const std::uint64_t key = conn.key;
  ++conn.in_flight;
  in_flight_total_.fetch_add(1, std::memory_order_acq_rel);
  try {
    // The callback runs on whatever thread resolves the request. It pushes
    // under mu_ and wakes the loop WHILE STILL HOLDING mu_: the IO thread can
    // only observe the completion through mu_, so by the time it processes
    // the record (and possibly tears the loop down at drain), the producer
    // has already left loop_.wake().
    server_.submit_async(model, std::move(image),
                         [this, key, request_id](serve::ServeResult r) {
                           util::MutexLock lock{mu_};
                           completions_.push_back(Completion{key, request_id, std::move(r)});
                           loop_.wake();
                         });
  } catch (const std::invalid_argument& e) {
    // Well-framed but semantically wrong (shape mismatch): a per-request
    // error, the connection survives.
    --conn.in_flight;
    in_flight_total_.fetch_sub(1, std::memory_order_acq_rel);
    {
      util::MutexLock lock{mu_};
      ++stats_.responses;
    }
    return enqueue_frame(conn, encode_error(request_id, WireStatus::kBadRequest, e.what()));
  }
  return true;
}

bool WireServer::enqueue_frame(Conn& conn, std::vector<std::uint8_t> frame) {
  conn.outbox_bytes += frame.size();
  conn.outbox.push_back(std::move(frame));
  if (!flush_outbox(conn)) {
    close_conn(conn.key);
    return false;
  }
  if (!conn.reads_paused && conn.outbox_bytes > opts_.write_high_watermark) {
    conn.reads_paused = true;
    conn.events &= ~static_cast<std::uint32_t>(EPOLLIN | EPOLLRDHUP);
    update_interest(conn);
    util::MutexLock lock{mu_};
    ++stats_.read_pauses;
  }
  return true;
}

bool WireServer::flush_outbox(Conn& conn) {
  while (!conn.outbox.empty()) {
    const std::vector<std::uint8_t>& front = conn.outbox.front();
    const std::size_t left = front.size() - conn.out_off;
    const ssize_t n = ::send(conn.fd.get(), front.data() + conn.out_off, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!(conn.events & EPOLLOUT)) {
          conn.events |= EPOLLOUT;
          update_interest(conn);
        }
        return true;
      }
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET — peer fully gone
    }
    {
      util::MutexLock lock{mu_};
      stats_.bytes_out += static_cast<std::uint64_t>(n);
    }
    conn.out_off += static_cast<std::size_t>(n);
    conn.outbox_bytes -= static_cast<std::size_t>(n);
    if (conn.out_off == front.size()) {
      conn.outbox.pop_front();
      conn.out_off = 0;
    }
  }
  if (conn.events & EPOLLOUT) {
    conn.events &= ~static_cast<std::uint32_t>(EPOLLOUT);
    update_interest(conn);
  }
  if (conn.reads_paused && conn.outbox_bytes <= opts_.write_high_watermark / 2) {
    // Resume reads (EPOLL_CTL_MOD re-arms the edge, so data that arrived
    // while paused is reported again) — unless the connection is on its way
    // out anyway.
    conn.reads_paused = false;
    if (!conn.close_after_flush && !conn.peer_half_closed &&
        !stopping_.load(std::memory_order_acquire)) {
      conn.events |= EPOLLIN | EPOLLRDHUP;
      update_interest(conn);
    }
  }
  if (conn.outbox.empty() &&
      (conn.close_after_flush || (conn.peer_half_closed && conn.in_flight == 0))) {
    return false;  // planned close: everything owed has been flushed
  }
  return true;
}

void WireServer::update_interest(Conn& conn) {
  loop_.mod(conn.fd.get(), conn.events, conn.key);
}

void WireServer::close_conn(std::uint64_t key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  // In-flight completions for this connection are dropped when they arrive
  // (drain_completions finds no conn) — the global counter still balances.
  loop_.del(it->second->fd.get());
  conns_.erase(it);
  util::MutexLock lock{mu_};
  ++stats_.closed;
}

void WireServer::drain_completions() {
  std::vector<Completion> batch;
  {
    util::MutexLock lock{mu_};
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    in_flight_total_.fetch_sub(1, std::memory_order_acq_rel);
    auto it = conns_.find(c.conn_key);
    if (it == conns_.end()) continue;  // mid-request disconnect: drop result
    Conn& conn = *it->second;
    if (conn.in_flight > 0) --conn.in_flight;
    {
      util::MutexLock lock{mu_};
      ++stats_.responses;
    }
    if (c.result.status == serve::RequestStatus::kOk) {
      enqueue_frame(conn, encode_result(c.request_id, c.result));
    } else {
      const WireStatus status = wire_status(c.result.status);
      enqueue_frame(conn, encode_error(c.request_id, status,
                                       to_string(status) + ": " + c.result.model_id));
    }
  }
}

void WireServer::sweep_idle(std::chrono::steady_clock::time_point now) {
  if (opts_.idle_timeout.count() <= 0) return;
  std::vector<std::uint64_t> victims;
  for (const auto& [key, conn] : conns_) {
    if (conn->in_flight == 0 && conn->outbox.empty() &&
        now - conn->last_activity >= opts_.idle_timeout) {
      victims.push_back(key);
    }
  }
  for (const std::uint64_t key : victims) {
    {
      // Counted before the close: a client that sees EOF reads the count.
      util::MutexLock lock{mu_};
      ++stats_.idle_closed;
    }
    close_conn(key);
  }
}

bool WireServer::drained() const {
  if (in_flight_total_.load(std::memory_order_acquire) != 0) return false;
  {
    util::MutexLock lock{mu_};
    if (!completions_.empty()) return false;
  }
  for (const auto& [key, conn] : conns_) {
    (void)key;
    if (!conn->outbox.empty()) return false;
  }
  return true;
}

}  // namespace ttfs::net

#endif  // __linux__

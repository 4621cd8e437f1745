#include "net/ingress.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/socket_io.hpp"
#include "obs/journal.hpp"
#include "shard/deadline_batcher.hpp"

namespace dsx::net {

namespace {

const char* header_error_text(HeaderVerdict v) {
  switch (v) {
    case HeaderVerdict::kBadMagic:
      return "bad magic";
    case HeaderVerdict::kBadVersion:
      return "unsupported protocol version";
    case HeaderVerdict::kBadType:
      return "bad frame type";
    case HeaderVerdict::kTooLarge:
      return "frame exceeds max_frame_bytes";
    case HeaderVerdict::kOk:
      break;
  }
  return "framing error";
}

bool contains(const char* what, const char* needle) {
  return std::string(what).find(needle) != std::string::npos;
}

}  // namespace

IngressServer::IngressServer(serve::InferenceServer& server,
                             IngressOptions opts, ResidencyManager* residency)
    : server_(server), opts_(std::move(opts)), residency_(residency) {
  DSX_REQUIRE(opts_.port >= 0 && opts_.port <= 65535,
              "IngressOptions: port must be in [0, 65535]");
  DSX_REQUIRE(opts_.max_connections >= 1,
              "IngressOptions: max_connections must be >= 1");
  DSX_REQUIRE(opts_.dispatch_threads >= 1,
              "IngressOptions: dispatch_threads must be >= 1");
  DSX_REQUIRE(opts_.dispatch_capacity >= 1,
              "IngressOptions: dispatch_capacity must be >= 1");
  DSX_REQUIRE(opts_.max_frame_bytes >= 64,
              "IngressOptions: max_frame_bytes must be >= 64");
  for (size_t i = 0; i < opts_.tenants.size(); ++i) {
    TenantSpec& t = opts_.tenants[i];
    DSX_REQUIRE(!t.token.empty(), "TenantSpec: empty token (tenant "
                                      << i << "); anonymous access is the "
                                         "allow_anonymous option");
    if (t.name.empty()) t.name = t.token;
    DSX_REQUIRE(
        token_to_tenant_.emplace(t.token, static_cast<int>(i)).second,
        "TenantSpec: duplicate token '" << t.token << "'");
  }
  tenant_inflight_ = std::vector<std::atomic<int>>(opts_.tenants.size());

  obs::Registry& reg = obs::Registry::global();
  connections_metric_ = reg.counter("dsx_net_connections_total", {},
                                    "Ingress connections accepted.");
  frames_metric_ = reg.counter("dsx_net_frames_total", {},
                               "Request frames parsed off the wire.");
  replies_metric_ = reg.counter("dsx_net_replies_total", {},
                                "Reply frames queued for delivery.");
  reply_errors_metric_ =
      reg.counter("dsx_net_reply_errors_total", {},
                  "Replies carrying a non-ok status.");
  framing_metric_ =
      reg.counter("dsx_net_framing_errors_total", {},
                  "Header-level protocol errors (connection closed).");
  rejected_metric_ = reg.counter("dsx_net_rejected_total", {},
                                 "Frames rejected by auth or tenant quota.");
  pauses_metric_ = reg.counter(
      "dsx_net_backpressure_pauses_total", {},
      "Connections whose reads paused on a full write queue.");
  open_metric_ =
      reg.gauge("dsx_net_open_connections", {}, "Connections held open.");
}

IngressServer::~IngressServer() { stop(); }

void IngressServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = sockio::listen_tcp(opts_.bind_address, opts_.port);
  sockio::set_nonblocking(listen_fd_);
  port_.store(sockio::bound_port(listen_fd_), std::memory_order_release);
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error(std::string("ingress: pipe(): ") + std::strerror(errno));
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  sockio::set_nonblocking(wake_rd_);
  sockio::set_nonblocking(wake_wr_);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  event_thread_ = std::thread([this] { event_loop(); });
  workers_.reserve(static_cast<size_t>(opts_.dispatch_threads));
  for (int i = 0; i < opts_.dispatch_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::Journal::global().record(
      obs::EventKind::kRegister, "net.ingress",
      "listening on " + opts_.bind_address + ":" + std::to_string(port()));
}

void IngressServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  wake();
  if (event_thread_.joinable()) event_thread_.join();
  dispatch_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  listen_fd_ = wake_rd_ = wake_wr_ = -1;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    completions_.clear();
  }
  port_.store(0, std::memory_order_release);
  obs::Journal::global().record(obs::EventKind::kUnregister, "net.ingress",
                                "stopped");
}

IngressServer::Stats IngressServer::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.dropped_replies = dropped_replies_.load(std::memory_order_relaxed);
  s.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

void IngressServer::wake() {
  const char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &byte, 1);
}

// ---- event thread ----------------------------------------------------------

void IngressServer::event_loop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> ids;
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    ids.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    ids.push_back(0);
    if (static_cast<int>(conns_.size()) < opts_.max_connections) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      ids.push_back(0);
    }
    const size_t fixed = pfds.size();
    for (auto& [id, c] : conns_) {
      const bool pause = c.out_bytes > opts_.max_conn_out_bytes;
      if (pause && !c.paused) pauses_metric_.inc();
      c.paused = pause;
      short events = 0;
      if (!c.read_closed && !c.closing && !c.paused) events |= POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
      ids.push_back(id);
    }
    ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/100);
    if (stopping_.load(std::memory_order_acquire)) break;

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    // Deliver completed replies before socket IO so fresh replies can be
    // flushed by this same iteration's POLLOUT handling next round.
    std::deque<Completion> done;
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      done.swap(completions_);
    }
    for (Completion& comp : done) {
      auto it = conns_.find(comp.conn_id);
      if (it == conns_.end()) {
        // Disconnect-mid-reply: the future was consumed; the bytes have
        // nowhere to go.
        dropped_replies_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      it->second.inflight--;
      enqueue_reply(it->second, std::move(comp.bytes));
    }
    if (pfds.size() > 1 && ids[1] == 0 && fixed == 2 &&
        (pfds[1].revents & POLLIN)) {
      accept_ready();
    }
    for (size_t i = fixed; i < pfds.size(); ++i) {
      auto it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      if (pfds[i].revents & POLLNVAL) {
        drop_conn(c.id);
        continue;
      }
      if (pfds[i].revents & POLLIN) handle_readable(c);
      // Re-find: handle_readable may have dropped the connection.
      it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      if (pfds[i].revents & POLLOUT) handle_writable(it->second);
      it = conns_.find(ids[i]);
      if (it == conns_.end()) continue;
      if ((pfds[i].revents & (POLLERR | POLLHUP)) && it->second.out.empty()) {
        // Peer gone and nothing left to flush. (With queued out bytes we
        // keep trying; the write error path drops the conn.)
        drop_conn(ids[i]);
      }
    }
    // Retire connections that have nothing left to do: dead socket, fatal
    // framing error flushed, or peer EOF with every accepted frame
    // answered and flushed.
    std::vector<uint64_t> finished;
    for (auto& [id, c] : conns_) {
      if (c.dead || (c.closing && c.out.empty()) ||
          (c.read_closed && c.inflight == 0 && c.out.empty())) {
        finished.push_back(id);
      }
    }
    for (uint64_t id : finished) drop_conn(id);
  }
  for (auto& [id, c] : conns_) ::close(c.fd);
  conns_.clear();
  open_metric_.set(0);
}

void IngressServer::accept_ready() {
  while (static_cast<int>(conns_.size()) < opts_.max_connections) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient
    sockio::set_nonblocking(fd);
    // Replies are small frames written as soon as they are ready; with
    // Nagle on, a second reply on a connection waits for the client's
    // delayed ACK (~40 ms on Linux).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (opts_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                   sizeof(opts_.so_sndbuf));
    }
    Conn c;
    c.id = next_conn_id_++;
    c.fd = fd;
    const uint64_t id = c.id;
    conns_.emplace(id, std::move(c));
    connections_.fetch_add(1, std::memory_order_relaxed);
    connections_metric_.inc();
    open_metric_.set(static_cast<int64_t>(conns_.size()));
  }
}

void IngressServer::drop_conn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
  open_metric_.set(static_cast<int64_t>(conns_.size()));
}

void IngressServer::handle_readable(Conn& c) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      c.read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    c.dead = true;  // hard socket error; the sweep retires it
    return;
  }
  parse_frames(c);
}

void IngressServer::parse_frames(Conn& c) {
  size_t off = 0;
  while (!c.closing && !c.dead && c.in.size() - off >= kHeaderBytes) {
    FrameType type;
    uint32_t payload_len = 0;
    const uint8_t* base =
        reinterpret_cast<const uint8_t*>(c.in.data()) + off;
    const HeaderVerdict verdict =
        parse_header(base, opts_.max_frame_bytes, &type, &payload_len);
    if (verdict != HeaderVerdict::kOk || type != FrameType::kRequest) {
      // Framing is lost: no way to find the next boundary. Answer what we
      // can (request id unknowable) and close once it flushes.
      framing_errors_.fetch_add(1, std::memory_order_relaxed);
      framing_metric_.inc();
      ReplyFrame err;
      err.status = Status::kBadRequest;
      err.message = verdict == HeaderVerdict::kOk
                        ? "unexpected frame type"
                        : header_error_text(verdict);
      enqueue_reply(c, encode_reply(err));
      c.closing = true;
      off = c.in.size();
      break;
    }
    if (c.in.size() - off < kHeaderBytes + payload_len) break;  // incomplete
    handle_frame(c, base + kHeaderBytes, payload_len);
    off += kHeaderBytes + payload_len;
  }
  if (off > 0) c.in.erase(0, off);
}

void IngressServer::handle_frame(Conn& c, const uint8_t* payload, size_t len) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  frames_metric_.inc();
  Task task;
  task.conn_id = c.id;
  std::string err;
  const Status parsed =
      parse_request_payload(payload, len, &task.req, &err);
  if (parsed != Status::kOk) {
    ReplyFrame reply;
    reply.request_id = task.req.request_id;  // 0 unless the id parsed
    reply.status = Status::kBadRequest;
    reply.message = err;
    enqueue_reply(c, encode_reply(reply));
    return;
  }
  // Tenant resolution + quota. Admission here runs on the event thread -
  // cheap map lookups only; the actual serving admission (QueueFull /
  // deadline shed) happens in the worker against the batcher.
  if (!task.req.token.empty()) {
    auto tenant = token_to_tenant_.find(task.req.token);
    if (tenant == token_to_tenant_.end()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_metric_.inc();
      enqueue_reply(c, encode_reply({task.req.request_id, Status::kAuthDenied,
                                     {}, "unknown auth token"}));
      return;
    }
    task.tenant = tenant->second;
  } else if (!opts_.allow_anonymous) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    rejected_metric_.inc();
    enqueue_reply(c, encode_reply({task.req.request_id, Status::kAuthDenied,
                                   {}, "auth token required"}));
    return;
  }
  if (task.tenant >= 0) {
    const TenantSpec& t = opts_.tenants[static_cast<size_t>(task.tenant)];
    if (t.max_inflight > 0 &&
        tenant_inflight_[static_cast<size_t>(task.tenant)].load(
            std::memory_order_relaxed) >= t.max_inflight) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      rejected_metric_.inc();
      enqueue_reply(c,
                    encode_reply({task.req.request_id, Status::kQueueFull, {},
                                  "tenant '" + t.name + "' over quota (" +
                                      std::to_string(t.max_inflight) +
                                      " in flight)"}));
      return;
    }
    // QoS floor: clamp to the tenant's class (numerically larger = less
    // urgent).
    task.req.priority = static_cast<serve::Priority>(
        std::max(static_cast<int>(task.req.priority),
                 static_cast<int>(t.priority)));
  }
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    if (dispatch_.size() >= opts_.dispatch_capacity) {
      enqueue_reply(c,
                    encode_reply({task.req.request_id, Status::kQueueFull, {},
                                  "ingress dispatch queue full"}));
      return;
    }
    if (task.tenant >= 0) {
      tenant_inflight_[static_cast<size_t>(task.tenant)].fetch_add(
          1, std::memory_order_relaxed);
    }
    c.inflight++;
    dispatch_.push_back(std::move(task));
  }
  dispatch_cv_.notify_one();
}

void IngressServer::enqueue_reply(Conn& c, std::string bytes) {
  replies_.fetch_add(1, std::memory_order_relaxed);
  replies_metric_.inc();
  c.out_bytes += bytes.size();
  c.out.push_back(std::move(bytes));
  // Opportunistic flush: most replies fit the socket buffer and go out
  // without waiting one poll round for POLLOUT.
  handle_writable(c);
}

void IngressServer::handle_writable(Conn& c) {
  while (!c.out.empty() && !c.dead) {
    const std::string& front = c.out.front();
    const ssize_t n = ::send(c.fd, front.data() + c.out_head,
                             front.size() - c.out_head, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Peer vanished; its queued replies go with it. Deferred close - the
      // caller may still hold a reference to this Conn.
      c.dead = true;
      c.out.clear();
      c.out_head = 0;
      c.out_bytes = 0;
      return;
    }
    c.out_head += static_cast<size_t>(n);
    c.out_bytes -= static_cast<size_t>(n);
    if (c.out_head == front.size()) {
      c.out.pop_front();
      c.out_head = 0;
    }
  }
}

// ---- dispatch workers ------------------------------------------------------

void IngressServer::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !dispatch_.empty();
      });
      if (dispatch_.empty()) return;  // stopping and drained
      task = std::move(dispatch_.front());
      dispatch_.pop_front();
    }
    std::string bytes = encode_reply(run_request(task.req));
    if (task.tenant >= 0) {
      tenant_inflight_[static_cast<size_t>(task.tenant)].fetch_sub(
          1, std::memory_order_relaxed);
    }
    bool first = false;
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      first = completions_.empty();
      completions_.push_back({task.conn_id, std::move(bytes)});
    }
    // Wake only on the empty->nonempty edge: the event thread drains the
    // whole queue per wake, so a non-empty queue already has a wake byte
    // in flight. Halves the pipe syscalls when batches complete together.
    if (first) wake();
  }
}

ReplyFrame IngressServer::run_request(const RequestFrame& req) {
  ReplyFrame reply;
  reply.request_id = req.request_id;
  shard::SubmitOptions sopts;
  sopts.priority = req.priority;
  if (req.deadline_us > 0) {
    sopts = shard::within(std::chrono::microseconds(req.deadline_us),
                          req.priority);
  }
  try {
    std::future<Tensor> fut;
    if (residency_ != nullptr) {
      try {
        fut = residency_->submit(req.model, req.image, sopts);
      } catch (const Error& e) {
        // Names the manager does not know may still be plain registrations.
        if (!contains(e.what(), "residency: unknown model")) throw;
        fut = server_.submit(req.model, req.image, sopts);
      }
    } else {
      fut = server_.submit(req.model, req.image, sopts);
    }
    reply.output = fut.get();
    reply.status = Status::kOk;
  } catch (const serve::QueueFull& e) {
    reply.status = Status::kQueueFull;
    reply.message = e.what();
  } catch (const serve::DeadlineExceeded& e) {
    reply.status = Status::kDeadlineExceeded;
    reply.message = e.what();
  } catch (const serve::Stopped& e) {
    reply.status = Status::kError;
    reply.message = e.what();
  } catch (const Error& e) {
    if (contains(e.what(), "no model named") ||
        contains(e.what(), "residency: unknown model")) {
      reply.status = Status::kNoSuchModel;
    } else {
      reply.status = Status::kError;
    }
    reply.message = e.what();
  } catch (const std::exception& e) {
    reply.status = Status::kError;
    reply.message = e.what();
  }
  if (reply.status != Status::kOk) reply_errors_metric_.inc();
  return reply;
}

}  // namespace dsx::net

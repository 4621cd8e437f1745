// wire_open_mnet_fast: independent users over the dsx::net loopback wire.
//
// Why: this is the path a remote client sees - net ingress framing, the
// batcher's max_delay hold on batches that rarely fill, batch-1 kernels of
// the fast-math kTune plan and pool dispatch. Arrivals are an open-loop
// Poisson schedule at 150 req/s, below this plan's latency knee on a 4-core
// host, so batches stay at 1-2 and latency measures the program rather than
// a queue that grows without bound. One generator thread multiplexes four
// raw connections with ppoll(), encoding requests and parsing replies with
// the public codec (net::encode_request / net::parse_reply_payload). The
// client disables Nagle's algorithm, as a latency-sensitive RPC client does,
// so what the wire adds to latency is the server's doing, not the client's.
// Latency runs from each request's due time, so a stall in the generator or
// the program is charged to every request it delays.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <random>
#include <unordered_map>

#include "common.hpp"
#include "common/socket_io.hpp"
#include "device/thread_pool.hpp"
#include "net/ingress.hpp"
#include "net/protocol.hpp"

namespace dsx::perfbench {

namespace {

constexpr double kRate = 150.0;  // offered requests per second
constexpr int kConns = 4;        // nproc
constexpr double kWarmupS = 1.0;
/// Generator validity limits. Lateness is how long after its due time a
/// request left the generator; past these the run measured a stalled
/// generator and is reported invalid rather than slow.
constexpr double kMaxLatenessP99Ms = 5.0;
constexpr double kMaxLatenessMs = 100.0;
constexpr double kDrainS = 5.0;
const std::string kModel = "mnet";

struct Conn {
  int fd = -1;
  std::string out;  // encoded frames not yet accepted by the socket
  size_t out_off = 0;
  std::string in;  // received bytes not yet parsed
};

/// One set-up serving stack plus its client connections. Destruction order
/// (members in reverse): connections, ingress, then server.
struct Stack {
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::IngressServer> ingress;
  std::vector<Conn> conns;
  std::unique_ptr<serve::CompiledModel> reference;  // identically compiled
  serve::CompileReport report;
  double compile_s = 0.0;
  double setup_s = 0.0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (Conn& c : conns) ::close(c.fd);
    if (ingress) ingress->stop();
    if (server) server->stop();
  }
};

bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    c.out_off += static_cast<size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

bool read_available(Conn& c) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EOF or error
  }
}

struct Pending {
  Clock::time_point due;
  int image = 0;
  bool measured = false;
  bool traced = false;
  double encode_us = 0.0;
  int window = -1;  // one-second window of the measured phase it is due in
};

/// Everything the generator observed in one schedule.
struct LoopStats {
  std::vector<double> latency_ms[2];  // [traced]
  std::vector<std::vector<double>> window_ms;  // latencies per window
  std::vector<double> lateness_ms;
  std::vector<double> codec_us;
  int64_t attempted = 0;
  int64_t ok = 0;
  Clock::time_point last_reply;
  double traced_wall_s = 0.0;
};

/// Drives `offsets` (seconds after `start`) through the connections and
/// waits for every reply. Requests at or after `measure_from` are measured;
/// in a traced pass, measured requests in every other one-second window
/// time the codec and run with pool accounting on.
LoopStats drive(Stack& stack, const std::vector<double>& offsets,
                const std::vector<int>& image_of, double measure_from,
                Clock::time_point start, const std::vector<Tensor>& images,
                const std::vector<Tensor>& refs, bool traced,
                uint64_t& next_id, Result& res) {
  LoopStats st;
  std::unordered_map<uint64_t, Pending> pending;
  size_t next = 0;
  bool accounting = false;
  Clock::time_point window_start = start;
  auto set_window = [&](bool on, Clock::time_point now) {
    if (accounting) st.traced_wall_s += ms_since(window_start, now) / 1e3;
    accounting = on;
    window_start = now;
    device::set_pool_accounting(on);
  };
  const auto send_due = [&](Clock::time_point now) {
    while (next < offsets.size() && start + secs(offsets[next]) <= now) {
      const auto due = start + secs(offsets[next]);
      const bool measured = offsets[next] >= measure_from;
      const bool window_traced =
          traced && measured &&
          static_cast<int64_t>(offsets[next] - measure_from) % 2 == 1;
      if (window_traced != accounting) set_window(window_traced, now);
      net::RequestFrame req;
      req.request_id = next_id++;
      req.model = kModel;
      req.image = images[static_cast<size_t>(image_of[next])];
      const auto t0 = Clock::now();
      const std::string frame = net::encode_request(req);
      const double encode_us = ms_since(t0, Clock::now()) * 1e3;
      Conn& c = stack.conns[next % stack.conns.size()];
      c.out += frame;
      if (!flush(c)) res.fail("wire: send failed");
      const int window =
          measured ? static_cast<int>(offsets[next] - measure_from) : -1;
      pending[req.request_id] = {due, image_of[next], measured, window_traced,
                                 encode_us, window};
      if (measured) {
        ++st.attempted;
        st.lateness_ms.push_back(ms_since(due, Clock::now()));
      }
      ++next;
      now = Clock::now();
    }
  };

  Clock::time_point drain_deadline{};
  std::vector<pollfd> fds(stack.conns.size());
  while (next < offsets.size() || !pending.empty()) {
    Clock::time_point now = Clock::now();
    send_due(now);
    now = Clock::now();
    std::chrono::nanoseconds wait{};
    if (next < offsets.size()) {
      wait = start + secs(offsets[next]) - now;
    } else {
      if (drain_deadline == Clock::time_point{}) {
        drain_deadline = now + secs(kDrainS);
      }
      if (now >= drain_deadline) break;
      wait = drain_deadline - now;
    }
    if (wait.count() < 0) wait = {};
    for (size_t i = 0; i < fds.size(); ++i) {
      fds[i] = {stack.conns[i].fd,
                static_cast<short>(POLLIN | (stack.conns[i].out.empty()
                                                 ? 0
                                                 : POLLOUT)),
                0};
    }
    const timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                      static_cast<long>(wait.count() % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& c = stack.conns[i];
      if ((fds[i].revents & POLLOUT) && !flush(c)) res.fail("wire: send failed");
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!read_available(c)) res.fail("wire: connection closed by the server");
      size_t off = 0;
      while (c.in.size() - off >= net::kHeaderBytes) {
        net::FrameType type{};
        uint32_t len = 0;
        const auto* hdr = reinterpret_cast<const uint8_t*>(c.in.data() + off);
        if (net::parse_header(hdr, net::kDefaultMaxFrameBytes, &type, &len) !=
                net::HeaderVerdict::kOk ||
            type != net::FrameType::kReply) {
          res.fail("wire: malformed reply header");
          return st;
        }
        if (c.in.size() - off < net::kHeaderBytes + len) break;
        const auto t_recv = Clock::now();
        net::ReplyFrame reply;
        const bool parsed =
            net::parse_reply_payload(hdr + net::kHeaderBytes, len, &reply);
        off += net::kHeaderBytes + len;
        const auto it = pending.find(reply.request_id);
        if (!parsed || it == pending.end()) {
          res.fail("wire: unparseable or unmatched reply");
          continue;
        }
        const Pending p = it->second;
        pending.erase(it);
        if (p.traced) {
          st.codec_us.push_back(p.encode_us +
                                ms_since(t_recv, Clock::now()) * 1e3);
        }
        if (!p.measured) continue;
        st.last_reply = t_recv;
        if (reply.status != net::Status::kOk) {
          res.fail(std::string("wire: reply status ") +
                   net::status_name(reply.status) + ": " + reply.message);
          continue;
        }
        if (!ulp_close(reply.output, refs[static_cast<size_t>(p.image)])) {
          res.fail("wire: reply outside simd::kMaxUlp of the batch-1 "
                   "reference or argmax differs");
          continue;
        }
        ++st.ok;
        const double latency_ms = ms_since(p.due, t_recv);
        st.latency_ms[p.traced ? 1 : 0].push_back(latency_ms);
        const size_t w = static_cast<size_t>(p.window);
        if (st.window_ms.size() <= w) st.window_ms.resize(w + 1);
        st.window_ms[w].push_back(latency_ms);
      }
      c.in.erase(0, off);
    }
  }
  if (accounting) set_window(false, Clock::now());
  return st;
}

std::unique_ptr<Stack> set_up(const std::vector<Tensor>& images,
                              std::vector<Tensor>& refs) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  // Every set-up tunes from scratch: no process-wide records carried over.
  tune::Session::global().cache().clear();
  serve::CompileOptions copts;
  copts.max_batch = kMaxBatch;
  copts.tuning = tune::Mode::kTune;
  copts.allow_fast_math = true;
  auto plan = std::make_unique<serve::CompiledModel>(
      build_mnet(), mnet_spec().image_shape(), copts);
  stack->compile_s = s_since(t0);
  stack->report = plan->report();
  // The reference copy re-resolves the same baked winners from the tuning
  // cache; it is not part of the serving set-up, so it is not timed.
  stack->reference = plan->clone_replica();
  refs = reference_logits(*stack->reference, images);

  const auto t1 = Clock::now();
  stack->server = std::make_unique<serve::InferenceServer>();
  serve::BatcherOptions bopts;
  bopts.max_batch = kMaxBatch;
  stack->server->register_model(kModel, std::move(plan), bopts);
  stack->ingress = std::make_unique<net::IngressServer>(*stack->server);
  stack->ingress->start();
  for (int i = 0; i < kConns; ++i) {
    Conn c;
    c.fd = sockio::connect_tcp("127.0.0.1", stack->ingress->port(),
                               std::chrono::milliseconds(5000));
    sockio::set_nonblocking(c.fd);
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stack->conns.push_back(std::move(c));
  }
  // First answered warm-up request ends the set-up.
  Result scratch;
  uint64_t id = 1u << 30;
  (void)drive(*stack, {0.0}, {0}, 1.0, Clock::now(), images, refs, false, id,
              scratch);
  if (!scratch.failures.empty()) {
    throw std::runtime_error("wire set-up: " + scratch.failures.front());
  }
  stack->setup_s = stack->compile_s + s_since(t1);
  return stack;
}

}  // namespace

Result run_wire_open_mnet_fast(const RunOptions& opts) {
  Result res;
  std::mt19937_64 rng(opts.seed);
  const std::vector<Tensor> images = make_images(kImagePool, rng());
  std::vector<Tensor> refs;

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < (opts.traced ? 1 : kSetups); ++i) {
    stack.reset();
    stack = set_up(images, refs);
    setup_s.push_back(stack->setup_s);
  }
  for (const auto& t : stack->report.tuned) {
    res.plan.push_back(t.layer + "=" + t.variant + "/" + std::to_string(t.grain));
  }

  // Poisson arrivals: a fixed count spread uniformly over the window is a
  // Poisson process conditioned on that count, so every seed offers exactly
  // the same rate and only the arrival pattern varies.
  const double measure_s = opts.seconds;
  const size_t warm_n = static_cast<size_t>(kRate * kWarmupS);
  const size_t n = static_cast<size_t>(kRate * measure_s);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<double> offsets;
  for (size_t i = 0; i < warm_n; ++i) offsets.push_back(kWarmupS * u01(rng));
  for (size_t i = 0; i < n; ++i) {
    offsets.push_back(kWarmupS + measure_s * u01(rng));
  }
  std::sort(offsets.begin(), offsets.end());
  std::uniform_int_distribution<int> pick(0, kImagePool - 1);
  std::vector<int> image_of(offsets.size());
  for (int& k : image_of) k = pick(rng);

  reset_peak_rss();  // peak_rss_mb covers the measured phase
  const ServeSnapshot serve0 = serve_snapshot(*stack->server, kModel);
  const net::IngressServer::Stats net0 = stack->ingress->stats();
  const int64_t busy0 = pool_busy_ns();
  uint64_t id = 1;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  LoopStats st = drive(*stack, offsets, image_of, kWarmupS, start, images,
                       refs, opts.traced, id, res);
  const double busy_s = static_cast<double>(pool_busy_ns() - busy0) / 1e9;

  res.attempted = st.attempted;
  res.failed = st.attempted - st.ok;
  std::vector<double> all = st.latency_ms[0];
  all.insert(all.end(), st.latency_ms[1].begin(), st.latency_ms[1].end());
  // Answered per second over the window that ends with the last answer: a
  // backlog stretches the window, and every seed reads slightly differently.
  const double achieved =
      static_cast<double>(st.ok) /
      (ms_since(start + secs(kWarmupS), st.last_reply) / 1e3);
  const double offered = static_cast<double>(n) / measure_s;
  const double late_p99 = quantile(st.lateness_ms, 0.99);
  const double late_max =
      st.lateness_ms.empty()
          ? 0.0
          : *std::max_element(st.lateness_ms.begin(), st.lateness_ms.end());
  if (late_p99 > kMaxLatenessP99Ms || late_max > kMaxLatenessMs) {
    res.invalid.push_back("generator fell behind its schedule: lateness p99 " +
                          std::to_string(late_p99) + " ms, max " +
                          std::to_string(late_max) + " ms");
  }
  std::printf("# wire: offered %.2f req/s, achieved %.2f req/s, generator "
              "lateness p99 %.3f ms max %.3f ms, %lld/%lld replies ok\n",
              offered, achieved, late_p99, late_max,
              static_cast<long long>(st.ok),
              static_cast<long long>(st.attempted));

  if (!opts.traced) {
    res.set("qps", achieved, "1/s");
    res.set("p50_ms", median(all), "ms");
    // The p99 of each one-second window, median over the windows: what a
    // user sees in a typical second. A whole-run p99 sits on the ~1% of
    // requests that a handful of stall episodes decide, so it reads very
    // differently from one run to the next; the per-window median does not,
    // and still moves with anything that stalls a request in most seconds.
    std::vector<double> window_p99;
    for (const std::vector<double>& w : st.window_ms) {
      if (!w.empty()) window_p99.push_back(quantile(w, 0.99));
    }
    res.set("tail_ms", median(window_p99), "ms");
    res.set("ok_frac",
            st.attempted > 0 ? static_cast<double>(st.ok) / st.attempted : 0.0,
            "ratio");
    res.set("setup_s", median(setup_s), "s");
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }

  const ServeSnapshot serve1 = serve_snapshot(*stack->server, kModel);
  const net::IngressServer::Stats net1 = stack->ingress->stats();
  record_serve_delta(serve0, serve1, res);
  res.set("net.overhead_p50_ms",
          median(all) - res.metrics["serve.server_p50_ms"].value, "ms");
  res.set("net.codec_us", median(st.codec_us), "us");
  res.set("net.frames", static_cast<double>(net1.frames - net0.frames), "count");
  res.set("net.framing_errors",
          static_cast<double>(net1.framing_errors - net0.framing_errors),
          "count");
  res.set("net.rejected", static_cast<double>(net1.rejected - net0.rejected),
          "count");
  res.set("pool.busy_frac",
          st.traced_wall_s > 0
              ? busy_s / (st.traced_wall_s *
                          device::ThreadPool::global().size())
              : 0.0,
          "ratio");
  res.set("gen.offered_rps", offered, "1/s");
  res.set("gen.achieved_rps", achieved, "1/s");
  res.set("gen.lateness_p99_ms", late_p99, "ms");
  res.set("gen.lateness_max_ms", late_max, "ms");
  const double base = median(st.latency_ms[0]);
  res.set("trace.overhead_pct",
          100.0 * (median(st.latency_ms[1]) - base) / base, "%");
  res.set("tune.compile_s", stack->compile_s, "s");
  res.set("tune.sites", static_cast<double>(stack->report.layers_tuned),
          "count");
  int64_t simd_sites = 0;
  for (const auto& t : stack->report.tuned) {
    simd_sites += t.variant.rfind("simd", 0) == 0 ? 1 : 0;
  }
  res.set("tune.simd_sites", static_cast<double>(simd_sites), "count");

  // Plan probes call run()/run_chunks directly: stop serving first.
  stack->ingress->stop();
  stack->server->stop();
  probe_plan(*stack->reference, images, 1, res);
  res.set("pool.dispatch_us", pool_dispatch_us(), "us");
  return res;
}

}  // namespace dsx::perfbench

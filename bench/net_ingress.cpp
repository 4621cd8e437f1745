// Loopback ingress throughput vs the in-process submit path, plus
// exactly-once accounting under residency eviction churn.
//
// The dsx::net claim (ISSUE/ROADMAP): the socket front-end is a thin shell
// over InferenceServer - the poll() event loop, framing and dispatch pool
// must not cost meaningful throughput against in-process callers driving
// the same model with the same pipelining window, and under a residency
// budget that forces continual eviction/fault-in churn every frame accepted
// off the wire is still answered exactly once, with zero request errors.
//
// Three phases, same model and client discipline throughout:
//   inproc  C threads x R requests via InferenceServer::submit futures
//   wire    C net::Client connections over loopback TCP, pipelined with the
//           same in-flight window; QPS + p50/p99 round-trip latency
//   churn   3 store-backed models under a budget that fits 2, mixed-tenant
//           wire traffic round-robin across them - every reply kOk,
//           answered == submitted, evictions > 0
//
// SHAPE-CHECK: wire QPS >= 0.9x in-process QPS (median ratio over adjacent
// pairs of interleaved measurement rounds); churn answers everything with
// zero errors while actually evicting.
//
// `--smoke` shrinks counts for CI; `--json` writes BENCH_net_ingress.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "deploy/deploy.hpp"
#include "net/net.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dsx;

constexpr int64_t kImage = 32;
constexpr int64_t kClasses = 10;
constexpr int64_t kMaxBatch = 4;
constexpr int kWindow = 8;  // in-flight requests per client, both paths

deploy::ArchSpec bench_spec(uint64_t seed) {
  deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = kClasses;
  spec.image = kImage;
  spec.scheme.scheme = models::ConvScheme::kDWSCC;
  spec.scheme.cg = 2;
  spec.scheme.co = 0.5;
  spec.scheme.width_mult = 0.25;
  spec.init_seed = seed;
  return spec;
}

std::unique_ptr<serve::CompiledModel> compile_spec(uint64_t seed) {
  const deploy::ArchSpec spec = bench_spec(seed);
  return std::make_unique<serve::CompiledModel>(
      deploy::build_architecture(spec), spec.image_shape(),
      serve::CompileOptions{.max_batch = kMaxBatch});
}

std::vector<Tensor> make_images(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> images;
  for (int i = 0; i < count; ++i) {
    images.push_back(
        random_uniform(make_nchw(1, 3, kImage, kImage), rng, -1.0f, 1.0f));
  }
  return images;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

/// In-process baseline: C threads drive submit() futures with a sliding
/// window of kWindow in flight.
double run_inproc(serve::InferenceServer& server, int clients,
                  int per_client, const std::vector<Tensor>& images) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<Tensor>> inflight;
      size_t next = 0;
      for (int r = 0; r < per_client; ++r) {
        inflight.push_back(server.submit(
            "mnet", images[static_cast<size_t>(c + r) % images.size()]));
        if (inflight.size() - next > kWindow) inflight[next++].get();
      }
      for (; next < inflight.size(); ++next) inflight[next].get();
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return static_cast<double>(clients) * per_client / secs;
}

struct WireResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  long submitted = 0;
  long answered = 0;
  long errors = 0;
};

/// Loopback ingress: same client count and window, each client one TCP
/// connection, pipelined sends, replies matched by id.
WireResult run_wire(int port, int clients, int per_client,
                    const std::vector<Tensor>& images,
                    const std::vector<std::string>& models,
                    const std::vector<std::string>& tokens) {
  WireResult res;
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  std::vector<long> answered(static_cast<size_t>(clients), 0);
  std::vector<long> errors(static_cast<size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client(
          {.port = port,
           .token = tokens[static_cast<size_t>(c) % tokens.size()]});
      std::map<uint64_t, std::chrono::steady_clock::time_point> sent;
      std::vector<uint64_t> pending;
      size_t next = 0;
      auto reap = [&](uint64_t id) {
        const net::ReplyFrame reply = client.recv(id);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - sent[id])
                              .count();
        lat[static_cast<size_t>(c)].push_back(ms);
        answered[static_cast<size_t>(c)]++;
        if (reply.status != net::Status::kOk) errors[static_cast<size_t>(c)]++;
      };
      for (int r = 0; r < per_client; ++r) {
        const std::string& model =
            models[static_cast<size_t>(c + r) % models.size()];
        const uint64_t id = client.send(
            model, images[static_cast<size_t>(c + r) % images.size()]);
        sent[id] = std::chrono::steady_clock::now();
        pending.push_back(id);
        if (pending.size() - next > kWindow) reap(pending[next++]);
      }
      for (; next < pending.size(); ++next) reap(pending[next]);
    });
  }
  for (auto& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  res.submitted = static_cast<long>(clients) * per_client;
  for (long a : answered) res.answered += a;
  for (long e : errors) res.errors += e;
  res.qps = static_cast<double>(res.answered) / secs;
  res.p50_ms = percentile(all, 0.50);
  res.p99_ms = percentile(all, 0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsx;
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  bench::JsonWriter json("net_ingress", bench::has_flag(argc, argv, "--json"));

  // Smoke still needs enough requests that thread spin-up and first-connect
  // costs amortize out of the QPS ratio; shorter runs flap the 0.9x check.
  const int clients = smoke ? 2 : 4;
  const int per_client = smoke ? 250 : 400;
  const auto images = make_images(8, 42);

  bench::banner("dsx::net ingress vs in-process submit");

  // ---- phase 1+2: one server, measured from inside and over the wire ----
  serve::InferenceServer server;
  server.register_model("mnet", compile_spec(7),
                        serve::BatcherOptions{.max_batch = kMaxBatch});
  net::IngressServer ingress(
      server, {.dispatch_threads = 2 * static_cast<int>(kMaxBatch)});
  ingress.start();

  // Warm both paths, then interleave measurement rounds. The check takes the
  // median, over every pair of adjacent rounds (in-process then wire, and
  // wire then the next in-process), of wire QPS over in-process QPS. An
  // adjacent pair shares the host's state, so the ratio cancels a drifting
  // machine's capacity, which a ratio of whole-run bests does not, and one
  // disturbed round moves at most two of the ratios. The table reports each
  // path's best round.
  (void)run_inproc(server, clients, per_client / 2, images);
  (void)run_wire(ingress.port(), clients, per_client / 2, images, {"mnet"},
                 {""});
  const int rounds = smoke ? 3 : 2;
  double inproc_qps = 0.0;
  std::vector<double> round_ratios;
  double prev_wire_qps = 0.0;
  WireResult wire;
  for (int r = 0; r < rounds; ++r) {
    const double inproc = run_inproc(server, clients, per_client, images);
    inproc_qps = std::max(inproc_qps, inproc);
    if (r > 0) round_ratios.push_back(prev_wire_qps / inproc);
    const WireResult w = run_wire(ingress.port(), clients, per_client, images,
                                  {"mnet"}, {""});
    round_ratios.push_back(w.qps / inproc);
    prev_wire_qps = w.qps;
    std::printf("round %d: in-process %.1f QPS, wire %.1f QPS\n", r, inproc,
                w.qps);
    wire.submitted += w.submitted;
    wire.answered += w.answered;
    wire.errors += w.errors;
    if (w.qps > wire.qps) {
      wire.qps = w.qps;
      wire.p50_ms = w.p50_ms;
      wire.p99_ms = w.p99_ms;
    }
  }
  ingress.stop();
  server.stop();
  std::sort(round_ratios.begin(), round_ratios.end());
  const size_t mid = round_ratios.size() / 2;
  const double ratio = round_ratios.size() % 2 == 1
                           ? round_ratios[mid]
                           : 0.5 * (round_ratios[mid - 1] + round_ratios[mid]);

  bench::Table table({"path", "QPS", "p50 ms", "p99 ms", "answered"});
  table.add_row({"in-process", bench::fmt(inproc_qps, 1), "-", "-",
                 std::to_string(static_cast<long>(clients) * per_client)});
  table.add_row({"loopback wire", bench::fmt(wire.qps, 1),
                 bench::fmt(wire.p50_ms), bench::fmt(wire.p99_ms),
                 std::to_string(wire.answered)});
  table.print();
  std::printf("wire / in-process QPS, median over %zu adjacent round pairs: "
              "%.3f\n",
              round_ratios.size(), ratio);
  {
    std::ostringstream os;
    os << "{\"phase\":\"inproc\",\"qps\":" << bench::fmt(inproc_qps, 1)
       << ",\"clients\":" << clients << ",\"requests\":"
       << static_cast<long>(clients) * per_client << "}";
    json.add(os.str());
  }
  {
    std::ostringstream os;
    os << "{\"phase\":\"wire\",\"qps\":" << bench::fmt(wire.qps, 1)
       << ",\"p50_ms\":" << bench::fmt(wire.p50_ms)
       << ",\"p99_ms\":" << bench::fmt(wire.p99_ms)
       << ",\"submitted\":" << wire.submitted
       << ",\"answered\":" << wire.answered << ",\"errors\":" << wire.errors
       << ",\"ratio_median\":" << bench::fmt(ratio, 3) << "}";
    json.add(os.str());
  }

  // ---- phase 3: eviction churn over the wire ----
  bench::banner("mixed-tenant wire traffic under residency churn");
  const std::string dir = "bench_net_ingress_store";
  std::filesystem::remove_all(dir);
  deploy::ModelStore store(dir);
  for (int i = 0; i < 3; ++i) {
    const deploy::ArchSpec spec = bench_spec(100 + static_cast<uint64_t>(i));
    auto net_model = deploy::build_architecture(spec);
    store.save_version("m" + std::to_string(i), "v1", *net_model, spec);
  }
  serve::InferenceServer churn_server;
  // Budget fits 2 of the 3 identical models: every third-name request
  // evicts + faults.
  int64_t cost = 0;
  {
    auto probe = store.compile("m0", "v1",
                               serve::CompileOptions{.max_batch = kMaxBatch});
    cost = probe->report().param_floats + probe->report().workspace_floats;
  }
  net::ResidencyOptions ropts;
  ropts.budget_floats = 2 * cost + cost / 2;
  ropts.compile.max_batch = kMaxBatch;
  net::ResidencyManager residency(churn_server, store, ropts);
  for (int i = 0; i < 3; ++i) {
    residency.add_model("m" + std::to_string(i), "v1");
  }
  net::IngressOptions iopts;
  iopts.dispatch_threads = 2 * static_cast<int>(kMaxBatch);
  iopts.tenants = {
      net::TenantSpec{.token = "tok-a", .priority = serve::Priority::kNormal},
      net::TenantSpec{.token = "tok-b", .priority = serve::Priority::kBulk},
  };
  net::IngressServer churn_ingress(churn_server, iopts, &residency);
  churn_ingress.start();
  const int churn_per_client = smoke ? 15 : 60;
  const WireResult churn = run_wire(
      churn_ingress.port(), clients, churn_per_client, images,
      {"m0", "m1", "m2"}, {"tok-a", "tok-b", ""});
  const net::ResidencyStats rstats = residency.stats();
  churn_ingress.stop();
  churn_server.stop();
  std::filesystem::remove_all(dir);

  std::printf("churn: submitted=%ld answered=%ld errors=%ld faults=%lld "
              "evictions=%lld qps=%.1f\n",
              churn.submitted, churn.answered, churn.errors,
              static_cast<long long>(rstats.faults),
              static_cast<long long>(rstats.evictions), churn.qps);
  {
    std::ostringstream os;
    os << "{\"phase\":\"churn\",\"submitted\":" << churn.submitted
       << ",\"answered\":" << churn.answered << ",\"errors\":" << churn.errors
       << ",\"faults\":" << rstats.faults
       << ",\"evictions\":" << rstats.evictions
       << ",\"qps\":" << bench::fmt(churn.qps, 1) << "}";
    json.add(os.str());
  }

  bool ok = true;
  ok &= bench::shape_check(
      "loopback ingress holds >= 0.9x in-process QPS (median round-pair "
      "ratio " + bench::fmt(ratio, 3) + ")",
      ratio >= 0.9);
  ok &= bench::shape_check(
      "wire path answered every submitted frame exactly once",
      wire.answered == wire.submitted && wire.errors == 0);
  ok &= bench::shape_check(
      "eviction churn: answered == submitted with zero drops/errors",
      churn.answered == churn.submitted && churn.errors == 0);
  ok &= bench::shape_check(
      "residency actually churned (evictions > 0, faults > models)",
      rstats.evictions > 0 && rstats.faults > 3);
  json.write();
  return ok ? 0 : 1;
}

#include "serve/server.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"
#include "obs/prof.hpp"

namespace dsx::serve {

namespace {

/// Builds the fleet serving `model` under `name`. The registered name is the
/// observability scope: every fleet serving this name feeds the same
/// dsx_serve_*{model=name} series. The fleet compiles its replicas here,
/// outside the registry lock: cloning and recompiling R replicas is the
/// slowest operation in the serving tier and must not block serving of
/// other models.
std::shared_ptr<shard::ReplicaSet> make_fleet(
    const std::string& name, std::unique_ptr<CompiledModel> model,
    BatcherOptions opts) {
  opts.metric_model = name;
  return std::make_shared<shard::ReplicaSet>(std::move(model),
                                             std::move(opts));
}

/// Stops `fleet` and reports what its drain answered.
SwapReport drain(shard::ReplicaSet& fleet) {
  SwapReport report;
  const int64_t before = fleet.stats().requests;
  const auto t0 = std::chrono::steady_clock::now();
  fleet.stop();  // answers every queued request before joining the workers
  report.drain_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  report.drained = fleet.stats().requests - before;
  return report;
}

}  // namespace

InferenceServer::InferenceServer() {
  // DSX_METRICS_PORT: zero-code exporter adoption, honored by the FIRST
  // server constructed in the process (same once-per-process pattern as
  // DSX_TRACE sampling). A bind failure must never take serving down - it
  // is journaled and ignored.
  static bool env_exporter_claimed = false;
  static std::mutex env_mu;
  const char* env = std::getenv("DSX_METRICS_PORT");
  if (env != nullptr) {
    bool claim = false;
    {
      std::lock_guard<std::mutex> lock(env_mu);
      claim = !env_exporter_claimed;
      env_exporter_claimed = true;
    }
    const long port = std::strtol(env, nullptr, 10);
    if (claim && port >= 0 && port <= 65535) {
      try {
        obs::ExporterOptions eopts;
        eopts.port = static_cast<int>(port);
        start_exporter(eopts);
      } catch (const Error& e) {
        obs::Journal::global().record(
            obs::EventKind::kRegister, "obs.exporter",
            std::string("DSX_METRICS_PORT ignored: ") + e.what());
      }
    }
  }
  // DSX_PROF=<hz>: zero-code continuous profiling, same once-per-process
  // claim. prof::start is idempotent while running, so a second server
  // construction never re-arms or re-journals; an unusable rate or platform
  // is journaled and ignored - profiling must never take serving down.
  const char* prof_env = std::getenv("DSX_PROF");
  if (prof_env != nullptr && prof_env[0] != '\0') {
    static bool env_prof_claimed = false;
    bool claim = false;
    {
      std::lock_guard<std::mutex> lock(env_mu);
      claim = !env_prof_claimed;
      env_prof_claimed = true;
    }
    if (claim) {
      const long hz = std::strtol(prof_env, nullptr, 10);
      if (hz > 0 && hz <= 1000) {
        if (!obs::prof::start(static_cast<int>(hz))) {
          obs::Journal::global().record(
              obs::EventKind::kProfile, "prof",
              "DSX_PROF ignored: sampling profiler unavailable");
        }
      } else {
        obs::Journal::global().record(
            obs::EventKind::kProfile, "prof",
            std::string("DSX_PROF ignored: bad rate '") + prof_env + "'");
      }
    }
  }
}

bool InferenceServer::start_profile(int hz) { return obs::prof::start(hz); }

void InferenceServer::stop_profile() { obs::prof::stop(); }

void InferenceServer::register_model(const std::string& name,
                                     std::unique_ptr<CompiledModel> model,
                                     BatcherOptions opts) {
  DSX_REQUIRE(model != nullptr, "register_model: null model");
  // Cheap duplicate-name check BEFORE compiling the fleet, so the compile is
  // not wasted on a doomed call. The authoritative check below still guards
  // the race window between the two.
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_REQUIRE(!stopped_, "register_model: server is stopped");
    DSX_REQUIRE(models_.find(name) == models_.end(),
                "register_model: '" << name << "' already registered");
  }
  const int replicas = opts.replicas;
  FleetPtr fresh = make_fleet(name, std::move(model), std::move(opts));
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_REQUIRE(!stopped_, "register_model: server is stopped");
    DSX_REQUIRE(models_.find(name) == models_.end(),
                "register_model: '" << name << "' already registered");
    models_.emplace(name, std::move(fresh));
  }
  obs::Journal::global().record(
      obs::EventKind::kRegister, name,
      replicas > 1 ? "sharded, replicas=" + std::to_string(replicas)
                   : std::string("single batcher"));
}

void InferenceServer::unregister_model(const std::string& name) {
  FleetPtr removed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(name);
    DSX_REQUIRE(it != models_.end(),
                "unregister_model: no model named '" << name << "'");
    removed = std::move(it->second);
    models_.erase(it);
  }
  // Drain outside the lock: queued requests execute here, and blocking the
  // registry for the duration would stall serving of every other model. The
  // fleet itself dies when the last concurrent submit releases its ref.
  removed->stop();
  obs::Journal::global().record(obs::EventKind::kUnregister, name);
}

SwapReport InferenceServer::install_and_drain(const std::string& name,
                                              FleetPtr fresh) {
  FleetPtr displaced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DSX_REQUIRE(!stopped_, "swap_model: server is stopped");
    auto it = models_.find(name);
    DSX_REQUIRE(it != models_.end(),
                "swap_model: no model named '" << name << "'");
    displaced = std::move(it->second);
    it->second = std::move(fresh);
  }
  // From here every new submit resolves the fresh fleet. The displaced
  // fleet's drain answers its whole queue with the OLD model - the version
  // that accepted those requests - so the swap drops nothing.
  const SwapReport report = drain(*displaced);
  {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "drained %lld in %.2f ms",
                  static_cast<long long>(report.drained), report.drain_ms);
    obs::Journal::global().record(obs::EventKind::kSwap, name, detail);
  }
  return report;
}

SwapReport InferenceServer::swap_model(const std::string& name,
                                       std::unique_ptr<CompiledModel> model,
                                       BatcherOptions opts) {
  DSX_REQUIRE(model != nullptr, "swap_model: null model");
  // Compile the replacement fleet before touching the registry: the old
  // fleet keeps serving until the new one is ready to take every request.
  return install_and_drain(name,
                           make_fleet(name, std::move(model), std::move(opts)));
}

SwapReport InferenceServer::swap_model_with(const std::string& name,
                                            const std::string& donor) {
  DSX_REQUIRE(name != donor, "swap_model_with: '" << name
                                                  << "' cannot donate itself");
  FleetPtr displaced;
  {
    // One critical section for the whole exchange: erasing the donor and
    // installing it under `name` must not be separable, or a throw in the
    // gap (name unregistered / server stopped concurrently) would lose the
    // donor fleet from the registry while its batcher still runs.
    std::lock_guard<std::mutex> lock(mu_);
    DSX_REQUIRE(!stopped_, "swap_model_with: server is stopped");
    auto donor_it = models_.find(donor);
    DSX_REQUIRE(donor_it != models_.end(),
                "swap_model_with: no model named '" << donor << "'");
    auto name_it = models_.find(name);
    DSX_REQUIRE(name_it != models_.end(),
                "swap_model_with: no model named '" << name << "'");
    // The donor fleet moves as-is - batcher, queue and stats survive the
    // rename, so requests accepted under the donor name are answered
    // untouched and the candidate's observed history carries over. Its
    // series move with it: from here it observes as {model=name}, so the
    // live name's health, SLO and flight state judge the traffic it serves.
    displaced = std::move(name_it->second);
    name_it->second = std::move(donor_it->second);
    models_.erase(donor_it);
    name_it->second->rescope(name);
  }
  const SwapReport report = drain(*displaced);
  obs::Journal::global().record(obs::EventKind::kSwap, name,
                                "donor '" + donor + "' installed");
  return report;
}

bool InferenceServer::has_model(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.find(name) != models_.end();
}

std::vector<std::string> InferenceServer::model_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

InferenceServer::FleetPtr InferenceServer::fleet(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  DSX_REQUIRE(it != models_.end(), "no model named '" << name << "'");
  return it->second;
}

std::future<Tensor> InferenceServer::submit(const std::string& name,
                                            const Tensor& image,
                                            shard::SubmitOptions sopts) {
  // Hot-swap retry loop: the shared_ptr keeps the resolved fleet alive for
  // the duration of the call, and a fleet displaced between resolution and
  // enqueue throws Stopped - re-resolve and land on its replacement. The
  // loop terminates: each retry means a swap/unregister won the race, and
  // after an unregister the lookup itself throws. The bound exists only to
  // turn a pathological swap storm into a clean error instead of livelock.
  for (int attempt = 0; attempt < 64; ++attempt) {
    FleetPtr f = fleet(name);
    try {
      return f->submit(image, sopts);
    } catch (const Stopped&) {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) throw;  // server shutdown, not a swap: propagate
    }
  }
  throw Error("submit: model '" + name + "' kept swapping; giving up");
}

Tensor InferenceServer::infer(const std::string& name, const Tensor& image) {
  return submit(name, image).get();
}

ModelStats InferenceServer::stats(const std::string& name) const {
  const FleetPtr f = fleet(name);
  ModelStats s;
  s.name = name;
  s.compile = f->prototype_report();
  // Fold the fleet into the BatcherStats view, so one-field migrations
  // (replicas = R) keep existing stats consumers honest: requests/batches
  // sum across replicas, latency/qps come from the fleet-wide view. For a
  // single replica these are its batcher's own numbers.
  const shard::ShardStats fleet_stats = f->stats();
  for (const shard::ReplicaStats& rs : fleet_stats.per_replica) {
    s.batcher.requests += rs.batcher.batcher.requests;
    s.batcher.batches += rs.batcher.batcher.batches;
  }
  s.batcher.avg_batch =
      s.batcher.batches > 0
          ? static_cast<double>(s.batcher.requests) /
                static_cast<double>(s.batcher.batches)
          : 0.0;
  s.batcher.qps = fleet_stats.qps;
  s.batcher.latency = fleet_stats.latency;
  s.batcher.latency_buckets = fleet_stats.latency_buckets;
  if (fleet_stats.replicas > 1) s.shard = fleet_stats;
  return s;
}

std::string InferenceServer::export_metrics_text() const {
  return obs::Registry::global().prometheus_text();
}

std::string InferenceServer::export_metrics_json() const {
  return obs::Registry::global().json_snapshot();
}

bool InferenceServer::export_trace_json(const std::string& path) const {
  return obs::export_chrome_trace(path);
}

std::string InferenceServer::export_outliers_json() const {
  return obs::flight::outliers_json();
}

obs::Journal& InferenceServer::journal() const {
  return obs::Journal::global();
}

std::vector<ModelStats> InferenceServer::stats_all() const {
  std::vector<ModelStats> all;
  for (const std::string& name : model_names()) all.push_back(stats(name));
  return all;
}

void InferenceServer::set_slo(const std::string& name,
                              const obs::slo::SloSpec& spec) {
  slo_.set_slo(name, spec);
}

obs::slo::Health InferenceServer::health(const std::string& name) {
  return slo_.evaluate(name).health;
}

obs::slo::Health InferenceServer::health() {
  slo_.evaluate_all();
  return slo_.aggregate();
}

int InferenceServer::start_exporter(obs::ExporterOptions opts) {
  std::lock_guard<std::mutex> lock(exporter_mu_);
  DSX_REQUIRE(exporter_ == nullptr || !exporter_->running(),
              "start_exporter: already running on port "
                  << exporter_->port());
  auto fresh = std::make_unique<obs::Exporter>(std::move(opts), &slo_);
  fresh->start();
  exporter_ = std::move(fresh);
  return exporter_->port();
}

void InferenceServer::stop_exporter() {
  std::unique_ptr<obs::Exporter> displaced;
  {
    std::lock_guard<std::mutex> lock(exporter_mu_);
    displaced = std::move(exporter_);
  }
  // stop() joins the exporter threads outside exporter_mu_.
  if (displaced != nullptr) displaced->stop();
}

int InferenceServer::exporter_port() const {
  std::lock_guard<std::mutex> lock(exporter_mu_);
  return exporter_ != nullptr && exporter_->running() ? exporter_->port() : 0;
}

void InferenceServer::set_exporter_endpoint(
    const std::string& path, std::function<std::string()> handler,
    const std::string& content_type) {
  std::lock_guard<std::mutex> lock(exporter_mu_);
  if (exporter_ != nullptr) {
    exporter_->add_endpoint(path, std::move(handler), content_type);
  }
}

void InferenceServer::remove_exporter_endpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(exporter_mu_);
  if (exporter_ != nullptr) exporter_->remove_endpoint(path);
}

void InferenceServer::stop() {
  std::vector<FleetPtr> fleets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    fleets.reserve(models_.size());
    for (auto& [name, f] : models_) fleets.push_back(f);
  }
  // Drain outside the lock (queued requests execute during stop), holding
  // refs so a concurrent unregister cannot free a fleet mid-drain.
  for (const FleetPtr& f : fleets) f->stop();
  stop_exporter();
}

}  // namespace dsx::serve

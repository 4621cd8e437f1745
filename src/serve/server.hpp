// Multi-model inference front-end.
//
// An InferenceServer owns a registry of named models and routes requests by
// name. Every model serves through a dsx::shard::ReplicaSet: with the default
// BatcherOptions::replicas = 1 that is one priority/deadline-aware batcher
// on the registering thread's current pool (normally the global pool); with
// replicas > 1 it is R independently compiled replicas on private execution
// lanes. This is the process-local shape of the roadmap's serving tier: N
// models x M client threads, with per-model throughput/latency stats
// exported from the lock-free device::LatencyStats counters.
//
// Registry entries are replaceable at runtime (dsx::deploy's hot-swap):
// swap_model installs a freshly compiled fleet under a live name and drains
// the displaced one, unregister_model removes a name entirely. submit()
// holds a shared_ptr to the fleet it resolved, so a concurrent swap can
// never free a fleet out from under an in-flight submission; a submission
// that loses the race (the displaced fleet throws Stopped) transparently
// re-resolves the live entry. Every accepted request - one whose submit()
// returned a future - is answered exactly once, by the fleet that accepted
// it (the displaced fleet's drain answers its queue before it is destroyed).
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/compiled_model.hpp"
#include "serve/request.hpp"
#include "shard/replica_set.hpp"

namespace dsx::serve {

/// Per-model observability snapshot. `batcher` is the fleet-wide view
/// (requests/batches summed, merged latency, fleet qps; for a single replica
/// exactly its batcher's stats) and, for sharded models (replicas > 1),
/// `shard` carries the full per-replica breakdown.
struct ModelStats {
  std::string name;
  CompileReport compile;
  BatcherStats batcher;
  std::optional<shard::ShardStats> shard;
};

/// What a hot-swap observed while draining the displaced fleet.
struct SwapReport {
  int64_t drained = 0;   // requests the displaced fleet answered during drain
  double drain_ms = 0.0;  // wall time of the displaced fleet's stop()
};

class InferenceServer {
 public:
  /// The first server constructed in the process also honors
  /// DSX_METRICS_PORT=<port>: zero-code adoption of the HTTP exporter,
  /// same pattern as DSX_TRACE/DSX_TUNE (port 0 = ephemeral; a bind
  /// failure is logged to the journal, never fatal to serving), and
  /// DSX_PROF=<hz>: zero-code continuous profiling (obs::prof), sampling at
  /// <hz> Hz for the process lifetime. Bad values / unsupported platforms
  /// are journaled and ignored - never fatal to serving.
  InferenceServer();
  ~InferenceServer() { stop(); }

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a compiled model under `name` and starts its batcher(s).
  /// opts.replicas > 1 shards the model: `model` becomes replica 0 and
  /// replicas-1 clones are compiled (see shard::ReplicaSet). Throws if the
  /// name is taken, the server is stopped, or opts are invalid.
  void register_model(const std::string& name,
                      std::unique_ptr<CompiledModel> model,
                      BatcherOptions opts = {});

  /// Removes `name` from the registry, stops its batcher(s) and drains the
  /// queue - every already-accepted request is still answered. Safe against
  /// concurrent submit(): a submission that raced the removal either landed
  /// in the drained queue (answered) or throws ("no model named"). The
  /// name is immediately reusable. Throws if the name is unknown.
  void unregister_model(const std::string& name);

  /// Zero-downtime hot-swap: atomically replaces `name`'s serving fleet
  /// with a fresh fleet for `model` (built from `opts` like
  /// register_model), then drains the displaced fleet (its queued requests
  /// are answered by the OLD model - the version that accepted them).
  /// Concurrent submits never fail from the swap: they re-resolve onto the
  /// new fleet. Stats counters restart with the new fleet. Throws if `name`
  /// is unknown.
  SwapReport swap_model(const std::string& name,
                        std::unique_ptr<CompiledModel> model,
                        BatcherOptions opts = {});

  /// Hot-swap from within the registry (dsx::deploy's promote): `donor`'s
  /// already-serving fleet is removed from the registry and installed under
  /// `name`, whose displaced fleet is drained. The donor fleet keeps its
  /// batcher, queue and stats across the rename - in-flight donor requests
  /// are unaffected - and exports its dsx_serve_* series under `name` from
  /// the swap on. Throws if either name is unknown or both are the same.
  SwapReport swap_model_with(const std::string& name,
                             const std::string& donor);

  bool has_model(const std::string& name) const;
  std::vector<std::string> model_names() const;

  /// Async single-image inference on the named model. Thread-safe. `sopts`
  /// adds priority/deadline-aware scheduling (EDF ordering, deadline
  /// shedding) on every model.
  std::future<Tensor> submit(const std::string& name, const Tensor& image,
                             shard::SubmitOptions sopts = {});
  /// Blocking convenience wrapper.
  Tensor infer(const std::string& name, const Tensor& image);

  ModelStats stats(const std::string& name) const;
  std::vector<ModelStats> stats_all() const;

  /// Prometheus text exposition of every dsx_* series in the process-wide
  /// obs::Registry (server-registered models export under their registered
  /// name; series are cumulative across hot-swaps, unlike the per-fleet
  /// stats() counters which restart with each fleet).
  std::string export_metrics_text() const;
  /// The same snapshot as JSON ({"metrics": [...]}).
  std::string export_metrics_json() const;
  /// Writes the retained trace events as Chrome trace-event JSON (Perfetto
  /// loadable); returns false when the file cannot be written. Enable
  /// sampling first (DSX_TRACE=N or obs::set_trace_sampling). Tail-based
  /// capture (the flight recorder, obs/flight.hpp) is separate and ON by
  /// default: DSX_FLIGHT=off disables it, DSX_FLIGHT=<ms> sets the absolute
  /// promotion threshold (default 100 ms).
  bool export_trace_json(const std::string& path) const;
  /// The flight recorder's per-model top-K latency outliers with per-span
  /// breakdowns, as the same JSON GET /outliers serves.
  std::string export_outliers_json() const;
  /// The process-wide control-plane event journal (register/swap/shed/...).
  obs::Journal& journal() const;

  /// Declares (or replaces) SLO objectives for `name`: the server's SLO
  /// engine samples the model's registry series and judges multi-window
  /// burn rates into a Health state (see obs/slo.hpp). The name does not
  /// have to be registered yet - series appear with the model.
  void set_slo(const std::string& name, const obs::slo::SloSpec& spec);
  /// Evaluates and returns `name`'s SLO health now (Healthy when no SLO is
  /// declared for it).
  obs::slo::Health health(const std::string& name);
  /// Worst health across every declared SLO (the /healthz verdict).
  obs::slo::Health health();
  /// The engine itself (custom samplers, healthz_json, ...).
  obs::slo::SloEngine& slo_engine() { return slo_; }

  /// Starts the HTTP telemetry endpoint (obs::Exporter) wired to this
  /// server's SLO engine and returns the bound port (resolves port 0).
  /// One exporter per server; throws dsx::Error if the port cannot be
  /// bound. Stopped by stop_exporter(), stop() or destruction.
  int start_exporter(obs::ExporterOptions opts = {});
  void stop_exporter();
  /// The running exporter's port; 0 when none is running.
  int exporter_port() const;
  /// Registers (or replaces) a custom GET endpoint on the exporter - the
  /// hook other tiers (dsx::net's /residency) publish through without obs
  /// depending on them. The handler must stay valid until
  /// remove_exporter_endpoint / stop(); a no-op when no exporter runs.
  void set_exporter_endpoint(const std::string& path,
                             std::function<std::string()> handler,
                             const std::string& content_type =
                                 "application/json");
  void remove_exporter_endpoint(const std::string& path);

  /// Starts the continuous sampling profiler (obs::prof) at `hz` Hz
  /// (0 = prof::kDefaultHz) and arms pool busy/idle accounting; the
  /// exporter then serves live windows on /profile[.json]. Process-wide
  /// and idempotent while running; returns false when the platform has no
  /// POSIX profiling timers. Runs until stop_profile() - it is NOT stopped
  /// by stop() or destruction (profiling is process-scoped, not
  /// server-scoped).
  bool start_profile(int hz = 0);
  void stop_profile();

  /// Drains and stops every batcher (and the exporter). Idempotent; new
  /// submits then throw Stopped, registration throws Error.
  void stop();

 private:
  using FleetPtr = std::shared_ptr<shard::ReplicaSet>;

  FleetPtr fleet(const std::string& name) const;
  /// Exchanges `name`'s entry for `fresh` under the lock, then drains the
  /// displaced fleet outside it.
  SwapReport install_and_drain(const std::string& name, FleetPtr fresh);

  mutable std::mutex mu_;
  bool stopped_ = false;
  std::map<std::string, FleetPtr> models_;

  /// SLO engine + exporter. Own mutex: exporter start/stop never contends
  /// with the registry lock (mu_), and the engine serializes itself.
  obs::slo::SloEngine slo_;
  mutable std::mutex exporter_mu_;
  std::unique_ptr<obs::Exporter> exporter_;
};

}  // namespace dsx::serve

// The repository benchmark: one command, three workloads, end-to-end metrics
// by default and the per-layer breakdown with --trace 1.
//
//   dsx_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a stamp line (host, plan), one human-readable line per metric, and
// as its last line the JSON result {"correct", "attempted", "failed",
// "metrics"}. Exits non-zero when any output check fails or the run is
// invalid. perfbench/README.md says why each workload exists and which
// end-to-end metric each per-layer metric should move.
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using namespace dsx::perfbench;

struct Workload {
  const char* name;
  Result (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"wire_open_mnet_fast", run_wire_open_mnet_fast},
    {"inproc_closed_mnet_strict", run_inproc_closed_mnet_strict},
    {"train_mnet_scc", run_train_mnet_scc},
};

/// A traced run fills the per-layer rows its workload does not exercise
/// (e.g. train.* on a serving workload) from a short traced pass of each
/// other workload; the named workload's own figures take precedence.
constexpr double kFillSeconds = 3.0;

int usage(const char* why) {
  std::fprintf(stderr,
               "dsx_perfbench: %s\nusage: dsx_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions opts;
  bool have_seed = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        opts.seconds = std::stod(val);
      } else if (key == "--trace") {
        opts.traced = std::stoi(val) != 0;
      } else {
        return usage(("unknown argument " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed argument value");
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  const Workload* named = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) named = &w;
  }
  if (named == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || !(opts.seconds > 0.0)) {
    return usage("--seed and a positive --seconds are required");
  }

  const CpuTimes cpu0 = cpu_times();
  Result res;
  std::vector<std::string> plan_stamps;
  try {
    res = named->run(opts);
    for (const std::string& p : res.plan) plan_stamps.push_back(p);
    if (opts.traced) {
      for (const Workload& w : kWorkloads) {
        if (&w == named) continue;
        RunOptions fill = opts;
        fill.seconds = kFillSeconds;
        const Result extra = w.run(fill);
        for (const auto& [name, metric] : extra.metrics) {
          res.metrics.emplace(name, metric);
        }
        res.attempted += extra.attempted;
        res.failed += extra.failed;
        for (const std::string& f : extra.failures) res.fail(f);
        for (const std::string& v : extra.invalid) res.invalid.push_back(v);
        for (const std::string& p : extra.plan) plan_stamps.push_back(p);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsx_perfbench: %s failed: %s\n", named->name,
                 e.what());
    return 1;
  }

  const double steal = steal_frac(cpu0, cpu_times());
  if (opts.traced) res.set("host.steal_frac", steal, "ratio");
  for (auto& [name, metric] : res.metrics) {
    if (!std::isfinite(metric.value)) {
      res.fail("metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  for (const std::string& f : res.failures) {
    std::printf("# CHECK FAIL: %s\n", f.c_str());
  }
  for (const std::string& v : res.invalid) {
    std::printf("# INVALID RUN: %s\n", v.c_str());
  }

  std::printf("# stamp {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,%s,"
              "\"host_steal_frac\":%.4f,\"plan\":[",
              named->name, static_cast<unsigned long long>(opts.seed),
              opts.traced ? 1 : 0, host_stamp_json().c_str(), steal);
  for (size_t i = 0; i < plan_stamps.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", plan_stamps[i].c_str());
  }
  std::printf("]}\n");
  for (const auto& [name, metric] : res.metrics) {
    std::printf("# %-34s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }

  const bool correct = res.failures.empty() && res.invalid.empty();
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : res.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << json_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

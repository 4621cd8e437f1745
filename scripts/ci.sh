#!/usr/bin/env bash
# Tier-1 verification plus the serving/tuning smoke benches.
#
#   scripts/ci.sh              - configure, build, ctest, smoke benches
#                                (writes BENCH_serve_throughput.json,
#                                 BENCH_shard_scaling.json,
#                                 BENCH_deploy_swap.json,
#                                 BENCH_net_ingress.json,
#                                 BENCH_micro_kernels.json, BENCH_tune.json,
#                                 BENCH_simd_gemm.json)
#                                plus the deploy canary walkthrough and the
#                                net wire smoke (separate client process)
#   scripts/ci.sh --fast       - skip the smoke benches (tier-1 and the
#                                serving stress tier only)
#   scripts/ci.sh --sanitize   - additionally build Debug + ASan/UBSan in
#                                build-sanitize/ and run the tier-1 suite
#                                under the sanitizers (test_simd included:
#                                that is what catches pack-buffer overruns
#                                and misaligned loads in the simd kernels),
#                                then build Debug + TSan in build-tsan/ and
#                                run the obs string-interning and exemplar
#                                seqlock suites (Intern.*, ExemplarSeqlock.*),
#                                the flight window over the exported latency
#                                series (Flight.Window*, adaptive/armed),
#                                the thread-pool suites (ThreadPool.*:
#                                concurrent submitters + nested-launch
#                                errors; PoolAccounting.*), inline launches
#                                (Launch.*), the work-conserving batcher
#                                (DeadlineBatcher.*, Batcher.*), compiles racing
#                                live serving on the global pool, and the
#                                full net suite (ingress event loop +
#                                dispatch pool + residency single-flight)
#                                under it
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --sanitize) SANITIZE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== configure =="
cmake -B build -S .

echo "== build =="
cmake --build build -j"${JOBS}"

echo "== tier-1 tests =="
# --timeout backstops the per-test TIMEOUT property from CMakeLists: a
# deadlocked batcher fails fast instead of hanging CI.
ctest --test-dir build --output-on-failure -j"${JOBS}" --timeout 300

echo "== serving stress tier (20x, until-fail) =="
# The serving suites race batchers, compiles, hot-swaps and wire traffic on
# shared pools; a race that fires one run in twenty fails here instead of
# slipping through a single green run.
ctest --test-dir build --output-on-failure -j"${JOBS}" --timeout 300 \
  -R '^(test_serve|test_shard|test_deploy|test_net)$' --repeat until-fail:20

if [[ "${FAST}" != "1" ]]; then
  echo "== serve throughput (smoke, json) =="
  ./build/bench_serve_throughput --smoke --json

  echo "== shard scaling (smoke, json) =="
  # Sweeps replicas {1,2,4}; asserts modeled R=2 >= 1.3x R=1 and that
  # measured R=2 is not slower than R=1 (see bench/shard_scaling.cpp).
  ./build/bench_shard_scaling --smoke --json

  echo "== deploy hot-swap (smoke, json) =="
  # Hot-swaps under sustained load; asserts zero dropped/duplicated replies
  # and every answer bit-identical to a registered version.
  ./build/bench_deploy_swap --smoke --json

  echo "== net ingress (smoke, json) =="
  # Loopback wire QPS vs the in-process submit() path at equal concurrency
  # (SHAPE-CHECK >= 0.9x, median of interleaved round-pair ratios), every
  # submitted request answered, then a
  # residency-churn phase (3 models under a budget for ~2.5) with zero
  # errors while evictions and fault-ins run.
  ./build/bench_net_ingress --smoke --json

  echo "== deploy canary walkthrough =="
  # Store -> shadow -> canary -> promote; asserts the promoted fleet serves
  # the staged version bit-identically (see examples/serve_mobilenet_scc).
  ./build/example_serve_mobilenet_scc --canary

  echo "== obs smoke: metrics exposition + request trace =="
  # Serve under load with full tracing, then validate the two export
  # surfaces: the Prometheus exposition must contain the serving counters
  # with no duplicate (name, labels) series, and the trace file must be
  # well-formed Chrome trace-event JSON.
  rm -f trace_ci.json metrics_ci.txt
  ./build/example_serve_mobilenet_scc --metrics --trace trace_ci.json \
    > metrics_ci.txt
  grep -q '^dsx_serve_requests_total' metrics_ci.txt \
    || { echo "obs smoke: dsx_serve_requests_total missing" >&2; exit 1; }
  DUPES="$(grep '^dsx_' metrics_ci.txt | awk '{$NF=""; print}' | sort \
    | uniq -d)"
  [[ -z "${DUPES}" ]] \
    || { echo "obs smoke: duplicate series:"; echo "${DUPES}"; exit 1; } >&2
  grep -q '"traceEvents"' trace_ci.json \
    || { echo "obs smoke: trace_ci.json missing traceEvents" >&2; exit 1; }
  grep -q '"ph"[[:space:]]*:[[:space:]]*"X"' trace_ci.json \
    || { echo "obs smoke: trace_ci.json has no complete events" >&2; exit 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json; json.load(open("trace_ci.json"))' \
      || { echo "obs smoke: trace_ci.json is not valid JSON" >&2; exit 1; }
  fi
  rm -f trace_ci.json metrics_ci.txt
  echo "obs smoke OK"

  echo "== obs smoke: HTTP telemetry endpoint (/metrics + /healthz) =="
  # Start the example's live endpoint on an ephemeral port and scrape it
  # from OUTSIDE the process. Run 1 (generous SLO): /metrics must be valid
  # exposition and /healthz must be 200. Run 2 (impossible --slo-p99-ms):
  # /healthz must flip to 503 with the transition in /journal.
  CURL="curl -sS --max-time 5"
  command -v curl >/dev/null 2>&1 || CURL=""
  if [[ -n "${CURL}" ]]; then
    rm -f serve_metrics_ci.log
    ./build/example_serve_mobilenet_scc --serve-metrics 0 --profile \
      > serve_metrics_ci.log 2>&1 &
    SRV_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
      PORT="$(sed -n 's/^METRICS_PORT=//p' serve_metrics_ci.log)"
      [[ -n "${PORT}" ]] && break
      sleep 0.2
    done
    [[ -n "${PORT}" ]] \
      || { echo "http smoke: no METRICS_PORT line" >&2; kill "${SRV_PID}"; exit 1; }
    ${CURL} "http://127.0.0.1:${PORT}/metrics" > metrics_http_ci.txt
    grep -q '^dsx_serve_requests_total' metrics_http_ci.txt \
      || { echo "http smoke: scraped exposition missing serving counters" >&2
           kill "${SRV_PID}"; exit 1; }
    BAD="$(grep '^dsx_' metrics_http_ci.txt \
      | awk 'NF < 2 || $NF !~ /^-?[0-9.e+-]+$/' )"
    [[ -z "${BAD}" ]] \
      || { echo "http smoke: malformed sample lines:"; echo "${BAD}"
           kill "${SRV_PID}"; exit 1; } >&2
    # A plain scrape is classic 0.0.4 text: exemplar syntax would be a parse
    # error to the classic Prometheus parser, so it must not appear.
    if grep -q '# {' metrics_http_ci.txt; then
      echo "http smoke: classic /metrics scrape carries exemplar syntax" >&2
      kill "${SRV_PID}"; exit 1
    fi
    HZ="$(${CURL} -o /dev/null -w '%{http_code}' \
      "http://127.0.0.1:${PORT}/healthz")"
    [[ "${HZ}" == "200" ]] \
      || { echo "http smoke: healthy /healthz returned ${HZ}" >&2
           kill "${SRV_PID}"; exit 1; }

    # Flight recorder end to end: the demo forces one genuinely slow request
    # (a layer holds one batch ~80 ms against a 50 ms threshold), so /outliers
    # must carry a promoted capture with the per-phase span breakdown, a
    # fresh exposition scrape must attach its trace id as an OpenMetrics
    # exemplar on a native bucket line, and that id must resolve to real
    # span events in /trace. Poll briefly: the forced outlier runs right
    # after the port line is printed.
    OUTLIER_OK=""
    for _ in $(seq 1 40); do
      ${CURL} "http://127.0.0.1:${PORT}/outliers" > outliers_ci.json || true
      if grep -q '"verdict":"absolute"' outliers_ci.json; then
        OUTLIER_OK=1; break
      fi
      sleep 0.25
    done
    [[ -n "${OUTLIER_OK}" ]] \
      || { echo "flight smoke: forced outlier never promoted (absolute)" >&2
           kill "${SRV_PID}"; exit 1; }
    grep -q '"model":"mobilenet-scc"' outliers_ci.json \
      || { echo "flight smoke: /outliers has no mobilenet-scc capture" >&2
           kill "${SRV_PID}"; exit 1; }
    grep -q '"batch_execute"' outliers_ci.json \
      || { echo "flight smoke: capture lacks the batch_execute span" >&2
           kill "${SRV_PID}"; exit 1; }
    # Exemplars are negotiated: only an OpenMetrics scrape carries them.
    ${CURL} -H 'Accept: application/openmetrics-text' \
      "http://127.0.0.1:${PORT}/metrics" > metrics_flight_ci.txt
    grep -q '# {trace_id="' metrics_flight_ci.txt \
      || { echo "flight smoke: no OpenMetrics exemplar on /metrics" >&2
           kill "${SRV_PID}"; exit 1; }
    tail -n 1 metrics_flight_ci.txt | grep -q '^# EOF$' \
      || { echo "flight smoke: OpenMetrics scrape missing # EOF" >&2
           kill "${SRV_PID}"; exit 1; }
    EXEMPLAR_ID="$(sed -n 's/.*# {trace_id="\([0-9]*\)".*/\1/p' \
      metrics_flight_ci.txt | head -n 1)"
    [[ -n "${EXEMPLAR_ID}" ]] \
      || { echo "flight smoke: exemplar trace_id unparseable" >&2
           kill "${SRV_PID}"; exit 1; }
    # To a file first: `curl | grep -q` under pipefail fails on grep's
    # early exit (curl 23) even when the id is present.
    ${CURL} "http://127.0.0.1:${PORT}/trace" > trace_ci.json
    grep -q "\"tid\":${EXEMPLAR_ID}" trace_ci.json \
      || { echo "flight smoke: exemplar trace_id ${EXEMPLAR_ID} not in /trace" >&2
           kill "${SRV_PID}"; exit 1; }
    ${CURL} "http://127.0.0.1:${PORT}/journal.json" > journal_ci.txt
    grep -q '"kind":"register"' journal_ci.txt \
      || { echo "http smoke: /journal.json missing register event" >&2
           kill "${SRV_PID}"; exit 1; }
    # Continuous profiling end to end: --profile armed the sampler for the
    # whole run, so a 1-second /profile window over live traffic must return
    # non-empty folded stacks whose frames symbolized to real code (the
    # serving/kernel stack, not raw hex addresses).
    ${CURL} --max-time 15 "http://127.0.0.1:${PORT}/profile?seconds=1" \
      > profile_ci.txt
    [[ -s profile_ci.txt ]] \
      || { echo "prof smoke: /profile?seconds=1 returned no samples" >&2
           kill "${SRV_PID}"; exit 1; }
    grep -Eq 'dsx::|gemm|conv|worker_loop' profile_ci.txt \
      || { echo "prof smoke: folded stacks carry no symbolized dsx frame:" >&2
           head -n 5 profile_ci.txt >&2; kill "${SRV_PID}"; exit 1; }
    ${CURL} "http://127.0.0.1:${PORT}/metrics" > metrics_prof_ci.txt
    grep -q '^dsx_device_pool_busy_ns_total' metrics_prof_ci.txt \
      || { echo "prof smoke: /metrics missing pool utilization series" >&2
           kill "${SRV_PID}"; exit 1; }
    kill "${SRV_PID}" 2>/dev/null; wait "${SRV_PID}" 2>/dev/null || true

    rm -f serve_metrics_ci.log
    ./build/example_serve_mobilenet_scc --serve-metrics 0 \
      --slo-p99-ms 0.000001 > serve_metrics_ci.log 2>&1 &
    SRV_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
      PORT="$(sed -n 's/^METRICS_PORT=//p' serve_metrics_ci.log)"
      [[ -n "${PORT}" ]] && break
      sleep 0.2
    done
    [[ -n "${PORT}" ]] \
      || { echo "http smoke: no METRICS_PORT line (run 2)" >&2
           kill "${SRV_PID}"; exit 1; }
    HZ=""
    for _ in $(seq 1 60); do
      HZ="$(${CURL} -o healthz_ci.json -w '%{http_code}' \
        "http://127.0.0.1:${PORT}/healthz" || true)"
      [[ "${HZ}" == "503" ]] && break
      sleep 0.25
    done
    [[ "${HZ}" == "503" ]] \
      || { echo "http smoke: impossible SLO never flipped /healthz to 503" >&2
           kill "${SRV_PID}"; exit 1; }
    grep -q '"status":"critical"' healthz_ci.json \
      || { echo "http smoke: 503 body is not critical" >&2
           kill "${SRV_PID}"; exit 1; }
    ${CURL} "http://127.0.0.1:${PORT}/journal" > journal_ci.txt
    grep -q 'health.*->critical' journal_ci.txt \
      || { echo "http smoke: health transition not journaled" >&2
           kill "${SRV_PID}"; exit 1; }
    kill "${SRV_PID}" 2>/dev/null; wait "${SRV_PID}" 2>/dev/null || true
    rm -f serve_metrics_ci.log metrics_http_ci.txt healthz_ci.json \
      outliers_ci.json metrics_flight_ci.txt trace_ci.json journal_ci.txt \
      profile_ci.txt metrics_prof_ci.txt
    echo "http smoke OK"
  else
    echo "curl not available; skipping HTTP endpoint smoke"
  fi

  echo "== net smoke: framed TCP ingress + residency (separate process) =="
  # The example listens on an ephemeral port; example_dsx_client - a
  # genuinely separate process - speaks the framed protocol end to end and
  # exits 0 iff every reply came back kOk, so a lost or errored reply fails
  # CI here. The second model overflows the demo's budget (~1.5 models), so
  # requesting it forces a real eviction + fault-in over the wire.
  rm -f listen_ci.log client_ci.txt
  ./build/example_serve_mobilenet_scc --listen 0 > listen_ci.log 2>&1 &
  SRV_PID=$!
  IPORT=""
  for _ in $(seq 1 150); do
    IPORT="$(sed -n 's/^INGRESS_PORT=//p' listen_ci.log)"
    [[ -n "${IPORT}" ]] && break
    sleep 0.2
  done
  [[ -n "${IPORT}" ]] \
    || { echo "net smoke: no INGRESS_PORT line" >&2; kill "${SRV_PID}"; exit 1; }
  ./build/example_dsx_client --port "${IPORT}" --model mobilenet-scc \
    --count 3 --token demo-interactive > client_ci.txt \
    || { echo "net smoke: client run failed:" >&2; cat client_ci.txt >&2
         kill "${SRV_PID}"; exit 1; }
  grep -q '^3/3 replies ok' client_ci.txt \
    || { echo "net smoke: expected 3/3 replies ok:" >&2; cat client_ci.txt >&2
         kill "${SRV_PID}"; exit 1; }
  ./build/example_dsx_client --port "${IPORT}" --model mobilenet-scc-alt \
    --count 2 --token demo-bulk > client_ci.txt \
    || { echo "net smoke: cold-model client run failed:" >&2
         cat client_ci.txt >&2; kill "${SRV_PID}"; exit 1; }
  grep -q '^2/2 replies ok' client_ci.txt \
    || { echo "net smoke: expected 2/2 replies ok on fault-in:" >&2
         cat client_ci.txt >&2; kill "${SRV_PID}"; exit 1; }
  if [[ -n "${CURL:-}" ]]; then
    MPORT="$(sed -n 's/^METRICS_PORT=//p' listen_ci.log)"
    ${CURL} "http://127.0.0.1:${MPORT}/residency" > residency_ci.json
    grep -q '"budget_floats"' residency_ci.json \
      || { echo "net smoke: /residency lacks budget_floats" >&2
           kill "${SRV_PID}"; exit 1; }
    grep -q '"mobilenet-scc"' residency_ci.json \
      || { echo "net smoke: /residency lacks the managed model table" >&2
           kill "${SRV_PID}"; exit 1; }
    ${CURL} "http://127.0.0.1:${MPORT}/metrics" > metrics_net_ci.txt
    grep -q '^dsx_net_frames_total' metrics_net_ci.txt \
      || { echo "net smoke: /metrics lacks dsx_net_frames_total" >&2
           kill "${SRV_PID}"; exit 1; }
  fi
  kill "${SRV_PID}" 2>/dev/null; wait "${SRV_PID}" 2>/dev/null || true
  rm -rf listen_ci.log client_ci.txt residency_ci.json metrics_net_ci.txt \
    dsx_listen_store
  echo "net smoke OK"

  if [[ -x build/bench_micro_kernels ]]; then
    echo "== kernel tuning + simd packed GEMM (json) =="
    # Candidate sweep (simd levels included via fast-math), packed-GEMM
    # GFLOP/s scalar vs sse2 vs avx2, strict + fast-math tuned plans.
    # SHAPE-CHECKs: tuned-plan bit-identity, never-slower, and on an AVX2
    # host packed GEMM >= 2x the scalar baseline (BENCH_simd_gemm.json).
    ./build/bench_micro_kernels --json
  else
    echo "bench_micro_kernels not built (google-benchmark missing); skipping"
  fi
fi

if [[ "${SANITIZE}" == "1" ]]; then
  echo "== configure (ASan+UBSan Debug) =="
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=Debug -DDSX_SANITIZE=ON

  echo "== build (ASan+UBSan Debug) =="
  cmake --build build-sanitize -j"${JOBS}"

  echo "== tier-1 tests (ASan+UBSan) =="
  ctest --test-dir build-sanitize --output-on-failure -j"${JOBS}" --timeout 600

  # TSan is incompatible with ASan, so it gets its own tree. The trace rings
  # are single-writer-torn-read BY DESIGN (TSan would flag them), so this
  # tier runs only the obs primitives whose thread-safety must hold to the
  # letter: obs::intern() (concurrent span recorders dereference its
  # pointers forever), the exemplar seqlock (atomic payloads ordered by
  # fences - a plain-field version was a real data race), the flight
  # window (it reads the latency cells serving threads write), the thread
  # pool's own launch exclusion, and its busy/idle accounting (relaxed
  # counters read by concurrent pool_stats() snapshotters while workers
  # accumulate).
  echo "== configure (TSan Debug) =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DDSX_SANITIZE_THREAD=ON

  echo "== build (TSan Debug, test_obs + test_device + test_serve + test_shard + test_net) =="
  cmake --build build-tsan -j"${JOBS}" \
    --target test_obs test_device test_serve test_shard test_net

  echo "== obs intern + exemplar-seqlock tests (TSan) =="
  ./build-tsan/test_obs --gtest_filter='Intern.*:ExemplarSeqlock.*'

  echo "== flight window over the exported latency series (TSan) =="
  # The adaptive/armed thresholds are derived from the
  # dsx_serve_request_latency_us cells every replica's worker records into.
  # These tests emit no trace-ring events (torn ring reads are by design);
  # WindowRefreshRacesRecordingThreads races recorders against refreshes.
  ./build-tsan/test_obs --gtest_filter='Flight.AdaptiveThresholdTracksTheWindowedP99:Flight.ArmedCooldown*:Flight.Window*'

  echo "== thread-pool exclusion + accounting tests (TSan) =="
  # The pool owns its exclusion: concurrent submitters, nested launches
  # that must throw instead of deadlocking, and the busy/idle counters.
  # Launch.* covers launches that run inline on the caller instead of the
  # pool.
  ./build-tsan/test_device \
    --gtest_filter='ThreadPool.*:PoolAccounting.*:Launch.*'

  echo "== work-conserving batcher tests (TSan) =="
  # The worker dispatches as soon as it is free, so submitters race batch
  # formation and execution on every request.
  ./build-tsan/test_shard --gtest_filter='DeadlineBatcher.*'
  ./build-tsan/test_serve --gtest_filter='Batcher.*'

  echo "== compiles racing live serving on the global pool (TSan) =="
  ./build-tsan/test_serve \
    --gtest_filter='InferenceServer.CompilesDuringLiveTrafficOnTheGlobalPool'

  echo "== net ingress + residency tests (TSan) =="
  # The whole suite is TSan-clean: the event thread owns all connection
  # state by construction, workers talk through mutex-guarded queues, and
  # the residency single-flight races (8-thread thundering herd, eviction
  # churn under concurrent hot-swaps) are exactly what TSan should watch.
  ./build-tsan/test_net
fi

echo "CI OK"

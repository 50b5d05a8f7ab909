#!/usr/bin/env bash
# Tier-1 test suite plus a tiny-size smoke pass of the pub/sub benchmarks so
# the benchmark drivers cannot silently rot between full benchmark runs.
#
# Hypothesis effort is profile-driven (tests/conftest.py): the tier-1 pass
# digs deep with the "ci" profile; export HYPOTHESIS_PROFILE=smoke for a
# near-instant property-test pass during quick local loops.
set -euo pipefail
cd "$(dirname "$0")"

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

cleanup() {
    if [ -n "${SERVE_PID:-}" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    if [ -n "${SERVE_LOG:-}" ]; then rm -f "$SERVE_LOG"; fi
    if [ -n "${METRICS_DIR:-}" ]; then rm -rf "$METRICS_DIR"; fi
}
trap cleanup EXIT

echo "== tier-1 tests (hypothesis profile: ${HYPOTHESIS_PROFILE:-ci}) =="
# Includes the cross-curve differential suite
# (tests/pubsub/test_curve_differential.py): identical scripted workloads
# under zorder/hilbert/gray must match the linear-scan flat oracle.
# perfbench/test_perfbench.py lives outside tests/ and is collected explicitly.
HYPOTHESIS_PROFILE="${HYPOTHESIS_PROFILE:-ci}" python -m pytest -x -q tests perfbench

echo "== benchmark smoke (tiny sizes) =="
# bench_subscription_churn's smoke pass *asserts* the batch subscribe/withdraw
# APIs leave byte-identical routing state to a sequential replay — any
# divergence fails CI here.
# bench_curve_ablation's smoke pass asserts the per-event delivery sets are
# identical under every curve (the driver raises on any divergence) and that
# Hilbert needs fewer key runs than Z on the Fig. 1-style rectangle family.
# bench_match_scale's smoke pass still runs the full parity phase: the match
# index under every curve (zorder/hilbert/gray) must agree with a brute-force
# rectangle oracle before anything is timed.
# bench_topology_scale's smoke pass runs the generated internet-scale
# topology classes (skewed tree / scale-free / grid-of-clusters) at tiny node
# counts, including the region netsplit -> per-partition traffic -> heal
# scenario, and asserts the partition-aware audit is clean in every phase.
# bench_auto_tuning's smoke pass asserts the self-tuning index beats the best
# static config on matching work for at least 2 of the 3 scenarios, and the
# driver raises on any tuned-vs-static delivery divergence.
REPRO_BENCH_SMOKE=1 python -m pytest -q \
    benchmarks/bench_pubsub_propagation.py \
    benchmarks/bench_event_matching.py \
    benchmarks/bench_subscription_churn.py \
    benchmarks/bench_curve_ablation.py \
    benchmarks/bench_auto_tuning.py \
    benchmarks/bench_sim_latency.py \
    benchmarks/bench_match_scale.py \
    benchmarks/bench_topology_scale.py

echo "== end-to-end benchmark smoke (perfbench) =="
# A short run of each declared workload plus one traced run. The traced run
# wraps every layer entry point perfbench/tracing.py names, so renaming or
# deleting one fails here instead of silently breaking the benchmark. Each
# run must end with a JSON line reporting "correct": true and "failed": 0.
perfbench_smoke() {
    local last
    last=$(python3 perfbench/run.py "$@" | tail -n 1)
    python - "$last" "$*" <<'PY'
import json, sys
report = json.loads(sys.argv[1])
assert report["correct"] is True, f"perfbench {sys.argv[2]}: not correct"
assert report["failed"] == 0, f"perfbench {sys.argv[2]}: {report['failed']} failed"
PY
}
for workload in sub-stock pub-auction churn-sensor; do
    perfbench_smoke --workload "$workload" --seed 1 --seconds 0.5
done
perfbench_smoke --workload pub-auction --seed 1 --seconds 0.5 --trace 1

echo "== metrics / exposition smoke =="
# The observability layer end to end: a seeded tree scenario must produce
# Prometheus text that the structural validator accepts (the CLI validates
# before printing and exits non-zero otherwise) plus a metrics.prom /
# BENCH_metrics.json pair.
METRICS_DIR=$(mktemp -d)
python -m repro.analysis.cli metrics --seed 17 --output "$METRICS_DIR" > /dev/null
test -s "$METRICS_DIR/metrics.prom"
test -s "$METRICS_DIR/BENCH_metrics.json"
python - "$METRICS_DIR" <<'PY'
import json, pathlib, sys
out = pathlib.Path(sys.argv[1])
from repro.obs.exposition import validate_prometheus_text
samples = validate_prometheus_text((out / "metrics.prom").read_text())
assert "repro_network_counter_total" in samples, "missing delivery counters"
assert "repro_hop_latency_seconds_bucket" in samples, "missing hop latency buckets"
json.loads((out / "BENCH_metrics.json").read_text())
PY

echo "== networked loopback smoke (serve + wire protocol + /metrics) =="
# Boot a 3-broker tree on ephemeral loopback ports, run the full lifecycle
# through the client library (subscribe, publish, scrape, withdraw), validate
# the Prometheus text structurally, then shut down gracefully: the serve
# process must exit 0.
SERVE_LOG=$(mktemp)
python -m repro.analysis.cli serve --topology tree --brokers 3 > "$SERVE_LOG" &
SERVE_PID=$!
python - "$SERVE_LOG" <<'PY'
import pathlib, sys, time

from repro.net import NetClient, fetch_metrics
from repro.obs.exposition import validate_prometheus_text

log = pathlib.Path(sys.argv[1])
deadline = time.time() + 30.0
addresses = {}
while time.time() < deadline:
    lines = log.read_text().splitlines()
    if "SERVING" in lines:
        for line in lines:
            if line.startswith("BROKER "):
                _, broker_id, host, port = line.split()
                addresses[int(broker_id)] = (host, int(port))
        break
    time.sleep(0.1)
assert len(addresses) == 3, f"serve never became ready: {addresses}"
with NetClient(*addresses[1]) as sub, NetClient(*addresses[2]) as pub:
    sub.subscribe("alice", {"price": (10.0, 50.0)}, sub_id="a1")
    event = {"price": 25.0, "volume": 100.0, "change_pct": 0.0}
    assert pub.publish(event, event_id="e1") == {"alice"}
    for host, port in addresses.values():
        samples = validate_prometheus_text(fetch_metrics(host, port))
        assert "repro_transport_counter_total" in samples, "missing transport counters"
    assert sub.unsubscribe("alice", "a1") is True
    assert pub.publish(event, event_id="e2") == set()
    sub.shutdown()
PY
wait "$SERVE_PID"   # graceful shutdown: serve exits 0 or this line fails CI
SERVE_PID=""

echo "== profiled tier-1 (REPRO_PROF=1) =="
# Hot-path profiling hooks must be behaviour-neutral: the whole tier-1 suite
# runs once with the profiler collecting (smoke hypothesis profile — this
# pass is about the instrumented code paths, not new counterexamples).
REPRO_PROF=1 HYPOTHESIS_PROFILE=smoke python -m pytest -x -q tests

echo "== auto-tuned tier-1 (REPRO_AUTOTUNE=1) =="
# The online tuner must be delivery-invisible under the whole tier-1 suite:
# REPRO_AUTOTUNE=1 attaches an aggressive tuner (zero drift threshold, no
# cooldown headroom) to every SFC-matching network the tests build, so every
# differential/oracle assertion now also runs with staged rebuilds and
# atomic swaps firing constantly (smoke hypothesis profile — this pass is
# about swap soundness under the existing assertions, not new
# counterexamples).
REPRO_AUTOTUNE=1 HYPOTHESIS_PROFILE=smoke python -m pytest -x -q tests

echo "== numpy-free fallback tier-1 (REPRO_NO_NUMPY=1) =="
# The vectorized keying and flat-store sweep paths must stay bit-identical to
# their pure-python fallbacks; pin the fallbacks by running tier-1 once with
# numpy deliberately unavailable (smoke hypothesis profile — the deep
# property pass already ran above, this pass is about the fallback code
# paths, not about finding new counterexamples).
REPRO_NO_NUMPY=1 HYPOTHESIS_PROFILE=smoke python -m pytest -x -q tests

echo "== example smoke (tiny sizes) =="
REPRO_BENCH_SMOKE=1 python examples/broker_network_simulation.py > /dev/null
REPRO_BENCH_SMOKE=1 python examples/sim_latency_churn.py > /dev/null

echo "ci.sh: all checks passed"

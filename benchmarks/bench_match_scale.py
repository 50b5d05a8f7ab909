"""E-MATCH-SCALE — million-subscription matching on the flat segment store.

Paper reference: the scalability claim of Section 1 — SFC-keyed matching is
meant to sustain very large subscription populations because the index is
"just" points in key order.  This bench builds 10^5- and 10^6-subscription
indexes through the bulk ``add_batch`` path, measures insert/publish
throughput against the recorded insert rate of the previous ordered-map
store, and re-verifies exactness (the match index under every curve against
a brute-force rectangle oracle) before timing anything.

Alongside the text table it emits machine-readable
``results/BENCH_match_scale.json`` (throughput, segment counts, flattened
member entries, rebuild counts, peak RSS) for downstream tooling.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh): the
parity phase still runs in full, but populations shrink and the speedup
assertion is dropped (relative timings are meaningless at toy sizes).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_match_scale_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

if _SMOKE:
    _PARAMS = dict(
        populations=(2_000,),
        num_events=500,
        num_delivery_events=50,
        parity_subscriptions=120,
        parity_events=80,
        min_speedup=0.0,
    )
else:
    _PARAMS = dict(
        populations=(100_000, 1_000_000),
        min_speedup=10.0,
    )


def test_match_scale(run_once, record_table):
    table = run_once(run_match_scale_experiment, **_PARAMS)
    record_table("match_scale", table)
    rows = table.rows
    parity = [r for r in rows if r["phase"] == "parity"]
    scale = {r["subscriptions"]: r for r in rows if r["phase"] == "scale"}
    # Exactness first: the index under all 3 curves matched the rectangle
    # oracle (the experiment raises on any disagreement before producing this row).
    assert parity and parity[0]["combos_verified"] == 3
    # Every population completed a bulk build and answered publishes.
    for population in _PARAMS.get("populations"):
        row = scale[population]
        assert row["segments"] > 0
        assert row["delivery_events_per_second"] > 0
    if not _SMOKE:
        # The acceptance criterion: 1M subscriptions built >= 10x faster than
        # the recorded per-insert ordered-map baseline (also enforced inside
        # the experiment via min_speedup; this re-checks from the recorded rows).
        assert scale[1_000_000]["speedup_vs_baseline"] >= 10.0

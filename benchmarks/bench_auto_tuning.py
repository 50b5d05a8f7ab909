"""E-TUNE — the online self-tuning index vs every static configuration.

Paper connection: every knob the paper exposes (curve kind, decomposition
precision, run budget, ε) changes *work*, never *answers* — any
config decomposes subscriptions into key runs whose union is checked exactly
by the rectangle fallback.  That freedom is what makes online tuning safe:
the :class:`~repro.tuning.AutoTuner` can re-curve or re-decompose a drifting
interface mid-run (staged rebuild + atomic generation swap) without any
delivery-visible effect, which the driver asserts inline via the tuned ≡
static delivery-set differential.

The scenario is a drifted deployment: every network starts from the same
deliberately coarse config (run budget 1 — heavy coarsening, heavy false
positives); the static networks are stuck with it while the tuned one adapts.
The harness asserts the tuned run does less matching work per event
(candidates checked — deterministic work units, not wall clock) than the best
static config on at least 2 of the 3 application scenarios.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh).
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_auto_tuning_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_auto_tuning(run_once, record_table):
    if _SMOKE:
        kwargs = dict(
            num_subscriptions=40,
            num_events=60,
            warmup_events=20,
            order=7,
            cooldown=2,
            sample_subscriptions=12,
            probe_log_capacity=16,
        )
    else:
        kwargs = dict(
            num_subscriptions=240,
            num_events=360,
            warmup_events=120,
            order=8,
        )
    table = run_once(run_auto_tuning_experiment, seed=31, **kwargs)
    record_table("auto_tuning", table)

    scenarios = ("stock", "sensor", "auction")
    by_config = {(row["scenario"], row["config"]): row for row in table.rows}
    assert {key[0] for key in by_config} == set(scenarios)

    # The tuner must have actually tuned somewhere — a run with zero swaps
    # would make the comparison below vacuous.
    assert sum(by_config[(s, "tuned")]["swaps"] for s in scenarios) > 0, table.rows

    # Acceptance: tuned work-per-event beats the *best* static config on at
    # least 2 of the 3 scenarios (work units are deterministic; wall clock is
    # reported in the table but not asserted on).
    wins = 0
    for scenario in scenarios:
        best_static = min(
            row["work_per_event"]
            for (s, config), row in by_config.items()
            if s == scenario and config.startswith("static:")
        )
        if by_config[(scenario, "tuned")]["work_per_event"] <= best_static:
            wins += 1
    assert wins >= 2, [
        (s, by_config[(s, "tuned")]["work_per_event"]) for s in scenarios
    ]

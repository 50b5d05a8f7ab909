"""E-SUB-CHURN — batched subscription churn vs the recorded per-subscription baseline.

Paper connection: the covering optimisation's cost lives on the subscription
path — every arrival runs a covering check per link, and every withdrawal of a
covering subscription must promote the subscriptions it had been suppressing.
The fast path computes each subscription's dominance-region probe plan once
(shared across links, brokers and promotion re-checks), amortises batches
through ``subscribe_batch`` / ``unsubscribe_batch``, and promotes via the
dependents map instead of re-scanning the suppressed set.  This benchmark
shows the payoff at 10k–50k subscriptions and checks the safety claim after
churn on tree/chain/star under both transports.

The baseline is the broker that predates the fast path, removed from the
package; its timings are the recorded
``repro.analysis.experiments.LEGACY_CHURN_SECONDS``.  The speedup gates
compare a live run against those fixed numbers, so they are only meaningful
on hardware comparable to the machine that recorded them.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny-size smoke pass (used by ci.sh) that
additionally *asserts* the batch API leaves byte-identical routing state to a
sequential replay — CI fails on any divergence.
"""

from __future__ import annotations

import os

from repro.analysis.experiments import run_subscription_churn_experiment

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_subscription_churn_speedup(run_once, record_table):
    if _SMOKE:
        kwargs = dict(
            sizes=(200, 400),
            num_brokers=7,
            max_cover_withdrawals=20,
            narrow_withdrawals=30,
            audit_events=10,
            verify_state=True,  # batch must equal sequential, or CI fails
        )
    else:
        # audit_size trims the 6-way topology/transport matrix; the churn
        # comparison itself runs at the full sizes.
        kwargs = dict(sizes=(10_000, 50_000), audit_size=5_000)
    table = run_once(run_subscription_churn_experiment, seed=11, **kwargs)
    record_table("subscription_churn", table)

    churn_rows = {row["subscriptions"]: row for row in table.rows if row["phase"] == "churn"}
    audit_rows = [row for row in table.rows if row["phase"] == "audit"]
    # Safety first: after batch churn (withdrawal promotion included), no
    # audited event may miss a surviving subscriber on any topology/transport.
    assert audit_rows, "audit matrix is empty"
    assert {(row["topology"], row["transport"]) for row in audit_rows} >= {
        ("tree", "sync"),
        ("tree", "sim"),
        ("chain", "sync"),
        ("chain", "sim"),
        ("star", "sync"),
        ("star", "sim"),
    }
    assert all(row["missed"] == 0 for row in audit_rows), audit_rows
    if not _SMOKE:
        # Acceptance: >= 5x for batched subscribe+withdraw over the recorded
        # per-subscription baseline at >= 50k subscriptions.  Observed runs
        # are an order of magnitude; 5x leaves margin for slow machines.
        assert churn_rows[50_000]["speedup"] >= 5.0, churn_rows[50_000]
        # The withdrawal path is where dependents-map promotion shows up.
        assert churn_rows[50_000]["withdraw_speedup"] >= 5.0, churn_rows[50_000]

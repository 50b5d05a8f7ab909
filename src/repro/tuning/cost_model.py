"""Workload-driven cost model for index configurations.

Two questions, both answered from counters the match indexes already keep:

* **Is this interface drifting?** — :meth:`CostModel.drift` turns a window of
  :class:`~repro.pubsub.match_index.MatchIndexStats` deltas into a
  false-positive rate (candidates that survived the segment probe but failed
  the exact rectangle check, per lookup).  A high rate means the current
  decomposition fits the workload badly: runs too coarse, or a curve whose
  locality mismatches the query distribution.
* **Which config would serve it better?** — :meth:`CostModel.evaluate` builds
  a throwaway :class:`~repro.pubsub.match_index.MatchIndex` under a candidate
  config, loads a subscription sample, replays the interface's recent probe
  log and scores the work the trial index performed.  Replay is deterministic:
  same sample + same probes → same score, so same-seed runs tune identically.

Scores are *work units* (candidates checked, weighted false positives), not
wall-clock — deterministic across machines, comparable across configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from ..index.config import IndexConfig

__all__ = ["CostModel"]


@dataclass
class CostModel:
    """Scores configs against an observed workload.

    Parameters
    ----------
    probe_weight:
        Weight of each candidate examined during probe replay (the dominant
        matching cost: one exact rectangle check per candidate).
    fp_weight:
        Extra penalty per false positive — a candidate that was checked *and*
        rejected, i.e. pure overhead the decomposition caused.
    run_weight:
        Weight of each run the trial index *stores* — the maintenance side of
        the trade-off.  Finer decompositions (higher run budgets) cut false
        positives but cost memory and insert/rebuild work; without this term
        the probe-only score rewards doubling the run budget forever.
    min_lookups:
        Minimum lookups in a drift window before the false-positive rate is
        considered meaningful; below it :meth:`drift` reports no signal.
    """

    probe_weight: float = 1.0
    fp_weight: float = 1.0
    run_weight: float = 0.25
    min_lookups: int = 32

    def drift(self, false_positives: int, lookups: int) -> Optional[float]:
        """False-positive rate over a stats-delta window, or ``None``.

        ``None`` means "not enough traffic to judge" — distinct from 0.0,
        which is a real measurement of a perfectly tight index.
        """
        if lookups < max(1, self.min_lookups):
            return None
        return false_positives / lookups

    def evaluate(
        self,
        schema,
        config: IndexConfig,
        subscriptions: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]],
        probes: Sequence[Tuple[int, ...]],
    ) -> float:
        """Trial-replay score of ``config`` (lower is better).

        Builds a fresh index under ``config``, bulk-loads the subscription
        sample and replays every probe.
        """
        # Local import: repro.pubsub imports nothing from repro.tuning at
        # module level, so this direction is cycle-free but must stay lazy
        # enough not to fire during repro.pubsub's own package init.
        from ..pubsub.match_index import MatchIndex

        index = MatchIndex(schema, config=config)
        if subscriptions:
            index.add_batch(list(subscriptions))
        for cells in probes:
            index.matching_ids(cells)
        stats = index.stats
        return (
            self.probe_weight * stats.candidates_checked
            + self.fp_weight * stats.false_positives
            + self.run_weight * stats.runs_stored
        )

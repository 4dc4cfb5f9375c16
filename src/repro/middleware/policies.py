"""The four load-balancing policies (Section IV, after Shivaratri/
Krueger/Singhal's taxonomy [17]).

- *Transfer policy*: threshold-driven on the sender — initiate when the
  local load exceeds a critical threshold or exceeds the approximated
  cluster average by a margin.  (The receiver side is the two-phase
  commit in :mod:`twophase`.)
- *Location policy*: find a peer whose load sits on the *opposite side*
  of the cluster average, about as far below it as the sender is above —
  so both converge to the average after the migration.
- *Selection policy*: pick the process whose CPU share best matches the
  local-load-minus-average difference.
- *Information policy*: periodic broadcast of load heartbeats — the
  conductor's heartbeat loop, every
  :data:`~repro.middleware.conductor.HEARTBEAT_INTERVAL`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..oskern import SimProcess
from .loadinfo import LoadInfo

__all__ = [
    "PolicyConfig",
    "TransferPolicy",
    "LocationPolicy",
    "SelectionPolicy",
]


@dataclass(frozen=True)
class PolicyConfig:
    """Shared policy tunables."""

    #: Local load (%) above which a node always tries to shed work.
    critical_threshold: float = 90.0
    #: Initiate also when local load exceeds the cluster average by this.
    imbalance_threshold: float = 12.0
    #: Candidate receivers must sit at least this far below the average.
    receiver_margin: float = 3.0
    #: A migrated process must carry at least this much CPU share (%).
    min_share: float = 0.5
    #: Don't pick a process bigger than target_diff * this factor.
    max_overshoot: float = 1.8


class TransferPolicy:
    """Sender-initiated, threshold-driven (Section IV-A).

    ``should_initiate`` must be a pure function of its arguments: the
    ``paper-threshold`` strategy asks it both as its quiet gate and
    again when it plans.
    """

    def __init__(self, config: PolicyConfig) -> None:
        self.config = config

    def should_initiate(self, local_load: float, cluster_average: float) -> bool:
        cfg = self.config
        if local_load >= cfg.critical_threshold:
            return True
        return (local_load - cluster_average) >= cfg.imbalance_threshold


class LocationPolicy:
    """Pick the receiver on the opposite side of the average
    (Section IV-B)."""

    def __init__(self, config: PolicyConfig) -> None:
        self.config = config

    def choose(
        self,
        local_load: float,
        cluster_average: float,
        peers: Sequence[LoadInfo],
    ) -> list[LoadInfo]:
        """Candidate receivers, best first.

        The ideal receiver is as much *below* the average as the sender
        is above it; returning a ranked list lets the conductor fall
        back when the best candidate declines the two-phase commit.
        """
        overload = local_load - cluster_average
        candidates = [
            p
            for p in peers
            if cluster_average - p.cpu_percent >= self.config.receiver_margin
        ]
        return sorted(
            candidates,
            key=lambda p: abs((cluster_average - p.cpu_percent) - overload),
        )


class LeastLoadedLocationPolicy(LocationPolicy):
    """Baseline alternative: always pick the lightest node.

    Simpler than the paper's opposite-side-of-average policy, but it
    funnels every sender's migrations at the same receiver, overshooting
    it below the average and inviting follow-up migrations.
    """

    def choose(
        self,
        local_load: float,
        cluster_average: float,
        peers: Sequence[LoadInfo],
    ) -> list[LoadInfo]:
        candidates = [
            p
            for p in peers
            if cluster_average - p.cpu_percent >= self.config.receiver_margin
        ]
        return sorted(candidates, key=lambda p: p.cpu_percent)


class RandomLocationPolicy(LocationPolicy):
    """Baseline alternative: any below-average receiver, random order.

    The rng must be an *explicitly seeded* generator (e.g. a named
    ``RngRegistry`` stream, or the conductor's per-node strategy stream)
    — there is deliberately no module-level fallback, because an
    unseeded source would make strategy comparisons unreproducible:
    two same-seed runs would rank receivers differently and their
    traces would diverge.
    """

    def __init__(self, config: PolicyConfig, rng) -> None:
        super().__init__(config)
        if rng is None or not hasattr(rng, "permutation"):
            raise TypeError(
                "RandomLocationPolicy needs an explicitly seeded numpy "
                "Generator (e.g. RngRegistry(seed).stream('location')); "
                f"got {rng!r}"
            )
        self.rng = rng

    def choose(
        self,
        local_load: float,
        cluster_average: float,
        peers: Sequence[LoadInfo],
    ) -> list[LoadInfo]:
        candidates = [
            p
            for p in peers
            if cluster_average - p.cpu_percent >= self.config.receiver_margin
        ]
        order = self.rng.permutation(len(candidates))
        return [candidates[i] for i in order]


class SelectionPolicy:
    """Pick the process matching the load difference (Section IV-C)."""

    def __init__(self, config: PolicyConfig) -> None:
        self.config = config

    def choose(
        self,
        target_diff: float,
        shares: Sequence[tuple[SimProcess, float]],
    ) -> Optional[SimProcess]:
        """The process whose CPU share best approximates ``target_diff``
        (the local node's excess over the cluster average)."""
        cfg = self.config
        eligible = [
            (proc, share)
            for proc, share in shares
            if share >= cfg.min_share and share <= target_diff * cfg.max_overshoot
        ]
        if not eligible:
            return None
        proc, _share = min(eligible, key=lambda ps: abs(ps[1] - target_diff))
        return proc


class LargestProcessSelectionPolicy(SelectionPolicy):
    """Baseline alternative: always shed the biggest eligible process.

    Greedy shedding overshoots: the paper's matched selection aims to
    land *both* nodes on the cluster average, the greedy one just dumps
    load — often turning the sender into the new under-loaded node.
    """

    def choose(
        self,
        target_diff: float,
        shares: Sequence[tuple[SimProcess, float]],
    ) -> Optional[SimProcess]:
        eligible = [
            (proc, share) for proc, share in shares if share >= self.config.min_share
        ]
        if not eligible:
            return None
        proc, _share = max(eligible, key=lambda ps: ps[1])
        return proc

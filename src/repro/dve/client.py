"""The client population and its movement model.

Section VI-C: 10,000 clients start uniformly distributed over the
zones; during the ~15-minute run, clients from the middle regions of
the virtual space gradually move towards the up-left and down-right
corners — the clustering behaviour reported as very common in
large-scale environments [24].

Positions are continuous (vectorized with numpy); zone populations are
derived by binning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import ZoneGrid

__all__ = ["MovementConfig", "ClientPopulation"]


@dataclass(frozen=True)
class MovementConfig:
    """Corner-drift movement parameters."""

    #: Fraction of middle-region clients that drift to a corner.
    mover_fraction: float = 0.7
    #: Rows considered the "middle region" (inclusive band).
    middle_rows: tuple[int, int] = (3, 6)
    #: Time for a mover to cover the full diagonal (seconds).
    travel_time: float = 600.0
    #: Random-walk jitter of non-movers (grid units per step).
    jitter: float = 0.05
    #: Size of the corner region movers settle in (grid units): targets
    #: are spread over a corner_spread x corner_spread area, so the
    #: crowd clusters in the corner *region*, not a single zone.
    corner_spread: float = 1.6


class ClientPopulation:
    """All clients' positions + the drift dynamics.

    ``rng`` is the *only* randomness source — initial placement, mover
    selection, speeds and jitter all draw from it, never from a module
    or global generator.  Pass a named stream from the cluster's seeded
    registry (``cluster.rng.stream("dve-clients")``) and a master seed
    replays the population byte for byte; the scenario plane
    (:class:`repro.scenarios.driver.ScenarioDriver`) honours the same
    contract with its ``"scenario"`` stream.
    """

    def __init__(
        self,
        grid: ZoneGrid,
        n_clients: int,
        rng: np.random.Generator,
        config: MovementConfig | None = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.grid = grid
        self.config = config or MovementConfig()
        self.rng = rng
        cfg = self.config

        # Uniform initial distribution over the whole world.
        self.positions = np.column_stack(
            [
                rng.uniform(0, grid.cols, size=n_clients),
                rng.uniform(0, grid.rows, size=n_clients),
            ]
        )

        rows = np.floor(self.positions[:, 1]).astype(int)
        in_middle = (rows >= cfg.middle_rows[0]) & (rows <= cfg.middle_rows[1])
        is_mover = in_middle & (rng.random(n_clients) < cfg.mover_fraction)
        self.movers = is_mover

        # Upper-middle clients head up-left, lower-middle down-right;
        # each mover settles at its own spot inside the corner region.
        mid_row = (cfg.middle_rows[0] + cfg.middle_rows[1] + 1) / 2
        up = self.positions[:, 1] < mid_row
        spread = rng.uniform(0.2, 0.2 + cfg.corner_spread, size=(n_clients, 2))
        self.targets = np.where(
            up[:, None],
            spread,
            np.array([[grid.cols, grid.rows]]) - spread,
        )
        # Per-client speed: full diagonal over travel_time, with spread.
        diagonal = float(np.hypot(grid.cols, grid.rows))
        base_speed = diagonal / cfg.travel_time
        self.speeds = base_speed * rng.uniform(0.6, 1.4, size=n_clients)

    def __len__(self) -> int:
        return len(self.positions)

    def step(self, dt: float) -> None:
        """Advance all clients by ``dt`` seconds."""
        cfg = self.config
        pos = self.positions
        # Movers drift toward their corner target.
        delta = self.targets - pos
        dist = np.linalg.norm(delta, axis=1, keepdims=True)
        np.clip(dist, 1e-9, None, out=dist)
        step_len = (self.speeds * dt)[:, None]
        drift = delta / dist * np.minimum(step_len, dist)
        pos[self.movers] += drift[self.movers]
        # Everyone jitters a little.
        pos += self.rng.normal(0.0, cfg.jitter * dt, size=pos.shape)
        np.clip(pos[:, 0], 0, self.grid.cols - 1e-6, out=pos[:, 0])
        np.clip(pos[:, 1], 0, self.grid.rows - 1e-6, out=pos[:, 1])

    def zone_counts(self) -> np.ndarray:
        """(rows, cols) array of client counts per zone."""
        cols = np.floor(self.positions[:, 0]).astype(int)
        rows = np.floor(self.positions[:, 1]).astype(int)
        counts = np.zeros((self.grid.rows, self.grid.cols), dtype=int)
        np.add.at(counts, (rows, cols), 1)
        return counts

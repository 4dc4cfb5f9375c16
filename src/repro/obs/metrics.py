"""Counters, gauges and histograms, sampled into the time-series machinery.

The simulation already has one export path for evaluation data: the
:class:`~repro.des.TimeSeries` / :class:`~repro.des.SeriesBundle`
recorders behind Figures 5d-5f (and their CSV exporters).  The metrics
registry reuses it: daemons register cheap :class:`Counter`,
:class:`Gauge` and :class:`Histogram` objects, and a periodic sampler
snapshots every metric into a ``SeriesBundle`` so migration-layer and
middleware-layer metrics come out of the same pipe.

Gauges may wrap a callable, so existing daemon attributes (e.g.
``MigrationDaemon.migrations_completed``) become metrics without any
hot-path bookkeeping.

Histograms keep the *distributions* the paper's evaluation is made of
(freeze time vs connection count, per-packet delay, per-socket subtract
bytes): fixed log-scale buckets — 20 per decade, so any quantile is
exact to within ~6% — with exact count/sum/min/max on the side.

All three kinds share one namespace per registry: requesting an
existing name as a different kind raises ``ValueError`` instead of
silently handing back the wrong object.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "install_metrics_sampler",
]


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def get(self) -> float:
        return self.value


class Gauge:
    """Point-in-time value: either set explicitly or read via ``fn``."""

    __slots__ = ("name", "_value", "fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        if self.fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = float(value)

    def get(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value


#: 20 buckets per decade: bucket i covers [G**i, G**(i+1)), G ~ 1.122.
_LOG_GROWTH = math.log(10.0) / 20.0
_INV_LOG_GROWTH = 1.0 / _LOG_GROWTH


class Histogram:
    """Log-scale bucketed distribution with exact count/sum/min/max.

    Buckets are fixed and geometric (:attr:`GROWTH` per bucket, 20 per
    decade), sparse-stored, covering the whole positive float range —
    no configuration, so histograms of seconds and histograms of bytes
    use the same resolution.  Non-positive observations land in a
    dedicated underflow bucket (quantiles report them as :meth:`min`).

    Quantile error is bounded by the bucket width: the reported value is
    the geometric midpoint of the selected bucket, clamped to the exact
    observed [min, max], so ``quantile(q)`` is within a factor
    ``sqrt(GROWTH)`` of an exact order statistic.
    """

    __slots__ = ("name", "_counts", "_count", "_sum", "_min", "_max", "_underflow")

    GROWTH = math.exp(_LOG_GROWTH)

    def __init__(self, name: str) -> None:
        self.name = name
        #: bucket index -> observation count (sparse).
        self._counts: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._underflow = 0

    # -- recording -----------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._underflow += 1
            return
        # The epsilon keeps exact bucket boundaries (value == G**i) from
        # rounding down a bucket on float error.
        idx = math.floor(math.log(value) * _INV_LOG_GROWTH + 1e-9)
        self._counts[idx] = self._counts.get(idx, 0) + 1

    # -- queries -------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        if self._count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        return self._sum / self._count

    def min(self) -> float:
        if self._count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        return self._min

    def max(self) -> float:
        if self._count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        return self._max

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), exact to bucket resolution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self._count == 0:
            raise ValueError(f"histogram {self.name} is empty")
        target = max(1, math.ceil(q * self._count))
        seen = self._underflow
        if seen >= target:
            return self._min
        for idx in sorted(self._counts):
            seen += self._counts[idx]
            if seen >= target:
                mid = math.exp((idx + 0.5) * _LOG_GROWTH)
                return min(max(mid, self._min), self._max)
        return self._max  # pragma: no cover - counts always sum to _count

    def summary(self) -> dict[str, float]:
        """The standard summary block: count/sum/mean/min/max/p50/p95/p99."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean(),
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def flatten(self) -> dict[str, float]:
        """Summary keyed as ``<name>.count``, ``<name>.p99``, ... — the
        form histograms take inside a registry snapshot / SeriesBundle."""
        return {f"{self.name}.{k}": v for k, v in self.summary().items()}


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create semantics.

    All kinds share one namespace: re-requesting a name returns the
    existing object for the same kind and raises a ``ValueError``
    naming both kinds for a mismatch (a counter can never silently
    come back as a gauge).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration --------------------------------------------------------
    def _lookup(self, name: str, want: type) -> Optional[Metric]:
        m = self._metrics.get(name)
        if m is not None and not isinstance(m, want):
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{type(m).__name__.lower()}; requested a {want.__name__.lower()}"
            )
        return m

    def counter(self, name: str) -> Counter:
        c = self._lookup(name, Counter)
        if c is None:
            c = Counter(name)
            self._metrics[name] = c
        return c  # type: ignore[return-value]

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        g = self._lookup(name, Gauge)
        if g is None:
            g = Gauge(name, fn)
            self._metrics[name] = g
        elif fn is not None:
            g.fn = fn  # rebind: a daemon re-registering after restart
        return g  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        h = self._lookup(name, Histogram)
        if h is None:
            h = Histogram(name)
            self._metrics[name] = h
        return h  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def histograms(self) -> dict[str, Histogram]:
        """All registered histograms by name."""
        return {n: m for n, m in self._metrics.items() if isinstance(m, Histogram)}

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- sampling ------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Current value of every metric.  Histograms flatten into
        ``<name>.count`` / ``.p50`` / ``.p95`` / ``.p99`` / ... keys."""
        out: dict[str, float] = {}
        for name, m in self._metrics.items():
            if isinstance(m, Histogram):
                out.update(m.flatten())
            else:
                out[name] = m.get()
        return out

    def sample_into(self, bundle, time: float) -> None:
        """Record every metric into a :class:`~repro.des.SeriesBundle`
        at ``time`` — the shared export path with the Fig. 5 series."""
        for name, value in sorted(self.snapshot().items()):
            bundle.record(name, time, value)


def install_metrics_sampler(env, registry: MetricsRegistry, bundle, interval: float):
    """Spawn a DES process sampling ``registry`` into ``bundle`` every
    ``interval`` simulated seconds.  Returns the process.

    The loop samples at most once per simulated instant, so a sampler
    resumed across ``env.run()`` calls (or racing another recorder at
    t=0) never writes duplicate-timestamp rows; when a run ends
    mid-interval the pending timeout simply never fires — no partial
    row is recorded.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")

    def loop():
        last: Optional[float] = None
        while True:
            if env.now != last:
                registry.sample_into(bundle, env.now)
                last = env.now
            yield env.timeout(interval)

    return env.process(loop(), name="metrics-sampler")

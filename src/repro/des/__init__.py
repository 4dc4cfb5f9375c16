"""Discrete-event simulation kernel (substrate).

A compact, dependency-free simulation core in the style of SimPy:
generator-based processes, an event heap, timeouts and an all-of
condition, plus reproducible named RNG streams and time-series
recorders used by the experiment harnesses.
"""

from .engine import Environment, StopSimulation
from .events import AllOf, Event, Timeout
from .monitor import SeriesBundle, TimeSeries
from .process import Process
from .rng import RngRegistry

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "RngRegistry",
    "TimeSeries",
    "SeriesBundle",
]

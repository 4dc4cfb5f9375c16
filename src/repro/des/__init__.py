"""Discrete-event simulation kernel (substrate).

A compact, dependency-free simulation core in the style of SimPy:
generator-based processes, an event heap, timeouts, an all-of
condition and lockstep cohorts of periodic loops, plus reproducible
named RNG streams and time-series recorders used by the experiment
harnesses.
"""

from .cohort import Cohort
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
    "Cohort",
    "RngRegistry",
    "TimeSeries",
    "SeriesBundle",
]

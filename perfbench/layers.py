"""Per-layer tracing by wrapping the simulator's functions from outside.

A layer is a ``repro.<layer>`` package (:data:`LAYERS`).  :class:`LayerTracer`
imports every module of each layer and replaces each function and method
defined there (``__init__``/``__post_init__`` included, other dunders not)
with a wrapper that records a span: its start, end, parent span and the
function.  The wrappers go in before any world is built, and
:meth:`LayerTracer.uninstall` puts every original back.

Generator functions are DES process bodies or ``yield from`` helpers:
calling one only creates the generator, so the wrapper returns a proxy
that times each *resume* (``send``/``throw``/``next``) instead.  Generators
the program builds from closures reach the DES through
``Environment.process``; the tracer proxies those too, attributed to the
layer of the file that defines them.  What runs outside every span (the
benchmark's own code, ``repro.analysis``/``testing``/``cluster``/``obs``/
``faults``) is the ``other`` bucket.

A span's *exclusive* time is its duration minus its direct child spans.
A layer's self time is the sum of its spans' exclusive times, which
equals "span time minus nested spans of other layers".  The wrapper's own
cost lands in the caller's exclusive time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Optional

LAYERS = ("des", "net", "tcpip", "oskern", "blcr", "core", "middleware", "scenarios", "dve")
OTHER = "other"
#: Dunder methods worth a span: object construction is real work in the
#: packet path (``Packet.__post_init__`` validation, for one).
_WRAPPED_DUNDERS = frozenset({"__init__", "__post_init__"})
#: Raw spans kept for the written-out trace; aggregates are always exact.
SPAN_SAMPLE = 20_000


def layer_of_module(name: str) -> str:
    parts = name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


class LayerTracer:
    """Span recorder plus the wrapping that feeds it.

    Keys are ``(layer, module, qualname)``; ``calls[i]`` counts calls of
    key ``i``, ``resumes[i]`` generator resumes, ``excl[i]`` exclusive
    seconds.  ``probes`` maps a key to ``fn(args, kwargs, result)`` run
    after each call, for counts that need the arguments or the result.
    """

    def __init__(self, probes: Optional[dict[tuple[str, str], Callable]] = None) -> None:
        self.keys: list[tuple[str, str, str]] = []
        self._index: dict[tuple[str, str, str], int] = {}
        self.calls: list[int] = []
        self.resumes: list[int] = []
        self.excl: list[float] = []
        #: Open spans: ``[child seconds, span id]``.  The bottom frame is
        #: the root span (``other``), timed between ``__enter__``/``__exit__``.
        self.stack: list[list] = [[0.0, 0]]
        #: Sampled spans ``(key index, start, end, span id, parent id)``.
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.span_count = 0
        self._probes = dict(probes or {})
        self._restore: list[tuple[Any, str, Any]] = []
        #: id -> wrapper, held so ids stay unique until the uninstall check.
        self._wrappers: dict[int, Callable] = {}
        self._file_modules: dict[str, str] = {}
        self.root = self._key((OTHER, "", "<root>"))
        self.wall = 0.0

    # -- keys ----------------------------------------------------------------
    def _key(self, key: tuple[str, str, str]) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            self.resumes.append(0)
            self.excl.append(0.0)
        return idx

    # -- the root span ---------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.stack[0][0] = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        (root,) = self.stack
        self.excl[self.root] += wall - root[0]
        self.wall += wall

    # -- wrapping ----------------------------------------------------------------
    def install(self) -> None:
        """Wrap every function of every layer module.  Call before any
        world is built: objects keep what they looked up at construction."""
        if self._restore:
            raise RuntimeError("already installed")
        wrapped: dict[int, Any] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            for module in _layer_modules(layer):
                self._wrap_module(layer, module, wrapped)
        # Modules that imported a wrapped function by name hold the original.
        for module in list(sys.modules.values()):
            if not (module and module.__name__.split(".")[0] == "repro"):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, name, wrapper)
        from repro.des import Environment

        self._set(Environment, "process", self._process_wrapper(Environment.process))

    def uninstall(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        left = [
            f"{module.__name__}.{name}"
            for module in list(sys.modules.values())
            if module and module.__name__.split(".")[0] == "repro"
            for owner in [module, *_classes_of(module)]
            for name, value in vars(owner).items()
            if id(_unwrap_descriptor(value)) in self._wrappers
        ]
        self._wrappers.clear()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left[:5]}")

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_module(self, layer: str, module: types.ModuleType, wrapped: dict) -> None:
        modname = module.__name__
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value.__module__ == modname:
                if name.startswith("__"):
                    continue
                wrapper = wrapped.get(id(value)) or self._wrap(layer, modname, value)
                wrapped[id(value)] = wrapper
                self._set(module, name, wrapper)
        for cls in _classes_of(module):
            for name, attr in list(vars(cls).items()):
                if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                    continue
                fn = _unwrap_descriptor(attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapper = self._wrap(layer, modname, fn)
                if isinstance(attr, staticmethod):
                    wrapper = staticmethod(wrapper)
                elif isinstance(attr, classmethod):
                    wrapper = classmethod(wrapper)
                self._set(cls, name, wrapper)

    def _wrap(self, layer: str, modname: str, fn: types.FunctionType) -> Callable:
        idx = self._key((layer, modname, fn.__qualname__))
        probe = self._probes.get((modname, fn.__qualname__))
        if inspect.isgeneratorfunction(fn):
            wrapper = self._generator_wrapper(fn, idx)
        else:
            wrapper = self._function_wrapper(fn, idx, probe)
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _function_wrapper(self, fn: Callable, idx: int, probe: Optional[Callable]) -> Callable:
        stack, excl, calls, spans = self.stack, self.excl, self.calls, self.spans
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            tracer.span_count += 1
            frame = [0.0, tracer.span_count]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                excl[idx] += d - frame[0]
                parent = stack[-1]
                parent[0] += d
                if len(spans) < SPAN_SAMPLE:
                    spans.append((idx, t0, t1, frame[1], parent[1]))
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, fn: Callable, idx: int) -> Callable:
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return _TimedGenerator(fn(*args, **kwargs), idx, tracer)

        return wrapper

    def _process_wrapper(self, process: Callable) -> Callable:
        """``Environment.process``: proxy closure-built generators so
        their resumes land in the layer that defines them."""
        tracer = self

        def wrapper(env, generator, name=None):
            if isinstance(generator, types.GeneratorType):
                code = generator.gi_code
                module = tracer._module_of_file(code.co_filename)
                idx = tracer._key((layer_of_module(module), module, code.co_qualname))
                generator = _TimedGenerator(generator, idx, tracer)
            return process(env, generator, name)

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _module_of_file(self, filename: str) -> str:
        module = self._file_modules.get(filename)
        if module is None:
            module = self._file_modules[filename] = next(
                (
                    name
                    for name, mod in list(sys.modules.items())
                    if getattr(mod, "__file__", None) == filename
                ),
                "",
            )
        return module

    # -- results -------------------------------------------------------------------
    def by_key(self) -> list[dict]:
        return [
            {
                "layer": layer,
                "module": module,
                "qualname": qualname,
                "calls": self.calls[i],
                "resumes": self.resumes[i],
                "self_s": self.excl[i],
            }
            for i, (layer, module, qualname) in enumerate(self.keys)
            if self.calls[i] or self.resumes[i] or self.excl[i]
        ]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in (*LAYERS, OTHER)}
        for i, (layer, _, _) in enumerate(self.keys):
            out[layer]["calls"] += self.calls[i]
            out[layer]["self_s"] += self.excl[i]
        return out

    def select(self, pred: Callable[[str, str, str], bool]) -> tuple[int, float]:
        """(calls, self seconds) summed over the keys ``pred`` accepts."""
        calls = 0
        self_s = 0.0
        for i, key in enumerate(self.keys):
            if pred(*key):
                calls += self.calls[i]
                self_s += self.excl[i]
        return calls, self_s

    def dump(self) -> dict:
        """The trace as written out: per-function aggregates plus the
        sampled spans as ``[key, start, end, id, parent id]`` rows, where
        ``key`` indexes ``keys`` and parent id 0 is the root span."""
        return {
            "wall_s": self.wall,
            "span_count": self.span_count,
            "keys": [list(k) for k in self.keys],
            "functions": sorted(self.by_key(), key=lambda f: -f["self_s"]),
            "spans": [list(span) for span in self.spans],
        }


class _TimedGenerator:
    """Generator proxy that opens a span around every resume."""

    __slots__ = ("_gen", "_idx", "_tracer", "__name__")

    def __init__(self, gen, idx: int, tracer: LayerTracer) -> None:
        self._gen = gen
        self._idx = idx
        self._tracer = tracer
        self.__name__ = gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._gen.close()

    def _resume(self, method, *args):
        tracer = self._tracer
        stack = tracer.stack
        idx = self._idx
        tracer.resumes[idx] += 1
        tracer.span_count += 1
        frame = [0.0, tracer.span_count]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return method(*args)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            d = t1 - t0
            tracer.excl[idx] += d - frame[0]
            parent = stack[-1]
            parent[0] += d
            if len(tracer.spans) < SPAN_SAMPLE:
                tracer.spans.append((idx, t0, t1, frame[1], parent[1]))


def _layer_modules(layer: str) -> list[types.ModuleType]:
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
        modules.append(importlib.import_module(info.name))
    return modules


def _classes_of(module: types.ModuleType) -> list[type]:
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def _unwrap_descriptor(attr: Any) -> Any:
    if isinstance(attr, (staticmethod, classmethod)):
        return attr.__func__
    return attr

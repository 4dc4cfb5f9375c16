"""One-liner scenario syntax (the workload twin of ``repro.faults.dsl``).

Each non-blank, non-comment line is one directive::

    clients 400
    duration 120
    tick 1
    grid 8x4
    nodes 4
    server cpu_per_client=0.003 cpu_base=0.02 pages=64 conns=4 db=true
    load flash at=30 peak=2.5 ramp=5 hold=10 decay=20
    load diurnal period=60 amp=0.4 phase=0.25
    zones zipf s=1.1
    zones rotate period=60 amp=0.5
    zones corners travel=300 mass=0.7 band=0.4
    background cycle base=0.8 amp=0.4 period=30
    mix churn=0.08 long_lived=0.6
    chain depend gain=0.3 lag=5 stride=1
    dirty hotset pages=40 interval=0.05

The grammar round-trips: :meth:`repro.scenarios.primitives.ScenarioSpec.
describe` emits exactly this syntax and ``parse_scenario(spec.describe())``
rebuilds an equal spec.  ``#`` starts a comment (whole line or trailing).

Malformed input raises :class:`ScenarioParseError`, whose message always
carries ``path:token:reason`` (plus the line number) so a CLI can print
it verbatim and exit 3 — the same convention ``repro-trace`` uses for
unknown report kinds.
"""

from __future__ import annotations

from typing import Optional

from .primitives import (
    BackgroundCycle,
    ConnectionMix,
    CornerDrift,
    DependencyChain,
    DiurnalSine,
    FlashCrowd,
    HotSet,
    RotatingHotspot,
    ScenarioSpec,
    UniformZones,
    ZipfZones,
)

__all__ = ["ScenarioParseError", "parse_scenario", "SHAPE_KINDS", "ZONE_KINDS"]

#: ``load`` sub-verb -> shape class (and its float/int option parsers).
SHAPE_KINDS = {
    "flash": (FlashCrowd, {"at": float, "peak": float, "ramp": float,
                           "hold": float, "decay": float, "zone": int}),
    "diurnal": (DiurnalSine, {"period": float, "amp": float, "phase": float}),
}

#: ``zones`` sub-verb -> weight class and option parsers.
ZONE_KINDS = {
    "uniform": (UniformZones, {}),
    "zipf": (ZipfZones, {"s": float}),
    "rotate": (RotatingHotspot, {"period": float, "amp": float}),
    "corners": (CornerDrift, {"travel": float, "mass": float, "band": float}),
}


def _parse_bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(value)
    return value == "true"


#: ``server`` options mapped onto :class:`ScenarioSpec` fields.
_SERVER_OPTIONS = {
    "cpu_per_client": ("cpu_per_client", float),
    "cpu_base": ("cpu_base", float),
    "pages": ("pages", int),
    "conns": ("conns", int),
    "db": ("db", _parse_bool),
}


class ScenarioParseError(ValueError):
    """A malformed scenario document.

    ``str()`` is ``<path>:<lineno>:<token>: <reason>`` — path, offending
    token and reason in one grep-able line.
    """

    def __init__(self, path: str, lineno: int, token: str, reason: str) -> None:
        self.path = path
        self.lineno = lineno
        self.token = token
        self.reason = reason
        super().__init__(f"{path}:{lineno}:{token}: {reason}")


class _LineParser:
    """One directive line, with error context baked in."""

    def __init__(self, path: str, lineno: int, line: str) -> None:
        self.path = path
        self.lineno = lineno
        self.tokens = line.split()

    def fail(self, token: str, reason: str) -> "ScenarioParseError":
        return ScenarioParseError(self.path, self.lineno, token, reason)

    def options(self, allowed: dict, start: int = 2) -> dict:
        """Parse trailing ``key=value`` tokens against ``allowed``."""
        verb = " ".join(self.tokens[:start])
        out = {}
        for tok in self.tokens[start:]:
            key, sep, value = tok.partition("=")
            if not sep or key not in allowed:
                raise self.fail(
                    tok,
                    f"unknown option for {verb!r} "
                    f"(allowed: {', '.join(sorted(allowed)) or 'none'})",
                )
            try:
                out[key] = allowed[key](value)
            except ValueError:
                raise self.fail(tok, f"bad {key} value {value!r}") from None
        return out


def _parse_scalar(p: _LineParser, kind: type, what: str):
    if len(p.tokens) != 2:
        raise p.fail(p.tokens[0], f"expected '{p.tokens[0]} <{what}>'")
    try:
        return kind(p.tokens[1])
    except ValueError:
        raise p.fail(p.tokens[1], f"bad {what} {p.tokens[1]!r}") from None


def parse_scenario(text: str, path: str = "<scenario>") -> ScenarioSpec:
    """Parse a multi-line scenario document into a :class:`ScenarioSpec`.

    ``path`` names the source in error messages.  Blank lines and ``#``
    comments are skipped.  Raises :class:`ScenarioParseError` on any
    malformed directive.
    """
    fields: dict = {}
    shapes = []
    zones = None
    background: Optional[BackgroundCycle] = None
    mix: Optional[ConnectionMix] = None
    chain: Optional[DependencyChain] = None
    hotset: Optional[HotSet] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        p = _LineParser(path, lineno, line)
        verb = p.tokens[0]

        if verb == "clients":
            fields["clients"] = _parse_scalar(p, int, "count")
        elif verb == "duration":
            fields["duration"] = _parse_scalar(p, float, "seconds")
        elif verb == "tick":
            fields["tick"] = _parse_scalar(p, float, "seconds")
        elif verb == "nodes":
            fields["nodes"] = _parse_scalar(p, int, "count")
        elif verb == "grid":
            spec = _parse_scalar(p, str, "COLSxROWS")
            cols, sep, rows = spec.partition("x")
            if not sep or not cols.isdigit() or not rows.isdigit():
                raise p.fail(spec, "grid must be '<cols>x<rows>' (e.g. 8x4)")
            fields["grid_cols"], fields["grid_rows"] = int(cols), int(rows)
        elif verb == "server":
            opts = p.options(
                {k: parse for k, (_f, parse) in _SERVER_OPTIONS.items()}, start=1
            )
            for key, value in opts.items():
                fields[_SERVER_OPTIONS[key][0]] = value
        elif verb == "load":
            if len(p.tokens) < 2:
                raise p.fail(verb, "expected 'load <kind> [key=value ...]'")
            kind = p.tokens[1]
            entry = SHAPE_KINDS.get(kind)
            if entry is None:
                raise p.fail(
                    kind,
                    f"unknown load shape (known: {', '.join(sorted(SHAPE_KINDS))})",
                )
            cls, allowed = entry
            shapes.append(_construct(p, cls, allowed))
        elif verb == "zones":
            if len(p.tokens) < 2:
                raise p.fail(verb, "expected 'zones <kind> [key=value ...]'")
            kind = p.tokens[1]
            entry = ZONE_KINDS.get(kind)
            if entry is None:
                raise p.fail(
                    kind,
                    f"unknown zone weighting (known: {', '.join(sorted(ZONE_KINDS))})",
                )
            if zones is not None:
                raise p.fail(kind, "scenario already has a zones directive")
            cls, allowed = entry
            zones = _construct(p, cls, allowed)
        elif verb == "background":
            if len(p.tokens) < 2 or p.tokens[1] != "cycle":
                raise p.fail(
                    p.tokens[1] if len(p.tokens) > 1 else verb,
                    "expected 'background cycle [key=value ...]'",
                )
            if background is not None:
                raise p.fail(verb, "scenario already has a background directive")
            background = _construct(
                p, BackgroundCycle, {"base": float, "amp": float, "period": float}
            )
        elif verb == "mix":
            if mix is not None:
                raise p.fail(verb, "scenario already has a mix directive")
            mix = _construct(
                p, ConnectionMix, {"churn": float, "long_lived": float}, start=1
            )
        elif verb == "chain":
            if len(p.tokens) < 2 or p.tokens[1] != "depend":
                raise p.fail(
                    p.tokens[1] if len(p.tokens) > 1 else verb,
                    "expected 'chain depend [key=value ...]'",
                )
            if chain is not None:
                raise p.fail(verb, "scenario already has a chain directive")
            chain = _construct(
                p, DependencyChain, {"gain": float, "lag": float, "stride": int}
            )
        elif verb == "dirty":
            if len(p.tokens) < 2 or p.tokens[1] != "hotset":
                raise p.fail(
                    p.tokens[1] if len(p.tokens) > 1 else verb,
                    "expected 'dirty hotset [key=value ...]'",
                )
            if hotset is not None:
                raise p.fail(verb, "scenario already has a dirty directive")
            hotset = _construct(
                p, HotSet, {"pages": int, "interval": float, "offset": int}
            )
        else:
            raise p.fail(
                verb,
                "unknown directive (known: clients, duration, tick, grid, "
                "nodes, server, load, zones, background, mix, chain, dirty)",
            )

    try:
        return ScenarioSpec(
            **fields,
            shapes=shapes,
            zones=zones if zones is not None else UniformZones(),
            background=background,
            mix=mix,
            chain=chain,
            hotset=hotset,
        )
    except ValueError as exc:
        raise ScenarioParseError(path, 0, "<spec>", str(exc)) from None


def _construct(p: _LineParser, cls, allowed: dict, start: int = 2):
    """Build a primitive from the line's options; constructor-level
    validation errors keep the path:token:reason form."""
    kwargs = p.options(allowed, start=start)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise p.fail(" ".join(p.tokens[:start]), str(exc)) from None

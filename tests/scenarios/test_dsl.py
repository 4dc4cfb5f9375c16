"""The scenario DSL: parse/describe round-trip (property-tested) and
``path:lineno:token: reason`` diagnostics on malformed input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    BackgroundCycle,
    ConnectionMix,
    CornerDrift,
    DependencyChain,
    DiurnalSine,
    FlashCrowd,
    HotSet,
    RotatingHotspot,
    ScenarioParseError,
    ScenarioSpec,
    UniformZones,
    ZipfZones,
    parse_scenario,
)

# -- random spec generators ---------------------------------------------------
_times = st.floats(0.1, 500, allow_nan=False).map(lambda x: round(x, 3))
_fracs = st.floats(0, 1, allow_nan=False).map(lambda x: round(x, 3))

_shapes = st.one_of(
    st.builds(
        FlashCrowd,
        at=_times,
        peak=st.floats(0, 5, allow_nan=False).map(lambda x: round(x, 3)),
        ramp=_times,
        hold=_times,
        decay=_times,
        zone=st.integers(-1, 15),
    ),
    st.builds(DiurnalSine, period=_times, amp=_fracs, phase=_fracs),
)

_zones = st.one_of(
    st.builds(UniformZones),
    st.builds(ZipfZones, s=st.floats(0.1, 3, allow_nan=False).map(lambda x: round(x, 3))),
    st.builds(RotatingHotspot, period=_times, amp=_fracs),
    st.builds(
        CornerDrift,
        travel=_times,
        mass=_fracs,
        band=st.floats(0.001, 1, allow_nan=False).map(lambda x: round(x, 3)),
    ),
)

_specs = st.builds(
    ScenarioSpec,
    clients=st.integers(1, 5000),
    duration=_times,
    tick=st.floats(0.1, 10, allow_nan=False).map(lambda x: round(x, 3)),
    grid_cols=st.integers(1, 8),
    grid_rows=st.sampled_from([4, 8]),
    nodes=st.sampled_from([1, 2, 4]),
    cpu_per_client=st.floats(0.0001, 0.05, allow_nan=False).map(lambda x: round(x, 6)),
    cpu_base=_fracs,
    pages=st.integers(1, 512),
    conns=st.integers(0, 8),
    db=st.booleans(),
    shapes=st.lists(_shapes, max_size=3),
    zones=_zones,
    background=st.none() | st.builds(
        BackgroundCycle,
        base=st.floats(0, 2, allow_nan=False).map(lambda x: round(x, 3)),
        amp=st.floats(0, 2, allow_nan=False).map(lambda x: round(x, 3)),
        period=_times,
    ),
    mix=st.none() | st.builds(ConnectionMix, churn=_fracs, long_lived=_fracs),
    chain=st.none() | st.builds(
        DependencyChain, gain=_fracs, lag=_times, stride=st.integers(1, 4)
    ),
    hotset=st.none() | st.builds(
        HotSet,
        pages=st.integers(1, 200),
        interval=st.floats(0.01, 2, allow_nan=False).map(lambda x: round(x, 3)),
        offset=st.integers(0, 64),
    ),
)


class TestRoundTrip:
    @given(_specs)
    @settings(max_examples=60, deadline=None)
    def test_parse_describe_round_trips(self, spec):
        text = spec.describe()
        reparsed = parse_scenario(text)
        assert reparsed == spec
        assert reparsed.describe() == text

    def test_comments_and_blank_lines_skipped(self):
        spec = parse_scenario(
            "# a scenario\n\nclients 10  # inline comment\n\nduration 5\n"
        )
        assert spec.clients == 10
        assert spec.duration == 5.0


MALFORMED = [
    # (document, expected token, reason fragment)
    ("clientz 10", "clientz", "unknown directive"),
    ("clients ten", "ten", "bad count"),
    ("clients", "clients", "expected"),
    ("grid 4by4", "4by4", "grid must be"),
    ("load warp speed=9", "warp", "unknown load shape"),
    ("load flash peaks=2", "peaks=2", "unknown option"),
    ("load flash peak=high", "peak=high", "bad peak value"),
    ("load flash peak=-2", "load flash", "non-negative"),
    ("zones pareto", "pareto", "unknown zone weighting"),
    ("zones zipf s=1\nzones uniform", "uniform", "already has"),
    ("background sine base=1", "sine", "expected 'background cycle"),
    ("mix churn=2", "mix", "must be in [0, 1]"),
    ("chain link gain=1", "link", "expected 'chain depend"),
    ("dirty pages", "pages", "expected 'dirty hotset"),
    ("grid 4x3\nnodes 2", "<spec>", "cannot split evenly"),
    ("server db=yes", "db=yes", "bad db value"),
    ("zones corners band=2", "zones corners", "band must be in (0, 1]"),
]


class TestDiagnostics:
    @pytest.mark.parametrize("doc,token,reason", MALFORMED)
    def test_malformed_reports_path_token_reason(self, doc, token, reason):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(doc, path="bad.scn")
        msg = str(err.value)
        assert msg.startswith("bad.scn:")
        assert f":{token}: " in msg
        assert reason in msg
        assert err.value.path == "bad.scn"
        assert err.value.token == token

    def test_lineno_points_at_offending_line(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("clients 10\nduration 5\nload warp\n", path="x.scn")
        assert err.value.lineno == 3
        assert str(err.value).startswith("x.scn:3:warp:")

    def test_duplicate_scalar_wins_last(self):
        # Scalars overwrite (config-file semantics); only the section
        # primitives (zones/mix/chain/dirty/background) are single-shot.
        spec = parse_scenario("clients 10\nclients 20\n")
        assert spec.clients == 20

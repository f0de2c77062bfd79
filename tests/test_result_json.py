"""``RuntimeResult.to_json`` against the stdlib encoder, byte for byte.

The result writer formats event rows from a template instead of
building the payload and handing it to ``json.dumps``.  Its contract is
that the text is exactly what that construction gives, so
:func:`_reference_json` keeps the construction here as the reference
model: the schema-1 payload as dicts, then
``json.dumps(payload, indent=indent, sort_keys=True)``.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.runtime.metrics import MetricsLog
from repro.runtime.runtime import (
    _EVENT_BLOCK,
    MigrationRecord,
    RuntimeResult,
    run_runtime,
)
from repro.runtime.sessions import SessionEvent, SessionEventKind
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    build_service_scenario,
    run_scenario_batch,
)
from tests.test_service_parity import _HORIZONS


def _reference_json(result: RuntimeResult, *, indent: int | None) -> str:
    """The stdlib construction the writer must reproduce."""
    payload = {
        "schema": 1,
        "summary": {
            "final_mode": result.final_mode,
            "final_policy": result.final_policy,
            "k_active": result.k_active,
            "final_capacity": result.final_capacity,
            "final_dram_required": result.final_dram_required,
            "dram_budget": result.dram_budget,
            "degraded_time": result.degraded_time,
            "horizon": result.horizon,
            "events_executed": result.events_executed,
            "blocking_probability": result.blocking_probability,
            "totals": result.totals,
            "notes": dict(sorted(result.notes.items())),
            "planner_cache": dict(sorted(result.planner_cache.items())),
        },
        "events": [{"time": e.time, "kind": e.kind.value,
                    "session_id": e.session_id, "title": e.title,
                    "served_by": e.served_by, "reason": e.reason}
                   for e in result.events],
        "migrations": [m.to_dict() for m in result.migrations],
        "metrics": json.loads(result.metrics.to_json()),
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def _run(name: str, core: str) -> RuntimeResult:
    config = build_service_scenario(name, seed=0, horizon=_HORIZONS[name])
    return run_runtime(config.replace(session_core=core).to_legacy())


@pytest.mark.parametrize("core", ["objects", "table"])
@pytest.mark.parametrize("name", list(SERVICE_SCENARIOS))
def test_scenario_json_matches_the_stdlib(name, core):
    result = _run(name, core)
    assert result.events, "the scenario should log session events"
    for indent in (None, 2):
        assert result.to_json(indent=indent) == _reference_json(
            result, indent=indent), f"{name}/{core} indent={indent}"


# -- Hand-built results with edge rows -------------------------------------

_TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=12) | \
    st.sampled_from(['"', "\\", "\n", "\x00\x1f", "café", "\U0001f600",
                     " ", "cache", "disk"])
_FLOAT = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, 123456789.0])
#: Mostly finite; numpy floats must spell like the floats they subclass.
_TIME = st.floats(allow_nan=False, allow_infinity=False) | _FLOAT | \
    _FLOAT.map(np.float64)
_ID = st.integers(min_value=-1, max_value=2**64) | st.just(10**40)
_EVENT = st.builds(
    SessionEvent, time=_TIME, kind=st.sampled_from(list(SessionEventKind)),
    session_id=_ID, title=st.integers(min_value=0, max_value=10**6),
    served_by=st.none() | _TEXT, reason=st.none() | _TEXT)
_NOTE = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
_MIGRATION = st.builds(
    MigrationRecord, time=_TIME, policy=_TEXT,
    migrations_in=st.tuples(st.integers(0, 99)),
    migrations_out=st.tuples(), n_cached=st.integers(0, 99))


def _metrics(gauge: float) -> MetricsLog:
    log = MetricsLog()
    log.count("arrivals", 3)
    log.count("admits", 2)
    log.close_interval(60.0, {"active_sessions": 2.0, "odd": gauge})
    return log


@st.composite
def _results(draw) -> RuntimeResult:
    return RuntimeResult(
        events=draw(st.lists(_EVENT, max_size=12)),
        metrics=_metrics(draw(_NOTE)),
        migrations=draw(st.lists(_MIGRATION, max_size=2)),
        final_mode=draw(_TEXT), final_policy=draw(st.none() | _TEXT),
        k_active=draw(st.integers(0, 64)),
        final_capacity=draw(st.integers(0, 10**6)),
        final_dram_required=draw(_TIME), dram_budget=draw(_TIME),
        degraded_time=draw(_TIME), horizon=draw(_TIME),
        events_executed=draw(st.integers(0, 10**9)),
        notes=draw(st.dictionaries(_TEXT, _NOTE, max_size=3)),
        planner_cache=draw(st.dictionaries(_TEXT, st.integers(), max_size=3)))


@settings(max_examples=200, deadline=None)
@given(result=_results(), indent=st.sampled_from([None, 0, 2, 4]))
def test_hand_built_result_matches_the_stdlib(result, indent):
    assert result.to_json(indent=indent) == _reference_json(
        result, indent=indent)


def _bare(events: list[SessionEvent], **notes: float) -> RuntimeResult:
    return RuntimeResult(
        events=events, metrics=MetricsLog(), migrations=[],
        final_mode="cache", final_policy=None, k_active=1,
        final_capacity=10, final_dram_required=0.0, dram_budget=1.0,
        degraded_time=0.0, horizon=1.0, events_executed=0, notes=notes)


@pytest.mark.parametrize("indent", [None, 2])
def test_empty_events_and_migrations(indent):
    result = _bare([])
    text = result.to_json(indent=indent)
    assert text == _reference_json(result, indent=indent)
    assert '"events": []' in text and '"migrations": []' in text


@pytest.mark.parametrize("indent", [None, 2])
def test_edge_rows_match_the_stdlib(indent):
    admit = SessionEventKind.ADMIT
    events = [
        SessionEvent(time=-0.0, kind=admit, session_id=sys.maxsize * 4,
                     title=0, served_by='say "hi"\\', reason="\x07\n"),
        SessionEvent(time=5e-324, kind=SessionEventKind.REJECT,
                     session_id=-1, title=3, reason="café"),
        SessionEvent(time=1e16, kind=SessionEventKind.DROP, session_id=2,
                     title=3, served_by="\ud800", reason="failure"),
        SessionEvent(time=0.1 + 0.2, kind=SessionEventKind.DEPART,
                     session_id=3, title=4, served_by="disk"),
        # A numpy scalar spells like the float it subclasses, not repr().
        SessionEvent(time=np.float64(2.5), kind=admit, session_id=4,
                     title=5, served_by="cache"),
        SessionEvent(time=math.inf, kind=admit, session_id=5, title=7),
        SessionEvent(time=-math.inf, kind=admit, session_id=6, title=7),
        SessionEvent(time=math.nan, kind=admit, session_id=7, title=7),
    ]
    result = _bare(events, nan=math.nan, inf=math.inf, ninf=-math.inf)
    assert result.to_json(indent=indent) == _reference_json(
        result, indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
def test_off_type_scalars_match_the_stdlib(indent):
    # Ints and bools where floats and ids are declared are still valid
    # JSON scalars; json spells them as ints and true/false.
    admit = SessionEventKind.ADMIT
    events = [
        SessionEvent(time=7, kind=admit, session_id=True, title=False,
                     served_by=None, reason=None),
        SessionEvent(time=np.float64(-math.inf), kind=admit, session_id=1,
                     title=2, served_by="cache"),
        SessionEvent(time=1.5, kind=admit, session_id=2, title=3,
                     served_by=3, reason=2.5),
    ]
    result = _bare(events)
    assert result.to_json(indent=indent) == _reference_json(
        result, indent=indent)


@pytest.mark.parametrize("indent", [None, 2])
def test_rows_spanning_several_blocks_match_the_stdlib(indent):
    kinds = list(SessionEventKind)
    events = [SessionEvent(time=i / 7, kind=kinds[i % 4], session_id=i,
                           title=i % 13, served_by=("cache", None)[i % 2])
              for i in range(2 * _EVENT_BLOCK + 3)]
    result = _bare(events)
    assert result.to_json(indent=indent) == _reference_json(
        result, indent=indent)


def test_unserialisable_event_field_raises_like_json():
    result = _bare([SessionEvent(time=1.0, kind=SessionEventKind.ADMIT,
                                 session_id=np.int64(1), title=0)])
    with pytest.raises(TypeError, match="not JSON serializable"):
        _reference_json(result, indent=None)
    with pytest.raises(TypeError, match="not JSON serializable"):
        result.to_json()


# -- ``runtime all --json`` -------------------------------------------------

def test_runtime_all_json_matches_the_loads_and_dump_construction(
        tmp_path, capsys):
    out = tmp_path / "all.json"
    assert main(["runtime", "all", "--horizon", "300",
                 "--json", str(out)]) == 0
    capsys.readouterr()
    results = run_scenario_batch(seed=0, horizon=300.0)
    expected = json.dumps({name: json.loads(result.to_json())
                           for name, result in results.items()}, indent=2)
    assert out.read_text(encoding="utf-8") == expected
    assert list(json.loads(expected)) == list(SERVICE_SCENARIOS)

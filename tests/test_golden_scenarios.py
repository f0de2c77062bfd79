"""Golden outputs: every named scenario's JSON is pinned exactly.

``golden_scenarios.json`` records, per scenario, the sha256 of the
seed-0 ``run_runtime`` JSON on the default (object) session core and
the run's ``summary.totals``.  A refactor that claims "same behaviour"
must leave every digest untouched; an intended behaviour change is a
deliberate baseline refresh, regenerated with::

    PYTHONPATH=src python -m tests.test_golden_scenarios

and noted in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runtime.runtime import run_runtime
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario

_GOLDEN_PATH = Path(__file__).with_name("golden_scenarios.json")

_REGENERATE = ("if the change is intended, regenerate with "
               "`PYTHONPATH=src python -m tests.test_golden_scenarios` "
               "and note the baseline refresh in CHANGES.md")


def _record(name: str, *, seed: int, horizon: float) -> dict:
    config = build_service_scenario(name, seed=seed, horizon=horizon)
    result = run_runtime(config.to_legacy())
    payload = result.to_json(indent=None)
    return {"seed": seed, "horizon": horizon,
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "totals": json.loads(payload)["summary"]["totals"]}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(_GOLDEN_PATH.read_text())


def test_golden_file_covers_every_scenario(golden):
    assert list(golden) == list(SERVICE_SCENARIOS), _REGENERATE


@pytest.mark.parametrize("name", list(SERVICE_SCENARIOS))
def test_scenario_matches_its_golden_digest(golden, name):
    expected = golden[name]
    actual = _record(name, seed=expected["seed"],
                     horizon=expected["horizon"])
    assert actual["totals"] == expected["totals"], (
        f"{name}: totals changed; {_REGENERATE}")
    assert actual["sha256"] == expected["sha256"], (
        f"{name}: JSON digest changed; {_REGENERATE}")


if __name__ == "__main__":
    from tests.test_service_parity import _HORIZONS

    records = {name: _record(name, seed=0, horizon=_HORIZONS[name])
               for name in SERVICE_SCENARIOS}
    _GOLDEN_PATH.write_text(json.dumps(records, indent=2) + "\n")
    print(f"wrote {_GOLDEN_PATH} ({len(records)} scenarios)")

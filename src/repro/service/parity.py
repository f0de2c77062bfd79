"""The parity harness: two runs, one JSON document, byte for byte.

The refactors' safety net.  :func:`compare_runs` calls two
zero-argument run callables and demands their
:class:`~repro.runtime.runtime.RuntimeResult` JSON payloads be
*byte-identical* — every admission, rejection, migration, drop, gauge
sample and note — optionally ignoring named ``summary`` keys.  Two
contracts are thin uses of it:

* **driver parity** (:func:`compare_drivers`): the
  :func:`~repro.runtime.runtime.run_runtime` batch loop on the compiled
  config vs :class:`~repro.service.facade.MediaService` plus a
  :class:`~repro.service.traffic.TrafficProgram`, executed-event count
  included.  Anything the facade adds (tickets, the event bus, the
  backpressure governor) must be observationally free.
* **core parity** (:func:`compare_cores`): the per-object session core
  vs the struct-of-arrays :class:`~repro.runtime.sessions.SessionTable`
  core on the batch loop.  The single sanctioned difference is
  ``summary.events_executed``: the table core drains arrivals and
  departures in windows, so only control events reach its calendar.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.runtime.runtime import RuntimeResult, run_runtime
from repro.service.config import RuntimeConfig
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario
from repro.service.traffic import run_service

__all__ = [
    "ParityReport",
    "compare_cores",
    "compare_drivers",
    "compare_runs",
    "verify_all",
]


@dataclass(frozen=True)
class ParityReport:
    """The verdict for one pair of runs."""

    name: str
    labels: tuple[str, str]
    left_json: str
    right_json: str

    @property
    def matches(self) -> bool:
        return self.left_json == self.right_json

    def first_divergence(self, context: int = 60) -> str | None:
        """A short excerpt around the first differing byte (or None)."""
        if self.matches:
            return None
        a, b = self.left_json, self.right_json
        n = min(len(a), len(b))
        at = next((i for i in range(n) if a[i] != b[i]), n)
        lo = max(0, at - context)
        left, right = self.labels
        return (f"at byte {at}: {left} ...{a[lo:at + context]!r} vs "
                f"{right} ...{b[lo:at + context]!r}")


def _result_json(run: Callable[[], RuntimeResult],
                 ignore: Sequence[str]) -> str:
    text = run().to_json(indent=None)
    if not ignore:
        return text
    payload = json.loads(text)
    for key in ignore:
        payload["summary"].pop(key, None)
    return json.dumps(payload, sort_keys=True)


def compare_runs(name: str, left: Callable[[], RuntimeResult],
                 right: Callable[[], RuntimeResult], *,
                 labels: tuple[str, str] = ("left", "right"),
                 ignore: Sequence[str] = ()) -> ParityReport:
    """Run both callables and compare their result JSON bytes.

    ``ignore`` names ``summary`` keys dropped from both payloads first.
    """
    return ParityReport(name=name, labels=labels,
                        left_json=_result_json(left, ignore),
                        right_json=_result_json(right, ignore))


def compare_drivers(name: str, config: RuntimeConfig) -> ParityReport:
    """Driver parity: the batch loop vs the service facade."""
    return compare_runs(name, lambda: run_runtime(config.to_legacy()),
                        lambda: run_service(config),
                        labels=("legacy", "service"))


def compare_cores(name: str, config: RuntimeConfig) -> ParityReport:
    """Core parity: object vs table session core on the batch loop."""
    def run_on(core: str) -> Callable[[], RuntimeResult]:
        return lambda: run_runtime(
            config.replace(session_core=core).to_legacy())

    return compare_runs(name, run_on("objects"), run_on("table"),
                        labels=("objects", "table"),
                        ignore=("events_executed",))


def verify_all(compare: Callable[[str, RuntimeConfig], ParityReport]
               = compare_drivers, *, seed: int = 0,
               horizon: float | None = None) -> dict[str, ParityReport]:
    """``compare`` over every named scenario."""
    return {name: compare(name, build_service_scenario(
                name, seed=seed, horizon=horizon))
            for name in SERVICE_SCENARIOS}

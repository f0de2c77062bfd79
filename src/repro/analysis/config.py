"""Declarative lint configuration (``[tool.mems-repro.lint]``).

PR 3's checkers hardcoded their directory scopes as module constants,
which meant every PR that added a layer re-edited checker source (the
"widen the scope" ritual of PRs 4-7).  The scopes — and everything
else the whole-program pass needs to know about the repository's
architecture — now live declaratively in ``pyproject.toml``:

* ``[tool.mems-repro.lint.scopes.<rule>]`` — per-rule ``dirs`` /
  ``files`` / ``exclude-files`` path scopes;
* ``[tool.mems-repro.lint.shims]`` — the deprecated pure-re-export
  modules and what replaces each (shared by ``no-shim-imports`` and
  ``shim-freshness``);
* ``[tool.mems-repro.lint.layers]`` — the architecture DAG: which
  layer may import which, plus named per-file exceptions;
* ``[tool.mems-repro.lint.contracts]`` — the event/metric contract
  surfaces checked by ``event-contract``.

:func:`find_project` walks up from the linted paths to the nearest
``pyproject.toml``, so fixture mini-projects under ``tests/`` carry
their own configuration.  When no project file is found the
:data:`DEFAULT` configuration — byte-equal to the repository's own
``pyproject`` values, pinned by a test — applies, so library calls
like ``analyze_paths([...])`` keep their historical behaviour.

Everything in :class:`LintConfig` is a frozen tuple tree: hashable (it
keys the incremental cache fingerprint) and picklable (it rides to the
``sweep_map`` workers of a ``--jobs N`` run).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ConfigurationError

#: Marker in a layer exception meaning "may import any layer".
ANY_LAYER = "*"

#: The layer name of modules sitting directly in the package root
#: (``errors.py``, ``units.py``, ``__init__.py``).
ROOT_LAYER = "root"


def _tail(spec: str) -> tuple[str, ...]:
    """``"planner/incremental.py"`` -> ``("planner", "incremental.py")``."""
    return tuple(part for part in spec.split("/") if part)


def _endswith(path: Path, tail: tuple[str, ...]) -> bool:
    return tuple(path.parts[-len(tail):]) == tail if tail else False


@dataclass(frozen=True)
class ScopeSpec:
    """Where one rule binds: directory names, file tails, exclusions.

    ``dirs`` match any path component (the PR-3 semantics: fixture
    trees engage scoped rules simply by mirroring directory names);
    ``files`` and ``exclude_files`` match path tails like
    ``planner/incremental.py``.  An empty ``dirs``+``files`` scope
    means "everywhere" (minus the exclusions).
    """

    dirs: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    exclude_files: tuple[str, ...] = ()

    def applies_to(self, path: Path) -> bool:
        for spec in self.exclude_files:
            if _endswith(path, _tail(spec)):
                return False
        if not self.dirs and not self.files:
            return True
        if set(self.dirs).intersection(path.parts):
            return True
        return any(_endswith(path, _tail(spec)) for spec in self.files)


@dataclass(frozen=True)
class LayerSpec:
    """The declared architecture DAG.

    ``allow`` maps each layer to the layers it may import (its own
    layer and :data:`ROOT_LAYER` are always allowed); ``exceptions``
    maps a file tail to extra allowed layers (``"*"`` = all) for the
    handful of reviewed seams: re-export shims, the public-API facade,
    the benchmark harness.
    """

    allow: tuple[tuple[str, tuple[str, ...]], ...] = ()
    exceptions: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def allowed(self, layer: str) -> tuple[str, ...] | None:
        for name, targets in self.allow:
            if name == layer:
                return targets
        return None

    def extra_for(self, path: Path) -> tuple[str, ...]:
        extra: list[str] = []
        for spec, targets in self.exceptions:
            if _endswith(path, _tail(spec)):
                extra.extend(targets)
        return tuple(extra)

    def require_acyclic(self) -> None:
        """Raise :class:`ConfigurationError` if ``allow`` has a cycle."""
        allow = {name: set(targets) for name, targets in self.allow}
        state: dict[str, int] = {}  # 0 visiting, 1 done

        def visit(node: str, trail: tuple[str, ...]) -> None:
            if state.get(node) == 1:
                return
            if state.get(node) == 0:
                cycle = " -> ".join((*trail, node))
                raise ConfigurationError(
                    f"layer graph is not a DAG: {cycle}")
            state[node] = 0
            for nxt in sorted(allow.get(node, ())):
                if nxt in allow:
                    visit(nxt, (*trail, node))
            state[node] = 1

        for name in sorted(allow):
            visit(name, ())


@dataclass(frozen=True)
class ContractSpec:
    """The surfaces the ``event-contract`` rule certifies.

    ``events_module``/``events_base`` name the frozen event hierarchy;
    ``metric_modules`` are the file tails scanned for exported counter
    and gauge names; a name or event type is *consumed* when it appears
    in a ``metric_sinks`` file's string constants or anywhere in the
    ``docs`` corpus (paths relative to the project root).
    """

    events_module: str = "repro.service.events"
    events_base: str = "ServiceEvent"
    metric_modules: tuple[str, ...] = ("runtime/runtime.py",)
    metric_sinks: tuple[str, ...] = ("runtime/metrics.py",)
    docs: tuple[str, ...] = ("docs", "README.md")


#: The repository's own scopes — the single in-code fallback, asserted
#: equal to the ``pyproject.toml`` values by the config round-trip test.
DEFAULT_SCOPES: tuple[tuple[str, ScopeSpec], ...] = (
    ("determinism", ScopeSpec(
        dirs=("simulation", "runtime", "workloads", "perf", "vod",
              "service"),
        files=("planner/incremental.py", "planner/batch.py"))),
    ("float-equality", ScopeSpec(
        dirs=("core", "planner", "experiments", "vod", "service"),
        files=("benchmarks/regress.py",))),
    ("no-shim-imports", ScopeSpec(
        exclude_files=("core/capacity.py", "core/hybrid.py"))),
    ("unit-literals", ScopeSpec(exclude_files=("units.py",))),
)

DEFAULT_SHIMS: tuple[tuple[str, str], ...] = (
    ("repro.core.capacity", "repro.planner.throughput"),
    ("repro.core.hybrid", "repro.planner.hybrid"),
)

DEFAULT_LAYERS = LayerSpec(
    allow=(
        ("analysis", ("perf",)),
        ("core", ("devices",)),
        ("devices", ()),
        ("experiments", ("analysis", "core", "devices", "perf", "planner",
                         "runtime", "scheduling", "service", "simulation",
                         "vod", "workloads")),
        ("perf", ()),
        ("planner", ("core", "devices")),
        ("root", ()),
        ("runtime", ("core", "devices", "perf", "planner", "scheduling",
                     "simulation", "vod", "workloads")),
        ("scheduling", ("core", "devices", "planner")),
        ("service", ("core", "devices", "perf", "planner", "runtime",
                     "scheduling", "simulation", "vod", "workloads")),
        ("simulation", ("core", "devices", "scheduling")),
        ("vod", ("core", "planner")),
        ("workloads", ("core",)),
    ),
    # Sorted by file spec, matching the parsed pyproject table.
    exceptions=(
        # core's own facade re-exports the solvers that moved to the
        # planning layer in PR 2.
        ("core/__init__.py", ("planner",)),
        # Pure re-export shims over the planning layer (shim-freshness
        # certifies they stay that way).
        ("core/capacity.py", ("planner",)),
        ("core/hybrid.py", ("planner",)),
        # Legacy analytical seams: region maps and sensitivity sweeps
        # predate the planning layer and call the memoized planner
        # directly.
        ("core/regions.py", ("planner",)),
        ("core/sensitivity.py", ("planner",)),
        # The benchmark harness times workloads from every layer.
        ("perf/bench.py", (ANY_LAYER,)),
        # The package facade re-exports the public API of every layer.
        ("repro/__init__.py", (ANY_LAYER,)),
    ),
)

DEFAULT_CONTRACTS = ContractSpec()

DEFAULT_ENTRY_POINTS: tuple[tuple[str, str], ...] = (
    ("repro.experiments.cli", "main"),
)


@dataclass(frozen=True)
class LintConfig:
    """Everything the analysis engine knows about the project shape."""

    #: Absolute project root (the ``pyproject.toml`` directory), or
    #: None when running on defaults outside any project.
    root: str | None = None
    #: Import root, relative to ``root`` (``package-dir`` convention).
    src_root: str = "src"
    scopes: tuple[tuple[str, ScopeSpec], ...] = DEFAULT_SCOPES
    shims: tuple[tuple[str, str], ...] = DEFAULT_SHIMS
    layers: LayerSpec = field(default_factory=lambda: DEFAULT_LAYERS)
    contracts: ContractSpec = field(default_factory=lambda: DEFAULT_CONTRACTS)
    #: ``[project.scripts]`` targets: roots the dead-export rule keeps.
    entry_points: tuple[tuple[str, str], ...] = DEFAULT_ENTRY_POINTS
    #: Ratchet baseline path (relative to ``root``), or None.
    baseline: str | None = None

    def scope(self, rule: str) -> ScopeSpec | None:
        for name, spec in self.scopes:
            if name == rule:
                return spec
        return None

    def shim_map(self) -> dict[str, str]:
        return dict(self.shims)

    def src_path(self) -> Path | None:
        if self.root is None:
            return None
        return Path(self.root) / self.src_root

    def fingerprint(self) -> str:
        """Content hash keying the incremental cache (config changes
        invalidate every cached result)."""
        payload = json.dumps(_as_jsonable(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _as_jsonable(value: object) -> object:
    if hasattr(value, "__dataclass_fields__"):
        return {name: _as_jsonable(getattr(value, name))
                for name in value.__dataclass_fields__}  # type: ignore[union-attr]
    if isinstance(value, (list, tuple)):
        return [_as_jsonable(item) for item in value]
    return value


# -- pyproject parsing -------------------------------------------------------


def _load_toml(path: Path) -> dict:
    try:
        import tomllib
    except ImportError:  # Python 3.10: parse the subset we emit
        return _parse_toml_subset(path.read_text(encoding="utf-8"))
    with path.open("rb") as handle:
        return tomllib.load(handle)


def _strip_comment(line: str) -> str:
    out = []
    in_string: str | None = None
    for ch in line:
        if in_string:
            if ch == in_string:
                in_string = None
        elif ch in ("'", '"'):
            in_string = ch
        elif ch == "#":
            break
        out.append(ch)
    return "".join(out)


def _parse_value(text: str) -> object:
    text = text.strip()
    if text.startswith("["):
        inner = text[1:-1]
        items: list[object] = []
        depth = 0
        current = ""
        in_string: str | None = None
        for ch in inner:
            if in_string:
                current += ch
                if ch == in_string:
                    in_string = None
            elif ch in ("'", '"'):
                in_string = ch
                current += ch
            elif ch in "[{":
                depth += 1
                current += ch
            elif ch in "]}":
                depth -= 1
                current += ch
            elif ch == "," and depth == 0:
                if current.strip():
                    items.append(_parse_value(current))
                current = ""
            else:
                current += ch
        if current.strip():
            items.append(_parse_value(current))
        return items
    if (text.startswith('"') and text.endswith('"')) or \
            (text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text  # inline tables etc.: callers ignore what they don't need


def _split_key(key: str) -> list[str]:
    parts: list[str] = []
    current = ""
    in_string: str | None = None
    for ch in key:
        if in_string:
            if ch == in_string:
                in_string = None
            else:
                current += ch
        elif ch in ("'", '"'):
            in_string = ch
        elif ch == ".":
            parts.append(current.strip())
            current = ""
        else:
            current += ch
    parts.append(current.strip())
    return [p for p in parts if p]


def _parse_toml_subset(text: str) -> dict:
    """A fallback parser for the TOML subset this project writes.

    Handles tables, dotted/quoted keys, strings, ints/floats/bools and
    (possibly multiline) arrays — enough to read ``pyproject.toml`` on
    Python 3.10, where :mod:`tomllib` is unavailable.  Unrecognised
    value forms (inline tables) parse to their raw text; the config
    loader never reads those keys.
    """
    root: dict = {}
    table = root
    pending_key: list[str] | None = None
    pending_value = ""

    def ensure(parts: list[str]) -> dict:
        node = root
        for part in parts:
            node = node.setdefault(part, {})
        return node

    def balanced(value: str) -> bool:
        depth = 0
        in_string: str | None = None
        for ch in value:
            if in_string:
                if ch == in_string:
                    in_string = None
            elif ch in ("'", '"'):
                in_string = ch
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
        return depth <= 0

    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if pending_key is not None:
            pending_value += " " + line
            if balanced(pending_value):
                node = table
                for part in pending_key[:-1]:
                    node = node.setdefault(part, {})
                node[pending_key[-1]] = _parse_value(pending_value)
                pending_key = None
                pending_value = ""
            continue
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line.strip("[]")
            if name.startswith("["):  # array of tables: unsupported
                continue
            table = ensure(_split_key(name))
            continue
        if "=" not in line:
            continue
        key, _, value = line.partition("=")
        parts = _split_key(key)
        if not balanced(value):
            pending_key = parts
            pending_value = value
            continue
        node = table
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = _parse_value(value.strip())
    return root


# -- Config assembly ---------------------------------------------------------


def _str_tuple(value: object, *, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or \
            not all(isinstance(item, str) for item in value):
        raise ConfigurationError(
            f"{what} must be an array of strings, got {value!r}")
    return tuple(value)


def _parse_scopes(section: dict) -> tuple[tuple[str, ScopeSpec], ...]:
    scopes = []
    for rule, body in sorted(section.items()):
        if not isinstance(body, dict):
            raise ConfigurationError(
                f"scopes.{rule} must be a table, got {body!r}")
        known = {"dirs", "files", "exclude-files"}
        unknown = set(body) - known
        if unknown:
            raise ConfigurationError(
                f"unknown scope keys for {rule!r}: {sorted(unknown)} "
                f"(known: {sorted(known)})")
        scopes.append((rule, ScopeSpec(
            dirs=_str_tuple(body.get("dirs", []),
                            what=f"scopes.{rule}.dirs"),
            files=_str_tuple(body.get("files", []),
                             what=f"scopes.{rule}.files"),
            exclude_files=_str_tuple(body.get("exclude-files", []),
                                     what=f"scopes.{rule}.exclude-files"))))
    return tuple(scopes)


def _parse_layers(section: dict) -> LayerSpec:
    allow_raw = section.get("allow", {})
    exceptions_raw = section.get("exceptions", {})
    if not isinstance(allow_raw, dict) or not isinstance(exceptions_raw, dict):
        raise ConfigurationError(
            "layers.allow and layers.exceptions must be tables")
    allow = tuple(sorted(
        (layer, tuple(_str_tuple(targets, what=f"layers.allow.{layer}")))
        for layer, targets in allow_raw.items()))
    exceptions = tuple(sorted(
        (spec, tuple(_str_tuple(targets,
                                what=f"layers.exceptions.{spec!r}")))
        for spec, targets in exceptions_raw.items()))
    spec = LayerSpec(allow=allow, exceptions=exceptions)
    spec.require_acyclic()
    return spec


def _parse_contracts(section: dict) -> ContractSpec:
    spec = ContractSpec()
    if "events-module" in section:
        spec = replace(spec, events_module=str(section["events-module"]))
    if "events-base" in section:
        spec = replace(spec, events_base=str(section["events-base"]))
    if "metric-modules" in section:
        spec = replace(spec, metric_modules=_str_tuple(
            section["metric-modules"], what="contracts.metric-modules"))
    if "metric-sinks" in section:
        spec = replace(spec, metric_sinks=_str_tuple(
            section["metric-sinks"], what="contracts.metric-sinks"))
    if "docs" in section:
        spec = replace(spec, docs=_str_tuple(section["docs"],
                                             what="contracts.docs"))
    return spec


def load_config(root: Path) -> LintConfig:
    """Build a :class:`LintConfig` from ``root``'s ``pyproject.toml``.

    Missing sections fall back to the :data:`DEFAULT` values, so a
    minimal project file still gets the full rule set; a present-but-
    malformed section raises :class:`ConfigurationError`.
    """
    pyproject = Path(root) / "pyproject.toml"
    data = _load_toml(pyproject) if pyproject.is_file() else {}
    lint = data.get("tool", {}).get("mems-repro", {}).get("lint", {})
    if not isinstance(lint, dict):
        raise ConfigurationError(
            f"[tool.mems-repro.lint] must be a table, got {lint!r}")
    scripts = data.get("project", {}).get("scripts", {})
    entry_points = DEFAULT_ENTRY_POINTS
    if isinstance(scripts, dict) and scripts:
        points = []
        for target in scripts.values():
            if isinstance(target, str) and ":" in target:
                module, _, symbol = target.partition(":")
                points.append((module.strip(), symbol.strip()))
        if points:
            entry_points = tuple(sorted(points))
    config = LintConfig(
        root=str(Path(root).resolve()),
        src_root=str(lint.get("src-root", "src")),
        entry_points=entry_points,
        baseline=(str(lint["baseline"]) if "baseline" in lint else None))
    if "scopes" in lint:
        config = replace(config, scopes=_parse_scopes(lint["scopes"]))
    if "shims" in lint:
        shims = lint["shims"]
        if not isinstance(shims, dict):
            raise ConfigurationError("shims must be a table of "
                                     "module -> replacement strings")
        config = replace(config, shims=tuple(sorted(
            (str(k), str(v)) for k, v in shims.items())))
    if "layers" in lint:
        config = replace(config, layers=_parse_layers(lint["layers"]))
    if "contracts" in lint:
        config = replace(config, contracts=_parse_contracts(
            lint["contracts"]))
    return config


def find_project(paths: list[Path]) -> LintConfig:
    """Discover the project configuration governing ``paths``.

    Walks up from the first path to the nearest ``pyproject.toml``;
    when none exists the default (repository-shaped) configuration is
    returned with no root, which disables the whole-program rules.
    """
    for path in paths:
        candidate = path.resolve()
        if candidate.is_file():
            candidate = candidate.parent
        for ancestor in (candidate, *candidate.parents):
            if (ancestor / "pyproject.toml").is_file():
                return load_config(ancestor)
    return LintConfig()

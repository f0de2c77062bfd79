"""The analysis engine: parse once, check everywhere, cache the rest.

The engine owns everything between "a path" and "a sorted list of
findings":

* reading, parsing and walking each module once — every file rule
  scans the same :class:`~repro.analysis.base.ParsedFile`, and the
  parse also yields the module's
  :class:`~repro.analysis.project.ModuleSummary` for the graph phase;
* the **incremental cache** (:mod:`repro.analysis.cache`): unchanged
  files are recognised by content digest and cost zero parses;
* the **parallel pass**: files that do need parsing fan out through
  :func:`repro.perf.parallel.sweep_map` (``--jobs N``), whose ordered
  gathering keeps findings byte-identical to a serial run;
* the **graph phase**: when a project is discovered (nearest
  ``pyproject.toml``) and a graph rule is selected, summaries for the
  whole import root are assembled into a
  :class:`~repro.analysis.project.ProjectGraph` and the
  :class:`~repro.analysis.base.ProjectChecker` rules run once over it;
* per-line suppressions, the ratchet baseline, and stable ordering.

Suppressions are per *logical line*, in the style of the standard
linters::

    t_start = time.time()  # repro-lint: disable=determinism
    x = 1_000_000          # repro-lint: disable=unit-literals,no-bare-assert
    y = wall_clock()       # repro-lint: disable

A bare ``disable`` silences every rule; naming rules silences exactly
those.  A comment anywhere on a multi-line statement (a continuation
line, inside a bracketed argument list) covers the whole statement —
findings anchor at the statement's first line, which the physical
comment line may not be.  Naming a rule that does not exist is itself
a finding (``unknown-suppression``): a typo'd suppression must not
silently pass.  There is deliberately no block or file-wide form — a
suppression should be as loud as the violation it hides.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import (
    Checker,
    Finding,
    ParsedFile,
    ProjectChecker,
    all_rules,
    select_checkers,
)
from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.cache import (
    CACHE_FILENAME,
    FileEntry,
    IncrementalCache,
    NullCache,
    content_digest,
)
from repro.analysis.config import LintConfig, find_project
from repro.analysis.project import (
    build_graph,
    module_name_for,
    summarize_module,
)

#: Pseudo-rule attached to files the parser rejects.
PARSE_ERROR_RULE = "parse-error"

#: Pseudo-rule attached to suppression comments naming unknown rules.
UNKNOWN_SUPPRESSION_RULE = "unknown-suppression"

#: Rules emitted by the engine itself (always reported, no checker).
PSEUDO_RULES = frozenset({PARSE_ERROR_RULE, UNKNOWN_SUPPRESSION_RULE})

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*disable(?:\s*=\s*(?P<rules>[\w,\s-]+))?")

#: Marker meaning "every rule" in a suppression map entry.
_ALL_RULES = frozenset({"*"})


def _collect_suppressions(source: str) -> tuple[
        dict[int, frozenset[str]], list[tuple[int, str]]]:
    """Suppression map plus every explicitly named rule.

    Returns ``(line -> silenced rules, [(comment line, named rule)])``.
    Comments are located with :mod:`tokenize` so a ``#`` inside a
    string literal never counts; a comment attached to a multi-line
    statement expands to the statement's whole physical span (findings
    anchor at the first line).  Unreadable token streams (the parser
    will flag the file anyway) yield empty results, as do sources
    without the marker text, which are not tokenized at all.
    """
    suppressed: dict[int, frozenset[str]] = {}
    named: list[tuple[int, str]] = []
    if "repro-lint" not in source:
        return suppressed, named
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressed, named

    def add(lines: range | list[int], rules: frozenset[str]) -> None:
        for line in lines:
            suppressed[line] = suppressed.get(line, frozenset()) | rules

    skip = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    logical_start: int | None = None
    pending: list[frozenset[str]] = []
    last_line = 1
    for token in tokens:
        last_line = max(last_line, token.end[0])
        if token.type == tokenize.COMMENT:
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            rules_text = match.group("rules")
            if rules_text is None:
                rules = _ALL_RULES
            else:
                parts = [part.strip() for part in rules_text.split(",")
                         if part.strip()]
                rules = frozenset(parts)
                named.extend((token.start[0], part) for part in parts)
            if logical_start is None:
                add([token.start[0]], rules)  # standalone comment line
            else:
                pending.append(rules)
        elif token.type == tokenize.NEWLINE:
            if logical_start is not None and pending:
                span = range(logical_start, token.start[0] + 1)
                for rules in pending:
                    add(span, rules)
            logical_start = None
            pending = []
        elif token.type in skip:
            continue
        elif logical_start is None:
            logical_start = token.start[0]
    if logical_start is not None and pending:  # EOF without NEWLINE
        span = range(logical_start, last_line + 1)
        for rules in pending:
            add(span, rules)
    return suppressed, named


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids silenced on that line.

    The value ``frozenset({"*"})`` means every rule.  Comments on
    continuation lines expand over the whole statement's span.
    """
    return _collect_suppressions(source)[0]


def _is_suppressed(finding: Finding,
                   suppressions: dict[int, frozenset[str]]) -> bool:
    rules = suppressions.get(finding.line)
    if rules is None:
        return False
    return rules == _ALL_RULES or finding.rule in rules or "*" in rules


def _known_rules() -> frozenset[str]:
    return frozenset(all_rules()) | PSEUDO_RULES | {"*"}


def _unknown_suppression_findings(
        path: str, named: list[tuple[int, str]]) -> list[Finding]:
    known = _known_rules()
    findings = []
    for line, rule in named:
        if rule in known:
            continue
        findings.append(Finding(
            path=path, line=line, col=0, rule=UNKNOWN_SUPPRESSION_RULE,
            message=(f"suppression names unknown rule {rule!r}; it "
                     f"silences nothing (known rules: "
                     f"{', '.join(sorted(all_rules()))})")))
    return findings


def _parse_error_entry(path_str: str, digest: str, line: int, col: int,
                       message: str) -> FileEntry:
    return FileEntry(digest=digest, findings=[
        Finding(path=path_str, line=line, col=col,
                rule=PARSE_ERROR_RULE, message=message)])


def _check_parsed(parsed: ParsedFile, checkers: list[Checker]) -> tuple[
        list[Finding], dict[int, frozenset[str]]]:
    """Run the applicable file checkers over one parsed module.

    Returns the sorted, suppression-filtered findings (with any
    ``unknown-suppression`` ones) and the file's suppression map.
    """
    suppressions, named = _collect_suppressions(parsed.source)
    path_str = str(parsed.path)
    findings = _unknown_suppression_findings(path_str, named)
    for checker in checkers:
        if not isinstance(checker, ProjectChecker) and \
                checker.applies_to(parsed.path):
            findings.extend(checker.check(parsed))
    return sorted(finding for finding in findings
                  if not _is_suppressed(finding, suppressions)), suppressions


def _build_entry(path_str: str, source: str, digest: str,
                 config: LintConfig) -> FileEntry:
    """Parse one file and derive everything the engine caches."""
    path = Path(path_str)
    try:
        parsed = ParsedFile.parse(source, path)
    except SyntaxError as exc:
        return _parse_error_entry(path_str, digest, exc.lineno or 1,
                                  (exc.offset or 1) - 1,
                                  f"syntax error: {exc.msg}")
    findings, suppressions = _check_parsed(
        parsed, select_checkers(None, config))
    summary = None
    src_path = config.src_path()
    if src_path is not None:
        module = module_name_for(path, src_path)
        if module is not None:
            summary = summarize_module(
                parsed.tree, module=module, path=path,
                is_package=path.name == "__init__.py")
    return FileEntry(
        digest=digest, findings=findings, summary=summary,
        suppressions={line: sorted(rules)
                      for line, rules in suppressions.items()})


def _process_file(item: tuple[str, str, str, LintConfig]) -> dict:
    """``sweep_map`` worker: one file -> one serialized cache entry.

    Workers run in fresh processes; importing the checkers package
    populates the rule registry before any checker is selected.
    """
    import repro.analysis.checkers  # noqa: F401  (registration import)
    path_str, source, digest, config = item
    return _build_entry(path_str, source, digest, config).to_dict()


def analyze_file(path: Path,
                 checkers: list[Checker] | None = None) -> list[Finding]:
    """Run the (selected) file checkers over one file.

    Returns findings sorted by location; a file the parser rejects
    yields a single ``parse-error`` finding, and suppression comments
    naming unknown rules yield ``unknown-suppression`` findings.
    Graph rules never run here — they need a whole project.
    """
    if checkers is None:
        checkers = select_checkers()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(path=str(path), line=1, col=0,
                        rule=PARSE_ERROR_RULE,
                        message=f"cannot read file: {exc}")]
    try:
        parsed = ParsedFile.parse(source, path)
    except SyntaxError as exc:
        return [Finding(path=str(path), line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, rule=PARSE_ERROR_RULE,
                        message=f"syntax error: {exc.msg}")]
    return _check_parsed(parsed, checkers)[0]


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    return sorted(files)


@dataclass
class LintResult:
    """Findings plus the run's bookkeeping (cache behaviour, scale)."""

    findings: list[Finding] = field(default_factory=list)
    #: Files in the run's universe (requested + graph expansion).
    files_checked: int = 0
    #: Files actually read *and parsed* this run (cache misses).
    files_parsed: int = 0
    #: Files served from the incremental cache.
    cache_hits: int = 0
    #: Modules in the whole-program graph (0 when no graph phase ran).
    graph_modules: int = 0
    #: The resolved configuration the run used.
    config: LintConfig = field(default_factory=LintConfig)


def run_analysis(paths: list[Path], rules: list[str] | None = None, *,
                 jobs: int = 1, config: LintConfig | None = None,
                 use_cache: bool = True, cache_path: Path | None = None,
                 baseline_path: Path | None = None,
                 use_baseline: bool = True) -> LintResult:
    """The full engine: discover, cache, fan out, graph, ratchet.

    ``paths`` may mix files and directories; missing ones surface as
    ``parse-error`` findings so a typo'd CI invocation fails loudly
    instead of passing on an empty file set.  ``rules`` restricts the
    *reported* rules (unknown names raise
    :class:`~repro.errors.ConfigurationError`); the cache always
    stores every file rule's findings so any selection stays warm.
    Findings are byte-identical for any ``jobs`` value and between
    cold and warm cache runs.
    """
    if config is None:
        config = find_project([p for p in paths if p.exists()] or paths)
    checkers = select_checkers(rules, config)
    selected_rules = {checker.rule for checker in checkers} | PSEUDO_RULES
    project_checkers = [checker for checker in checkers
                        if isinstance(checker, ProjectChecker)]

    result = LintResult(config=config)
    missing_findings = [
        Finding(path=str(path), line=1, col=0, rule=PARSE_ERROR_RULE,
                message="no such file or directory")
        for path in paths if not path.exists()]

    # Requested files, with the spelling the caller used (reports keep
    # it); everything internal is keyed by resolved absolute path.
    requested: dict[str, str] = {}
    for file_path in iter_python_files([p for p in paths if p.exists()]):
        requested.setdefault(str(file_path.resolve()), str(file_path))

    # The run's universe: requested files, plus — when a graph rule is
    # selected and the request reaches into a discovered project — the
    # project's whole import root.
    universe: dict[str, Path] = {key: Path(key) for key in requested}
    src_path = config.src_path()
    graph_enabled = bool(
        project_checkers and src_path is not None and src_path.is_dir()
        and any(Path(key).is_relative_to(src_path.resolve())
                for key in requested))
    if graph_enabled:
        for file_path in iter_python_files([src_path]):
            universe.setdefault(str(file_path.resolve()), file_path)
    result.files_checked = len(universe)

    # -- per-file pass, through the cache --------------------------------
    if not use_cache:
        cache: IncrementalCache = NullCache()
    else:
        location = cache_path
        if location is None and config.root is not None:
            location = Path(config.root) / CACHE_FILENAME
        cache = (NullCache() if location is None
                 else IncrementalCache.load(location, config))

    entries: dict[str, FileEntry] = {}
    to_parse: list[tuple[str, str, str, LintConfig]] = []
    for key in sorted(universe):
        try:
            data = universe[key].read_bytes()
            source = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            entries[key] = _parse_error_entry(
                key, "", 1, 0, f"cannot read file: {exc}")
            continue
        digest = content_digest(data)
        entry = cache.lookup(key, digest)
        if entry is not None:
            entries[key] = entry
        else:
            to_parse.append((key, source, digest, config))

    if to_parse:
        from repro.perf.parallel import sweep_map  # lazy: avoids an
        # import cycle through repro.perf.bench's lint workload
        for item, raw in zip(to_parse,
                             sweep_map(_process_file, to_parse, jobs=jobs)):
            entry = FileEntry.from_dict(raw)
            entries[item[0]] = entry
            cache.store(item[0], entry)
    result.files_parsed = len(to_parse)
    result.cache_hits = cache.hits

    findings: list[Finding] = []
    for key in sorted(requested):
        for finding in entries[key].findings:
            if finding.rule in selected_rules:
                findings.append(finding)

    # -- graph phase ------------------------------------------------------
    if graph_enabled:
        summaries = [entry.summary for _, entry in sorted(entries.items())
                     if entry.summary is not None]
        graph = build_graph(config, summaries)
        result.graph_modules = len(graph.modules)
        for checker in project_checkers:
            for finding in checker.check_project(graph):
                key = str(Path(finding.path).resolve())
                if key not in requested:
                    continue
                entry = entries.get(key)
                suppressions = {} if entry is None else {
                    line: frozenset(rules)
                    for line, rules in entry.suppressions.items()}
                if _is_suppressed(finding, suppressions):
                    continue
                findings.append(finding)

    # -- ratchet baseline -------------------------------------------------
    accepted: dict[tuple[str, str], int] = {}
    location = baseline_path if use_baseline else None
    if use_baseline and location is None and \
            config.baseline is not None and config.root is not None:
        candidate = Path(config.root) / config.baseline
        if candidate.is_file():
            location = candidate
    if location is not None:
        accepted = load_baseline(location)
    if accepted:
        findings = apply_baseline(
            findings, accepted,
            keys=[baseline_key(finding.path, config)
                  for finding in findings])

    # -- report spelling: resolve back to what the caller typed -----------
    rewritten = []
    for finding in findings:
        key = str(Path(finding.path).resolve())
        as_given = requested.get(key)
        if as_given is not None and as_given != finding.path:
            finding = Finding(path=as_given, line=finding.line,
                              col=finding.col, rule=finding.rule,
                              message=finding.message)
        rewritten.append(finding)
    rewritten.extend(missing_findings)

    cache.write()
    result.findings = sorted(rewritten)
    return result


def baseline_key(path_str: str, config: LintConfig) -> str:
    """Stable (project-root-relative) path key for the ratchet file."""
    if config.root is None:
        return path_str
    try:
        return Path(path_str).resolve().relative_to(
            Path(config.root).resolve()).as_posix()
    except ValueError:
        return path_str


def analyze_paths(paths: list[Path], rules: list[str] | None = None, *,
                  jobs: int = 1, use_cache: bool = True,
                  config: LintConfig | None = None) -> list[Finding]:
    """Run the (selected) checkers over files and directory trees.

    The compatibility wrapper around :func:`run_analysis` — same
    findings, no stats.
    """
    return run_analysis(paths, rules, jobs=jobs, use_cache=use_cache,
                        config=config).findings

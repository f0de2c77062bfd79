"""Tests for the whole-program analysis layer (PR 8).

The graph rules run against ``tests/analysis_fixtures/graphproj/`` — a
miniature project with its own ``pyproject.toml`` and one deliberate
violation per rule.  The suite also pins the declarative configuration
(byte-equal to the built-in defaults), the incremental cache (warm
runs re-parse nothing; findings are byte-identical cold vs warm and
serial vs parallel), the SARIF reporter, the ratchet baseline, the
``--rule``/``--changed`` CLI surface, and the logical-line suppression
semantics.
"""

import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import parse_suppressions, run_analysis
from repro.analysis.base import all_rules
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.analysis.cache import IncrementalCache, cache_fingerprint
from repro.analysis.cli import parse_porcelain, run_lint
from repro.analysis.config import (
    DEFAULT_LAYERS,
    LayerSpec,
    LintConfig,
    find_project,
    load_config,
)
from repro.analysis.engine import (
    UNKNOWN_SUPPRESSION_RULE,
    analyze_file,
    analyze_paths,
)
from repro.analysis.project import ModuleSummary, build_graph
from repro.analysis.reporters import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    SARIF_VERSION,
    render_sarif,
)
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"
GRAPHPROJ = FIXTURES / "graphproj"


def lint_graphproj(tmp_path, rules=None, *, jobs=1, root=GRAPHPROJ):
    """Run the engine over the fixture project with a throwaway cache."""
    return run_analysis([root / "src"], rules, jobs=jobs,
                        cache_path=tmp_path / "lint-cache.json")


def tails(findings, rule):
    """``(path tail, line)`` pairs of one rule's findings."""
    return [("/".join(Path(f.path).parts[-2:]), f.line)
            for f in findings if f.rule == rule]


class TestGraphRules:
    def test_fixture_project_findings(self, tmp_path):
        result = lint_graphproj(tmp_path)
        assert result.graph_modules > 0
        by_rule = {}
        for finding in result.findings:
            by_rule.setdefault(finding.rule, []).append(finding)
        assert set(by_rule) == {"layer-boundaries", "dead-export",
                                "shim-freshness", "event-contract"}

    def test_layer_boundaries(self, tmp_path):
        found = lint_graphproj(tmp_path, ["layer-boundaries"]).findings
        assert tails(found, "layer-boundaries") == [
            ("alpha/work.py", 4), ("delta/mod.py", 3)]
        assert "may not import layer 'gamma'" in found[0].message
        assert "allowed: beta" in found[0].message
        assert "layer 'delta' is not declared" in found[1].message

    def test_layer_exception_pardons_the_named_file(self, tmp_path):
        # pardoned.py imports alpha from root; only the named exception
        # in [layers.exceptions] keeps it clean.
        found = lint_graphproj(tmp_path, ["layer-boundaries"]).findings
        assert not any("pardoned" in f.path for f in found)

    def test_dead_export(self, tmp_path):
        found = lint_graphproj(tmp_path, ["dead-export"]).findings
        assert tails(found, "dead-export") == [("beta/util.py", 8)]
        assert "proj.beta.util.orphan" in found[0].message

    def test_dead_export_liveness_paths(self, tmp_path):
        # helper (imported), use (imported), main (entry point),
        # HANDLED (__all__), _private (underscore) are all live.
        found = lint_graphproj(tmp_path, ["dead-export"]).findings
        assert len(found) == 1

    def test_shim_freshness(self, tmp_path):
        found = lint_graphproj(tmp_path, ["shim-freshness"]).findings
        assert tails(found, "shim-freshness") == [("proj/shimmy.py", 10)]
        assert "pure re-export of proj.beta.util" in found[0].message

    def test_event_contract(self, tmp_path):
        found = lint_graphproj(tmp_path, ["event-contract"]).findings
        assert tails(found, "event-contract") == [
            ("beta/producer.py", 10), ("proj/events.py", 14),
            ("proj/events.py", 22), ("proj/events.py", 26)]
        messages = {f.line: f.message for f in found
                    if f.path.endswith("events.py")}
        assert "Ghost is never published" in messages[14]
        assert "Quiet is never published" in messages[22]
        assert "Smoke is published but never consumed" in messages[26]

    def test_event_contract_docs_count_as_consumption(self, tmp_path):
        # Parade is published and only documented; beta_depth reaches
        # only the docs; beta_ticks/beta_level reach the sink strings.
        found = lint_graphproj(tmp_path, ["event-contract"]).findings
        text = " ".join(f.message for f in found)
        for visible in ("Parade", "beta_depth", "beta_ticks",
                        "beta_level"):
            assert visible not in text
        assert "'beta_lost'" in text

    def test_graph_rules_report_only_requested_files(self, tmp_path):
        # Asking for one file runs the graph over the whole project but
        # reports only findings anchored in the requested file.
        result = run_analysis([GRAPHPROJ / "src" / "proj" / "shimmy.py"],
                              cache_path=tmp_path / "c.json")
        assert result.files_checked > 1  # universe expanded to src/
        assert {f.rule for f in result.findings} == {"shim-freshness"}


class TestImportersIndex:
    def test_importers_of_matches_imports_and_dotted_uses(self):
        graph = build_graph(LintConfig(), [
            ModuleSummary(module="p.a", path="a.py",
                          dotted_uses=("p.a.helper.attr",)),
            ModuleSummary(module="p.b", path="b.py",
                          imports=(("p.a", "helper", 1),
                                   ("p.a", None, 2))),
            ModuleSummary(module="p.c", path="c.py",
                          dotted_uses=("p.a.helper.attr", "p.a.help")),
            ModuleSummary(module="p.d", path="d.py",
                          dotted_uses=("p.a.helpers", "p.a")),
        ])
        # p.a's own use does not count; each importer is listed once,
        # in module order; a longer name sharing the prefix is no use.
        assert graph.importers_of("p.a", "helper") == ["p.b", "p.c"]
        assert graph.importers_of("p.a", "help") == ["p.c"]
        assert graph.importers_of("p.a", "helpers") == ["p.d"]
        assert graph.importers_of("p.a", "other") == []
        assert graph.importers_of("p.a.helper", "attr") == ["p.a", "p.c"]


class TestParallelAndIncremental:
    def test_findings_identical_serial_vs_parallel(self, tmp_path):
        serial = run_analysis([GRAPHPROJ / "src"], jobs=1,
                              cache_path=tmp_path / "a.json").findings
        parallel = run_analysis([GRAPHPROJ / "src"], jobs=2,
                                cache_path=tmp_path / "b.json").findings
        assert serial == parallel

    def test_findings_identical_cold_vs_warm(self, tmp_path):
        cache = tmp_path / "lint-cache.json"
        cold = run_analysis([GRAPHPROJ / "src"], cache_path=cache)
        warm = run_analysis([GRAPHPROJ / "src"], cache_path=cache)
        assert cold.findings == warm.findings
        assert cold.files_parsed == cold.files_checked
        assert warm.files_parsed == 0
        assert warm.cache_hits == warm.files_checked

    def test_touched_file_is_the_only_reparse(self, tmp_path):
        root = tmp_path / "graphproj"
        shutil.copytree(GRAPHPROJ, root)
        cache = tmp_path / "lint-cache.json"
        run_analysis([root / "src"], cache_path=cache)
        target = root / "src" / "proj" / "gamma" / "extra.py"
        target.write_text(target.read_text(encoding="utf-8")
                          + "\n\ndef fresh_orphan() -> int:\n    return 5\n",
                          encoding="utf-8")
        warm = run_analysis([root / "src"], cache_path=cache)
        assert warm.files_parsed == 1
        assert any(f.rule == "dead-export" and "fresh_orphan" in f.message
                   for f in warm.findings)

    def test_config_change_discards_cache(self, tmp_path):
        config = find_project([GRAPHPROJ / "src"])
        edited = replace(config, src_root="other")
        assert cache_fingerprint(config) != cache_fingerprint(edited)
        cache = tmp_path / "lint-cache.json"
        run_analysis([GRAPHPROJ / "src"], cache_path=cache, config=config)
        reloaded = IncrementalCache.load(cache, edited)
        assert reloaded._entries == {}

    def test_no_cache_never_touches_disk(self, tmp_path):
        result = run_analysis([GRAPHPROJ / "src"], use_cache=False,
                              cache_path=tmp_path / "lint-cache.json")
        assert result.cache_hits == 0
        assert not (tmp_path / "lint-cache.json").exists()

    def test_self_lint_parallel_matches_serial(self):
        package = REPO / "src" / "repro" / "analysis"
        serial = analyze_paths([package], jobs=1, use_cache=False)
        parallel = analyze_paths([package], jobs=2, use_cache=False)
        assert serial == parallel == []


class TestConfig:
    def test_pyproject_matches_builtin_defaults(self):
        # Satellite 1: the declarative config is byte-equal to the
        # in-code defaults, so deleting the hardcoded checker scopes
        # changed nothing.
        loaded = load_config(REPO)
        assert loaded == replace(LintConfig(), root=str(REPO),
                                 baseline="lint-baseline.json")

    def test_findings_equal_between_loaded_and_builtin(self):
        loaded = load_config(REPO)
        builtin = replace(LintConfig(), root=str(REPO),
                          baseline="lint-baseline.json")
        target = FIXTURES / "suppressions.py"
        assert (analyze_paths([target], use_cache=False, config=loaded)
                == analyze_paths([target], use_cache=False, config=builtin))

    def test_repo_layer_dag_is_acyclic(self):
        DEFAULT_LAYERS.require_acyclic()

    def test_cyclic_layer_graph_is_rejected(self):
        spec = LayerSpec(allow=(("a", ("b",)), ("b", ("a",))))
        with pytest.raises(ConfigurationError, match="not a DAG"):
            spec.require_acyclic()

    def test_find_project_picks_nearest_pyproject(self):
        config = find_project([GRAPHPROJ / "src" / "proj" / "cli.py"])
        assert config.root == str(GRAPHPROJ.resolve())
        assert config.entry_points == (("proj.cli", "main"),)

    def test_no_project_disables_graph_rules(self, tmp_path):
        lone = tmp_path / "lone.py"
        lone.write_text("def nobody_uses_me():\n    return 1\n",
                        encoding="utf-8")
        result = run_analysis([lone], use_cache=False, config=LintConfig())
        assert result.graph_modules == 0
        assert result.findings == []

    def test_fallback_toml_parser_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        from repro.analysis.config import _parse_toml_subset
        for pyproject in (REPO / "pyproject.toml",
                          GRAPHPROJ / "pyproject.toml"):
            text = pyproject.read_text(encoding="utf-8")
            with pyproject.open("rb") as handle:
                reference = tomllib.load(handle)
            parsed = _parse_toml_subset(text)
            assert (parsed["tool"]["mems-repro"]["lint"]
                    == reference["tool"]["mems-repro"]["lint"])
            assert (parsed["project"]["scripts"]
                    == reference["project"]["scripts"])

    def test_config_is_hashable_and_picklable(self):
        import pickle
        config = load_config(REPO)
        assert hash(config) == hash(pickle.loads(pickle.dumps(config)))
        assert config.fingerprint() == pickle.loads(
            pickle.dumps(config)).fingerprint()


class TestSarif:
    def test_sarif_schema(self, tmp_path):
        findings = lint_graphproj(tmp_path).findings
        payload = json.loads(render_sarif(findings))
        assert payload["version"] == SARIF_VERSION == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "mems-repro-lint"
        assert {rule["id"] for rule in driver["rules"]} >= set(all_rules())
        assert len(run["results"]) == len(findings)
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        region = location["region"]
        assert region["startLine"] == findings[0].line
        assert region["startColumn"] == findings[0].col + 1  # 1-based
        assert result["level"] == "error"

    def test_cli_writes_sarif_file(self, tmp_path):
        sarif = tmp_path / "lint.sarif"
        stream = io.StringIO()
        code = run_lint([str(GRAPHPROJ / "src")], stream=stream,
                        no_cache=True, sarif_path=str(sarif))
        assert code == EXIT_FINDINGS
        payload = json.loads(sarif.read_text(encoding="utf-8"))
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]


class TestBaseline:
    def test_write_then_enforce_round_trip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        stream = io.StringIO()
        code = run_lint([str(GRAPHPROJ / "src")], stream=stream,
                        no_cache=True, write_baseline=str(baseline))
        assert code == EXIT_CLEAN
        accepted = load_baseline(baseline)
        assert accepted[("dead-export",
                         "src/proj/beta/util.py")] == 1
        # With the baseline applied the dirty fixture gates clean.
        stream = io.StringIO()
        code = run_lint([str(GRAPHPROJ / "src")], stream=stream,
                        no_cache=True, baseline=str(baseline))
        assert code == EXIT_CLEAN

    def test_new_violation_escapes_the_baseline(self, tmp_path):
        root = tmp_path / "graphproj"
        shutil.copytree(GRAPHPROJ, root)
        baseline = tmp_path / "baseline.json"
        run_lint([str(root / "src")], stream=io.StringIO(),
                 no_cache=True, write_baseline=str(baseline))
        target = root / "src" / "proj" / "gamma" / "extra.py"
        target.write_text(target.read_text(encoding="utf-8")
                          + "\n\ndef newly_dead() -> int:\n    return 6\n",
                          encoding="utf-8")
        result = run_analysis([root / "src"], use_cache=False,
                              baseline_path=baseline)
        assert [f.rule for f in result.findings] == ["dead-export"]
        assert "newly_dead" in result.findings[0].message

    def test_count_semantics_report_the_whole_debt(self):
        from repro.analysis.base import Finding
        findings = [
            Finding(path="a.py", line=1, col=0, rule="r", message="one"),
            Finding(path="a.py", line=9, col=0, rule="r", message="two"),
        ]
        # Over budget: every finding for the (rule, path) is reported.
        assert apply_baseline(findings, {("r", "a.py"): 1}) == findings
        assert apply_baseline(findings, {("r", "a.py"): 2}) == []
        rendered = render_baseline(findings)
        assert json.loads(rendered)["counts"]["r"]["a.py"] == 2

    def test_malformed_baseline_is_a_usage_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"schema": 99, "counts": {}}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_baseline(bad)
        bad.write_text('{"schema": 1, "counts": {"r": {"a.py": -1}}}',
                       encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_baseline(bad)

    def test_repo_baseline_is_empty(self):
        assert load_baseline(REPO / "lint-baseline.json") == {}


class TestCliFlags:
    def test_rule_flag_is_repeatable(self, tmp_path):
        stream = io.StringIO()
        code = run_lint([str(GRAPHPROJ / "src")],
                        rules=["dead-export", "shim-freshness"],
                        json_output=True, stream=stream, no_cache=True)
        assert code == EXIT_FINDINGS
        payload = json.loads(stream.getvalue())
        assert {f["rule"] for f in payload["findings"]} == {
            "dead-export", "shim-freshness"}

    def test_changed_lints_the_git_status_files(self, monkeypatch):
        fixture = FIXTURES / "no_bare_assert.py"
        porcelain = (f" M {fixture}\n"
                     f"D  {FIXTURES / 'deleted.py'}\n"
                     f"?? {FIXTURES / 'notes.txt'}\n")
        monkeypatch.setattr("repro.analysis.cli._git_status_porcelain",
                            lambda: porcelain)
        stream = io.StringIO()
        code = run_lint(["ignored-when-changed"], changed=True,
                        json_output=True, stream=stream, no_cache=True)
        assert code == EXIT_FINDINGS
        payload = json.loads(stream.getvalue())
        assert {Path(f["path"]).name for f in payload["findings"]} == {
            "no_bare_assert.py"}

    def test_changed_with_clean_tree_is_clean(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.cli._git_status_porcelain",
                            lambda: "")
        stream = io.StringIO()
        assert run_lint([], changed=True, stream=stream,
                        no_cache=True) == EXIT_CLEAN

    def test_parse_porcelain_forms(self):
        text = (" M src/a.py\n"
                "A  src/b.py\n"
                "R  src/old.py -> src/new.py\n"
                "D  src/gone.py\n"
                "?? src/untracked.py\n"
                "?? README.md\n")
        assert parse_porcelain(text) == [
            "src/a.py", "src/b.py", "src/new.py", "src/untracked.py"]

    def test_exit_code_contract(self, tmp_path):
        assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)
        clean = tmp_path / "clean.py"
        clean.write_text('"""Nothing to see."""\n', encoding="utf-8")
        assert run_lint([str(clean)], stream=io.StringIO(),
                        no_cache=True) == 0
        assert run_lint([str(GRAPHPROJ / "src")], stream=io.StringIO(),
                        no_cache=True) == 1
        assert run_lint([str(clean)], rules=["no-such-rule"],
                        stream=io.StringIO(), no_cache=True) == 2


class TestSuppressionEdges:
    def test_comment_on_continuation_line_covers_the_statement(
            self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "SIZE = (1_000_000\n"
            "        * 3)  # repro-lint: disable=unit-literals\n",
            encoding="utf-8")
        assert analyze_file(target) == []

    def test_comment_on_first_line_covers_later_physical_lines(
            self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "SIZES = [  # repro-lint: disable=unit-literals\n"
            "    1_000_000,\n"
            "    2_000_000,\n"
            "]\n",
            encoding="utf-8")
        assert analyze_file(target) == []

    def test_standalone_comment_covers_only_its_own_line(self, tmp_path):
        target = tmp_path / "standalone.py"
        target.write_text(
            "# repro-lint: disable=unit-literals\n"
            "SIZE = 1_000_000\n",
            encoding="utf-8")
        found = analyze_file(target)
        assert [f.rule for f in found] == ["unit-literals"]

    def test_parse_suppressions_expands_logical_lines(self):
        source = ("value = compute(\n"
                  "    1, 2,\n"
                  ")  # repro-lint: disable=determinism\n")
        suppressed = parse_suppressions(source)
        assert suppressed[1] == frozenset({"determinism"})
        assert suppressed[2] == frozenset({"determinism"})
        assert suppressed[3] == frozenset({"determinism"})

    def test_unknown_rule_in_suppression_is_a_finding(self, tmp_path):
        target = tmp_path / "typo.py"
        target.write_text(
            "SIZE = 1_000_000  # repro-lint: disable=unit-litterals\n",
            encoding="utf-8")
        found = analyze_file(target)
        rules = [f.rule for f in found]
        assert UNKNOWN_SUPPRESSION_RULE in rules
        assert "unit-literals" in rules  # the typo silenced nothing
        message = next(f.message for f in found
                       if f.rule == UNKNOWN_SUPPRESSION_RULE)
        assert "unit-litterals" in message
        assert "known rules" in message
        assert run_lint([str(target)], stream=io.StringIO(),
                        no_cache=True) == EXIT_FINDINGS

    def test_correctly_named_suppression_still_works(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text(
            "SIZE = 1_000_000  # repro-lint: disable=unit-literals\n",
            encoding="utf-8")
        assert analyze_file(target) == []

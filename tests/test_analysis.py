"""Tests for :mod:`repro.analysis` — the ``mems-repro lint`` gate.

Each checker runs against a deliberately-broken fixture under
``tests/analysis_fixtures/`` and must report exactly the expected
findings; the suite also pins the suppression semantics, the reporter
schemas and exit codes, and — the gate's own gate — that the shipped
``src/`` tree is clean.
"""

import ast
import io
import json
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    all_rules,
    analyze_file,
    analyze_paths,
    get_checker,
    render_json,
    render_text,
)
from repro.analysis.base import Finding, ParsedFile
from repro.analysis.cli import run_lint
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    UNKNOWN_SUPPRESSION_RULE,
    _collect_suppressions,
    parse_suppressions,
)
from repro.errors import ConfigurationError

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"


def findings_for(fixture, rule=None):
    rules = [rule] if rule else None
    return analyze_paths([FIXTURES / fixture], rules=rules)


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert set(all_rules()) >= {
            "no-bare-assert", "determinism", "unit-literals",
            "no-shim-imports", "float-equality", "exception-hygiene"}

    def test_unknown_rule_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            get_checker("no-such-rule")


class TestNoBareAssert:
    def test_flags_every_assert(self):
        found = findings_for("no_bare_assert.py", rule="no-bare-assert")
        assert [f.line for f in found] == [5, 6]
        assert all(f.rule == "no-bare-assert" for f in found)
        assert "python -O" in found[0].message

    def test_message_names_the_condition(self):
        found = findings_for("no_bare_assert.py", rule="no-bare-assert")
        assert "value is not None" in found[0].message


class TestDeterminism:
    def test_flags_clocks_and_global_rng(self):
        found = findings_for("runtime/wall_clock.py", rule="determinism")
        assert [f.line for f in found] == [13, 14, 15, 16]
        messages = " / ".join(f.message for f in found)
        assert "time.time" in messages
        assert "datetime" in messages
        assert "random" in messages
        assert "numpy.random.uniform" in messages

    def test_default_rng_is_allowed(self):
        found = findings_for("runtime/wall_clock.py", rule="determinism")
        assert not any("default_rng(7)" in f.message for f in found)

    def test_rule_is_path_scoped(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/runtime/runtime.py"))
        assert not checker.applies_to(Path("src/repro/core/theorems.py"))

    def test_perf_layer_is_in_scope(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/perf/bench.py"))
        assert checker.applies_to(Path("src/repro/perf/parallel.py"))

    def test_flags_pools_and_clocks_in_perf(self):
        found = findings_for("perf/pool_and_clock.py", rule="determinism")
        assert [f.line for f in found] == [13, 14, 16, 18]
        messages = " / ".join(f.message for f in found)
        assert "time.perf_counter" in messages
        assert "ProcessPoolExecutor" in messages
        assert "multiprocessing.Pool" in messages
        assert "sweep_map" in messages

    def test_planner_incremental_is_file_scoped(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/planner/incremental.py"))
        # The rest of the planner package stays out of scope.
        assert not checker.applies_to(Path("src/repro/planner/solver.py"))
        assert not checker.applies_to(Path("src/repro/planner/search.py"))

    def test_planner_batch_is_file_scoped(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/planner/batch.py"))

    def test_flags_breaches_in_planner_batch(self):
        found = findings_for("planner/batch.py", rule="determinism")
        assert [f.line for f in found] == [14, 15]
        messages = " / ".join(f.message for f in found)
        assert "numpy.random.uniform" in messages
        assert "time.monotonic" in messages
        # The sanctioned suppression on the reviewed escape holds.
        assert not any("perf_counter" in f.message for f in found)

    def test_flags_breaches_in_planner_incremental(self):
        found = findings_for("planner/incremental.py", rule="determinism")
        assert [f.line for f in found] == [12, 13]
        messages = " / ".join(f.message for f in found)
        assert "random" in messages
        assert "time.monotonic" in messages

    def test_planner_incremental_suppression_works(self):
        found = findings_for("planner/incremental.py", rule="determinism")
        assert not any("perf_counter" in f.message for f in found)

    def test_vod_layer_is_in_scope(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/vod/multicast.py"))
        assert checker.applies_to(Path("src/repro/vod/placement.py"))

    def test_flags_clocks_and_global_rng_in_vod(self):
        found = findings_for("vod/wall_clock.py", rule="determinism")
        assert [f.line for f in found] == [14, 15, 16]
        messages = " / ".join(f.message for f in found)
        assert "time.monotonic" in messages
        assert "random" in messages
        assert "numpy.random.uniform" in messages
        assert not any("default_rng(11)" in f.message for f in found)

    def test_service_layer_is_in_scope(self):
        checker = get_checker("determinism")
        assert checker.applies_to(Path("src/repro/service/facade.py"))
        assert checker.applies_to(Path("src/repro/service/events.py"))

    def test_flags_clocks_and_global_rng_in_service(self):
        found = findings_for("service/wall_clock.py", rule="determinism")
        assert [f.line for f in found] == [16, 17, 18]
        messages = " / ".join(f.message for f in found)
        assert "time.time" in messages
        assert "random" in messages
        assert "numpy.random.uniform" in messages
        assert not any("default_rng(7)" in f.message for f in found)

    def test_sanctioned_perf_escapes_are_suppressed_inline(self):
        # The real pool (parallel.py) and timer (bench.py) carry
        # reviewed suppressions; the modules must scan clean.
        perf = REPO / "src" / "repro" / "perf"
        found = analyze_paths([perf], rules=["determinism"])
        assert found == []


class TestUnitLiterals:
    def test_flags_magic_spellings_only(self):
        found = findings_for("unit_literals.py", rule="unit-literals")
        assert [f.line for f in found] == [7, 8, 9, 10, 11]

    def test_decimal_magnitudes_name_the_constant(self):
        # Exact texts: each message quotes the literal as spelled.
        found = findings_for("unit_literals.py", rule="unit-literals")
        assert {f.line: f.message for f in found} == {
            7: "magic unit literal 1e6; use repro.units.MB",
            8: "magic unit literal 1_000_000; use repro.units.MB",
            9: "binary-convention literal 1024; this library is decimal "
               "(SI, 1 MB = 10^6 B) — use repro.units",
            10: "binary-convention 1 << 20; this library is decimal (SI) "
                "— use repro.units",
            11: "magic unit literal 1e3; use repro.units.KB (or divide by "
                "MS for second->millisecond)",
        }

    def test_units_module_is_exempt(self):
        checker = get_checker("unit-literals")
        assert not checker.applies_to(Path("src/repro/units.py"))
        assert checker.applies_to(Path("src/repro/core/theorems.py"))


def _numeric_constants(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float, complex))
            and not isinstance(node.value, bool)]


def _stdlib_segment(source, node):
    r"""``ast.get_source_segment(source, node)``, asked of the node's own
    lines only.

    The stdlib re-splits the whole source on every call, which over a
    whole tree is quadratic.  A cut just after a ``\n`` never changes
    the parser's lines on either side of it, and when the lines cut off
    above hold no ``\r``, their parser line count is their ``\n``
    count, so the shifted node asks the stdlib the same question
    (otherwise the full source is used).
    """
    *above, rest = source.split("\n", node.lineno - 1)
    if any("\r" in line for line in above):
        return ast.get_source_segment(source, node)
    span = node.end_lineno - node.lineno + 1
    window = "\n".join(rest.split("\n", span)[:span])
    shifted = ast.Constant(
        value=node.value, lineno=1, end_lineno=span,
        col_offset=node.col_offset, end_col_offset=node.end_col_offset)
    return ast.get_source_segment(window, shifted)


class TestSourceSegments:
    """``ParsedFile.segment`` (lines split once per file) against the
    stdlib's ``ast.get_source_segment`` (re-split on every call)."""

    @pytest.mark.parametrize("source", [
        'name = ("é€", 1_000_000)\n',
        "# form\x0cfeed\nx = 1_000_000\n",
        "# line\u2028separator\nx = 1_000_000\n",
        "# file\x1cseparator\r\ny = 2\rx = (1e6 +\r\n 1_024)\n",
    ], ids=["non-ascii-before", "form-feed-above", "u2028-above",
            "cr-and-crlf"])
    def test_matches_stdlib_on_awkward_lines(self, source):
        parsed = ParsedFile.parse(source, Path("case.py"))
        nodes = [node for node in parsed.nodes
                 if isinstance(node, ast.expr)]
        assert _numeric_constants(parsed.tree)
        for node in nodes:
            assert parsed.segment(node) == \
                ast.get_source_segment(source, node)

    def test_matches_stdlib_on_every_numeric_literal(self):
        files = sorted((REPO / "src").rglob("*.py")) + \
            sorted(FIXTURES.rglob("*.py"))
        checked = 0
        for path in files:
            source = path.read_bytes().decode("utf-8")
            try:
                parsed = ParsedFile.parse(source, path)
            except SyntaxError:
                continue  # bad_syntax.py
            for node in _numeric_constants(parsed.tree):
                assert parsed.segment(node) == \
                    _stdlib_segment(source, node), (path, node.lineno)
                checked += 1
        assert checked > 1000


class TestNoShimImports:
    def test_flags_all_three_import_forms(self):
        found = findings_for("shim_imports.py", rule="no-shim-imports")
        assert [f.line for f in found] == [2, 3, 4]
        messages = " / ".join(f.message for f in found)
        assert "repro.planner.throughput" in messages
        assert "repro.planner.hybrid" in messages

    def test_shim_modules_themselves_are_exempt(self):
        checker = get_checker("no-shim-imports")
        assert not checker.applies_to(Path("src/repro/core/capacity.py"))
        assert not checker.applies_to(Path("src/repro/core/hybrid.py"))
        assert checker.applies_to(Path("src/repro/core/regions.py"))


class TestFloatEquality:
    def test_flags_float_comparisons(self):
        found = findings_for("core/float_eq.py", rule="float-equality")
        assert [f.line for f in found] == [7, 8, 9]

    def test_inf_comparison_suggests_isinf(self):
        found = findings_for("core/float_eq.py", rule="float-equality")
        by_line = {f.line: f.message for f in found}
        assert "math.isclose" in by_line[7]
        assert "math.isinf" in by_line[8]

    def test_integer_comparisons_pass(self):
        found = findings_for("core/float_eq.py", rule="float-equality")
        assert all(f.line <= 9 for f in found)

    def test_experiments_layer_is_in_scope(self):
        checker = get_checker("float-equality")
        assert checker.applies_to(Path("src/repro/experiments/base.py"))
        assert not checker.applies_to(Path("src/repro/simulation/engine.py"))

    def test_flags_float_comparisons_in_experiments(self):
        found = findings_for("experiments/float_eq.py",
                             rule="float-equality")
        assert [f.line for f in found] == [9, 11]
        # int(...) == 0 on line 13 is a count comparison and passes.

    def test_vod_layer_is_in_scope(self):
        checker = get_checker("float-equality")
        assert checker.applies_to(Path("src/repro/vod/prefix.py"))
        assert not checker.applies_to(Path("src/repro/runtime/metrics.py"))

    def test_flags_float_comparisons_in_vod(self):
        found = findings_for("vod/float_eq.py", rule="float-equality")
        assert [f.line for f in found] == [8, 9, 10]
        by_line = {f.line: f.message for f in found}
        assert "math.isclose" in by_line[8]
        assert "math.isinf" in by_line[9]

    def test_service_layer_is_in_scope(self):
        checker = get_checker("float-equality")
        assert checker.applies_to(Path("src/repro/service/backpressure.py"))
        assert checker.applies_to(Path("src/repro/service/parity.py"))

    def test_flags_float_comparisons_in_service(self):
        found = findings_for("service/float_eq.py", rule="float-equality")
        assert [f.line for f in found] == [9, 10, 11]
        by_line = {f.line: f.message for f in found}
        assert "math.isclose" in by_line[9]
        assert "math.isinf" in by_line[10]


class TestExceptionHygiene:
    def test_flags_banned_builtin_raises(self):
        found = findings_for("exception_hygiene.py",
                             rule="exception-hygiene")
        assert [f.line for f in found] == [10, 12]
        assert "raise ValueError" in found[0].message
        assert "raise Exception" in found[1].message

    def test_runtime_error_and_reraise_allowed(self):
        found = findings_for("exception_hygiene.py",
                             rule="exception-hygiene")
        assert not any("RuntimeError" in f.message.split(":")[0]
                       for f in found)


class TestSuppressions:
    def test_named_and_bare_suppress_exactly_their_line(self):
        found = findings_for("suppressions.py", rule="unit-literals")
        assert [f.line for f in found] == [8]

    def test_parse_suppressions_map(self):
        source = ("x = 1  # repro-lint: disable=unit-literals,determinism\n"
                  "y = 2  # repro-lint: disable\n"
                  "z = '# repro-lint: disable'\n")
        suppressed = parse_suppressions(source)
        assert suppressed[1] == frozenset({"unit-literals", "determinism"})
        assert suppressed[2] == frozenset({"*"})
        assert 3 not in suppressed  # '#' inside a string is not a comment

    def test_source_without_marker_is_not_tokenized(self, monkeypatch):
        def no_tokenizing(*args, **kwargs):
            raise AssertionError("tokenized a source without the marker")

        monkeypatch.setattr(tokenize, "generate_tokens", no_tokenizing)
        assert _collect_suppressions("x = 1_000_000  # noqa\n") == ({}, [])

    def test_marker_inside_a_string_suppresses_nothing(self, tmp_path):
        source = 's = "# repro-lint: disable"\nx = 1_000_000\n'
        assert _collect_suppressions(source) == ({}, [])
        target = tmp_path / "marker_in_string.py"
        target.write_text(source, encoding="utf-8")
        found = analyze_file(target)
        assert [(f.line, f.rule) for f in found] == [(2, "unit-literals")]

    def test_typoed_rule_is_an_unknown_suppression(self, tmp_path):
        target = tmp_path / "typo.py"
        target.write_text(
            "x = 1_000_000  # repro-lint: disable=unit-literal\n",
            encoding="utf-8")
        found = analyze_file(target)
        assert sorted(f.rule for f in found) == [
            "unit-literals", UNKNOWN_SUPPRESSION_RULE]
        unknown = [f for f in found if f.rule == UNKNOWN_SUPPRESSION_RULE]
        assert "'unit-literal'" in unknown[0].message


class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self):
        found = findings_for("bad_syntax.py")
        assert len(found) == 1
        assert found[0].rule == PARSE_ERROR_RULE

    def test_missing_path_becomes_parse_error_finding(self):
        found = analyze_paths([FIXTURES / "does_not_exist.py"])
        assert [f.rule for f in found] == [PARSE_ERROR_RULE]
        assert "no such file" in found[0].message

    def test_directory_walk_is_sorted_and_complete(self):
        found = analyze_paths([FIXTURES])
        assert found == sorted(found)
        assert {Path(f.path).name for f in found} >= {
            "no_bare_assert.py", "wall_clock.py", "unit_literals.py",
            "shim_imports.py", "float_eq.py", "exception_hygiene.py",
            "suppressions.py", "bad_syntax.py", "pool_and_clock.py",
            "incremental.py", "batch.py"}

    def test_rule_selection_limits_checkers(self):
        found = analyze_paths([FIXTURES / "no_bare_assert.py"],
                              rules=["unit-literals"])
        assert found == []


class TestReporters:
    def test_json_schema(self):
        found = findings_for("no_bare_assert.py", rule="no-bare-assert")
        payload = json.loads(render_json(found))
        assert payload["schema"] == 1
        assert payload["count"] == len(found) == len(payload["findings"])
        for entry in payload["findings"]:
            assert {"rule", "path", "line", "col",
                    "message"} <= entry.keys()
            assert isinstance(entry["line"], int)

    def test_text_report_is_gcc_style(self):
        found = findings_for("no_bare_assert.py", rule="no-bare-assert")
        text = render_text(found)
        assert ":5:" in text and "[no-bare-assert]" in text
        assert "2 findings" in text

    def test_clean_report(self):
        assert "clean" in render_text([])
        assert json.loads(render_json([]))["count"] == 0

    def test_findings_sort_by_location(self):
        late = Finding(path="b.py", line=9, col=0, rule="r", message="m")
        early = Finding(path="a.py", line=1, col=0, rule="r", message="m")
        assert sorted([late, early]) == [early, late]


class TestCli:
    def test_exit_clean_on_clean_tree(self):
        stream = io.StringIO()
        code = run_lint([str(REPO / "src" / "repro" / "errors.py")],
                        stream=stream)
        assert code == EXIT_CLEAN

    def test_exit_findings_on_dirty_fixture(self):
        stream = io.StringIO()
        code = run_lint([str(FIXTURES / "no_bare_assert.py")],
                        stream=stream)
        assert code == EXIT_FINDINGS
        assert "no-bare-assert" in stream.getvalue()

    def test_exit_usage_on_unknown_rule(self):
        stream = io.StringIO()
        code = run_lint([str(FIXTURES)], rules=["no-such-rule"],
                        stream=stream)
        assert code == EXIT_USAGE

    def test_json_output_round_trips(self):
        stream = io.StringIO()
        code = run_lint([str(FIXTURES / "suppressions.py")],
                        rules=["unit-literals"], json_output=True,
                        stream=stream)
        assert code == EXIT_FINDINGS
        payload = json.loads(stream.getvalue())
        assert payload["count"] == 1
        assert payload["findings"][0]["line"] == 8

    def test_list_rules(self):
        stream = io.StringIO()
        code = run_lint([], list_rules=True, stream=stream)
        assert code == EXIT_CLEAN
        for rule in all_rules():
            assert rule in stream.getvalue()


class TestSelfCheck:
    def test_shipped_library_is_clean(self):
        assert analyze_paths([REPO / "src"]) == []

    def test_analysis_package_checks_itself(self):
        package = REPO / "src" / "repro" / "analysis"
        for path in sorted(package.rglob("*.py")):
            assert analyze_file(path) == []

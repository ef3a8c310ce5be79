"""Tier-1 wiring for the vector-purity lint (``tools/lint_vector.py``).

A per-row loop inside ``src/repro/sqlengine/vector.py`` keeps results
bit-identical (the differential suite would never notice) while quietly
eroding the perf gate's speedup floors.  This wires the lint into the
tier-1 run so row-oriented idioms in the vector kernels fail CI.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_vector.py"


def load_lint():
    spec = importlib.util.spec_from_file_location("lint_vector", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_vector_module_has_no_row_loops():
    lint = load_lint()
    assert lint.find_violations() == []


def test_lint_detects_row_loop(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def kernel(ctx):\n"
        "    return [row['a'] for row in ctx.frame.iter_rows()]\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 2          # for-row loop AND .iter_rows(
    assert "rogue.py:2" in violations[0]
    assert "whole columns" in violations[0]


def test_lint_detects_row_context_and_cell(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def kernel(ctx, i):\n"
        "    context = RowContext(ctx.frame, i)\n"
        "    return ctx.frame.cell(i, 'a')\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 2
    assert "row-at-a-time evaluator context" in violations[0]
    assert "single-cell access" in violations[1]


def test_lint_detects_row_engine_dispatch(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def fallback(expr, context):\n"
        "    return evaluate(expr, context)\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 1
    assert "the executor owns" in violations[0]


def test_docstrings_comments_and_suppression_are_ignored(tmp_path):
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text(
        '"""Module prose may say for row in / iter_rows() freely.\n'
        "\n"
        "Even across lines: RowContext( is documented here.\n"
        '"""\n'
        "# for row in frame: a comment is fine\n"
        "special = RowContext(frame, 0)  # lint: allow-row-loop\n")
    assert lint.scan_file(clean) == []


def test_method_named_evaluate_is_allowed(tmp_path):
    """Only bare ``evaluate(`` (the interpreter entry point) is banned;
    ``self.evaluate(...)`` / ``obj.evaluate(...)`` are unrelated."""
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text("result = checker.evaluate(mask)\n")
    assert lint.scan_file(clean) == []


def test_lint_runs_standalone():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True,
        env={"PYTHONPATH": str(TOOL.parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert "no per-row execution" in result.stdout

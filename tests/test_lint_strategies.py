"""Tier-1 wiring for the strategy-seam lint (``tools/lint_strategies.py``).

A direct engine construction outside ``repro/engine/`` and
``repro/strategies/`` silently stops honouring ``--strategy`` at that
call site while every default-path test keeps passing.  This wires the
lint into the tier-1 run so registry bypasses fail CI.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = (Path(__file__).resolve().parent.parent
        / "tools" / "lint_strategies.py")


def load_lint():
    spec = importlib.util.spec_from_file_location("lint_strategies", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_tree_resolves_engines_through_the_registry():
    lint = load_lint()
    assert lint.find_violations() == []


def test_allowed_directories_are_skipped():
    lint = load_lint()
    scanned = {path.relative_to(lint.SRC).parts[0]
               for path in lint._scanned_files()}
    assert "engine" not in scanned
    assert "strategies" not in scanned
    assert "core" in scanned            # the re-platformed callers


def test_lint_detects_direct_construction(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "def run(transcript):\n"
        "    engine = ChainEngine(transcript)\n"
        "    other = ChainOfTableEngine(transcript)\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 2
    assert "rogue.py:2" in violations[0]
    assert "get_strategy('react')" in violations[0]
    assert "get_strategy('chain-of-table')" in violations[1]


def test_lint_detects_cot_family_construction(tmp_path):
    lint = load_lint()
    rogue = tmp_path / "rogue.py"
    rogue.write_text(
        "engine = CoTEngine(transcript)\n"
        "engine = CommentedCodeEngine(transcript)\n")
    violations = lint.scan_file(rogue)
    assert len(violations) == 2
    assert "get_strategy('cot')" in violations[0]
    assert "get_strategy('commented-code')" in violations[1]


def test_isinstance_dispatch_is_allowed(tmp_path):
    """Type dispatch (`isinstance(engine, ChainEngine)`) is sanctioned,
    as the shared-state merge does — only *constructions* are banned."""
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text(
        "def mergeable(engine):\n"
        "    if isinstance(engine, ChainEngine):\n"
        "        return engine.iterations == 0\n"
        "    return False\n")
    assert lint.scan_file(clean) == []


def test_docstrings_comments_and_suppression_are_ignored(tmp_path):
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text(
        '"""Module prose may say ChainEngine(transcript) freely.\n'
        "\n"
        "Even across lines: CoTEngine( is documented here.\n"
        '"""\n'
        "# engine = ChainEngine(transcript): a comment is fine\n"
        "special = CoTEngine(t)  # lint: allow-engine-class\n")
    assert lint.scan_file(clean) == []


def test_subclass_names_do_not_false_positive(tmp_path):
    """`MyChainEngine(...)` is someone else's class; word boundaries
    keep the patterns from matching inside longer identifiers."""
    lint = load_lint()
    clean = tmp_path / "clean.py"
    clean.write_text("engine = MyChainEngine(transcript)\n")
    assert lint.scan_file(clean) == []


def test_lint_runs_standalone():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True,
        env={"PYTHONPATH": str(TOOL.parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert "strategy registry" in result.stdout

"""Tier-1 wiring for the sans-IO boundary lint (``tools/lint_effects.py``).

Direct ``model.complete(...)`` / ``executor.execute(...)`` calls are only
allowed inside the engine drivers and the LLM/executor/faults packages;
everything else must route I/O through
:class:`repro.engine.EffectHandler`, or batching, chaos injection and
cost attribution silently stop covering it.  ``engine.next_effect()``
is called only by the tick loop in ``repro/engine/driver.py``.
"""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lint_effects.py"


def load_lint():
    spec = importlib.util.spec_from_file_location("lint_effects", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundary_has_no_violations():
    lint = load_lint()
    assert lint.find_violations() == []


def test_lint_detects_a_direct_model_call():
    lint = load_lint()
    lines = [
        "def rogue(model, prompt):",
        "    return model.complete(prompt, n=1)",
    ]
    violations = lint.scan_lines("core/rogue.py", lines)
    assert len(violations) == 1
    assert "core/rogue.py:2" in violations[0]
    assert "model completion" in violations[0]


def test_lint_detects_a_batched_model_call():
    lint = load_lint()
    violations = lint.scan_lines(
        "serving/rogue.py", ["    batches = model.complete_batch(reqs)"])
    assert len(violations) == 1


def test_lint_detects_a_direct_executor_call():
    lint = load_lint()
    lines = [
        "executor = registry.get(action.kind)",
        "outcome = executor.execute(code, tables)",
    ]
    violations = lint.scan_lines("core/rogue.py", lines)
    assert len(violations) == 1
    assert "executor call" in violations[0]


def test_lint_ignores_plan_and_cursor_execute():
    lint = load_lint()
    lines = [
        "result = plan.execute(tables)",
        "cursor.execute(statement)",
        "# executor.execute(code, tables) -- commented out",
    ]
    assert lint.scan_lines("cli.py", lines) == []


def test_allowed_paths_are_skipped(tmp_path):
    lint = load_lint()
    rogue = "def f(m, p):\n    return m.complete(p)\n"
    (tmp_path / "engine").mkdir()
    (tmp_path / "engine" / "driver.py").write_text(rogue)
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "agent.py").write_text(rogue)
    violations = lint.find_violations(root=tmp_path)
    assert len(violations) == 1
    assert violations[0].startswith("core/agent.py")


def test_lint_detects_an_engine_stepped_outside_the_tick_loop():
    lint = load_lint()
    lines = [
        "while engine.state != 'done':",
        "    effect = engine.next_effect()",
        "    # engine.next_effect() -- commented out",
    ]
    for relpath in ("core/agent.py", "engine/core.py", "aio/driver.py"):
        violations = lint.scan_pump_lines(relpath, lines)
        assert len(violations) == 1
        assert f"{relpath}:2" in violations[0]
        assert "tick loop" in violations[0]
    assert lint.scan_pump_lines("engine/driver.py", lines) == []


def test_pump_rule_reaches_the_allowed_homes(tmp_path):
    lint = load_lint()
    pump = "def step(engine):\n    return engine.next_effect()\n"
    for relpath in ("engine/core.py", "engine/driver.py"):
        (tmp_path / relpath).parent.mkdir(exist_ok=True)
        (tmp_path / relpath).write_text(pump)
    violations = lint.find_violations(root=tmp_path)
    assert len(violations) == 1
    assert violations[0].startswith("engine/core.py:2")


def test_lint_runs_standalone():
    import subprocess

    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True,
        env={"PYTHONPATH": str(TOOL.parent.parent / "src"),
             "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    assert "sans-IO effect boundary" in result.stdout

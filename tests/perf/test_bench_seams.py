"""The module-level names the end-to-end benchmark rebinds stay seams.

``e2ebench/`` times three layers that have no injection point by
rebinding a module attribute, and resets the process caches between its
set-ups and passes.  A refactor that stops calling through one of these
names would silently drop that layer from the per-layer numbers; these
tests fail first.
"""

import pytest

import repro.core.prompt
import repro.engine.core
import repro.executors.sql_executor
from repro.core.prompt import PromptBuilder, Transcript
from repro.engine.core import ChainEngine
from repro.engine.effects import ModelResult
from repro.executors.sql_executor import SQLExecutor
from repro.llm.base import Completion
from repro.perf.encode_cache import DEFAULT_ENCODE_CACHE
from repro.sqlengine.plancache import (
    DEFAULT_PLAN_CACHE,
    DEFAULT_REWRITE_CACHE,
)
from repro.table.io import encode_head_row


@pytest.fixture()
def count_calls(monkeypatch):
    """Rebind ``module.name`` to a counting wrapper, as e2ebench does."""
    def rebind(module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return rebind


def test_prompt_build_encodes_through_the_module_name(count_calls,
                                                      tiny_frame):
    calls = count_calls(repro.core.prompt, "encode_head_row_cached")
    PromptBuilder().build(Transcript(tiny_frame, "how many rows?"))
    assert len(calls) == 1


def test_chain_step_parses_through_the_module_name(count_calls, tiny_frame):
    calls = count_calls(repro.engine.core, "parse_action")
    engine = ChainEngine(Transcript(tiny_frame, "how many rows?"),
                         prompt_builder=PromptBuilder())
    engine.next_effect()
    engine.send(ModelResult((Completion("ReAcTable: Answer: ```3```."),)))
    assert len(calls) == 1
    assert engine.result.answer == ["3"]


def test_native_sql_executes_through_the_module_name(count_calls,
                                                     tiny_frame):
    calls = count_calls(repro.executors.sql_executor, "execute_sql")
    outcome = SQLExecutor("native").execute("SELECT a FROM T0",
                                            [tiny_frame])
    assert len(calls) == 1
    assert outcome.table.to_rows() == [(1,), (2,), (3,)]


def test_clearing_the_process_caches_leaves_no_entries(tiny_frame):
    text = encode_head_row(tiny_frame)
    DEFAULT_ENCODE_CACHE.encode(tiny_frame, max_rows=None)
    DEFAULT_ENCODE_CACHE.decode(text, name="T0")
    SQLExecutor("native").execute("SELECT a FROM T0", [tiny_frame])
    for cache in (DEFAULT_ENCODE_CACHE, DEFAULT_PLAN_CACHE,
                  DEFAULT_REWRITE_CACHE):
        cache.clear()
    assert len(DEFAULT_ENCODE_CACHE) == 0
    assert len(DEFAULT_PLAN_CACHE) == 0
    assert len(DEFAULT_REWRITE_CACHE) == 0

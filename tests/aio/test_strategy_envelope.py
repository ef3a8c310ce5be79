"""The strategy's exception envelope on both servers' greedy path.

``cot`` and ``commented-code`` absorb every executor exception
(``handler_catch == (Exception,)``), not only ``ExecutionError``.  The
pool's greedy runner honours that through ``ReActTableAgent.run``; the
async server drives the same runner's engine itself, and must pass the
same envelope.
"""

from repro.executors.base import CodeExecutor
from repro.executors.registry import ExecutorRegistry
from repro.serving import AgentSpec
from tests.aio.test_parity import (
    assert_bit_identical,
    async_responses,
    pool_responses,
)


class BrokenExecutor(CodeExecutor):
    """Raises an exception outside ``ExecutionError`` on every call."""

    def __init__(self, language):
        self.language = language

    def execute(self, code, tables):
        raise RuntimeError(f"{self.language} backend crashed")


class BrokenSpec(AgentSpec):
    def _registry(self):
        return ExecutorRegistry(BrokenExecutor(language)
                                for language in ("sql", "python"))


class TestGreedyEnvelope:
    def test_cot_absorbs_crashing_executors_on_both_servers(
            self, wikitq_small):
        spec = BrokenSpec(bank=wikitq_small.bank, strategy="cot")
        subset = type(wikitq_small)(
            name=wikitq_small.name, examples=wikitq_small.examples[:4],
            bank=wikitq_small.bank)
        expected = pool_responses(spec, subset, workers=2)
        actual = async_responses(spec, subset, max_inflight=2)
        assert {r.outcome for r in expected} == {"ok"}
        assert_bit_identical(expected, actual)

"""Cross-cutting guarantees: span token parity, determinism.

Acceptance criteria of the telemetry PR: per-request span token totals
equal :func:`repro.telemetry.estimate_tokens` over every prompt the model
saw and every completion it returned, and enabling tracing changes no
answer.
"""

from repro.core import ReActTableAgent
from repro.llm import LanguageModel, SimulatedTQAModel, get_profile
from repro.llm.base import ScriptedModel
from repro.serving import AgentSpec, AnswerCache, WorkerPool
from repro.telemetry import cost_summary, estimate_tokens
from repro.tracing import ChainTracer

SCRIPT = [
    "ReAcTable: SQL: ```SELECT a FROM T0;```.",
    "ReAcTable: Answer: ```1|2|3```.",
]


class SeenModel(LanguageModel):
    """Keeps every prompt sent to ``inner`` and every completion text."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.prompts = []
        self.texts = []

    def complete(self, prompt, *, temperature=0.0, n=1):
        completions = self.inner.complete(prompt, temperature=temperature,
                                          n=n)
        self.prompts.append(prompt)
        self.texts.extend(c.text for c in completions)
        return completions


def tokens(texts) -> int:
    return sum(estimate_tokens(text) for text in texts)


class TestTokenParity:
    def test_root_span_totals_match_what_the_model_saw(self, tiny_frame):
        tracer = ChainTracer()
        model = ScriptedModel(SCRIPT)
        agent = ReActTableAgent(model, tracer=tracer)
        agent.run(tiny_frame, "list a")

        root = next(s for s in tracer.telemetry.spans
                    if s.parent_id is None)
        assert root.kind == "agent_run"
        assert root.prompt_tokens == tokens(model.prompts)
        assert root.completion_tokens == tokens(SCRIPT)
        assert root.model_calls == len(model.prompts) == 2

    def test_cost_summary_matches_what_the_models_saw(self, wikitq_small):
        tracer = ChainTracer()
        totals = {"prompt": 0, "completion": 0, "calls": 0}
        for i, example in enumerate(wikitq_small.examples[:4]):
            model = SeenModel(SimulatedTQAModel(
                wikitq_small.bank, get_profile("codex-sim"), seed=i))
            agent = ReActTableAgent(model, tracer=tracer)
            agent.run(example.table, example.question)
            totals["prompt"] += tokens(model.prompts)
            totals["completion"] += tokens(model.texts)
            totals["calls"] += len(model.prompts)

        summary = cost_summary(tracer.telemetry.spans)
        assert summary["prompt_tokens"] == totals["prompt"]
        assert summary["completion_tokens"] == totals["completion"]
        assert summary["model_calls"] == totals["calls"]
        assert len(summary["traces"]) == 4


class TestTracingChangesNoAnswer:
    def test_agent_answers_identical_with_and_without_tracer(
            self, wikitq_small):
        for i, example in enumerate(wikitq_small.examples[:6]):
            plain = ReActTableAgent(SimulatedTQAModel(
                wikitq_small.bank, get_profile("codex-sim"), seed=i))
            traced = ReActTableAgent(
                SimulatedTQAModel(wikitq_small.bank,
                                  get_profile("codex-sim"), seed=i),
                tracer=ChainTracer())
            a = plain.run(example.table, example.question)
            b = traced.run(example.table, example.question)
            assert a.answer == b.answer
            assert a.iterations == b.iterations
            assert a.forced == b.forced

    def test_pool_answers_identical_with_and_without_tracer(
            self, wikitq_small):
        spec = AgentSpec(bank=wikitq_small.bank)
        examples = wikitq_small.examples[:6]

        def serve(tracer):
            with WorkerPool(spec, workers=3, cache=AnswerCache(),
                            tracer=tracer) as pool:
                slots = [pool.submit(ex.table, ex.question, seed=i,
                                     uid=f"q{i}")
                         for i, ex in enumerate(examples)]
                return [slot.result(timeout=30).answer for slot in slots]

        assert serve(None) == serve(ChainTracer())

"""Cost accounting: token estimation and per-trace cost roll-ups.

The repo has no network tokenizer, so cost is measured with the same
deterministic estimate everywhere: :func:`estimate_tokens` (four
characters per token, minimum one).  The effect driver charges it to
every ``model_call`` span, once per prompt and once per completion, so
``repro trace summary`` and :func:`cost_summary` report each request's
calls and tokens from the spans alone.

Roll-ups work on *closed* spans: because a span folds its token totals
into its parent when it closes (:class:`repro.telemetry.spans.Span`),
the root span of each request already carries the whole subtree's cost —
so summing roots is summing the trace.
"""

from __future__ import annotations

from repro.telemetry.spans import Span

__all__ = ["estimate_tokens", "cost_summary", "per_trace_cost"]


def estimate_tokens(text: str) -> int:
    """Deterministic token estimate: ~4 characters per token, min 1."""
    return max(1, len(text) // 4)


def per_trace_cost(spans: list[Span]) -> dict[int, dict]:
    """``trace_id -> cost`` over the root spans of each trace.

    Each entry reports prompt/completion token estimates, their sum, and
    the number of model calls charged anywhere in that request's tree.
    """
    costs: dict[int, dict] = {}
    for span in spans:
        if span.parent_id is not None:
            continue
        entry = costs.setdefault(span.trace_id, {
            "prompt_tokens": 0,
            "completion_tokens": 0,
            "total_tokens": 0,
            "model_calls": 0,
        })
        entry["prompt_tokens"] += span.prompt_tokens
        entry["completion_tokens"] += span.completion_tokens
        entry["model_calls"] += span.model_calls
        entry["total_tokens"] = (entry["prompt_tokens"]
                                 + entry["completion_tokens"])
    return costs


def cost_summary(spans: list[Span]) -> dict:
    """Whole-trace cost: totals plus the per-trace breakdown."""
    traces = per_trace_cost(spans)
    return {
        "prompt_tokens": sum(t["prompt_tokens"] for t in traces.values()),
        "completion_tokens": sum(
            t["completion_tokens"] for t in traces.values()),
        "total_tokens": sum(t["total_tokens"] for t in traces.values()),
        "model_calls": sum(t["model_calls"] for t in traces.values()),
        "traces": {str(trace_id): entry
                   for trace_id, entry in sorted(traces.items())},
    }

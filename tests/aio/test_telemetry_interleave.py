"""Telemetry under coroutine interleaving: one clean span tree per request.

The thread pool got context isolation for free (one thread, one
contextvars context).  On the async server dozens of request coroutines
interleave on one event loop — contextvars give each *task* its own
context, so span trees must still come out per-request, correctly
nested, with model cost folded up to each request root and never across
requests.
"""

import asyncio

from repro.serving import AgentSpec, TQARequest, WorkerPool
from repro.aio import AsyncServer
from repro.telemetry import Telemetry

N_REQUESTS = 12


def serve(bench, telemetry, *, voting="none", samples=1, count=N_REQUESTS,
          max_inflight=6):
    spec = AgentSpec(bank=bench.bank, voting=voting, samples=samples)

    async def scenario():
        async with AsyncServer(spec, max_inflight=max_inflight,
                               telemetry=telemetry) as server:
            tasks = [asyncio.create_task(server.answer(TQARequest(
                table=ex.table, question=ex.question, seed=1,
                uid=ex.uid))) for ex in bench.examples[:count]]
            return await asyncio.gather(*tasks)

    return asyncio.run(scenario())


def trees(telemetry):
    by_trace = {}
    for s in telemetry.spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    return by_trace


class TestInterleavedSpanTrees:
    def test_one_well_formed_tree_per_request(self, wikitq_small):
        telemetry = Telemetry()
        responses = serve(wikitq_small, telemetry)
        assert all(r.outcome == "ok" for r in responses)

        by_trace = trees(telemetry)
        assert len(by_trace) == N_REQUESTS
        for trace_id, spans in by_trace.items():
            by_id = {s.span_id: s for s in spans}
            roots = [s for s in spans if s.parent_id is None]
            assert [r.kind for r in roots] == ["request"]
            # Every non-root span hangs off a span of the same trace —
            # interleaving never grafted it onto another request's tree.
            for s in spans:
                if s.parent_id is not None:
                    assert s.parent_id in by_id
            kinds = {s.kind for s in spans}
            assert {"request", "attempt", "agent_run",
                    "model_call"} <= kinds
            # Parentage is the expected chain.
            attempt = next(s for s in spans if s.kind == "attempt")
            assert by_id[attempt.parent_id].kind == "request"
            agent_run = next(s for s in spans if s.kind == "agent_run")
            assert by_id[agent_run.parent_id].kind == "attempt"

    def test_model_cost_folds_to_each_request_root(self, wikitq_small):
        telemetry = Telemetry()
        serve(wikitq_small, telemetry)
        for trace_id, spans in trees(telemetry).items():
            root = next(s for s in spans if s.parent_id is None)
            calls = [s for s in spans if s.kind == "model_call"]
            assert calls
            # The root's fold-up equals the sum over its own leaves —
            # no other request's cost leaked in.
            assert root.model_calls == sum(s.model_calls for s in calls)
            assert root.prompt_tokens == sum(
                s.prompt_tokens for s in calls)
            assert root.completion_tokens == sum(
                s.completion_tokens for s in calls)
            assert root.prompt_tokens > 0

    def test_voted_requests_share_ticks_but_not_spans(self, wikitq_small):
        """s-vote requests batch their chains' ticks; each request still
        owns exactly one tree with a vote_run under its attempt."""
        telemetry = Telemetry()
        responses = serve(wikitq_small, telemetry, voting="s-vote",
                          samples=3, count=6)
        assert all(r.outcome == "ok" for r in responses)
        by_trace = trees(telemetry)
        assert len(by_trace) == 6
        for spans in by_trace.values():
            vote_runs = [s for s in spans if s.kind == "vote_run"]
            assert len(vote_runs) == 1
            assert vote_runs[0].attributes["n"] == 3

    def test_request_attributes_reach_the_root(self, wikitq_small):
        telemetry = Telemetry()
        responses = serve(wikitq_small, telemetry, count=4)
        for spans in trees(telemetry).values():
            root = next(s for s in spans if s.parent_id is None)
            assert root.attributes["outcome"] == "ok"
            assert root.attributes["attempts"] == 1
            assert root.status == "ok"
        assert responses


def span_shapes(telemetry):
    """Each request's span tree as nested ``(kind, children)`` tuples,
    children in opening order, keyed by the request's uid."""
    children = {}
    for s in sorted(telemetry.spans, key=lambda s: s.span_id):
        children.setdefault(s.parent_id, []).append(s)

    def shape(s):
        return (s.kind, tuple(shape(child)
                              for child in children.get(s.span_id, ())))

    return {root.attributes["uid"]: shape(root)
            for root in children[None]}


def kinds_below(tree, kind):
    """The kinds of every span under the first ``kind`` span of a tree."""
    found, stack = set(), [tree]
    while stack:
        node_kind, nodes = stack.pop()
        if node_kind == kind:
            below = list(nodes)
            while below:
                inner_kind, inner = below.pop()
                found.add(inner_kind)
                below.extend(inner)
            return found
        stack.extend(nodes)
    return None


class TestServerSpanTreeParity:
    def test_both_servers_open_the_same_chain_spans(self, wikitq_small):
        """One greedy request gets the same span tree on the pool and
        the async server: request → attempt → agent_run → iteration →
        model_call, with the SQL and Python stages under the iterations.
        A CoT chain opens its iteration span too."""
        examples = wikitq_small.examples[:16]

        def pool_shapes(spec):
            telemetry = Telemetry()
            with WorkerPool(spec, workers=1, telemetry=telemetry) as pool:
                for slot in [pool.submit(ex.table, ex.question, seed=1,
                                         uid=ex.uid) for ex in examples]:
                    slot.result(timeout=60)
            return span_shapes(telemetry)

        def async_shapes(spec):
            telemetry = Telemetry()

            async def scenario():
                async with AsyncServer(spec, max_inflight=4,
                                       telemetry=telemetry) as server:
                    await asyncio.gather(*(server.answer(TQARequest(
                        table=ex.table, question=ex.question, seed=1,
                        uid=ex.uid)) for ex in examples))

            asyncio.run(scenario())
            return span_shapes(telemetry)

        for strategy in ("react", "cot"):
            spec = AgentSpec(bank=wikitq_small.bank, strategy=strategy)
            pool, served = pool_shapes(spec), async_shapes(spec)
            assert served == pool, strategy
            stages = set()
            for tree in pool.values():
                request, (attempt,) = tree
                assert (request, attempt[0]) == ("request", "attempt")
                ((agent_run, iterations),) = attempt[1]
                assert agent_run == "agent_run"
                assert iterations and all(
                    kind == "iteration" for kind, _ in iterations)
                for _, below in iterations:
                    assert below[0][0] == "model_call"
                stages |= kinds_below(tree, "agent_run")
            assert {"sql_execute", "python_exec"} <= stages, strategy

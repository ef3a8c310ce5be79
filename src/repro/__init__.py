"""ReAcTable reproduction: ReAct-style agents for table question answering.

This package reproduces "ReAcTable: Enhancing ReAct for Table Question
Answering" (VLDB 2024) end to end, on top of from-scratch substrates: a
mini DataFrame, a native SQL engine (plus a SQLite backend), sandboxed
executors, and a calibrated simulated LLM.

Quickstart::

    from repro import (ReActTableAgent, SimulatedTQAModel,
                       generate_dataset)

    benchmark = generate_dataset("wikitq", size=100)
    model = SimulatedTQAModel(benchmark.bank)
    agent = ReActTableAgent(model)
    example = benchmark.examples[0]
    result = agent.run(example.table, example.question)
    print(example.question, "->", result.answer)
"""

from repro.core import (
    CodexCoTAgent,
    ExecutionBasedVoting,
    PromptBuilder,
    ReActTableAgent,
    SimpleMajorityVoting,
    TreeExplorationVoting,
    make_voter,
)
from repro.datasets import Benchmark, generate_dataset
from repro.engine import ChainEngine, EffectHandler
from repro.evalkit import EvalReport, evaluate_agent, evaluate_answer
from repro.executors import (
    ExecutorRegistry,
    PythonExecutor,
    SQLExecutor,
    default_registry,
    sql_only_registry,
)
from repro.llm import (
    CODEX_SIM,
    DAVINCI_SIM,
    TURBO_SIM,
    LanguageModel,
    SimulatedTQAModel,
    get_profile,
)
from repro.serving import (
    AgentSpec,
    AnswerCache,
    BatchEvaluator,
    RetryPolicy,
    ServingMetrics,
    TQARequest,
    TQAResponse,
    WorkerPool,
)
from repro.aio import AsyncBatchEvaluator, AsyncServer
from repro.table import DataFrame

__version__ = "1.0.0"

__all__ = [
    "DataFrame",
    "ReActTableAgent",
    "CodexCoTAgent",
    "PromptBuilder",
    "SimpleMajorityVoting",
    "TreeExplorationVoting",
    "ExecutionBasedVoting",
    "make_voter",
    "ChainEngine",
    "EffectHandler",
    "SQLExecutor",
    "PythonExecutor",
    "ExecutorRegistry",
    "default_registry",
    "sql_only_registry",
    "LanguageModel",
    "SimulatedTQAModel",
    "get_profile",
    "CODEX_SIM",
    "DAVINCI_SIM",
    "TURBO_SIM",
    "Benchmark",
    "generate_dataset",
    "EvalReport",
    "evaluate_agent",
    "evaluate_answer",
    "TQARequest",
    "TQAResponse",
    "AgentSpec",
    "AnswerCache",
    "RetryPolicy",
    "ServingMetrics",
    "WorkerPool",
    "BatchEvaluator",
    "AsyncServer",
    "AsyncBatchEvaluator",
    "__version__",
]

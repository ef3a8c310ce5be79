"""The strategy layer: every table-reasoning engine behind one registry.

A *strategy* names an engine factory, a prompt/few-shot recipe and an
answer-extraction contract (see :mod:`repro.strategies.base`).  Agents,
voters and both servers resolve engines exclusively through
:func:`get_strategy` — ``tools/lint_strategies.py`` pins the seam — so a
new reasoning approach plugs in by registering a strategy, with voting,
batching, reflexion and serving inherited for free.

Importing this package registers the four built-ins (``react``,
``cot``, ``chain-of-table``, ``commented-code``); see
:mod:`repro.strategies.builtin`.  Cross-strategy voting lives in
:class:`HeterogeneousEnsemble` and is spelled ``ensemble:a+b+c`` on the
CLI.  See ``docs/architecture.md`` §15.
"""

from repro.strategies import builtin as _builtin  # registers built-ins
from repro.strategies.agent import StrategyAgent
from repro.strategies.base import (
    EngineRequest,
    Strategy,
    default_extract_answer,
)
from repro.strategies.ensemble import HeterogeneousEnsemble
from repro.strategies.registry import (
    ENSEMBLE_PREFIX,
    get_strategy,
    is_ensemble_spec,
    parse_ensemble_spec,
    register_strategy,
    strategy_names,
)

BUILTIN_STRATEGIES = _builtin.BUILTIN_STRATEGIES

__all__ = [
    "ENSEMBLE_PREFIX",
    "BUILTIN_STRATEGIES",
    "EngineRequest",
    "Strategy",
    "StrategyAgent",
    "HeterogeneousEnsemble",
    "default_extract_answer",
    "get_strategy",
    "is_ensemble_spec",
    "parse_ensemble_spec",
    "register_strategy",
    "strategy_names",
]

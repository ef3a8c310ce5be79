"""The process-wide strategy registry and the ensemble-spec grammar.

All engine resolution funnels through :func:`get_strategy` — the agent,
the voters, both servers and the CLI name strategies instead of
engine classes (``tools/lint_strategies.py`` enforces this the way
``lint_effects.py`` pins the I/O seam).

Ensemble specs — ``ensemble:react+cot+chain-of-table`` — are the CLI/env
syntax for a :class:`~repro.strategies.ensemble.HeterogeneousEnsemble`;
:func:`parse_ensemble_spec` owns the grammar and its error surface.
"""

from __future__ import annotations

from repro.errors import (
    DuplicateStrategyError,
    EnsembleSpecError,
    UnknownStrategyError,
)
from repro.strategies.base import Strategy

__all__ = [
    "ENSEMBLE_PREFIX",
    "register_strategy",
    "get_strategy",
    "strategy_names",
    "is_ensemble_spec",
    "parse_ensemble_spec",
]

ENSEMBLE_PREFIX = "ensemble:"

_REGISTRY: dict[str, Strategy] = {}


def register_strategy(strategy: Strategy, *, replace: bool = False) -> None:
    """Register ``strategy`` under its name.

    Re-registering a taken name raises
    :class:`~repro.errors.DuplicateStrategyError` unless ``replace=True``
    (the seam tests and downstream experiments use to swap a variant in).
    """
    if not replace and strategy.name in _REGISTRY:
        raise DuplicateStrategyError(
            f"strategy {strategy.name!r} is already registered "
            f"(pass replace=True to override)")
    _REGISTRY[strategy.name] = strategy


def _ensure_builtins() -> None:
    # Importing the module registers the built-ins; a no-op afterwards.
    # Lazy so that ``repro.core`` → registry → builtin → ``repro.core``
    # never forms an import-time cycle.
    import repro.strategies.builtin  # noqa: F401


def get_strategy(name: str) -> Strategy:
    """Resolve a strategy by name; unknown names list what exists."""
    if name not in _REGISTRY:
        _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r} "
            f"(known: {', '.join(strategy_names())})") from None


def strategy_names() -> tuple[str, ...]:
    """All registered strategy names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def is_ensemble_spec(spec: str) -> bool:
    """Whether ``spec`` uses the ``ensemble:a+b+c`` syntax."""
    return spec.startswith(ENSEMBLE_PREFIX)


def parse_ensemble_spec(spec: str) -> tuple[str, ...]:
    """``"ensemble:a+b+c"`` → ``("a", "b", "c")``, all validated.

    Raises :class:`~repro.errors.EnsembleSpecError` for a malformed spec
    (missing prefix, empty members, fewer than two members) and
    :class:`~repro.errors.UnknownStrategyError` for a member that does
    not resolve.
    """
    if not is_ensemble_spec(spec):
        raise EnsembleSpecError(
            f"ensemble spec must start with {ENSEMBLE_PREFIX!r}: {spec!r}")
    body = spec[len(ENSEMBLE_PREFIX):]
    members = tuple(part.strip() for part in body.split("+"))
    if any(not member for member in members):
        raise EnsembleSpecError(
            f"ensemble spec has an empty member: {spec!r}")
    if len(members) < 2:
        raise EnsembleSpecError(
            f"an ensemble needs at least two strategies: {spec!r}")
    for member in members:
        get_strategy(member)   # raises UnknownStrategyError
    return members

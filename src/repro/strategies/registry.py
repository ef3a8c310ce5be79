"""The process-wide strategy registry.

All engine resolution funnels through :func:`get_strategy` — the agent,
the voters, both servers and the CLI name strategies instead of
engine classes (``tools/lint_strategies.py`` enforces this the way
``lint_effects.py`` pins the I/O seam).
"""

from __future__ import annotations

from repro.errors import DuplicateStrategyError, UnknownStrategyError
from repro.strategies.base import Strategy

__all__ = ["register_strategy", "get_strategy", "strategy_names"]

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


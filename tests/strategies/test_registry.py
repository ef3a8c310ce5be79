"""Registry error paths and the strategy contract surface.

The registry is the single engine-resolution seam (see
``docs/architecture.md`` §15): every failure mode a caller can hit —
unknown names, duplicate registration — must raise a typed
:class:`~repro.errors.StrategyError` subclass with a message that says
what exists, because the CLI turns these directly into user-facing
diagnostics.
"""

import pytest

from repro.errors import (
    DuplicateStrategyError,
    ExecutionError,
    StrategyError,
    UnknownStrategyError,
)
from repro.strategies import (
    Strategy,
    get_strategy,
    register_strategy,
    strategy_names,
)

BUILTINS = ("react", "cot", "chain-of-table", "commented-code")


class TestGetStrategy:
    def test_builtins_resolve_in_registration_order(self):
        assert strategy_names()[:4] == BUILTINS

    def test_unknown_name_lists_known_strategies(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_strategy("no-such-strategy")
        message = str(excinfo.value)
        assert "no-such-strategy" in message
        for name in BUILTINS:
            assert name in message

    def test_unknown_name_is_a_strategy_error(self):
        # The CLI catches the base class; the hierarchy must hold.
        with pytest.raises(StrategyError):
            get_strategy("nope")

    def test_react_contract(self):
        react = get_strategy("react")
        assert react.supports_branching
        assert react.handler_catch == (ExecutionError,)

    def test_cot_family_tolerates_any_block_failure(self):
        for name in ("cot", "commented-code"):
            strategy = get_strategy(name)
            assert not strategy.supports_branching
            assert strategy.handler_catch == (Exception,)

    def test_chain_of_table_supports_branching(self):
        assert get_strategy("chain-of-table").supports_branching


class TestRegisterStrategy:
    def _variant(self, name: str) -> Strategy:
        return Strategy(name=name, description="test variant",
                        build_engine=lambda req: None)

    def test_duplicate_registration_raises(self):
        with pytest.raises(DuplicateStrategyError) as excinfo:
            register_strategy(self._variant("react"))
        assert "react" in str(excinfo.value)
        assert "replace=True" in str(excinfo.value)

    def test_duplicate_is_a_strategy_error(self):
        with pytest.raises(StrategyError):
            register_strategy(self._variant("react"))

    def test_replace_swaps_a_variant_in(self):
        original = get_strategy("react")
        try:
            register_strategy(self._variant("react"), replace=True)
            assert get_strategy("react").description == "test variant"
        finally:
            register_strategy(original, replace=True)
        assert get_strategy("react") is original

    def test_new_name_registers_and_resolves(self):
        register_strategy(self._variant("test-only"), replace=True)
        try:
            assert "test-only" in strategy_names()
            assert get_strategy("test-only").name == "test-only"
        finally:
            # The registry is process-global: drop the test entry.
            from repro.strategies.registry import _REGISTRY
            _REGISTRY.pop("test-only", None)


"""Tests for the scripted replay model."""

import pytest

from repro.llm import ScriptedModel


class TestScriptedModel:
    def test_replays_in_order(self):
        model = ScriptedModel(["a", "b"])
        assert model.complete("p1")[0].text == "a"
        assert model.complete("p2")[0].text == "b"

    def test_records_prompts(self):
        model = ScriptedModel(["a"])
        model.complete("the prompt")
        assert model.prompts == ["the prompt"]

    def test_exhaustion_raises(self):
        model = ScriptedModel(["a"])
        model.complete("p")
        with pytest.raises(IndexError):
            model.complete("p")

    def test_logprobs(self):
        model = ScriptedModel(["a"], logprobs=[-1.5])
        assert model.complete("p")[0].logprob == -1.5

    def test_n_consumes_multiple(self):
        model = ScriptedModel(["a", "b", "c"])
        batch = model.complete("p", n=3)
        assert [c.text for c in batch] == ["a", "b", "c"]


"""Language-model layer: protocol, profiles and the simulated TQA model."""

from repro.llm.api import CallableModel, RetryingModel
from repro.llm.base import Completion, LanguageModel, ScriptedModel
from repro.llm.profiles import (
    CODEX_SIM,
    DAVINCI_SIM,
    PROFILES,
    TURBO_SIM,
    ModelProfile,
    get_profile,
)
from repro.llm.simulated import SimulatedTQAModel

__all__ = [
    "Completion",
    "LanguageModel",
    "ScriptedModel",
    "SimulatedTQAModel",
    "ModelProfile",
    "get_profile",
    "PROFILES",
    "CODEX_SIM",
    "DAVINCI_SIM",
    "TURBO_SIM",
    "CallableModel",
    "RetryingModel",
]

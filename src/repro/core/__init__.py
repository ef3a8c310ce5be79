"""The ReAcTable framework: prompting, the agent loop, baselines, voting.

Quickstart::

    from repro.core import ReActTableAgent
    from repro.llm import SimulatedTQAModel
    from repro.datasets import generate_dataset

    benchmark = generate_dataset("wikitq", size=50)
    model = SimulatedTQAModel(benchmark.bank)
    agent = ReActTableAgent(model)
    example = benchmark.examples[0]
    result = agent.run(example.table, example.question)
"""

from repro.core.actions import Action, ActionKind, format_action, parse_action
from repro.core.agent import AgentResult, ReActTableAgent
from repro.core.autovote import (
    AutoVotingAgent,
    VoteSelection,
    select_voting_method,
)
from repro.core.fewshot import (
    FewShotSelector,
    question_similarity,
    render_demonstration,
)
from repro.core.prompt import (
    DEFAULT_FEW_SHOT,
    ParsedPrompt,
    PromptBuilder,
    Transcript,
    TranscriptStep,
    build_cot_prompt,
    parse_prompt,
)
from repro.core.voting import (
    ExecutionBasedVoting,
    SimpleMajorityVoting,
    TreeExplorationVoting,
    VotingResult,
    get_majority,
    make_voter,
)

__all__ = [
    "Action",
    "ActionKind",
    "parse_action",
    "format_action",
    "PromptBuilder",
    "Transcript",
    "TranscriptStep",
    "ParsedPrompt",
    "parse_prompt",
    "build_cot_prompt",
    "DEFAULT_FEW_SHOT",
    "ReActTableAgent",
    "AgentResult",
    "FewShotSelector",
    "question_similarity",
    "render_demonstration",
    "AutoVotingAgent",
    "VoteSelection",
    "select_voting_method",
    "SimpleMajorityVoting",
    "TreeExplorationVoting",
    "ExecutionBasedVoting",
    "VotingResult",
    "get_majority",
    "make_voter",
]

"""Calibration harness for the simulated-model parameters.

Measures the headline configurations against the paper's numbers for a
given parameter override set.  Used offline to pick the constants baked
into ``repro/llm/profiles.py``; re-run after changing the error model.

Usage::

    python tools/calibrate.py --size 800 --dataset wikitq \
        --set question_noise=1.6 --set skill=2.45
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.core import ReActTableAgent, SimpleMajorityVoting
from repro.datasets import generate_dataset
from repro.evalkit import evaluate_answer
from repro.llm import SimulatedTQAModel, get_profile


def measure(dataset: str, size: int, profile, seed: int = 1) -> dict:
    benchmark = generate_dataset(dataset, size=size, seed=11)
    model = SimulatedTQAModel(benchmark.bank, profile, seed=seed)

    def accuracy(runner) -> float:
        hits = 0
        for example in benchmark.examples:
            result = runner.run(example.table, example.question)
            if evaluate_answer(dataset, result.answer, example.gold_answer):
                hits += 1
        return hits / len(benchmark.examples)

    return {
        "greedy": accuracy(ReActTableAgent(model)),
        "s-vote": accuracy(SimpleMajorityVoting(model, n=5)),
        "cot": accuracy(ReActTableAgent(model, strategy="cot")),
        "cot+s-vote": accuracy(SimpleMajorityVoting(model, n=5,
                                                    strategy="cot")),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="wikitq")
    parser.add_argument("--size", type=int, default=600)
    parser.add_argument("--profile", default="codex-sim")
    parser.add_argument("--set", action="append", default=[],
                        help="profile override, e.g. skill=2.4")
    args = parser.parse_args()

    profile = get_profile(args.profile)
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        overrides[key] = float(value)
    if overrides:
        profile = dataclasses.replace(profile, **overrides)

    results = measure(args.dataset, args.size, profile)
    targets = {
        "wikitq": {"greedy": 0.658, "s-vote": 0.680,
                   "cot": 0.494, "cot+s-vote": 0.477},
        "tabfact": {"greedy": 0.831, "s-vote": 0.861,
                    "cot": 0.711, "cot+s-vote": 0.723},
    }.get(args.dataset, {})
    for key, value in results.items():
        target = targets.get(key)
        suffix = f"  (paper {target:.3f})" if target else ""
        print(f"{key:>12}: {value:.3f}{suffix}")


if __name__ == "__main__":
    main()

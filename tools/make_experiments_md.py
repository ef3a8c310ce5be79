"""Assemble EXPERIMENTS.md from the rendered tables under results/.

Run the benchmark suite first (it writes one text file per experiment),
then::

    python -m pytest benchmarks/ --benchmark-only
    python tools/make_experiments_md.py
"""

from __future__ import annotations

import os
from pathlib import Path

ORDER = [
    ("table01_wikitq", "Table 1 — WikiTQ accuracy"),
    ("table02_tabfact", "Table 2 — TabFact accuracy"),
    ("table03_fetaqa", "Table 3 — FeTaQA ROUGE"),
    ("table04_cot_wikitq", "Table 4 — Codex-CoT ablation (WikiTQ)"),
    ("table05_cot_tabfact", "Table 5 — Codex-CoT ablation (TabFact)"),
    ("fig04_iterations", "Figure 4 — iteration distribution"),
    ("table06_iteration_breakdown",
     "Table 6 — accuracy by iteration count"),
    ("table07_iteration_limit", "Table 7 — iteration limits"),
    ("table08_sql_only_wikitq", "Table 8 — SQL-only ablation (WikiTQ)"),
    ("table09_sql_only_tabfact",
     "Table 9 — SQL-only ablation (TabFact)"),
    ("table10_models_wikitq", "Table 10 — model comparison (WikiTQ)"),
    ("table11_models_tabfact", "Table 11 — model comparison (TabFact)"),
    ("ablation_exception_handling",
     "Extra ablation — exception handlers"),
    ("ablation_sql_backend", "Extra ablation — SQL backend parity"),
    ("ablation_vote_samples", "Extra ablation — s-vote sample count"),
    ("ablation_vote_cost", "Extra ablation — voting cost accounting"),
    ("ext_fewshot_selection",
     "Extension — few-shot demonstration selection (§5.4)"),
    ("ext_autovote",
     "Extension — automatic voting-method selection (§5.4)"),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure from the evaluation section of *ReAcTable:
Enhancing ReAct for Table Question Answering* (VLDB 2024), regenerated by
the benchmark suite over synthetic workloads (scale: {scale} questions per
dataset, seed 11).  Absolute numbers are not expected to match the paper —
the workload is synthetic and the LLM is simulated — but the *shapes* are
asserted by the benchmarks: orderings between configurations, ablation
directions, and crossover locations.

Regenerate with::

    python -m pytest benchmarks/ --benchmark-only
    python tools/make_experiments_md.py

Headline shapes, as the tables below measure them:

* intermediate tables carry the framework: ReAcTable beats Codex-CoT on
  both datasets, by 20.7 points on WikiTQ (65.5% vs 44.8%) and by 9.0
  points on TabFact (82.8% vs 73.8%) (Tables 4/5);
* s-vote improves ReAcTable but *not* Codex-CoT on WikiTQ (Table 4);
* every question resolves within five iterations; >70% within two
  (Figure 4).  Accuracy is highest at one iteration (73.5%, 34
  questions), 70.1% at two and 72.0% at three, and lower at four and
  five, which few questions reach (Table 6); the paper peaks at two;
* an iteration cap of 1 collapses accuracy towards the CoT baseline and
  a cap of 2 recovers most of it (Table 7);
* removing the Python executor costs accuracy on both datasets, more on
  TabFact (Tables 8/9);
* greedy accuracy orders codex-sim > davinci-sim > turbo-sim on WikiTQ
  (65.5% / 60.5% / 53.2%), but on TabFact davinci-sim leads codex-sim
  (87.8% vs 82.8%), where the paper has codex ahead (Tables 10/11);
* e-vote is N.A. without log-probabilities (Tables 10/11);
* davinci-sim's best configuration is t-vote on WikiTQ (68.2%) and
  greedy or s-vote on TabFact (87.8% each); the paper has e-vote best
  on both (Tables 10/11);
* s-vote does not help turbo-sim on WikiTQ (53.2% to 49.8%) but does on
  TabFact (75.8% to 77.2%); the paper has it slightly lower on both
  (Tables 10/11).

"""


def main() -> None:
    results = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    scale = os.environ.get("REPRO_SCALE", "400")
    sections = [HEADER.format(scale=scale)]
    for name, title in ORDER:
        path = results / f"{name}.txt"
        if not path.exists():
            sections.append(f"## {title}\n\n*(not yet generated — run "
                            f"the benchmark suite)*\n")
            continue
        body = path.read_text(encoding="utf-8").rstrip()
        sections.append(f"## {title}\n\n```\n{body}\n```\n")
    Path("EXPERIMENTS.md").write_text("\n".join(sections),
                                      encoding="utf-8")
    print(f"wrote EXPERIMENTS.md ({len(ORDER)} experiments)")


if __name__ == "__main__":
    main()

"""Regenerate expected.json, the reference answers for the seeded inputs.

    python3 perfbench/make_expected.py

For every workload and every seed below SEEDS, builds the plan and runs
each of its reference deciders (reference.py) once.  A run whose seed is
in the file reads its answers from there; any other seed computes them the
same way after its timed part.  Regenerate after changing plans.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402

SEEDS = 32


def expected_for(workload: str, seed: int) -> dict:
    plan = plans.build(workload, seed, "full", HERE, lambda: None)
    return {key: compute() for key, compute in sorted(plan.refs.items())}


def search_claim_problems(answers: dict) -> list:
    """The planted claims of `search` for one seed must include one that
    holds memorylessly with a witness other than all-zero, and one that
    fails memorylessly while recall holds."""
    checks = [(answers[k], answers[k + ".recall"]) for k in answers
              if k.endswith(".check")]
    problems = []
    if not any(a["holds"] and set(a["witness"].values()) != {"0"} for a, _ in checks):
        problems.append("no memoryless claim with a non-zero lex-least witness")
    if not any(not a["holds"] and r["holds"] for a, r in checks):
        problems.append("no claim that recall wins and amnesic loses")
    return problems


def main() -> None:
    table = {w: {str(s): expected_for(w, s) for s in range(SEEDS)}
             for w in plans.WORKLOADS}
    for seed, answers in table["search"].items():
        for problem in search_claim_problems(answers):
            sys.exit(f"search seed {seed}: {problem}")
    (HERE / "expected.json").write_text(json.dumps(table, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order:

1. the metric tables in run.py agree with BENCHMARK.json;
2. the reference deciders agree with the closed forms and with each other
   on small inputs, and reproduce expected.json for seed 0 of search and
   beliefs; every stored seed of `search` has a memoryless claim with a
   non-zero lex-least witness and a claim that recall wins and amnesic
   loses;
3. every workload runs at the tiny scale, untraced and traced, exits 0,
   reports correct answers and emits every named metric with its unit;
   so does `defects`, untraced;
4. a wrong answer injected before judging makes the run exit 1 with
   "correct": false;
5. in a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits nonzero without printing a result.

Exits 0 when everything holds, else prints each problem and exits 1.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import make_expected  # noqa: E402
import plans  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

problems = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print("FAIL", what)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_tables() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "end_to_end in BENCHMARK.json differs from run.py")
    expect(layers == {k: v[:2] for k, v in run.LAYERS.items()},
           "per_layer in BENCHMARK.json differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(plans.WORKLOADS),
           "workloads in BENCHMARK.json differ from plans.py")


def check_references() -> None:
    rng = random.Random(7)
    for n in (5, 9):
        two = ref.chain(n, two_way=True)
        full = (1 << n) - 1
        holds, witness = ref.solve_amnesic(two, 1, full, 1 << (n - 1), True)
        expect(holds and witness == [1] * (n - 1) + [0],
               f"lex-least witness of the {n}-view chain is not the closed form")
        one = ref.chain(n, two_way=False)
        game = ref.solve_belief_game(one, 1, full, 1 << (n - 1))
        expect(game.holds and game.winning == {(k, 1 << k) for k in range(n - 1)},
               f"belief game on the {n}-state chain is not the closed form")
    for n in (1, 2, 3):
        expect(ref.saturate_keys(n, []) == ref.empty_theory_keys(n)
               and len(ref.empty_theory_keys(n)) == 6 ** n,
               f"empty theory over {n} views is not the closed form")
        expect(ref.canonical_shape(n, ref.empty_theory_keys(n)) == (list(range(n)), 3 ** n),
               f"canonical shape of the empty theory over {n} views")
    for _ in range(60):
        sys_ = ref.random_system(rng, rng.randint(2, 7), rng.randint(2, 4), 2, 2)
        v = len(sys_.views)
        a, b, c = (rng.randrange(1 << v) for _ in range(3))
        holds, _ = ref.solve_amnesic(sys_, a, b, c, False)
        game = ref.solve_belief_game(sys_, a, b, c)
        expect(not holds or game.holds, "a memoryless win that recall loses")
        # Brute force over every memoryless strategy.
        brute = False
        for code in range(2 ** v):
            choice = [code >> k & 1 for k in range(v)]
            brute = brute or ref.replay_strategy(sys_, choice, a, b, c)
        expect(holds == brute, "backtracking disagrees with enumeration")
    stored = json.loads((HERE / "expected.json").read_text())
    seeds = [str(s) for s in range(make_expected.SEEDS)]
    expect(sorted(stored.get("search", {}), key=int) == seeds,
           "expected.json does not hold every stored seed of search")
    for seed, answers in stored.get("search", {}).items():
        for problem in make_expected.search_claim_problems(answers):
            expect(False, f"expected.json, search seed {seed}: {problem}")
    for workload in ("search", "beliefs"):
        fresh = make_expected.expected_for(workload, 0)
        expect(stored.get(workload, {}).get("0") == fresh,
               f"expected.json does not match a fresh computation ({workload}, seed 0)")


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in plans.WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", trace, "--scale", "tiny")
            what = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{what} exits {done.returncode}: {done.stderr[-300:]}")
            try:
                last = json.loads(done.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                expect(False, f"{what} prints no result line")
                continue
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{what} result has keys {sorted(last)}")
            expect(last["correct"] is True and last["attempted"] >= 1, f"{what} is not correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == want, f"{what} emits {sorted(got)} instead of {sorted(want)}")
    done = bench("--workload", plans.DEFECTS, "--seed", "0", "--seconds", "1",
                 "--scale", "tiny")
    expect(done.returncode == 0 and '"correct": true' in done.stdout,
           f"{plans.DEFECTS} at the tiny scale exits {done.returncode}")
    done = bench("--workload", "theory", "--seed", "0", "--seconds", "1",
                 "--scale", "tiny", "--inject-wrong")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    expect(done.returncode == 1 and last["correct"] is False,
           "an injected wrong answer does not trip the correctness gate")


def check_bare() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = bench("--workload", "search", "--seed", "0", "--seconds", "1",
                     "--scale", "tiny", cwd=bare)
        expect(done.returncode != 0 and '"metrics"' not in done.stdout,
               "without the program the benchmark still prints a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_tables()
    check_references()
    check_runs()
    check_bare()
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

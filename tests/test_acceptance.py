"""Release gate: every criterion prints one verdict line and enforces its
runtime budget.  The checks duplicate unit-test ground deliberately; this
file is the single place that must stay green for a release."""

import random
import sys
import time
from contextlib import contextmanager

import pytest

from conftest import T0_GRID
from _oracles import holds_by_enumeration

from navlog.amnesic import check_atom_amnesic, navigability_table
from navlog.canonical import (CanonicalInstruction, canonical_instructions,
                              gstar_chain, valid_views, verify_chain,
                              verify_stage_conditions, verify_truth_lemma)
from navlog.cli import run_cli
from navlog.core import AmnesicStrategy, Universe, UntilObjective, check_strategy
from navlog.fixtures import T0_ETS, load_t0, load_t1
from navlog.fuzz import FuzzConfig, fuzz_soundness, generate_random_system
from navlog.proof import check_derived_lemmas, saturate
from navlog.recall import check_atom_recall
from navlog.syntax import Atom


def _line(text: str) -> None:
    print(text, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(f"criterion {number}: FAIL - {title}")
        raise
    _line(f"criterion {number}: PASS - {title} "
          f"({time.perf_counter() - started:.2f}s)")


def amnesic(system, start, corridor, target) -> bool:
    atom = Atom.over(system.universe, start, corridor, target)
    return check_atom_amnesic(system, atom, canonical_witness=False).holds


def recall(system, start, corridor, target) -> bool:
    atom = Atom.over(system.universe, start, corridor, target)
    return check_atom_recall(system, atom).holds


def constant_works(system, instruction, start, corridor, target) -> bool:
    u = system.universe
    objective = UntilObjective(u.mask(start), u.mask(corridor), u.mask(target))
    strategy = AmnesicStrategy.from_map(system, {v: instruction for v in u})
    return check_strategy(system, strategy, objective) is None


def test_criterion_1_pairwise_grid(tmp_path, capsys):
    with criterion(1, "six-class pairwise grid via the table subcommand"):
        started = time.perf_counter()
        path = tmp_path / "t0.ets"
        path.write_text(T0_ETS)
        assert run_cli(["table", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == list(T0_GRID)
        assert len(lines) == 7
        for line in lines[1:]:
            row, cells = line.split(maxsplit=1)
            assert " ".join(cells.split()) == T0_GRID[row], f"row {row}"
        assert time.perf_counter() - started < 5.0


def test_criterion_2_claim_suite_on_the_six_view_fixture():
    with criterion(2, "claim suite on the eight-state fixture"):
        started = time.perf_counter()
        t0 = load_t0()
        every = list(t0.universe.names)
        assert amnesic(t0, ["v1"], every, ["v3"])
        assert constant_works(t0, "1", ["v1"], every, ["v3"])
        assert not amnesic(t0, ["v3"], every, ["v1"])
        assert not recall(t0, ["v3"], every, ["v1"])
        assert recall(t0, ["v3"], every, ["v4"])
        assert not amnesic(t0, ["v3"], every, ["v4"])
        assert recall(t0, ["v1"], every, ["v2"])
        assert not amnesic(t0, ["v1"], every, ["v2"])
        detour = [v for v in every if v != "v5"]
        assert not amnesic(t0, ["v1"], detour, ["v3"])
        assert recall(t0, ["v1"], detour, ["v3"])
        assert amnesic(t0, ["v1"], every, ["v6"])
        assert amnesic(t0, ["v6"], every, ["v2"])
        assert not amnesic(t0, ["v1"], every, ["v2"])
        assert time.perf_counter() - started < 1.0


def test_criterion_3_claim_suite_on_the_five_state_fixture():
    with criterion(3, "claim suite on the five-state fixture"):
        t1 = load_t1()
        every = list(t1.universe.names)
        assert amnesic(t1, ["vb"], every, ["vd"])
        assert constant_works(t1, "1", ["vb"], every, ["vd"])
        assert amnesic(t1, ["vf"], every, ["vd"])
        assert constant_works(t1, "0", ["vf"], every, ["vd"])
        assert not amnesic(t1, ["vb", "vf"], every, ["vd"])
        shared = [s for s in t1.states if t1.observation(s) == "vc"]
        assert len(shared) == 2


def test_criterion_4_soundness_fuzz():
    with criterion(4, "soundness fuzz, 500 trials at default bounds"):
        report = fuzz_soundness(FuzzConfig())
        assert report.trials_run == 500
        assert report.violations == ()
        assert set(report.checks) == {
            "reflexivity", "augmentation", "transitivity", "trim_corridor",
            "zero_step", "empty_target", "corridor_agreement",
            "transitivity_splice", "amnesic_implies_recall",
            "recall_transitivity", "fixture_counterexample",
        }
        assert report.elapsed_s < 60.0


def test_criterion_5_derivability_matches_model_truth(fifty_theories):
    with criterion(5, "derivability vs model truth on 50 random theories"):
        started = time.perf_counter()
        for clo in fifty_theories:
            report = verify_truth_lemma(clo, exhaustive=True)
            assert report.ok, report.mismatches
            assert report.atoms_checked == (1 << len(clo.universe)) ** 3
        assert time.perf_counter() - started < 120.0


def test_criterion_6_derived_lemma_sweeps(fifty_theories):
    with criterion(6, "derived-lemma sweeps on the same 50 theories"):
        for clo in fifty_theories:
            report = check_derived_lemmas(clo)
            assert report.ok, report.violations


def test_criterion_7_chain_certification():
    # Unshaped random assumptions rarely admit an instruction with a populated
    # start set, so half the setups assume one hop-shaped atom and point the
    # strategy at it; the other half stay fully random.
    with criterion(7, "covering-chain certification on 20 random setups"):
        rng = random.Random(20260819 ^ 0xC7)
        stages_total = 0
        for setup in range(20):
            universe = Universe(tuple(f"v{k}" for k in range(rng.randint(2, 3))))
            side = 1 << len(universe)
            views = list(universe.names)
            if setup % 2 == 0:
                start = rng.sample(views, rng.randint(1, len(views) - 1))
                rest = [v for v in views if v not in start]
                target = rng.sample(rest, rng.randint(1, len(rest)))
                mid = [v for v in rest if v not in target and rng.random() < 0.5]
                clo = saturate(universe,
                               [Atom.over(universe, start, start + mid, target)])
                instrs = canonical_instructions(clo)
                hop = instrs[instrs.index(CanonicalInstruction(
                    universe.mask(start), universe.mask(mid),
                    universe.mask(target)))]
                strategy = {
                    v: hop if v in start or v in mid else rng.choice(instrs)
                    for v in valid_views(clo)
                }
                corridor = start + mid
                goal = target + [v for v in rest
                                 if v not in target and rng.random() < 0.3]
            else:
                assumptions = [
                    Atom.from_masks(universe, rng.randrange(side),
                                    rng.randrange(side), rng.randrange(side))
                    for _ in range(rng.randint(0, 3))
                ]
                clo = saturate(universe, assumptions)
                instrs = canonical_instructions(clo)
                names = valid_views(clo)
                strategy = {v: rng.choice(instrs) for v in names}
                corridor = [v for v in names if rng.random() < 0.6]
                goal = [v for v in names if rng.random() < 0.5]
            chain = gstar_chain(clo, strategy, corridor, goal)
            problems = (verify_chain(clo, chain)
                        + verify_stage_conditions(clo, strategy, chain))
            assert problems == [], problems
            stages_total += len(chain.stages)
        assert stages_total >= 10  # every shaped setup grows by a real stage


def test_criterion_8_search_agrees_with_enumeration():
    with criterion(8, "pruned search vs full enumeration on 200 systems"):
        config = FuzzConfig(seed=20260819, max_views=4, max_instructions=2)
        rng = random.Random(0xC8)
        compared = 0
        for trial in range(200):
            system = generate_random_system(config, trial)
            side = 1 << len(system.universe)
            for _ in range(30):
                atom = Atom.from_masks(system.universe, rng.randrange(side),
                                       rng.randrange(side), rng.randrange(side))
                fast = check_atom_amnesic(system, atom,
                                          canonical_witness=False).holds
                assert fast == holds_by_enumeration(system, atom), atom
                compared += 1
        assert compared == 6000

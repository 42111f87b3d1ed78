"""Perfect-recall navigability over knowledge states.

A belief is a view plus the set of states the agent cannot yet tell apart;
choosing an instruction is losing if any possible state halts.  The fixture
with two look-alike states (c and e share a view) pins the places where
recall genuinely beats forgetfulness.
"""

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_random_system

import navlog
from navlog import recall as recall_engine
from navlog.amnesic import check_atom_amnesic
from navlog.cli import run_cli
from navlog.core import EpistemicTransitionSystem
from navlog.fixtures import T0_ETS, T1_ETS
from navlog.fuzz import FuzzConfig, generate_random_system
from navlog.recall import (Belief, RecallDecision, check_atom_recall,
                           verify_recall_witness, winning_views)
from navlog.syntax import Atom, parse_system, render_system


def atom_over(system, start, corridor, target) -> Atom:
    return Atom.over(system.universe, start, corridor, target)


class TestBeliefs:
    """Initial beliefs and the one-step successor relation, seen through the
    public API: replaying an empty or one-entry witness reports exactly the
    beliefs play reaches next, in declaration order."""

    def test_initial_beliefs_cover_whole_classes(self, t1):
        atom = atom_over(t1, ["vb", "vc"], t1.universe.names, ["vd"])
        assert verify_recall_witness(t1, atom, {}) == [
            "witness has no instruction for Belief(vb, {b})",
            "witness has no instruction for Belief(vc, {c,e})"]
        witness = check_atom_recall(t1, atom).witness
        assert Belief("vc", frozenset({"c", "e"})) in witness

    def test_initial_beliefs_skip_empty_classes(self):
        system = EpistemicTransitionSystem.build(
            views=("v", "ghost"), instructions=("0",), states=[("s", "v")])
        atom = atom_over(system, ["ghost"], ["ghost"], ["v"])
        assert check_atom_recall(system, atom) == RecallDecision(True, {}, 0)
        assert verify_recall_witness(system, atom, {}) == []

    def test_successors_partition_by_view(self, t1):
        fog = Belief("vc", frozenset({"c", "e"}))
        atom = atom_over(t1, ["vc"], t1.universe.names, [])
        assert verify_recall_witness(t1, atom, {fog: "1"}) == [
            "witness has no instruction for Belief(vd, {d})",
            "witness has no instruction for Belief(vf, {f})"]
        assert verify_recall_witness(t1, atom, {fog: "0"}) == [
            "witness has no instruction for Belief(vb, {b})",
            "witness has no instruction for Belief(vd, {d})"]

    def test_possible_halt_is_a_dead_end(self, t1):
        parked = Belief("vd", frozenset({"d"}))
        atom = atom_over(t1, ["vd"], t1.universe.names, ["vb"])
        for instruction in t1.instructions:
            assert verify_recall_witness(t1, atom, {parked: instruction}) == [
                "witness instruction dead-ends at Belief(vd, {d})"]
        assert check_atom_recall(t1, atom) == RecallDecision(False, None, 1)


class TestT1Claims:
    def test_recall_separates_the_joint_start(self, t1):
        atom = atom_over(t1, ["vb", "vf"], t1.universe.names, ["vd"])
        assert not check_atom_amnesic(t1, atom).holds
        decision = check_atom_recall(t1, atom)
        assert decision.holds
        assert verify_recall_witness(t1, atom, decision.witness) == []

    def test_single_start_claims(self, t1):
        names = t1.universe.names
        assert check_atom_recall(t1, atom_over(t1, ["vb"], names, ["vd"])).holds
        assert check_atom_recall(t1, atom_over(t1, ["vf"], names, ["vd"])).holds


class TestT0Claims:
    def test_recall_only_cells(self, t0):
        names = t0.universe.names
        for start, target in (("v3", "v4"), ("v1", "v2"), ("v1", "v4"),
                              ("v1", "v5"), ("v2", "v5"), ("v5", "v2")):
            atom = atom_over(t0, [start], names, [target])
            assert check_atom_recall(t0, atom).holds, (start, target)
            assert not check_atom_amnesic(t0, atom).holds, (start, target)

    def test_unreachable_cells_fail_even_with_recall(self, t0):
        names = t0.universe.names
        for start, target in (("v3", "v1"), ("v3", "v2"), ("v3", "v5"),
                              ("v4", "v1"), ("v4", "v6")):
            atom = atom_over(t0, [start], names, [target])
            assert not check_atom_recall(t0, atom).holds, (start, target)

    def test_restricted_corridor_recall_claim(self, t0):
        corridor = [v for v in t0.universe.names if v != "v5"]
        atom = atom_over(t0, ["v1"], corridor, ["v3"])
        decision = check_atom_recall(t0, atom)
        assert decision.holds
        assert verify_recall_witness(t0, atom, decision.witness) == []

    def test_explored_counts_beliefs(self, t0):
        decision = check_atom_recall(
            t0, atom_over(t0, ["v1"], t0.universe.names, ["v3"]))
        assert decision.explored >= 2


class TestWitnessChecking:
    def test_tampered_witness_is_rejected(self, t1):
        atom = atom_over(t1, ["vb", "vf"], t1.universe.names, ["vd"])
        decision = check_atom_recall(t1, atom)
        witness = dict(decision.witness)
        flip = {"0": "1", "1": "0"}
        victim = next(iter(witness))
        witness[victim] = flip[witness[victim]]
        assert verify_recall_witness(t1, atom, witness) != []

    def test_missing_entry_is_rejected(self, t1):
        atom = atom_over(t1, ["vb", "vf"], t1.universe.names, ["vd"])
        witness = dict(check_atom_recall(t1, atom).witness)
        witness.pop(next(iter(witness)))
        assert verify_recall_witness(t1, atom, witness) != []

    def test_unknown_instruction_is_a_reported_defect(self, t1):
        at_b, at_f = Belief("vb", frozenset({"b"})), Belief("vf", frozenset({"f"}))
        atom = atom_over(t1, ["vb"], t1.universe.names, ["vd"])
        assert verify_recall_witness(t1, atom, {at_b: "7"}) == [
            "witness names unknown instruction '7' at Belief(vb, {b})"]
        # The other start belief's branch is still walked.
        joint = atom_over(t1, ["vb", "vf"], t1.universe.names, ["vd"])
        witness = dict(check_atom_recall(t1, joint).witness)
        witness[at_b] = "7"
        del witness[at_f]
        assert verify_recall_witness(t1, joint, witness) == [
            "witness names unknown instruction '7' at Belief(vb, {b})",
            "witness has no instruction for Belief(vf, {f})"]

    def test_play_leaving_the_corridor_is_rejected(self, t0):
        corridor = [v for v in t0.universe.names if v != "v5"]
        atom = atom_over(t0, ["v1"], corridor, ["v3"])
        witness = dict(check_atom_recall(t0, atom).witness)
        witness[Belief("v1", frozenset({"a", "g"}))] = "1"      # g steps to f
        assert verify_recall_witness(t0, atom, witness) == [
            "Belief(v5, {f}) sits outside corridor and target"]

    def test_cyclic_witness_is_rejected(self):
        system = EpistemicTransitionSystem.build(
            views=("a", "b", "c"), instructions=("x", "y"),
            states=[("sa", "a"), ("sb", "b"), ("sc", "c")],
            transitions=[("sa", "x", "sb"), ("sb", "x", "sa"),
                         ("sb", "y", "sc")])
        atom = atom_over(system, ["a"], ["a", "b"], ["c"])
        at_a, at_b = Belief("a", frozenset({"sa"})), Belief("b", frozenset({"sb"}))
        assert verify_recall_witness(system, atom, {at_a: "x", at_b: "x"}) == [
            "witness play revisits Belief(a, {sa})"]
        assert verify_recall_witness(system, atom, {at_a: "x", at_b: "y"}) == []

    def test_long_chain_witness_replays(self):
        n = 1500
        views = [f"v{k}" for k in range(n)]
        system = EpistemicTransitionSystem.build(
            views=views, instructions=("0",),
            states=[(f"s{k}", f"v{k}") for k in range(n)],
            transitions=[(f"s{k}", "0", f"s{k + 1}") for k in range(n - 1)])
        atom = atom_over(system, ["v0"], views, [f"v{n - 1}"])
        witness = {Belief(f"v{k}", frozenset({f"s{k}"})): "0" for k in range(n - 1)}
        assert verify_recall_witness(system, atom, witness) == []


class TestBeliefMemo:
    """Each system keeps one memo of belief successor rows, shared by every
    objective decided on it.  It must not change an answer, must not leak
    into the witness verifier, and must go with its system."""

    def test_shared_memo_gives_fresh_answers(self):
        rng = random.Random(7)
        for text in (T0_ETS, T1_ETS, _hash_seed_system()):
            system = parse_system(text)
            side = 1 << len(system.universe)
            atoms = [Atom.from_masks(system.universe, rng.randrange(side),
                                     rng.randrange(side), rng.randrange(side))
                     for _ in range(60)]
            atoms += [atom_over(system, [a], system.universe.names, [b])
                      for a in system.universe.names for b in system.universe.names]
            rng.shuffle(atoms)
            for atom in atoms:
                shared = check_atom_recall(system, atom)
                fresh = check_atom_recall(parse_system(text), atom)
                assert shared == fresh, atom
                if fresh.witness is not None:
                    assert list(shared.witness) == list(fresh.witness), atom

    def test_verifier_does_not_read_the_memo(self):
        system = parse_system(T1_ETS)
        atom = atom_over(system, ["vd"], system.universe.names, ["vb"])
        assert not check_atom_recall(system, atom).holds
        # Poison: every expanded belief now claims that each instruction
        # moves it nowhere, which wins at once.
        memo = recall_engine._ROWS[system]
        for key, rows in memo.items():
            memo[key] = tuple([] for _ in rows)
        poisoned = check_atom_recall(system, atom)
        parked = Belief("vd", frozenset({"d"}))
        assert poisoned == RecallDecision(True, {parked: "0"}, 1)
        assert verify_recall_witness(system, atom, poisoned.witness) == [
            "witness instruction dead-ends at Belief(vd, {d})"]

    def test_memo_goes_with_its_system(self):
        gc.collect()
        before = len(recall_engine._ROWS)
        system = parse_system(T0_ETS)
        assert check_atom_recall(
            system, atom_over(system, ["v3"], system.universe.names, ["v4"])).holds
        assert len(recall_engine._ROWS[system]) > 0
        assert len(recall_engine._ROWS) == before + 1
        alive = weakref.ref(system)
        del system
        gc.collect()
        assert alive() is None
        assert len(recall_engine._ROWS) == before


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_winning_views_match_single_start_decisions(seed):
    """One solve over every start view gives each view the verdict that
    deciding it alone gives, including views no state observes."""
    rng = random.Random(seed)
    system = small_random_system(rng, max_views=4, max_states=5, density=0.3)
    universe = system.universe
    side = 1 << len(universe)
    start, corridor, target = (rng.randrange(side), rng.randrange(side),
                               rng.randrange(side))
    copy = parse_system(render_system(system))
    want = 0
    for view in universe.names_of(start):
        atom = Atom.from_masks(universe, universe.mask([view]), corridor, target)
        if check_atom_recall(copy, atom).holds:
            want |= universe.mask([view])
    assert winning_views(system, start, corridor, target) == want


def _hash_seed_system() -> str:
    """The fuzz system whose recall witness once followed PYTHONHASHSEED."""
    config = FuzzConfig(seed=0, max_states=14, max_views=4,
                        max_instructions=3, density=0.2)
    return render_system(generate_random_system(config, 9))


def test_witness_output_is_independent_of_the_hash_seed(tmp_path):
    """Beliefs are frozensets, whose iteration order follows PYTHONHASHSEED;
    the printed witness must not."""
    path = tmp_path / "system.ets"
    path.write_text(_hash_seed_system())
    src = str(Path(navlog.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "navlog.cli", "check", str(path),
             "nav({v2}; ALL; {v3})", "--mode", "recall", "--witness"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert "HOLDS [recall]" in outputs[0]
    assert outputs[0] == outputs[1]


# Full `check --mode recall --json` witness rows as (view, possible,
# instruction): T1's joint start, the six recall-only T0 cells and the
# hash-seed reproducer.  The least instruction recorded for each belief
# follows the fixpoint's in-round order, so a change to that order shows here.
GOLDEN_RECALL_WITNESSES = {
    ("t1", "nav({vb,vf}; ALL; {vd})"): [
        ("vb", ["b"], "0"), ("vc", ["c"], "1"), ("vc", ["e"], "0"),
        ("vf", ["f"], "0")],
    ("t0", "nav({v3}; ALL; {v4})"): [
        ("v1", ["a"], "1"), ("v1", ["g"], "1"), ("v2", ["b"], "1"),
        ("v3", ["c"], "1"), ("v3", ["c", "e"], "0"), ("v3", ["e"], "0"),
        ("v5", ["f"], "1"), ("v6", ["h"], "0")],
    ("t0", "nav({v1}; ALL; {v2})"): [
        ("v1", ["a"], "1"), ("v1", ["a", "g"], "0"), ("v1", ["g"], "0"),
        ("v3", ["e"], "1"), ("v5", ["f"], "0"), ("v6", ["h"], "1")],
    ("t0", "nav({v1}; ALL; {v4})"): [
        ("v1", ["a"], "1"), ("v1", ["a", "g"], "1"), ("v1", ["g"], "1"),
        ("v2", ["b"], "1"), ("v3", ["c"], "1"), ("v3", ["e"], "0"),
        ("v5", ["f"], "1"), ("v6", ["h"], "0")],
    ("t0", "nav({v1}; ALL; {v5})"): [
        ("v1", ["a"], "0"), ("v1", ["a", "g"], "0"), ("v1", ["g"], "1"),
        ("v2", ["b"], "0"), ("v3", ["c"], "0"), ("v6", ["h"], "0")],
    ("t0", "nav({v2}; ALL; {v5})"): [
        ("v1", ["a"], "0"), ("v1", ["g"], "1"), ("v2", ["b"], "0"),
        ("v3", ["c"], "0"), ("v6", ["h"], "0")],
    ("t0", "nav({v5}; ALL; {v2})"): [
        ("v1", ["a"], "1"), ("v1", ["g"], "0"), ("v3", ["e"], "1"),
        ("v5", ["f"], "0"), ("v6", ["h"], "1")],
    ("hash-seed", "nav({v2}; ALL; {v3})"): [
        ("v0", ["s3"], "2"), ("v1", ["s1"], "1"), ("v2", ["s0"], "0"),
        ("v2", ["s0", "s4"], "0"), ("v2", ["s4"], "1")],
}


@pytest.mark.parametrize("system, claim", list(GOLDEN_RECALL_WITNESSES))
def test_golden_recall_witnesses(tmp_path, capsys, system, claim):
    text = {"t0": T0_ETS, "t1": T1_ETS, "hash-seed": _hash_seed_system()}[system]
    path = tmp_path / "system.ets"
    path.write_text(text)
    assert run_cli(["check", str(path), claim, "--mode", "recall", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is True
    assert report["witness"] == [
        {"view": view, "possible": possible, "instruction": instruction}
        for view, possible, instruction in GOLDEN_RECALL_WITNESSES[(system, claim)]]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_amnesic_implies_recall_and_witnesses_verify(seed):
    """Forgetting is a handicap: anything a memoryless strategy achieves, a
    perfect-recall one does too.  Recall witnesses must replay cleanly."""
    rng = random.Random(seed)
    system = small_random_system(rng)
    side = 1 << len(system.universe)
    atom = Atom.from_masks(system.universe, rng.randrange(side),
                           rng.randrange(side), rng.randrange(side))
    recall = check_atom_recall(system, atom)
    if check_atom_amnesic(system, atom, canonical_witness=False).holds:
        assert recall.holds
    if recall.holds:
        assert verify_recall_witness(system, atom, recall.witness) == []
    else:
        assert recall.witness is None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_recall_transitivity_unrestricted(seed):
    rng = random.Random(seed)
    system = small_random_system(rng)
    universe = system.universe
    side = 1 << len(universe)
    full = side - 1
    a, c, e = rng.randrange(side), rng.randrange(side), rng.randrange(side)
    leg1 = check_atom_recall(system, Atom.from_masks(universe, a, full, c))
    leg2 = check_atom_recall(system, Atom.from_masks(universe, c, full, e))
    if leg1.holds and leg2.holds:
        assert check_atom_recall(system, Atom.from_masks(universe, a, full, e)).holds

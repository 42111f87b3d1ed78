"""Perfect-recall navigability over knowledge states.

A belief is a view plus the set of states the agent cannot yet tell apart;
choosing an instruction is losing if any possible state halts.  The fixture
with two look-alike states (c and e share a view) pins the places where
recall genuinely beats forgetfulness.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_random_system

import navlog
from navlog.amnesic import check_atom_amnesic
from navlog.core import EpistemicTransitionSystem
from navlog.fuzz import FuzzConfig, generate_random_system
from navlog.recall import (DEAD_END, Belief, belief_successors,
                           check_atom_recall, initial_beliefs,
                           verify_recall_witness)
from navlog.syntax import Atom, render_system


def atom_over(system, start, corridor, target) -> Atom:
    return Atom.over(system.universe, start, corridor, target)


class TestBeliefs:
    def test_initial_beliefs_cover_whole_classes(self, t1):
        beliefs = initial_beliefs(t1, ["vb", "vc"])
        assert beliefs == (Belief("vb", frozenset({"b"})),
                           Belief("vc", frozenset({"c", "e"})))

    def test_initial_beliefs_skip_empty_classes(self):
        system = EpistemicTransitionSystem.build(
            views=("v", "ghost"), instructions=("0",), states=[("s", "v")])
        assert initial_beliefs(system, ["ghost"]) == ()

    def test_successors_partition_by_view(self, t1):
        fog = Belief("vc", frozenset({"c", "e"}))
        assert belief_successors(t1, fog, "1") == frozenset({
            Belief("vd", frozenset({"d"})), Belief("vf", frozenset({"f"}))})
        assert belief_successors(t1, fog, "0") == frozenset({
            Belief("vb", frozenset({"b"})), Belief("vd", frozenset({"d"}))})

    def test_possible_halt_is_a_dead_end(self, t1):
        parked = Belief("vd", frozenset({"d"}))
        assert belief_successors(t1, parked, "0") is DEAD_END
        assert belief_successors(t1, parked, "1") is DEAD_END


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


def test_witness_output_is_independent_of_the_hash_seed(tmp_path):
    """Beliefs are frozensets, whose iteration order follows PYTHONHASHSEED;
    the printed witness must not."""
    config = FuzzConfig(seed=0, max_states=14, max_views=4,
                        max_instructions=3, density=0.2)
    path = tmp_path / "system.ets"
    path.write_text(render_system(generate_random_system(config, 9)))
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

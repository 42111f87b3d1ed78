"""Canonical systems: instruction sets, transitions, truth checks, chains.

The transition relation is recomputed here as a membership predicate over
state pairs, deliberately not sharing code with the builder's generator
loops, so the two formulations must agree edge for edge.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_well_formed

from navlog.canonical import (CanonicalInstruction, build_canonical,
                              canonical_instructions, gstar_chain,
                              valid_views, verify_chain,
                              verify_stage_conditions, verify_truth_lemma)
from navlog.core import Universe
from navlog.proof import Closure, saturate
from navlog.syntax import Atom

X = Universe(("x",))
XY = Universe(("x", "y"))
XYZ = Universe(("x", "y", "z"))


def atom(universe, start, corridor, target) -> Atom:
    return Atom.over(universe, start, corridor, target)


def random_closure(rng: random.Random, universe: Universe) -> Closure:
    side = 1 << len(universe)
    assumptions = [
        Atom.from_masks(universe, rng.randrange(side), rng.randrange(side),
                        rng.randrange(side))
        for _ in range(rng.randint(0, 3))
    ]
    return saturate(universe, assumptions)


class TestValidViews:
    def test_unconstrained_views_are_valid(self):
        assert valid_views(saturate(X)) == ("x",)

    def test_reach_nothing_invalidates(self):
        assert valid_views(saturate(X, [atom(X, ["x"], [], [])])) == ()

    def test_invalidation_can_be_indirect(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        assert valid_views(clo) == ("y",)


class TestInstructionSet:
    def test_single_view_theory(self):
        instrs = canonical_instructions(saturate(X))
        assert instrs == (CanonicalInstruction(0, 0, 0),
                          CanonicalInstruction(0, 0, 1),
                          CanonicalInstruction(0, 1, 0))

    def test_no_valid_views_leaves_the_idle_instruction(self):
        clo = saturate(X, [atom(X, ["x"], [], [])])
        assert canonical_instructions(clo) == (CanonicalInstruction(0, 0, 0),)

    def test_empty_start_triples_are_always_present(self):
        # with nothing assumed, only empty-start triples qualify:
        # 3 disjoint (transit, target) splits per view
        instrs = canonical_instructions(saturate(XYZ))
        assert len(instrs) == 27
        assert all(ins.start == 0 for ins in instrs)

    def test_assumption_adds_populated_start_triples(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])
        instrs = canonical_instructions(clo)
        assert CanonicalInstruction(1, 2, 4) in instrs
        assert len(instrs) > 27

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_shape_invariants(self, seed):
        rng = random.Random(seed)
        clo = random_closure(rng, XYZ)
        valid = clo.universe.mask(valid_views(clo))
        instrs = canonical_instructions(clo)
        assert list(instrs) == sorted(
            instrs, key=lambda i: (i.start, i.transit, i.target))
        for ins in instrs:
            assert (ins.start | ins.transit | ins.target) & ~valid == 0
            assert ins.start & ins.transit == 0
            assert ins.start & ins.target == 0
            assert ins.transit & ins.target == 0
            if ins.target == 0:
                # a start view of a nowhere-bound instruction would be invalid
                assert ins.start == 0


def _state_view_and_tag(name):
    if "__" in name:
        view, tag = name.split("__", 1)
        return view, tag
    return name, None


def _edge_expected(ins, label, src, dst):
    """Membership test for one canonical edge, stated over a single pair of
    states given as (view bit, tag)."""
    src_bit, src_tag = src
    dst_bit, dst_tag = dst
    if src_bit & ins.start and dst_tag is None and dst_bit & ins.target:
        return True
    if (src_bit & ins.start and src_tag != label and dst_tag == label
            and dst_bit & (ins.start | ins.transit)):
        return True
    if (src_tag == label and src_bit & (ins.start | ins.transit)
            and dst_tag is None and dst_bit & ins.target):
        return True
    return False


def _closure(assume):
    """XYZ's closure of one assumed atom (None: of nothing), or for an int,
    a seeded random closure over 1-4 views."""
    if isinstance(assume, int):
        n = 1 + assume % 4
        return random_closure(random.Random(assume),
                              Universe(f"v{k}" for k in range(n)))
    return saturate(XYZ, [atom(XYZ, *assume)] if assume else [])


class TestBuild:
    def test_single_view_model(self):
        system = build_canonical(saturate(X))
        assert set(system.states) == {"x", "x__i0", "x__i1", "x__i2"}
        assert all(system.observation(s) == "x" for s in system.states)

    def test_no_valid_views_means_no_states(self):
        clo = saturate(X, [atom(X, ["x"], [], [])])
        system = build_canonical(clo)
        assert system.states == ()
        assert system.instructions == ("i0",)

    def test_state_count_and_observations(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])
        system = build_canonical(clo)
        instrs = canonical_instructions(clo)
        valid = valid_views(clo)
        assert len(system.states) == len(valid) * (1 + len(instrs))
        for state in system.states:
            view, _ = _state_view_and_tag(state)
            assert system.observation(state) == view
            assert view in valid

    @pytest.mark.parametrize("assume", [None, (["x"], ["x", "y"], ["z"]),
                                        *range(12)])
    def test_transitions_match_the_pairwise_predicate(self, assume):
        clo = _closure(assume)
        universe = clo.universe
        system = build_canonical(clo)
        instrs = canonical_instructions(clo)
        valid = valid_views(clo)
        labels = [f"i{k}" for k in range(len(instrs))]
        assert system.instructions == tuple(labels)
        assert system.states == valid + tuple(
            f"{v}__{label}" for v in valid for label in labels)
        views = [_state_view_and_tag(state) for state in system.states]
        assert system.view_of == tuple(universe.index(v) for v, _ in views)
        assert_well_formed(system)
        parsed = [(universe.mask([v]), tag) for v, tag in views]
        expected = set()
        for k, ins in enumerate(instrs):
            for a, src in enumerate(parsed):
                # every clause needs a start-view source or one of the
                # instruction's own in-progress states
                if not (src[0] & ins.start or src[1] == labels[k]):
                    continue
                for b, dst in enumerate(parsed):
                    if _edge_expected(ins, labels[k], src, dst):
                        expected.add((system.states[a], labels[k],
                                      system.states[b]))
        assert set(system.transition_triples()) == expected

    def test_rejects_unclosed_hand_assembled_closure(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        chopped = Closure(XY, clo.assumptions,
                          frozenset(list(sorted(clo.derived))[:-3]), {})
        with pytest.raises(ValueError, match="not saturated"):
            build_canonical(chopped)

    def test_accepts_closed_hand_assembled_closure(self):
        clo = saturate(XY)
        copy = Closure(XY, clo.assumptions, clo.derived, {})
        assert not copy.sealed
        assert build_canonical(copy).states == build_canonical(clo).states


class TestTruthAgreement:
    def test_exhaustive_on_an_empty_theory(self):
        report = verify_truth_lemma(saturate(XY))
        assert report.exhaustive
        assert report.atoms_checked == 64
        assert report.ok

    def test_exhaustive_with_an_assumption(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])
        report = verify_truth_lemma(clo)
        assert report.exhaustive
        assert report.atoms_checked == 512
        assert report.ok

    def test_degenerate_theory(self):
        clo = saturate(X, [atom(X, ["x"], [], [])])
        report = verify_truth_lemma(clo)
        assert report.atoms_checked == 8 and report.ok

    def test_sampled_mode_is_seeded(self):
        clo = saturate(XYZ)
        first = verify_truth_lemma(clo, exhaustive=False)
        second = verify_truth_lemma(clo, exhaustive=False)
        assert not first.exhaustive
        assert 0 < first.atoms_checked <= 500
        assert first == second and first.ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_theories_agree_everywhere(self, seed):
        clo = random_closure(random.Random(seed), XY)
        assert verify_truth_lemma(clo).ok


def _covered_with_reversed_scan(closure, strategy, corridor, goal):
    """The chain loop rebuilt with the candidate scan reversed.

    Only the final coverage is compared; stage order is allowed to differ.
    """
    universe = closure.universe
    instrs = canonical_instructions(closure)
    position = {ins: k for k, ins in enumerate(instrs)}
    sel = [0] * len(instrs)
    for name, ins in strategy.items():
        sel[position[ins]] |= 1 << universe.index(name)
    budget = universe.mask(corridor) | universe.mask(goal)
    covered = universe.mask(goal)
    progress = True
    while progress:
        progress = False
        for k in reversed(range(len(instrs))):
            ins = instrs[k]
            if (ins.start | ins.transit) & ~budget:
                continue
            choosing = ins.start & sel[k]
            if not choosing & ~covered:
                continue
            if (ins.start & ~sel[k]) & ~covered:
                continue
            if (ins.transit & ~sel[k]) & ~covered:
                continue
            if ins.target & ~covered:
                continue
            covered |= choosing
            progress = True
            break
    return covered


class TestChains:
    def theory(self):
        return saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])

    def test_single_stage_certificate(self):
        clo = self.theory()
        instrs = canonical_instructions(clo)
        hop = instrs[instrs.index(CanonicalInstruction(1, 2, 4))]
        idle = CanonicalInstruction(0, 0, 0)
        strategy = {"x": hop, "y": hop, "z": idle}
        chain = gstar_chain(clo, strategy, corridor=["x", "y"], goal=["z"])
        assert len(chain.stages) == 1
        assert XYZ.names_of(chain.covered) == ("x", "z")
        assert XYZ.names_of(chain.carried) == ("y",)
        assert verify_chain(clo, chain) == []
        assert verify_stage_conditions(clo, strategy, chain) == []

    def test_empty_goal_cannot_grow(self):
        clo = self.theory()
        idle = CanonicalInstruction(0, 0, 0)
        strategy = {v: idle for v in valid_views(clo)}
        chain = gstar_chain(clo, strategy, corridor=["x", "y", "z"], goal=[])
        assert chain.stages == ()
        assert chain.covered == 0

    def test_unassigned_view_is_an_error(self):
        clo = self.theory()
        with pytest.raises(ValueError, match="unassigned"):
            gstar_chain(clo, {"x": CanonicalInstruction(0, 0, 0)}, [], ["z"])

    def test_foreign_instruction_is_an_error(self):
        clo = self.theory()
        bogus = CanonicalInstruction(1, 1, 1)
        strategy = {v: bogus for v in valid_views(clo)}
        with pytest.raises(ValueError, match="non-canonical"):
            gstar_chain(clo, strategy, ["x", "y"], ["z"])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_chains_verify_and_scan_order_is_immaterial(self, seed):
        rng = random.Random(seed)
        clo = random_closure(rng, XYZ)
        instrs = canonical_instructions(clo)
        names = valid_views(clo)
        strategy = {v: rng.choice(instrs) for v in names}
        corridor = [v for v in names if rng.random() < 0.6]
        goal = [v for v in names if rng.random() < 0.4]
        chain = gstar_chain(clo, strategy, corridor, goal)
        assert verify_chain(clo, chain) == []
        assert verify_stage_conditions(clo, strategy, chain) == []
        assert chain.covered == _covered_with_reversed_scan(
            clo, strategy, corridor, goal)

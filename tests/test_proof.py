"""Forward-chaining saturation: fixpoint laws, provenance, derived lemmas.

The engine's contract is threefold: the closure is the least fixpoint of the
six rules over the assumptions, every recorded derivation replays as a valid
rule instance, and the sweeps for the admissible lemmas find nothing (they
are consequences of the rules, so a hit means an engine bug).
"""

import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import closure_by_rounds, provenance_by_full_firing
from conftest import small_random_system

from navlog import proof
from navlog.amnesic import check_atom_amnesic
from navlog.core import Universe
from navlog.proof import (ASSUMPTION, AUGMENTATION, EMPTY_TARGET,
                          REFLEXIVITY, TRANSITIVITY, TRIM_CORRIDOR, ZERO_STEP,
                          UniverseTooLarge, check_derived_lemmas, derives,
                          explain, is_closed, rule_steps, saturate,
                          verify_provenance, Closure)
from navlog.syntax import Atom

XY = Universe(("x", "y"))
XYZ = Universe(("x", "y", "z"))
X, Y, Z = 1, 2, 4   # view bits of XYZ


def atom(universe, start, corridor, target) -> Atom:
    return Atom.over(universe, start, corridor, target)


class TestSaturate:
    def test_empty_theory_is_exactly_the_reflexive_atoms(self):
        clo = saturate(XY)
        assert derives(clo, atom(XY, ["x"], [], ["x", "y"]))
        assert not derives(clo, atom(XY, ["x"], [], []))
        for a in clo.derived_atoms():
            assert set(a.start) <= set(a.target)
        # 3^2 nested start/target pairs times 2^2 corridors
        assert len(clo.derived) == 36

    def test_zero_step_consequence(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        assert derives(clo, atom(XY, ["x"], [], []))

    def test_transitivity_consequence(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["y"], ["z"]),
                             atom(XYZ, ["z"], [], ["y"])])
        assert derives(clo, atom(XYZ, ["x"], ["y"], ["y"]))

    def test_one_view_membership(self):
        u = Universe(("x",))
        clo = saturate(u)
        assert derives(clo, atom(u, [], [], []))
        assert not derives(clo, atom(u, ["x"], [], []))
        assumed = saturate(u, [atom(u, ["x"], [], [])])
        assert derives(assumed, atom(u, ["x"], [], []))

    def test_assumptions_are_contained_and_sealed(self):
        a = atom(XY, ["x"], ["y"], [])
        clo = saturate(XY, [a])
        assert a.masks(XY) in clo.assumptions
        assert clo.assumptions <= clo.derived
        assert clo.sealed

    def test_size_cap(self):
        wide = Universe(tuple(f"v{k}" for k in range(6)))
        with pytest.raises(UniverseTooLarge):
            saturate(wide)


class TestFixpointLaws:
    def test_idempotence(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])
        again = saturate(XYZ, clo.derived_atoms())
        assert again.derived == clo.derived

    def test_is_closed(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        assert is_closed(clo)
        chopped = Closure(XY, clo.assumptions,
                          frozenset(list(sorted(clo.derived))[:-3]), {})
        assert not is_closed(chopped)
        # assumption absent from the purely reflexive closure
        orphaned = Closure(XY, frozenset({(1, 0, 0)}), saturate(XY).derived, {})
        assert not is_closed(orphaned)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_monotonicity(self, seed):
        rng = random.Random(seed)
        side = 1 << len(XYZ)
        draw = lambda: Atom.from_masks(XYZ, rng.randrange(side),
                                       rng.randrange(side), rng.randrange(side))
        smaller = [draw() for _ in range(rng.randint(0, 3))]
        larger = smaller + [draw() for _ in range(rng.randint(1, 3))]
        assert saturate(XYZ, smaller).derived <= saturate(XYZ, larger).derived

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_soundness_bridge(self, seed):
        """Assume only atoms true in a system; everything derived stays true."""
        rng = random.Random(seed)
        system = small_random_system(rng, max_views=2)
        universe = system.universe
        side = 1 << len(universe)
        holds = lambda key: check_atom_amnesic(
            system, Atom.from_masks(universe, *key), canonical_witness=False).holds
        true_atoms = [
            (a, b, c)
            for a in range(side) for b in range(side) for c in range(side)
            if holds((a, b, c))
        ]
        picked = rng.sample(true_atoms, k=min(3, len(true_atoms)))
        clo = saturate(universe, [Atom.from_masks(universe, *k) for k in picked])
        for key in clo.derived:
            assert holds(key), Atom.from_masks(universe, *key)


def _cyclic_closure() -> Closure:
    """The one-view closure with (x, {}, x) recorded as an augmentation of
    itself (D = {}): every step is a rule instance, but the derivation of
    (x, {}, x) never reaches an axiom."""
    clo = saturate(Universe(("x",)))
    clo.provenance[(1, 0, 1)] = (AUGMENTATION, ((1, 0, 1),))
    return clo


class TestExplain:
    def test_reflexive_leaf(self):
        clo = saturate(XY)
        tree = explain(clo, atom(XY, ["x"], ["y"], ["x", "y"]))
        assert tree.rule == REFLEXIVITY
        assert tree.premises == ()

    def test_two_node_tree(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        tree = explain(clo, atom(XY, ["x"], [], []))
        assert tree.rule == ZERO_STEP
        assert len(tree.premises) == 1
        assert tree.premises[0].rule == ASSUMPTION

    def test_three_node_tree(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["y"], ["z"]),
                             atom(XYZ, ["z"], [], ["y"])])
        tree = explain(clo, atom(XYZ, ["x"], ["y"], ["y"]))
        assert tree.rule == TRANSITIVITY
        assert len(tree.premises) == 2
        assert {p.rule for p in tree.premises} == {ASSUMPTION}

    def test_underivable_raises(self):
        clo = saturate(XY)
        with pytest.raises(ValueError):
            explain(clo, atom(XY, ["x"], [], []))

    def test_cyclic_provenance_raises(self):
        """A step naming its own conclusion as a premise must not send the
        rebuild round the loop for ever; the alarm fails the test instead."""
        def timed_out(signum, frame):
            raise TimeoutError("explain did not return")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(ValueError, match="not well-founded"):
                explain(_cyclic_closure(), Atom.from_masks(Universe(("x",)), 1, 0, 1))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_render_mentions_rules(self):
        clo = saturate(XY, [atom(XY, ["x"], [], ["y"])])
        text = explain(clo, atom(XY, ["x"], [], [])).render()
        assert "zero_step" in text and "assumption" in text


class TestSweeps:
    def test_tiny_universe_clean(self):
        report = check_derived_lemmas(saturate(Universe(("x",))))
        assert report.ok
        assert sum(report.instances.values()) > 0

    def test_cyclic_provenance_is_reported(self):
        clo = _cyclic_closure()
        assert verify_provenance(clo) == [
            "(1, 0, 1): derivation is not well-founded"]
        clo.provenance[(0, 0, 0)] = (ZERO_STEP, ((1, 0, 1),))   # built on the cycle
        assert verify_provenance(clo) == [
            "(0, 0, 0): derivation is not well-founded",
            "(1, 0, 1): derivation is not well-founded"]

    def test_provenance_replays(self):
        clo = saturate(XYZ, [atom(XYZ, ["x"], ["x", "y"], ["z"])])
        assert verify_provenance(clo) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_random_theories_clean(self, seed):
        rng = random.Random(seed)
        side = 1 << len(XYZ)
        assumptions = [
            Atom.from_masks(XYZ, rng.randrange(side), rng.randrange(side),
                            rng.randrange(side))
            for _ in range(rng.randint(0, 4))
        ]
        clo = saturate(XYZ, assumptions)
        assert check_derived_lemmas(clo).ok
        assert verify_provenance(clo) == []


def _random_theory(seed):
    rng = random.Random(seed)
    universe = Universe(tuple(f"v{k}" for k in range(1 + seed % 3)))
    side = 1 << len(universe)
    return universe, [
        Atom.from_masks(universe, rng.randrange(side), rng.randrange(side),
                        rng.randrange(side))
        for _ in range(rng.randint(0, 4))
    ]


ORACLE_THEORIES = [_random_theory(seed) for seed in range(30)] + [
    (Universe(("w", "x", "y", "z")), [])]


@pytest.mark.parametrize("universe, assumptions", ORACLE_THEORIES)
def test_saturation_matches_round_based_closure(universe, assumptions):
    """is_closed and verify_provenance replay the engine's own rule step, and
    the fuzz campaign checks its conclusions against model truth; only this
    oracle checks that step against the rules as written."""
    expected = closure_by_rounds(
        len(universe), [a.masks(universe) for a in assumptions])
    assert saturate(universe, assumptions).derived == expected


def _random_wide_theory(seed):
    """One to two random atoms over 4 views, or over 5 for every fourth seed."""
    rng = random.Random(seed)
    universe = Universe(tuple(f"v{k}" for k in range(4 + (seed % 4 == 3))))
    side = 1 << len(universe)
    return universe, [
        Atom.from_masks(universe, rng.randrange(side), rng.randrange(side),
                        rng.randrange(side))
        for _ in range(rng.randint(1, 2))
    ]


def _assert_fires_as_full_firing(universe, assumed_keys):
    clo = saturate(universe, [Atom.from_masks(universe, *k) for k in assumed_keys])
    expected = provenance_by_full_firing(len(universe), clo.assumptions)
    assert list(clo.provenance.items()) == list(expected.items())


class TestSkippedSteps:
    """Saturation skips the steps whose conclusion is reflexive or repeats an
    earlier step's; the first derivations and their order must not move."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_empty_theory(self, n):
        _assert_fires_as_full_firing(Universe(tuple(f"v{k}" for k in range(n))), [])

    @pytest.mark.parametrize("universe, assumptions", ORACLE_THEORIES)
    def test_oracle_theories(self, universe, assumptions):
        _assert_fires_as_full_firing(universe, [a.masks(universe) for a in assumptions])

    def test_fifty_theories(self, fifty_theories):
        for clo in fifty_theories:
            _assert_fires_as_full_firing(clo.universe, clo.assumptions)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_wide_theories(self, seed):
        universe, assumptions = _random_wide_theory(seed)
        _assert_fires_as_full_firing(universe, [a.masks(universe) for a in assumptions])


@pytest.mark.parametrize("universe, assumptions",
                         [t for t in ORACLE_THEORIES if len(t[0]) <= 3])
def test_is_closed_misses_no_removed_atom(universe, assumptions):
    clo = saturate(universe, assumptions)
    for key in clo.derived - clo.assumptions:
        if key[0] & ~key[2]:      # not reflexive
            holed = Closure(universe, clo.assumptions, clo.derived - {key}, {})
            assert not is_closed(holed), key


def test_is_closed_fires_a_reflexive_premise_with_a_non_reflexive_one():
    """Assuming nav({x}; {}; {}) over one view derives every atom.  Without
    nav({x}; {x}; {}), the set is closed under every step but transitivity
    from (x, {}, {}) and the reflexive (x, {x}, x) or ({}, {x}, {})."""
    u = Universe(("x",))
    everything = frozenset((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    assert saturate(u, [Atom.from_masks(u, 1, 0, 0)]).derived == everything
    holed = Closure(u, frozenset({(1, 0, 0)}), everything - {(1, 1, 0)}, {})
    assert not is_closed(holed)


@pytest.mark.parametrize("universe, assumptions",
                         [t for t in ORACLE_THEORIES if len(t[0]) <= 3])
def test_is_closed_fires_each_derived_atom_once(universe, assumptions,
                                                monkeypatch):
    """A closed set costs one firing per atom: each transitivity pair meets
    once, with its left premise."""
    fired = []
    fire = proof._fire

    def spy(t, masks, by_start, by_target, add):
        assert not by_target      # no right partners
        fired.append(t)
        fire(t, masks, by_start, by_target, add)

    clo = saturate(universe, assumptions)
    monkeypatch.setattr(proof, "_fire", spy)
    assert is_closed(Closure(universe, clo.assumptions, clo.derived, {}))
    assert sorted(fired) == sorted(clo.derived)


def test_rule_steps_fire_on_the_first_premise_with_the_given_masks():
    first, second = (X, Y, Z), (Z, X, Y)
    assert rule_steps((first, second, (Z, Y, Y)), (X,)) == [
        ((X, Y, X | Z), AUGMENTATION, (first,)),
        ((X, Y, Z), TRIM_CORRIDOR, (first,)),
        ((X, X | Y, Y), TRANSITIVITY, (first, second)),
    ]
    assert rule_steps(((X | Y, 0, 0), first), ()) == [
        ((X | Y, 0, 0), TRIM_CORRIDOR, ((X | Y, 0, 0),)),
        ((X | Y, 0, 0), ZERO_STEP, ((X | Y, 0, 0),)),
        ((X | Y, 0, 0), EMPTY_TARGET, ((X | Y, 0, 0),)),
    ]


# One corrupted step per defect verify_provenance must report, in the theory
# nav({x}; {y}; {z}), nav({z}; {}; {y}).
BROKEN_STEPS = {
    "wrong rule label": ((X | Y, Y, Y | Z), TRIM_CORRIDOR, ((X, Y, Z),)),
    "wrong premise count": ((X | Y, Y, Y | Z), AUGMENTATION,
                            ((X, Y, Z), (X, Y, Z))),
    "overlapping corridors": ((X, Y, Y), TRANSITIVITY, ((X, Y, Z), (Z, Y, Y))),
    "middle sets differ": ((X, Y, Y), TRANSITIVITY, ((X, Y, Z), (Y, 0, Y))),
    "zero_step, nonempty corridor": ((X, 0, 0), ZERO_STEP, ((X, Y, Z),)),
    "empty_target, nonempty target": ((X, 0, 0), EMPTY_TARGET, ((X, Y, Z),)),
    "augmentation does not follow": ((X | Y, 0, Y | Z), AUGMENTATION,
                                     ((X, Y, Z),)),
    "trim does not follow": ((X, Y | Z, Z), TRIM_CORRIDOR, ((X, Y | Z, Z),)),
    "underived premise": ((Y, 0, X | Y), AUGMENTATION, ((Y, 0, X),)),
    "reflexivity, start not in target": ((X, Y, Z), REFLEXIVITY, ()),
    "not an assumption": ((X, Y, Y), ASSUMPTION, ()),
}


@pytest.mark.parametrize("step", BROKEN_STEPS.values(), ids=list(BROKEN_STEPS))
def test_verify_provenance_reports_a_corrupted_step(step):
    key, rule, premises = step
    clo = saturate(XYZ, [atom(XYZ, ["x"], ["y"], ["z"]),
                         atom(XYZ, ["z"], [], ["y"])])
    assert key in clo.derived
    broken = Closure(XYZ, clo.assumptions, clo.derived,
                     {**clo.provenance, key: (rule, premises)})
    underived = [p for p in premises if p not in clo.derived]
    if underived:   # the step itself is a valid rule instance
        expected = [f"{key}: premise {p} is not derived" for p in underived]
    else:
        expected = [f"{key}: rule {rule} does not justify this step"]
    assert verify_provenance(broken) == expected

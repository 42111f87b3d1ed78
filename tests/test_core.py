"""System validation, strategy replay, and witness checking.

The fixed-strategy checker is the semantic bedrock everything else leans on,
so it gets the full treatment here: pinned runs on the bundled fixtures, all
three failure reasons, and a hypothesis sweep against an independent
reachability oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_random_system
from _oracles import until_satisfied

from navlog.core import (DEAD_END, LEFT_CORRIDOR, NEVER_REACHES,
                         AmnesicStrategy, EpistemicTransitionSystem,
                         PathWitness, SystemValidationError, Universe,
                         UntilObjective, check_strategy, verify_witness)
from navlog.syntax import Atom, parse_system


def objective(system, start, corridor, target) -> UntilObjective:
    u = system.universe
    return UntilObjective(u.mask(start), u.mask(corridor), u.mask(target))


def constant(system, instruction) -> AmnesicStrategy:
    return AmnesicStrategy.from_map(system, {v: instruction for v in system.universe})


class TestUniverse:
    def test_mask_round_trip(self):
        u = Universe(("a", "b", "c"))
        assert u.mask(("a", "c")) == 0b101
        assert u.names_of(0b101) == ("a", "c")
        assert u.full == 0b111
        assert u.index("b") == 1
        assert "b" in u and "z" not in u

    def test_equality_by_names(self):
        assert Universe(("a", "b")) == Universe(("a", "b"))
        assert Universe(("a", "b")) != Universe(("b", "a"))
        assert hash(Universe(("a",))) == hash(Universe(("a",)))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            Universe(("a",)).index("b")

    def test_rejects_a_non_identifier_name(self):
        with pytest.raises(SystemValidationError) as exc:
            Universe(("c", "a-b"))
        assert exc.value.problems == ["bad view identifier 'a-b'"]


def _build(views=("v",), instructions=("0",), states=(), transitions=()):
    return EpistemicTransitionSystem.build(views, instructions, states, transitions)


# Every validation message, with and without its source line, and the order
# in which several problems are reported together.
VALIDATION_CASES = [
    ("views a-b\ninstructions 0\n",
     ["bad view identifier 'a-b' (line 1)"]),
    ("views a a\ninstructions 0\n",
     ["duplicate view 'a' (line 1)"]),
    ("views a\ninstructions 0 x-y\n",
     ["bad instruction identifier 'x-y' (line 2)"]),
    ("views a\ninstructions 0\ninstructions 0\n",
     ["duplicate instruction '0' (line 3)"]),
    ("views a\n",
     ["at least one instruction is required (strategies must be total)"]),
    ("views a\ninstructions x-y\n",
     ["bad instruction identifier 'x-y' (line 2)",
      "at least one instruction is required (strategies must be total)"]),
    ("views a\ninstructions 0\nstate s-t a\n",
     ["bad state identifier 's-t' (line 3)"]),
    ("views a\ninstructions 0\nstate s a\nstate s a\n",
     ["duplicate state 's' (line 4)"]),
    ("views a\ninstructions 0\nstate s b\n",
     ["state 's' observes undeclared view 'b' (line 3)"]),
    ("instructions 0\nstate s a\nviews a\n",
     ["state 's' uses view 'a' before its declaration (line 2)"]),
    ("views a\ninstructions 0\nstate s a\ntrans t 0 s\n",
     ["transition source state 't' is undeclared (line 4)"]),
    ("views a\ninstructions 0\nstate s a\ntrans s 0 t\n",
     ["transition target state 't' is undeclared (line 4)"]),
    ("views a\ninstructions 0\nstate s a\ntrans s 1 s\n",
     ["transition instruction '1' is undeclared (line 4)"]),
    ("views a\ninstructions 0\ntrans s 0 t\nstate s a\nstate t a\n",
     ["transition uses source state 's' before its declaration (line 3)",
      "transition uses target state 't' before its declaration (line 3)"]),
    ("views a\nstate s a\ntrans s 0 s\ninstructions 0\n",
     ["transition uses instruction '0' before its declaration (line 3)"]),
    # A state rejected for its view stays undeclared for the transitions,
    # and the state lines are reported before every transition line.
    ("views a b\ninstructions 0\nstate s a\nstate s b\ntrans s 0 t\n"
     "state u c\ntrans u 1 s\n",
     ["duplicate state 's' (line 4)",
      "state 'u' observes undeclared view 'c' (line 6)",
      "transition target state 't' is undeclared (line 5)",
      "transition source state 'u' is undeclared (line 7)",
      "transition instruction '1' is undeclared (line 7)"]),
    (dict(views=("a-b",)), ["bad view identifier 'a-b'"]),
    (dict(views=("v", "v")), ["duplicate view 'v'"]),
    (dict(instructions=("0", "x-y")), ["bad instruction identifier 'x-y'"]),
    (dict(instructions=("0", "0")), ["duplicate instruction '0'"]),
    (dict(instructions=()),
     ["at least one instruction is required (strategies must be total)"]),
    (dict(states=[("s-t", "v")]), ["bad state identifier 's-t'"]),
    (dict(states=[("s", "v"), ("s", "v")]), ["duplicate state 's'"]),
    (dict(states=[("s", "w")]), ["state 's' observes undeclared view 'w'"]),
    (dict(states=[("s", "v")], transitions=[("t", "0", "s")]),
     ["transition source state 't' is undeclared"]),
    (dict(states=[("s", "v")], transitions=[("s", "0", "t")]),
     ["transition target state 't' is undeclared"]),
    (dict(states=[("s", "v")], transitions=[("s", "1", "s")]),
     ["transition instruction '1' is undeclared"]),
]


class TestValidation:
    @pytest.mark.parametrize("source, problems", VALIDATION_CASES)
    def test_messages(self, source, problems):
        with pytest.raises(SystemValidationError) as exc:
            if isinstance(source, str):
                parse_system(source)
            else:
                _build(**source)
        assert exc.value.problems == problems
        assert str(exc.value) == "; ".join(problems)

    def test_all_problems_collected(self):
        with pytest.raises(SystemValidationError) as exc:
            EpistemicTransitionSystem.build(
                views=("v", "v"),
                instructions=(),
                states=[("s", "w"), ("s", "v")],
                transitions=[("s", "0", "t")],
            )
        assert exc.value.problems == [
            "duplicate view 'v'",
            "at least one instruction is required (strategies must be total)",
            "state 's' observes undeclared view 'w'",
            "transition target state 't' is undeclared",
            "transition instruction '0' is undeclared"]

    def test_duplicate_transitions_collapse(self):
        system = EpistemicTransitionSystem.build(
            views=("v",), instructions=("0",), states=[("s", "v")],
            transitions=[("s", "0", "s"), ("s", "0", "s")])
        assert system.successors("s", "0") == ("s",)
        assert system.transition_triples() == (("s", "0", "s"),)

    def test_empty_view_class_allowed(self):
        system = EpistemicTransitionSystem.build(
            views=("v", "ghost"), instructions=("0",), states=[("s", "v")])
        assert system.observers(system.universe.mask(["ghost"])) == ()

    def test_zero_states_allowed(self):
        system = EpistemicTransitionSystem.build(
            views=("v",), instructions=("0",), states=[])
        assert system.states == ()

    def test_accessors(self, t0):
        assert t0.observation("a") == "v1"
        assert t0.observation("g") == "v1"
        assert t0.observers(t0.universe.mask(["v3"])) == (2, 4)
        assert t0.successors("a", "0") == ("h",)
        assert ("h", "1", "a") in t0.transition_triples()

    def test_observers_equal_a_scan_of_every_state(self, t0, t1):
        rng = random.Random(7)
        ghostly = EpistemicTransitionSystem.build(
            views=("v", "ghost", "w"), instructions=("0",),
            states=[("s", "w"), ("t", "v"), ("u", "w")])
        systems = [t0, t1, ghostly] + [small_random_system(rng, max_views=4,
                                                           max_states=6)
                                       for _ in range(30)]
        for system in systems:
            for mask in [*range(1 << len(system.universe))] * 2:   # then memoized
                scan = [k for k, m in enumerate(system.view_bit) if m & mask]
                assert list(system.observers(mask)) == scan
        assert ghostly.observers(0b010) == ()
        assert ghostly.observers(0b101) == (0, 1, 2)
        assert ghostly.observers(0b1100) == (0, 2)       # bit 3 names no view


class TestCheckStrategy:
    def test_constant_one_reaches_v3(self, t0):
        s = constant(t0, "1")
        assert check_strategy(
            t0, s, objective(t0, ["v1"], t0.universe.names, ["v3"])) is None

    def test_start_on_target_succeeds_without_moving(self, t0):
        s = constant(t0, "0")
        assert check_strategy(t0, s, objective(t0, ["v1"], [], ["v1"])) is None

    def test_populated_start_outside_corridor_fails_at_position_zero(self, t0):
        # The first position of a run counts: with an empty corridor and the
        # target elsewhere, a populated start class can never comply.
        s = constant(t0, "1")
        witness = check_strategy(t0, s, objective(t0, ["v1"], [], ["v3"]))
        assert witness is not None
        assert witness.reason == LEFT_CORRIDOR
        assert len(witness.states) == 1

    def test_dead_end_reported(self, t1):
        s = constant(t1, "1")
        witness = check_strategy(
            t1, s, objective(t1, ["vb"], t1.universe.names, ["vf"]))
        assert witness is not None
        assert witness.reason == DEAD_END
        assert witness.states[-1] == "d"

    def test_lasso_reported_with_loop_start(self, t0):
        s = constant(t0, "0")
        witness = check_strategy(
            t0, s, objective(t0, ["v3"], t0.universe.names, ["v1"]))
        assert witness is not None
        assert witness.reason == NEVER_REACHES
        assert witness.loop_start is not None
        closing = t0.successors(witness.states[-1], "0")
        assert witness.states[witness.loop_start] in closing

    def test_witnesses_replay_clean(self, t0, t1):
        for system in (t0, t1):
            names = system.universe.names
            for instr in system.instructions:
                s = constant(system, instr)
                for target in names:
                    obj = objective(system, [names[0]], names[:2], [target])
                    witness = check_strategy(system, s, obj)
                    if witness is not None:
                        assert verify_witness(system, s, obj, witness) == []

    def test_verify_witness_rejects_tampering(self, t0):
        s = constant(t0, "0")
        obj = objective(t0, ["v3"], t0.universe.names, ["v1"])
        witness = check_strategy(t0, s, obj)
        assert witness is not None
        forged = PathWitness(witness.states, DEAD_END)
        assert verify_witness(t0, s, obj, forged) != []
        truncated = PathWitness(witness.states[1:], witness.reason,
                                witness.loop_start)
        assert verify_witness(t0, s, obj, truncated) != []


    # Under "always 1" on T0, nav({v1}; ALL; {v4}) fails on the lasso g f e f;
    # each row corrupts that counterexample to meet one rejection (a few
    # corruptions cannot help meeting a second).
    @pytest.mark.parametrize("states, reason, loop_start, problems", [
        ((), NEVER_REACHES, 1, ["witness has no states"]),
        (("g", "zz", "e"), NEVER_REACHES, 1, ["unknown state 'zz'"]),
        (("f", "e"), NEVER_REACHES, 0,
         ["first state 'f' does not observe a start view"]),
        (("g", "e", "f"), NEVER_REACHES, 1,
         ["'g' does not step to 'e' under the strategy"]),
        (("a", "b", "c", "d"), NEVER_REACHES, 3,
         ["state 'd' is not strictly inside the corridor"]),
        (("g", "f", "e"), LEFT_CORRIDOR, None,
         ["final state 'e' still observes a corridor or target view"]),
        (("g", "f", "e"), LEFT_CORRIDOR, 1,
         ["left_corridor witness carries a loop_start",
          "final state 'e' still observes a corridor or target view"]),
        (("g", "f", "e"), DEAD_END, None,
         ["final state 'e' still has successors under the strategy"]),
        (("g", "f", "e"), DEAD_END, 1,
         ["dead_end witness carries a loop_start",
          "final state 'e' still has successors under the strategy"]),
        (("a", "b", "c", "d"), DEAD_END, None,
         ["final state 'd' observes a target view",
          "final state 'd' still has successors under the strategy"]),
        (("g", "f", "e"), NEVER_REACHES, None,
         ["never_reaches witness needs a loop_start inside the run"]),
        (("g", "f", "e"), NEVER_REACHES, 3,
         ["never_reaches witness needs a loop_start inside the run"]),
        (("g", "f", "e"), NEVER_REACHES, 0,
         ["lasso does not close under the strategy"]),
        (("g", "f", "e"), "teleport", 1, ["unknown witness reason 'teleport'"]),
    ])
    def test_verify_witness_names_each_defect(self, t0, states, reason,
                                              loop_start, problems):
        s = constant(t0, "1")
        obj = objective(t0, ["v1"], t0.universe.names, ["v4"])
        assert check_strategy(t0, s, obj) == PathWitness(
            ("g", "f", "e"), NEVER_REACHES, 1)
        forged = PathWitness(states, reason, loop_start)
        assert verify_witness(t0, s, obj, forged) == problems


class TestStrategyType:
    def test_from_map_requires_total(self, t0):
        with pytest.raises(ValueError, match="not total"):
            AmnesicStrategy.from_map(t0, {"v1": "0"})

    def test_from_map_rejects_unknown_views(self, t0):
        full = {v: "0" for v in t0.universe}
        full["bogus"] = "0"
        with pytest.raises(ValueError, match="unknown views"):
            AmnesicStrategy.from_map(t0, full)

    def test_as_map_round_trip(self, t0):
        mapping = {v: ("0" if k % 2 else "1")
                   for k, v in enumerate(t0.universe.names)}
        assert AmnesicStrategy.from_map(t0, mapping).as_map(t0) == mapping


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_check_strategy_matches_reachability_oracle(seed):
    """check_strategy agrees with an independent Kahn-style decider, and any
    counterexample it returns replays cleanly."""
    rng = random.Random(seed)
    system = small_random_system(rng)
    universe = system.universe
    side = 1 << len(universe)
    choices = tuple(rng.randrange(len(system.instructions))
                    for _ in range(len(universe)))
    strategy = AmnesicStrategy(choices)
    obj = UntilObjective(rng.randrange(side), rng.randrange(side),
                         rng.randrange(side))
    atom = Atom.from_masks(universe, obj.start, obj.corridor, obj.target)
    witness = check_strategy(system, strategy, obj)
    expected = until_satisfied(system, strategy.as_map(system),
                               set(atom.start), set(atom.corridor),
                               set(atom.target))
    assert (witness is None) == expected
    if witness is not None:
        assert verify_witness(system, strategy, obj, witness) == []

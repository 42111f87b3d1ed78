"""Forgetful-agent navigability: search, witnesses, tables, formula evaluation.

The six-view fixture's full pairwise grid is pinned here cell by cell, and the
searcher is cross-checked against brute-force strategy enumeration, which is
feasible at these sizes (at most instructions**views candidates).
"""

import collections
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (T0_GRID, planted_system, small_random_system,
                      two_way_chain)
from _oracles import (find_witness_by_enumeration, holds_by_enumeration,
                      lex_least_by_trials_from_roots)

from navlog import amnesic, recall
from navlog.amnesic import (check_atom_amnesic, decide_amnesic, evaluate,
                            navigability_table)
from navlog.core import (AmnesicStrategy, EpistemicTransitionSystem,
                         UntilObjective, check_strategy)
from navlog.recall import check_atom_recall, decide_recall
from navlog.syntax import (Atom, AtomNode, Implies, Not, parse_formula,
                           parse_system, render_system)


def atom_over(system, start, corridor, target) -> Atom:
    return Atom.over(system.universe, start, corridor, target)


# strategies_examined for nav({row}; ALL; {col}) on T0, with and without the
# lex-least witness: the search order is part of the output.
T0_EXAMINED = {
    True: {
        "v1": [1, 6, 9, 6, 6, 1],
        "v2": [1, 1, 6, 8, 6, 1],
        "v3": [5, 4, 1, 8, 6, 6],
        "v4": [2, 2, 2, 1, 2, 2],
        "v5": [1, 6, 6, 6, 1, 1],
        "v6": [1, 10, 7, 7, 4, 1],
    },
    False: {
        "v1": [1, 6, 5, 6, 6, 1],
        "v2": [1, 1, 4, 5, 6, 1],
        "v3": [5, 4, 1, 8, 6, 6],
        "v4": [2, 2, 2, 1, 2, 2],
        "v5": [1, 6, 4, 4, 1, 1],
        "v6": [1, 7, 3, 3, 2, 1],
    },
}


class TestT0Grid:
    def test_every_cell(self, t0):
        classes = list(t0.universe.names)
        table = navigability_table(t0, classes)
        assert table.classes == tuple(classes)
        for row, cells in zip(table.classes, table.grid):
            assert " ".join(cells) == T0_GRID[row], f"row {row}"

    def test_cells_agree_with_direct_checks(self, t0):
        names = t0.universe.names
        table = navigability_table(t0, list(names))
        for i, row in enumerate(names):
            for j, col in enumerate(names):
                atom = atom_over(t0, [row], names, [col])
                amnesic = check_atom_amnesic(t0, atom).holds
                cell = table.grid[i][j]
                assert (cell == "a") == amnesic

    @pytest.mark.parametrize("canonical_witness", [True, False])
    def test_strategies_examined_per_cell(self, t0, canonical_witness):
        names = t0.universe.names
        for row in names:
            examined = [check_atom_amnesic(
                t0, atom_over(t0, [row], names, [col]),
                canonical_witness=canonical_witness).strategies_examined
                for col in names]
            assert examined == T0_EXAMINED[canonical_witness][row], f"row {row}"

    def test_amnesic_only_mode(self, t0):
        table = navigability_table(t0, ["v1", "v3"], modes=("amnesic",))
        flat = {cell for row in table.grid for cell in row}
        assert flat <= {"a", "-"}

    def test_render_shape(self, t0):
        text = navigability_table(t0, list(t0.universe.names)).render()
        lines = text.splitlines()
        assert len(lines) == 7
        assert lines[0].split() == list(t0.universe.names)
        assert lines[3].split() == ["v3", "-", "-", "a", "r", "-", "-"]


class TestTableArguments:
    def test_duplicate_class_is_rejected(self, t0):
        with pytest.raises(ValueError, match="duplicate class 'v1'"):
            navigability_table(t0, ["v1", "v3", "v1"])

    def test_no_mode_is_rejected(self, t0):
        with pytest.raises(ValueError, match="no mode given"):
            navigability_table(t0, ["v1", "v3"], modes=())

    def test_unknown_mode_is_rejected(self, t0):
        with pytest.raises(ValueError, match="unknown mode 'memory'"):
            navigability_table(t0, ["v1"], modes=("memory",))


def table_cell_by_cell(system, classes, modes):
    """The grid asked one cell at a time: an amnesic search for every cell,
    then recall where it fails, each deciding its objective from scratch."""
    universe = system.universe
    grid = []
    for row in classes:
        cells = []
        for col in classes:
            objective = UntilObjective(universe.mask([row]), universe.full,
                                       universe.mask([col]))
            if "amnesic" in modes and decide_amnesic(
                    system, objective, canonical_witness=False).holds:
                cells.append("a")
            elif "recall" in modes and decide_recall(system, objective).holds:
                cells.append("r")
            else:
                cells.append("-")
        grid.append(tuple(cells))
    return tuple(grid)


def test_table_matches_cell_by_cell_grid():
    """The table decides recall once per column and the amnesic search only
    where recall holds; its slow twin decides every cell alone, on its own
    parsed copy of the system so that no belief rows are shared.  The
    corpus must hold dead ends, views no state observes, each mode set and
    class subsets, or the comparison proves less than it claims."""
    seen = set()
    for seed in range(240):
        rng = random.Random(seed)
        system = small_random_system(rng, max_views=4, max_instructions=2,
                                     max_states=6, density=0.3)
        names = list(system.universe.names)
        modes = [("amnesic", "recall"), ("amnesic",), ("recall",)][seed % 3]
        classes = names if seed % 2 else rng.sample(names, rng.randint(1, len(names)))
        copy = parse_system(render_system(system))
        table = navigability_table(system, classes, modes)
        assert table.classes == tuple(classes)
        assert table.grid == table_cell_by_cell(copy, classes, modes), seed
        if any(not targets for rows in system.succ for targets in rows):
            seen.add("dead end")
        if set(system.view_of) != set(range(len(names))):
            seen.add("unobserved view")
        seen.add(modes)
        seen.add("class subset" if len(classes) < len(names) else "all classes")
        seen.update(cell for row in table.grid for cell in row)
    assert seen >= {"dead end", "unobserved view", ("amnesic", "recall"),
                    ("amnesic",), ("recall",), "class subset", "all classes",
                    "a", "r", "-"}


class TestWitnesses:
    def test_reported_witness_is_least_per_view(self, t0):
        # Minimization walks views in declaration order; views the search
        # never consults stay at the first instruction.
        decision = check_atom_amnesic(
            t0, atom_over(t0, ["v1"], t0.universe.names, ["v6"]))
        assert decision.holds
        assert decision.witness.as_map(t0) == {v: "0" for v in t0.universe.names}

        decision = check_atom_amnesic(
            t0, atom_over(t0, ["v1"], t0.universe.names, ["v3"]))
        assert decision.witness.as_map(t0) == {
            "v1": "1", "v2": "1", "v3": "0", "v4": "0", "v5": "1", "v6": "0"}

    def test_cheaper_choice_replaces_the_solution_in_hand(self):
        # The search meets v1 first and settles v1→0, v0→1; declaration
        # order puts v0 first, and v0→0 still works once v1 switches to 1.
        from navlog.core import EpistemicTransitionSystem
        system = EpistemicTransitionSystem.build(
            views=("v0", "v1", "goal"), instructions=("0", "1"),
            states=[("a", "v1"), ("b", "v0"), ("c", "v0"), ("g", "goal")],
            transitions=[("a", "0", "b"), ("a", "1", "c"),
                         ("b", "1", "g"), ("c", "0", "g")])
        atom = atom_over(system, ["v1"], ["v0", "v1"], ["goal"])
        first = check_atom_amnesic(system, atom, canonical_witness=False)
        assert first.witness.as_map(system) == {"v0": "1", "v1": "0", "goal": "0"}
        least = check_atom_amnesic(system, atom)
        assert least.witness.as_map(system) == {"v0": "0", "v1": "1", "goal": "0"}

    def test_witness_replays(self, t0):
        names = t0.universe.names
        for target in names:
            atom = atom_over(t0, ["v1"], names, [target])
            decision = check_atom_amnesic(t0, atom)
            if decision.holds:
                objective = UntilObjective(*atom.masks(t0.universe))
                assert check_strategy(t0, decision.witness, objective) is None

    def test_vacuous_when_no_state_observes_start(self):
        from navlog.core import EpistemicTransitionSystem
        system = EpistemicTransitionSystem.build(
            views=("v", "ghost"), instructions=("0",), states=[("s", "v")])
        atom = Atom.over(system.universe, ["ghost"], [], ["v"])
        decision = check_atom_amnesic(system, atom)
        assert decision.holds
        assert decision.note is not None
        # With nothing to steer, every strategy is a witness; one is returned.
        objective = UntilObjective(*atom.masks(system.universe))
        assert check_strategy(system, decision.witness, objective) is None

    def test_restricted_corridor_claim(self, t0):
        corridor = [v for v in t0.universe.names if v != "v5"]
        atom = atom_over(t0, ["v1"], corridor, ["v3"])
        assert not check_atom_amnesic(t0, atom).holds

    def test_deep_chain_has_no_recursion_limit(self):
        # Each view of the chain is assigned in turn, so the backtracking
        # stack is as deep as the chain is long.
        chain = two_way_chain(3000)
        atom = atom_over(chain, ["v0"], chain.universe.names, ["v2999"])
        decision = check_atom_amnesic(chain, atom, canonical_witness=False)
        assert decision.holds
        objective = UntilObjective(*atom.masks(chain.universe))
        assert check_strategy(chain, decision.witness, objective) is None

    @pytest.mark.parametrize("n", [2, 7, 40, 3000])
    def test_chain_search_order(self, n):
        # The verdict meets one counterexample per view before the target
        # (instruction 0 steps off the end or back onto the path), then
        # succeeds; minimisation tries 0 once on each of those views, which
        # fails at once, so it adds n - 1.
        chain = two_way_chain(n)
        atom = atom_over(chain, ["v0"], chain.universe.names, [f"v{n - 1}"])
        verdict = check_atom_amnesic(chain, atom, canonical_witness=False)
        assert verdict.strategies_examined == n
        least = check_atom_amnesic(chain, atom)
        assert least.strategies_examined == 2 * n - 1
        assert least.witness.choices == (1,) * (n - 1) + (0,)

    def test_chain_verdict_keeps_no_copy_of_the_path_per_view(self):
        # A frame saves only the path's last node, and saved paths share
        # their prefixes, so 3,000 frames fit well under a megabyte.  The
        # lex-least witness keeps one spine and undoes each trial in place,
        # so it fits there too: no marks or assignment are copied per view.
        chain = two_way_chain(3000)
        atom = atom_over(chain, ["v0"], chain.universe.names, ["v2999"])
        for canonical_witness, examined in ((False, 3000), (True, 5999)):
            tracemalloc.start()
            try:
                decision = check_atom_amnesic(chain, atom, canonical_witness)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert decision.holds
            assert decision.strategies_examined == examined
            assert peak < 1 << 20, (canonical_witness, peak)

    def test_trials_resume_where_the_spine_paused(self, monkeypatch):
        # The spine is paused at the view being fixed on a chain, and at a
        # later view when the walk meets views out of declaration order: a
        # reversed chain, and the system whose cheaper choice replaces the
        # solution in hand (there a resumed trial succeeds).  Every trial
        # resumes, and the results are those of trials from the roots.
        trials = collections.Counter()
        search = amnesic._search

        def spy(system, roots, corridor, target, sigma, status=None,
                trail=None, top=None, i=0, probe=False):
            if status is None:
                trials["from the roots"] += 1
            else:
                v = max(k for k, c in enumerate(sigma) if c is not None)
                cell = roots if top is None else system.succ[top[0]][
                    sigma[system.view_of[top[0]]]]
                paused = system.view_of[cell[i]]
                trials["at the view" if paused == v else
                       "at a later view" if paused > v else "behind"] += 1
            return search(system, roots, corridor, target, sigma, status,
                          trail, top, i, probe)

        cheaper = EpistemicTransitionSystem.build(
            views=("v0", "v1", "goal"), instructions=("0", "1"),
            states=[("a", "v1"), ("b", "v0"), ("c", "v0"), ("g", "goal")],
            transitions=[("a", "0", "b"), ("a", "1", "c"),
                         ("b", "1", "g"), ("c", "0", "g")])
        cases = [(two_way_chain(6), "v0", "v5"),
                 (two_way_chain(6, order=range(5, -1, -1)), "v5", "v0"),
                 (two_way_chain(6, order=(2, 0, 4, 1, 5, 3)), "v2", "v3"),
                 (cheaper, "v1", "goal")]
        monkeypatch.setattr(amnesic, "_search", spy)
        kinds = []
        for system, start, target in cases:
            atom = atom_over(system, [start], system.universe.names, [target])
            objective = UntilObjective(*atom.masks(system.universe))
            want = lex_least_by_trials_from_roots(system, objective)
            trials.clear()
            got = decide_amnesic(system, objective)
            assert (got.holds, got.witness.choices, got.strategies_examined,
                    got.note) == want
            kinds.append(dict(trials))
        assert kinds[0] == {"from the roots": 1, "at the view": 5}
        assert all("behind" not in kind for kind in kinds)
        assert all(kind.get("at a later view") for kind in kinds[1:])

    def test_stats_populated(self, t0):
        decision = check_atom_amnesic(
            t0, atom_over(t0, ["v3"], t0.universe.names, ["v1"]))
        assert not decision.holds
        assert decision.witness is None
        assert decision.strategies_examined >= 1


class TestEvaluate:
    def test_connectives(self, t0):
        u = t0.universe
        good = "nav({v1}; ALL; {v3})"
        bad = "nav({v3}; ALL; {v1})"
        assert evaluate(t0, parse_formula(good, u))
        assert not evaluate(t0, parse_formula(bad, u))
        assert evaluate(t0, parse_formula(f"!({bad})", u))
        assert evaluate(t0, parse_formula(f"{good} -> {good}", u))
        assert evaluate(t0, parse_formula(f"{bad} -> {good}", u))
        assert evaluate(t0, parse_formula(f"{bad} -> {bad}", u))
        assert not evaluate(t0, parse_formula(f"{good} -> {bad}", u))

    def test_matches_reference_recursion(self, t0):
        def reference(f):
            if isinstance(f, AtomNode):
                return check_atom_amnesic(t0, f.atom).holds
            if isinstance(f, Not):
                return not reference(f.operand)
            return not reference(f.antecedent) or reference(f.consequent)

        u = t0.universe
        rng = random.Random(5)
        names = list(u.names)
        for _ in range(20):
            pick = lambda: [v for v in names if rng.random() < 0.4]
            a = AtomNode(Atom.over(u, pick(), names, pick()))
            b = AtomNode(Atom.over(u, pick(), names, pick()))
            f = Implies(Not(a), b) if rng.random() < 0.5 else Not(Implies(a, b))
            assert evaluate(t0, f) == reference(f)

    def test_deep_formulas_need_no_recursion(self, t0):
        u = t0.universe
        good = parse_formula("nav({v1}; ALL; {v3})", u)
        bad = parse_formula("nav({v3}; ALL; {v1})", u)
        # !(good -> f) has the opposite truth value of f.
        f = bad
        for _ in range(5000):
            f = Not(Implies(good, f))
        assert evaluate(t0, f) is False
        assert evaluate(t0, Not(Implies(good, f)), "recall") is True

    @pytest.mark.parametrize("mode, module, engine", [
        ("amnesic", amnesic, "check_atom_amnesic"),
        ("recall", recall, "check_atom_recall"),
    ], ids=["amnesic", "recall"])
    def test_each_distinct_atom_is_decided_once(self, t0, monkeypatch, mode,
                                                module, engine):
        real = getattr(module, engine)
        calls = []

        def counting(system, atom, *args, **kwargs):
            calls.append(atom)
            return real(system, atom, *args, **kwargs)

        monkeypatch.setattr(module, engine, counting)
        claim = parse_formula("nav({v1}; ALL; {v3})", t0.universe)
        f = claim
        for _ in range(4999):
            f = Implies(claim, f)
        assert evaluate(t0, f, mode) is True
        assert calls == [claim.atom]

    def test_false_antecedent_skips_the_consequent(self, t0):
        bad = parse_formula("nav({v3}; ALL; {v1})", t0.universe)
        assert evaluate(t0, Implies(bad, "not a formula"))

    def test_recall_mode_matches_recall_checker(self, t0, t1):
        for system in (t0, t1):
            names = system.universe.names
            for start in names:
                for target in names:
                    atom = atom_over(system, [start], names, [target])
                    want = check_atom_recall(system, atom).holds
                    assert evaluate(system, AtomNode(atom), mode="recall") == want
                    assert evaluate(system, Not(AtomNode(atom)), "recall") != want
        u = t1.universe
        joint = parse_formula("nav({vb,vf}; ALL; {vd})", u)
        assert evaluate(t1, joint, "recall") and not evaluate(t1, joint)
        assert not evaluate(t1, Implies(joint, Not(joint)), "recall")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_search_matches_enumeration(seed):
    """Pruned search and exhaustive enumeration agree on random systems, and
    a holding decision's witness replays against the enumeration oracle."""
    rng = random.Random(seed)
    system = small_random_system(rng)
    side = 1 << len(system.universe)
    atom = Atom.from_masks(system.universe, rng.randrange(side),
                           rng.randrange(side), rng.randrange(side))
    decision = check_atom_amnesic(system, atom, canonical_witness=False)
    assert decision.holds == holds_by_enumeration(system, atom)
    if decision.holds and decision.witness is not None:
        objective = UntilObjective(*atom.masks(system.universe))
        assert check_strategy(system, decision.witness, objective) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_canonical_witness_agrees_on_verdict(seed):
    rng = random.Random(seed)
    system = small_random_system(rng)
    side = 1 << len(system.universe)
    atom = Atom.from_masks(system.universe, rng.randrange(side),
                           rng.randrange(side), rng.randrange(side))
    fast = check_atom_amnesic(system, atom, canonical_witness=False)
    least = check_atom_amnesic(system, atom, canonical_witness=True)
    assert fast.holds == least.holds
    if least.holds and least.witness is not None:
        # Least witness means no strategy below it (view by view, in
        # declaration order) also works; spot-check against enumeration.
        first = find_witness_by_enumeration(system, atom)
        expected = AmnesicStrategy.from_map(system, first).choices
        assert least.witness.choices == expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
@example(seed=15172)
@example(seed=38178)
@example(seed=48227)
def test_lex_least_witness_matches_enumeration(seed):
    """Minimisation that keeps the last solution reports the first strategy
    in declaration order.  Few draws have a first solution that is not
    already least; the pinned seeds are such draws, where a trial below the
    current choice succeeds and replaces the solution in hand."""
    rng = random.Random(seed)
    system = small_random_system(rng, max_views=4, max_instructions=3)
    side = 1 << len(system.universe)
    atom = Atom.from_masks(system.universe, rng.randrange(side),
                           rng.randrange(side), rng.randrange(side))
    decision = check_atom_amnesic(system, atom)
    first = find_witness_by_enumeration(system, atom)
    assert decision.holds == (first is not None)
    if first is not None:
        assert decision.witness.as_map(system) == first


def permuted_chain(rng: random.Random):
    """A two-way chain whose states observe the views in a random order, so
    the walk meets views out of declaration order, with random gaps."""
    n = rng.randint(2, 7)
    order = list(range(n))
    rng.shuffle(order)
    chain = two_way_chain(n, order)
    succ = tuple(tuple(cell if rng.random() < 0.8 else () for cell in row)
                 for row in chain.succ)
    return EpistemicTransitionSystem(chain.universe, chain.instructions,
                                     chain.states, chain.view_of, succ)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
@example(seed=9677)
@example(seed=51484)
@example(seed=80987)
def test_lex_least_matches_trials_from_the_roots(seed):
    """Minimisation that resumes each trial from the spine reports what
    trials from the roots report: the verdict, the witness, the count of
    examined assignments and the note, on random systems and on chains
    declared out of walk order.  About one draw in 20,000 has a trial that
    succeeds and replaces the solution in hand; the pinned seeds are such
    draws."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        system = small_random_system(rng, max_views=5, max_instructions=3,
                                     max_states=7, density=0.3)
    else:
        system = permuted_chain(rng)
    side = 1 << len(system.universe)
    objective = UntilObjective(rng.randrange(side), rng.randrange(side),
                               rng.randrange(side))
    decision = decide_amnesic(system, objective)
    assert (decision.holds,
            decision.witness.choices if decision.holds else None,
            decision.strategies_examined,
            decision.note) == lex_least_by_trials_from_roots(system, objective)


@pytest.fixture
def probes(monkeypatch):
    """What every probe the amnesic search runs returns: the assignments it
    examined, and the strategy it won with or None."""
    seen = []
    probe = amnesic._probe

    def spy(system, roots, corridor, target):
        seen.append(probe(system, roots, corridor, target))
        return seen[-1]

    monkeypatch.setattr(amnesic, "_probe", spy)
    return seen


# Planted systems where the plain search passes the budget on both claims:
# the memoryless claim's probe wins, and the recall-only claim FAILS.
PROBED_SEEDS = (12, 40, 81, 95, 102, 105, 116)


class TestProbe:
    @pytest.mark.parametrize("seed", PROBED_SEEDS)
    def test_probe_wins_the_memoryless_claim(self, seed, probes):
        # The probe runs once the search has met one counterexample more
        # than the table has rows, and counts as one assignment.  Views its
        # replay never consulted stay unassigned, so the raw witness gives
        # them 0.  Minimisation never probes, and reports the least witness.
        system, (a, x, b, c, y, d) = planted_system(seed)
        objective = UntilObjective(1 << a, system.universe.full, 1 << b)
        raw = decide_amnesic(system, objective, canonical_witness=False)
        [(examined, won)] = probes
        assert examined == 1 and won is not None
        assert won[a] == 2 and won[x] == 1 and won[b] is None
        assert raw.holds
        assert raw.witness.choices == tuple(c or 0 for c in won)
        assert raw.strategies_examined == 3 * len(system.states) + 2
        assert check_strategy(system, raw.witness, objective) is None
        probes.clear()
        least = decide_amnesic(system, objective)
        assert [(n, w is not None) for n, w in probes] == [(1, True)]
        want = lex_least_by_trials_from_roots(system, objective)
        assert (least.holds, least.witness.choices) == want[:2]
        assert least.strategies_examined <= want[2]

    @pytest.mark.parametrize("seed", PROBED_SEEDS)
    def test_probe_loses_the_recall_only_claim(self, seed, probes):
        # Recall wins through y twice with different instructions; no
        # memoryless strategy does, so the probe loses, the search carries
        # on where it stopped, and the lost probe costs one assignment.
        system, (a, x, b, c, y, d) = planted_system(seed)
        objective = UntilObjective(1 << c, system.universe.full, 1 << d)
        assert decide_recall(system, objective).holds
        for canonical_witness in (False, True):
            probes.clear()
            decision = decide_amnesic(system, objective, canonical_witness)
            assert probes == [(1, None)]
            assert not decision.holds and decision.witness is None
            want = lex_least_by_trials_from_roots(system, objective)
            assert decision.strategies_examined == want[2] + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_claims_match_the_plain_search(self, seed, probes):
        # Verdicts and least witnesses are those of the search without a
        # probe.  A search that never passes the budget counts the same, a
        # lost probe adds its one assignment, and a won probe ends the raw
        # search before the plain one ends.
        system, (a, x, b, c, y, d) = planted_system(seed)
        for s, t in ((a, b), (c, d), (b, a), (y, x)):
            objective = UntilObjective(1 << s, system.universe.full, 1 << t)
            plain = amnesic._search(
                system, system.observers(1 << s), system.universe.full,
                1 << t, [None] * len(system.universe))[1]
            want = lex_least_by_trials_from_roots(system, objective)
            probes.clear()
            raw = decide_amnesic(system, objective, canonical_witness=False)
            least = decide_amnesic(system, objective)
            assert not probes or probes == [probes[0]] * 2   # one per search
            assert raw.holds == least.holds == want[0]
            assert least.witness is None or least.witness.choices == want[1]
            assert least.note == want[3]
            if raw.holds:
                assert check_strategy(system, raw.witness, objective) is None
            if not probes:
                assert raw.strategies_examined == plain
                assert least.strategies_examined == want[2]
            elif probes[0][1] is None:
                assert raw.strategies_examined == plain + 1
                assert least.strategies_examined == want[2] + 1
            else:
                assert raw.strategies_examined <= plain

    def test_probe_reads_its_strategy_off_the_ranks(self, t0):
        # On a chain every rank falls one step towards the target, so each
        # view takes the instruction that steps that way; the target view
        # is never consulted.  A root the corridor cuts off from the target
        # is outside the attractor, and nothing is replayed.
        chain = two_way_chain(6)
        full = chain.universe.full
        assert amnesic._probe(chain, (0,), full, 1 << 5) == (1, [1] * 5 + [None])
        assert amnesic._probe(chain, (5,), full, 1) == (1, [None] + [0] * 5)
        assert amnesic._probe(chain, (0,), full & ~(1 << 3), 1 << 5) == (0, None)
        # T0's recall-only cell: full observation wins, no strategy does.
        roots = t0.observers(t0.universe.mask(["v1"]))
        goal = t0.universe.mask(["v2"])
        assert amnesic._probe(t0, roots, t0.universe.full, goal) == (1, None)

    def test_small_searches_never_probe(self, t0, probes):
        # T0 has 16 rows and a chain of n views 2n, more than either search
        # ever meets counterexamples, also on a chain declared backwards.
        names = t0.universe.names
        for row in names:
            for col in names:
                for canonical_witness in (False, True):
                    check_atom_amnesic(t0, atom_over(t0, [row], names, [col]),
                                       canonical_witness)
        cases = [(two_way_chain(n), "v0", f"v{n - 1}") for n in (2, 7, 40, 3000)]
        cases += [(two_way_chain(n, range(n - 1, -1, -1)), f"v{n - 1}", "v0")
                  for n in (7, 40)]
        for chain, start, goal in cases:
            for canonical_witness in (False, True):
                check_atom_amnesic(chain, atom_over(
                    chain, [start], chain.universe.names, [goal]),
                    canonical_witness)
        assert probes == []

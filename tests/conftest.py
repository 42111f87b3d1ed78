import itertools
import random

import pytest

from navlog.core import EpistemicTransitionSystem, UntilObjective, Universe
from navlog.fixtures import load_t0, load_t1
from navlog.proof import saturate
from navlog.syntax import Atom, parse_system, render_system

# Pairwise navigability of the eight-state fixture over its six view classes,
# corridor unrestricted: rows are start classes, columns target classes;
# 'a' amnesically navigable, 'r' only with perfect recall, '-' neither.
T0_GRID = {
    "v1": "a r a r r a",
    "v2": "a a a a r a",
    "v3": "- - a r - -",
    "v4": "- - - a - -",
    "v5": "a r a a a a",
    "v6": "a a a a a a",
}


@pytest.fixture(scope="session")
def fifty_theories():
    """Frozen sample: the closures of 50 assumption sets over 1..3 views."""
    rng = random.Random(20260819)
    theories = []
    for _ in range(50):
        universe = Universe(tuple(f"v{k}" for k in range(rng.randint(1, 3))))
        side = 1 << len(universe)
        assumptions = [
            Atom.from_masks(universe, rng.randrange(side), rng.randrange(side),
                            rng.randrange(side))
            for _ in range(rng.randint(0, 4))
        ]
        theories.append(saturate(universe, assumptions))
    return theories


@pytest.fixture(scope="session")
def t0() -> EpistemicTransitionSystem:
    return load_t0()


@pytest.fixture(scope="session")
def t1() -> EpistemicTransitionSystem:
    return load_t1()


def small_random_system(rng: random.Random, max_views: int = 3,
                        max_instructions: int = 2, max_states: int = 4,
                        density: float = 0.5) -> EpistemicTransitionSystem:
    """Tiny independent generator for property tests.

    Deliberately not navlog.fuzz.generate_random_system, so tests of that
    function have something to disagree with: it draws its numbers in the
    same order and builds through the validator, so from the same random
    source the two must build equal systems.
    """
    n_views = rng.randint(1, max_views)
    views = tuple(f"v{k}" for k in range(n_views))
    instructions = tuple(str(i) for i in range(rng.randint(1, max_instructions)))
    states = [(f"s{j}", views[rng.randrange(n_views)])
              for j in range(rng.randint(1, max_states))]
    transitions = []
    for name, _ in states:
        for instr in instructions:
            for other, _ in states:
                if rng.random() < density:
                    transitions.append((name, instr, other))
    return EpistemicTransitionSystem.build(views, instructions, states, transitions)


def assert_well_formed(system: EpistemicTransitionSystem) -> None:
    """The table invariants `validate_system` establishes, for a system
    built without it: in-range views, one row per state and one cell per
    instruction, every cell a strictly increasing tuple of in-range states,
    and .ets text that parses back to the same tables."""
    n = len(system.states)
    assert len(system.view_of) == len(system.succ) == n
    assert all(0 <= v < len(system.universe) for v in system.view_of)
    for row in system.succ:
        assert isinstance(row, tuple) and len(row) == len(system.instructions)
        for cell in row:
            assert isinstance(cell, tuple)
            assert all(a < b for a, b in zip(cell, cell[1:]))
            assert all(0 <= t < n for t in cell)
    again = parse_system(render_system(system))
    assert again.universe == system.universe
    assert again.instructions == system.instructions
    assert again.states == system.states
    assert again.view_of == system.view_of
    assert again.succ == system.succ


def two_way_chain(n: int, order=None) -> EpistemicTransitionSystem:
    """States s0..s(n-1), sk observing v(order[k]), vk by default;
    instruction 0 steps back, 1 forward."""
    views = tuple(f"v{k}" for k in range(n))
    order = range(n) if order is None else order
    states = [(f"s{k}", f"v{order[k]}") for k in range(n)]
    transitions = [(f"s{k}", "1", f"s{k + 1}") for k in range(n - 1)]
    transitions += [(f"s{k}", "0", f"s{k - 1}") for k in range(1, n)]
    return EpistemicTransitionSystem.build(views, ("0", "1"), states, transitions)


def two_root_chain(n: int) -> EpistemicTransitionSystem:
    """Two two-way chains, a0..a(n-1) and b0..b(n-1), whose states ak and
    bk both observe vk; instruction 0 steps back, 1 forward."""
    succ = [((k - 1,) if k % n else (), (k + 1,) if (k + 1) % n else ())
            for k in range(2 * n)]
    return EpistemicTransitionSystem(
        Universe(f"v{k}" for k in range(n)), ("0", "1"),
        tuple(f"{c}{k}" for c in "ab" for k in range(n)),
        tuple(range(n)) * 2, tuple(succ))


def planted_system(seed: int, states=(60, 200), views=(6, 10),
                   draws=(1, 2), plant: bool = True):
    """A seeded random system of 60-200 states (bounds `states`), 6-10
    views (`views`) and instructions 0, 1, 2, each row one or two (`draws`)
    uniform draws of successor, with two claims planted by rewriting the
    rows they use.  Returns the system and the views (a, x, b, c, y, d) as
    indices.  Without `plant` no row is rewritten, and the six views are
    merely drawn.

    - nav({a}; ALL; {b}) holds memorylessly: 2 on a leads only into x, and
      1 on x only into b;
    - nav({c}; ALL; {d}) holds only with recall: 0 on c leads only into
      the first half of y's states, 1 on that half only into the second
      half, and 2 on the second half only into d, so y needs 1 on its first
      visit and 2 on its second.
    """
    rng = random.Random(seed)
    n_states, n_views = rng.randint(*states), rng.randint(*views)
    view_of = [rng.randrange(n_views) for _ in range(n_states)]
    for k in range(6):              # the planted views each need a state,
        view_of[2 * k] = view_of[2 * k + 1] = k     # and y two
    of_view = lambda v: [s for s, w in enumerate(view_of) if w == v]
    a, x, b, c, y, d = rng.sample(range(n_views), 6)
    ys = of_view(y)
    rows = {s: (2, of_view(x)) for s in of_view(a)}
    rows.update({s: (1, of_view(b)) for s in of_view(x)})
    rows.update({s: (0, ys[:len(ys) // 2]) for s in of_view(c)})
    rows.update({s: (1, ys[len(ys) // 2:]) for s in ys[:len(ys) // 2]})
    rows.update({s: (2, of_view(d)) for s in ys[len(ys) // 2:]})
    succ = []
    for s in range(n_states):
        row = [tuple(sorted({rng.randrange(n_states)
                             for _ in range(rng.randint(*draws))}))
               for _ in range(3)]
        if plant and s in rows:
            k, pool = rows[s]
            row[k] = tuple(sorted({rng.choice(pool) for _ in range(2)}))
        succ.append(tuple(row))
    system = EpistemicTransitionSystem(
        Universe(f"v{k}" for k in range(n_views)), ("0", "1", "2"),
        tuple(f"s{j}" for j in range(n_states)), tuple(view_of), tuple(succ))
    return system, (a, x, b, c, y, d)


def random_3sat(seed: int, n_vars: int, ratio: float = 4.26):
    """A seeded random 3-CNF formula over variables 0..n_vars-1, with
    round(ratio * n_vars) clauses of three distinct variables each.  A
    literal is (variable, sign), sign True for the positive literal."""
    rng = random.Random(seed)
    return [tuple((x, rng.random() < 0.5)
                  for x in rng.sample(range(n_vars), 3))
            for _ in range(round(ratio * n_vars))]


def satisfiable(n_vars: int, clauses) -> bool:
    """Brute force over every truth assignment."""
    return any(all(any(bits[x] == sign for x, sign in clause)
                   for clause in clauses)
               for bits in itertools.product((False, True), repeat=n_vars))


def sat_system(n_vars: int, clauses):
    """The 3-SAT reduction: nav({S}; ALL but Z; {T}) holds for a memoryless
    agent exactly when the formula is satisfiable.  Returns the system and
    that claim's masks as an UntilObjective.

    Views S, C0..C(m-1) (one per clause), X0..X(n-1) (one per variable), T
    and Z; instructions 0, 1 and 2.  The start state steps, under every
    instruction, to one state per clause.  Clause state j steps under k to
    a state of its k-th literal, which observes that literal's variable.
    There the instruction that makes the literal true (1 for a positive
    literal, 0 for a negative one) leads to T, and the other two to Z,
    outside the corridor.  A memoryless strategy gives each variable view
    one value, so recall always holds and the start state always lies in
    the full-observation attractor.
    """
    m = len(clauses)
    names = (["S"] + [f"C{j}" for j in range(m)]
             + [f"X{x}" for x in range(n_vars)] + ["T", "Z"])
    universe = Universe(names)
    t, z = 1 + 4 * m, 2 + 4 * m         # after s, the clause and literal states
    view_of = [0] + [1 + j for j in range(m)]
    succ = [(tuple(range(1, 1 + m)),) * 3]
    succ += [tuple((1 + m + 3 * j + k,) for k in range(3)) for j in range(m)]
    for clause in clauses:
        for x, sign in clause:
            view_of.append(1 + m + x)
            succ.append(tuple((t,) if k == int(sign) else (z,)
                              for k in range(3)))
    view_of += [1 + m + n_vars, 2 + m + n_vars]
    succ += [((), (), ())] * 2
    states = (["s"] + [f"c{j}" for j in range(m)]
              + [f"l{j}_{k}" for j in range(m) for k in range(3)] + ["t", "z"])
    system = EpistemicTransitionSystem(universe, ("0", "1", "2"),
                                       tuple(states), tuple(view_of),
                                       tuple(succ))
    full = universe.full
    return system, UntilObjective(1, full & ~(1 << view_of[z]),
                                  1 << view_of[t])

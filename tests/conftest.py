import random

import pytest

from navlog.core import EpistemicTransitionSystem, Universe
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


def planted_system(seed: int):
    """A seeded random system of 60-200 states, 6-10 views and instructions
    0, 1, 2, each row one or two random successors, with two claims planted
    by rewriting the rows they use.  Returns the system and the views
    (a, x, b, c, y, d) as indices:

    - nav({a}; ALL; {b}) holds memorylessly: 2 on a leads only into x, and
      1 on x only into b;
    - nav({c}; ALL; {d}) holds only with recall: 0 on c leads only into
      the first half of y's states, 1 on that half only into the second
      half, and 2 on the second half only into d, so y needs 1 on its first
      visit and 2 on its second.
    """
    rng = random.Random(seed)
    n_states, n_views = rng.randint(60, 200), rng.randint(6, 10)
    view_of = [rng.randrange(n_views) for _ in range(n_states)]
    for k in range(6):              # the planted views each need a state,
        view_of[2 * k] = view_of[2 * k + 1] = k     # and y two
    of_view = lambda v: [s for s, w in enumerate(view_of) if w == v]
    a, x, b, c, y, d = rng.sample(range(n_views), 6)
    ys = of_view(y)
    plant = {s: (2, of_view(x)) for s in of_view(a)}
    plant.update({s: (1, of_view(b)) for s in of_view(x)})
    plant.update({s: (0, ys[:len(ys) // 2]) for s in of_view(c)})
    plant.update({s: (1, ys[len(ys) // 2:]) for s in ys[:len(ys) // 2]})
    plant.update({s: (2, of_view(d)) for s in ys[len(ys) // 2:]})
    succ = []
    for s in range(n_states):
        row = [tuple(sorted({rng.randrange(n_states)
                             for _ in range(rng.randint(1, 2))}))
               for _ in range(3)]
        if s in plant:
            k, pool = plant[s]
            row[k] = tuple(sorted({rng.choice(pool) for _ in range(2)}))
        succ.append(tuple(row))
    system = EpistemicTransitionSystem(
        Universe(f"v{k}" for k in range(n_views)), ("0", "1", "2"),
        tuple(f"s{j}" for j in range(n_states)), tuple(view_of), tuple(succ))
    return system, (a, x, b, c, y, d)

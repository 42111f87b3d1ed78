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

"""Reference deciders used to cross-check the shipped engines.

Everything here trades speed for obviousness.  A fixed strategy is judged by
set-based reachability plus Kahn's algorithm, not by the engines' pruned
depth-first search; navigability is decided by enumerating every total
strategy; saturation is redone by whole rounds.  Keep this module independent
of navlog.amnesic, navlog.core.check_strategy and navlog.proof so a shared bug
cannot hide behind agreement.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional, Set

from navlog.core import EpistemicTransitionSystem
from navlog.syntax import Atom


def until_satisfied(system: EpistemicTransitionSystem,
                    choices: Mapping[str, str],
                    start: Set[str], corridor: Set[str],
                    target: Set[str]) -> bool:
    """Does every maximal run from `start` stay in `corridor` until `target`?

    A run that begins on a target view succeeds immediately.  Otherwise every
    position before the first target view must show a corridor view, the run
    must never end early (termination counts as a maximal run), and it must
    not circle forever among corridor views.
    """
    owing = []
    for state in system.states:
        view = system.observation(state)
        if view in start and view not in target:
            if view not in corridor:
                return False
            owing.append(state)

    seen: Set[str] = set()
    frontier = list(owing)
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        nxt = system.successors(state, choices[system.observation(state)])
        if not nxt:
            return False
        for succ in nxt:
            view = system.observation(succ)
            if view in target:
                continue
            if view not in corridor:
                return False
            frontier.append(succ)

    # Kahn's algorithm: a cycle among the states still owing a target hit
    # traps some run forever.
    indegree = {state: 0 for state in seen}
    edges: Dict[str, list] = {state: [] for state in seen}
    for state in seen:
        for succ in system.successors(state, choices[system.observation(state)]):
            if succ in indegree:
                edges[state].append(succ)
                indegree[succ] += 1
    queue = [state for state, d in indegree.items() if d == 0]
    removed = 0
    while queue:
        state = queue.pop()
        removed += 1
        for succ in edges[state]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                queue.append(succ)
    return removed == len(seen)


def find_witness_by_enumeration(system: EpistemicTransitionSystem,
                                atom: Atom) -> Optional[Dict[str, str]]:
    """First total strategy (declaration order) satisfying the claim."""
    views = system.universe.names
    start, corridor, target = set(atom.start), set(atom.corridor), set(atom.target)
    for combo in itertools.product(system.instructions, repeat=len(views)):
        choices = dict(zip(views, combo))
        if until_satisfied(system, choices, start, corridor, target):
            return choices
    return None


def holds_by_enumeration(system: EpistemicTransitionSystem, atom: Atom) -> bool:
    return find_witness_by_enumeration(system, atom) is not None


def closure_by_rounds(n_views: int, assumptions) -> Set[tuple]:
    """Least set of (start, corridor, target) mask triples that holds the
    assumptions and is closed under the six rules, by whole rounds.

    Each round applies every rule to every atom, and transitivity to every
    ordered pair of atoms, of the set so far; it stops when a round adds
    nothing.
    """
    subsets = range(1 << n_views)
    atoms = set(assumptions)
    # reflexivity: (A, B, C) whenever A is a subset of C
    atoms |= {(a, b, c) for a in subsets for b in subsets for c in subsets
              if a & c == a}
    while True:
        new = set()
        for a, b, c in atoms:
            # augmentation: (A, B, C) gives (A+D, B, C+D) for every D
            new.update((a | d, b, c | d) for d in subsets)
            # trim_corridor: (A, B, C) gives (A, B-C, C)
            new.add((a, b & ~c, c))
            # zero_step: (A, {}, C) gives (A-C, {}, {})
            if b == 0:
                new.add((a & ~c, 0, 0))
            # empty_target: (A, B, {}) gives (A, {}, {})
            if c == 0:
                new.add((a, 0, 0))
            # transitivity: (A, B, C) and (C, D, E), B and D disjoint,
            # give (A, B+D, E)
            for c2, d, e in atoms:
                if c2 == c and b & d == 0:
                    new.add((a, b | d, e))
        if new <= atoms:
            return atoms
        atoms |= new

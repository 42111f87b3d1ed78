"""Reference deciders used to cross-check the shipped engines.

Everything here trades speed for obviousness.  A fixed strategy is judged by
set-based reachability plus Kahn's algorithm, not by the engines' pruned
depth-first search; navigability is decided by enumerating every total
strategy; saturation is redone by whole rounds.  Keep this module independent
of navlog.amnesic, navlog.core.check_strategy and navlog.proof so a shared bug
cannot hide behind agreement.  The two exceptions are slow twins that reuse
an engine's parts on purpose, because what they check is one shortcut:
- the twin of lex-least minimisation reuses the amnesic search (checked
  against enumeration elsewhere) and checks that resuming each trial where
  the walk paused changes nothing;
- the twin of saturation reuses its axioms and rule step (checked against
  the round-based closure elsewhere) and checks that skipping the steps
  that cannot add an atom changes no recorded derivation.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Iterable, Mapping, Optional, Set

from navlog.amnesic import _search
from navlog.core import EpistemicTransitionSystem, UntilObjective
from navlog.proof import _axioms, _fire
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


def lex_least_by_trials_from_roots(system: EpistemicTransitionSystem,
                                   objective: UntilObjective) -> tuple:
    """(holds, witness choices, strategies_examined, note) of
    `decide_amnesic` with the lex-least witness, every minimisation trial a
    fresh search from the roots on a copy of the assignment, and neither a
    probe nor an explore-first restart: for a verdict search that passes
    the probe's budget, the count is the plain chronological search's.

    Views are fixed in declaration order, starting from the last successful
    assignment: a view it leaves unassigned takes instruction 0 unsearched,
    and an assigned view tries only the instructions below its choice, the
    later views free; the first trial that succeeds becomes the assignment.
    """
    corridor, target = objective.corridor, objective.target
    roots = [k for k, m in enumerate(system.view_bit) if m & objective.start]
    note = None if roots else "no state observes a start view; holds vacuously"
    sigma: list = [None] * len(system.universe)
    holds, examined, _ = _search(system, roots, corridor, target, sigma)
    if not holds:
        return False, None, examined, None
    for v in range(len(sigma)):
        if sigma[v] is None:
            sigma[v] = 0
            continue
        for i in range(sigma[v]):
            trial = sigma[:v] + [i] + [None] * (len(sigma) - v - 1)
            holds, more, _ = _search(system, roots, corridor, target, trial)
            examined += more
            if holds:
                sigma = trial
                break
    return True, tuple(sigma), examined, note


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


def provenance_by_full_firing(n_views: int, assumptions: Iterable[tuple]) -> dict:
    """Saturation's provenance, every rule step fired: each atom of the
    worklist, when popped, widens by every mask and meets every transitivity
    partner derived so far, reflexive or not."""
    full = (1 << n_views) - 1
    provenance: dict = {}
    by_start: dict = {}
    by_target: dict = {}
    queue: deque = deque()

    def add(key, rule, premises):
        if key not in provenance:
            provenance[key] = (rule, premises)
            by_start.setdefault(key[0], []).append(key)
            by_target.setdefault(key[2], []).append(key)
            queue.append(key)

    for step in _axioms(full, assumptions):
        add(*step)
    while queue:
        _fire(queue.popleft(), range(full + 1), by_start, by_target, add)
    return provenance

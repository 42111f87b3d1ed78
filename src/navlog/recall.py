"""Perfect-recall navigability through knowledge subsets.

An agent that remembers its whole observation history knows, at any moment, a
set of possible current states that all share the current view: a belief.
Play starts from one belief per populated start view (all states of that view
class), and an instruction moves a belief to one successor belief per view
among the successors of its possible states -- resolved adversarially, so the
agent must win along every branch.  Choosing an instruction under which any
possible state halts is losing unless the belief already sits on a target
view.  An atom holds when every initial belief lies in the least fixpoint of
"some instruction keeps all successor beliefs winning".

Witnesses follow declaration order: beliefs are discovered and replayed by
view, then by sorted state indices, so every run gives the same witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Union

from .core import EpistemicTransitionSystem
from .syntax import Atom

__all__ = [
    "Belief", "DEAD_END", "RecallDecision",
    "initial_beliefs", "belief_successors", "check_atom_recall",
    "verify_recall_witness",
]


class _DeadEndFlag:
    """Marker: under this instruction some possible state has no successor."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "DEAD_END"


DEAD_END = _DeadEndFlag()


@dataclass(frozen=True)
class Belief:
    """A view plus the nonempty set of states the agent considers possible."""

    view: str
    possible: FrozenSet[str]

    def __repr__(self) -> str:
        return f"Belief({self.view}, {{{','.join(sorted(self.possible))}}})"


def initial_beliefs(system: EpistemicTransitionSystem,
                    start_views: Iterable[str]) -> tuple[Belief, ...]:
    """One belief per start view that is observed by at least one state.

    At the first observation the agent has no history, so the possible set is
    the whole view class.  Views observing no state contribute nothing.
    Ordered by view declaration.
    """
    start = set(start_views)
    out = []
    for view in system.universe:
        if view in start:
            states = system.states_observing(view)
            if states:
                out.append(Belief(view, frozenset(states)))
    return tuple(out)


def belief_successors(
    system: EpistemicTransitionSystem, belief: Belief, instruction: str
) -> Union[FrozenSet[Belief], _DeadEndFlag]:
    """Beliefs reachable in one step, or DEAD_END.

    DEAD_END whenever any possible state has no successor under the
    instruction (the run might halt there, which the agent cannot rule out).
    Otherwise the union of all successors, partitioned by view: the next
    observation tells the agent which block it is in, nothing more.
    """
    instr = system.instruction_index(instruction)
    by_view: Dict[str, set[str]] = {}
    for name in belief.possible:
        nxt = system.succ[system.state_index(name)][instr]
        if not nxt:
            return DEAD_END
        for t in nxt:
            by_view.setdefault(system.universe.names[system.view_of[t]],
                               set()).add(system.states[t])
    return frozenset(Belief(v, frozenset(states)) for v, states in by_view.items())


def _declaration_order(system: EpistemicTransitionSystem):
    """Sort key for beliefs: view index, then sorted state indices."""
    def key(belief: Belief):
        return (system.universe.index(belief.view),
                sorted(map(system.state_index, belief.possible)))
    return key


@dataclass(frozen=True)
class RecallDecision:
    """Outcome of one atom under perfect recall.

    `witness` (present exactly when the atom holds) maps every winning belief
    off the target to the least-indexed instruction that keeps all of its
    successor beliefs winning.  `explored` counts beliefs discovered."""

    holds: bool
    witness: Optional[Dict[Belief, str]]
    explored: int


def check_atom_recall(system: EpistemicTransitionSystem, atom: Atom) -> RecallDecision:
    """Decide one atom for a perfect-recall agent (sure winning).

    Beliefs are discovered lazily from the initial beliefs under every
    instruction; play stops at target views, and a belief off both corridor
    and target is lost outright; each batch of new beliefs is queued in
    declaration order.  The winning set grows by rounds: a corridor belief
    joins when some instruction avoids DEAD_END and sends every successor
    belief into the current winning set.
    """
    universe = system.universe
    _, corridor_mask, target_mask = atom.masks(universe)
    init = initial_beliefs(system, atom.start)
    order = _declaration_order(system)

    expanded: Dict[Belief, list] = {}        # corridor beliefs -> successors per instruction
    winning: set[Belief] = set()             # target-view beliefs found
    seen: set[Belief] = set(init)
    queue = deque(init)
    while queue:
        bel = queue.popleft()
        bit = 1 << universe.index(bel.view)
        if bit & target_mask:
            winning.add(bel)
            continue
        if not bit & corridor_mask:
            continue
        rows = []
        for instruction in system.instructions:
            succs = belief_successors(system, bel, instruction)
            rows.append(succs)
            if succs is not DEAD_END:
                fresh = [nb for nb in succs if nb not in seen]
                seen.update(fresh)
                queue.extend(sorted(fresh, key=order))
        expanded[bel] = rows

    witness: Dict[Belief, str] = {}
    changed = True
    while changed:
        changed = False
        for bel, rows in expanded.items():
            if bel in winning:
                continue
            for k, succs in enumerate(rows):
                if succs is DEAD_END:
                    continue
                if all(nb in winning for nb in succs):
                    winning.add(bel)
                    witness[bel] = system.instructions[k]
                    changed = True
                    break

    holds = all(b in winning for b in init)
    return RecallDecision(holds, witness if holds else None, len(seen))


def verify_recall_witness(system: EpistemicTransitionSystem, atom: Atom,
                          witness: Dict[Belief, str]) -> list[str]:
    """Independently replay a recall witness; returns all defects found.

    Simulates every environment resolution: from each initial belief, follow
    the witness instruction into all successor beliefs, depth first and in
    declaration order.  Every branch must reach a target view with all
    earlier views in the corridor, and must do so without revisiting a belief
    on its own branch (the fixpoint ranking makes witness play well-founded).
    A belief counts as settled once all of its branches have been walked."""
    universe = system.universe
    _, corridor_mask, target_mask = atom.masks(universe)
    order = _declaration_order(system)
    problems: list[str] = []
    settled: set[Belief] = set()
    path: list[Belief] = []
    on_path: set[Belief] = set()
    iters = [iter(initial_beliefs(system, atom.start))]
    while iters:
        bel = next(iters[-1], None)
        if bel is None:
            iters.pop()
            if path:
                done = path.pop()
                on_path.remove(done)
                settled.add(done)
            continue
        if bel in settled:
            continue
        bit = 1 << universe.index(bel.view)
        if bit & target_mask:
            settled.add(bel)
            continue
        if not bit & corridor_mask:
            problems.append(f"{bel!r} sits outside corridor and target")
            continue
        if bel in on_path:
            problems.append(f"witness play revisits {bel!r}")
            continue
        if bel not in witness:
            problems.append(f"witness has no instruction for {bel!r}")
            continue
        succs = belief_successors(system, bel, witness[bel])
        if succs is DEAD_END:
            problems.append(f"witness instruction dead-ends at {bel!r}")
            continue
        path.append(bel)
        on_path.add(bel)
        iters.append(iter(sorted(succs, key=order)))
    return problems

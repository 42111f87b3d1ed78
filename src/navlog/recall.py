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

The engine runs on the system's integer tables (`view_of`, `succ`): a belief
is (view index, sorted tuple of state indices), whose plain tuple order is
declaration order.  Beliefs are discovered and replayed in that order, so every
run gives the same witness.  Names appear only in `Belief`, built when a
witness is returned and when `verify_recall_witness` looks up an entry.

A belief's successor rows (one per instruction) depend only on the system,
so each system keeps one memo of them, shared by every objective decided on
it: `evaluate`'s atoms and `navigability_table`'s columns expand each belief
once.  The memo is held weakly by system and holds only integers, so it goes
when the system does.  `winning_views` answers a whole column of start views
with one solve.  `verify_recall_witness` never reads the memo: it recomputes
every step it replays, so a defect in the memo cannot vouch for itself.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from .core import EpistemicTransitionSystem, UntilObjective
from .syntax import Atom

__all__ = ["Belief", "RecallDecision", "decide_recall", "check_atom_recall",
           "winning_views", "verify_recall_witness"]

_Key = tuple[int, tuple[int, ...]]   # (view index, sorted state indices)
_Rows = tuple[Optional[list[_Key]], ...]   # successor beliefs per instruction

# Per system: belief -> successor rows, filled as beliefs are expanded.  Rows
# are a function of the system, so a write racing another only repeats a row.
_ROWS: "weakref.WeakKeyDictionary[EpistemicTransitionSystem, Dict[_Key, _Rows]]" = \
    weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class Belief:
    """A view plus the nonempty set of states the agent considers possible."""

    view: str
    possible: FrozenSet[str]

    def __repr__(self) -> str:
        return f"Belief({self.view}, {{{','.join(sorted(self.possible))}}})"


def _belief(system: EpistemicTransitionSystem, key: _Key) -> Belief:
    view, states = key
    return Belief(system.universe.names[view],
                  frozenset(system.states[s] for s in states))


def _split(system: EpistemicTransitionSystem, states: Iterable[int]) -> list[_Key]:
    """The beliefs a set of possible states splits into by view, sorted."""
    by_view: Dict[int, list[int]] = {}
    for s in sorted(states):
        by_view.setdefault(system.view_of[s], []).append(s)
    return sorted((v, tuple(ss)) for v, ss in by_view.items())


def _initial(system: EpistemicTransitionSystem, start_mask: int) -> list[_Key]:
    """One belief per start view that is observed by at least one state.

    At the first observation the agent has no history, so the possible set is
    the whole view class.  Views observing no state contribute nothing.
    """
    return _split(system, system.observers(start_mask))


def _step(system: EpistemicTransitionSystem, key: _Key,
          instr: int) -> Optional[list[_Key]]:
    """Successor beliefs under instruction index `instr`, sorted, or None.

    None whenever any possible state has no successor under the instruction
    (the run might halt there, which the agent cannot rule out).  Otherwise
    the union of all successors, split by view: the next observation tells
    the agent which block it is in, nothing more.
    """
    reached: set[int] = set()
    for s in key[1]:
        nxt = system.succ[s][instr]
        if not nxt:
            return None
        reached.update(nxt)
    return _split(system, reached)


@dataclass(frozen=True)
class RecallDecision:
    """Outcome of one atom under perfect recall.

    `witness` (present exactly when the atom holds) maps every winning belief
    off the target to the least-indexed instruction that keeps all of its
    successor beliefs winning.  `explored` counts beliefs discovered."""

    holds: bool
    witness: Optional[Dict[Belief, str]]
    explored: int


def _solve(system: EpistemicTransitionSystem, init: list[_Key], corridor_mask: int,
           target_mask: int) -> tuple[set[_Key], Dict[_Key, int], int]:
    """The winning beliefs reachable from `init`, their witness instructions
    in the order they joined, and the number of beliefs discovered.

    Beliefs are discovered lazily from `init` under every instruction; play
    stops at target views, and a belief off both corridor and target is lost
    outright; each batch of new beliefs is queued in declaration order.  The
    winning set grows by rounds: a corridor belief joins when some
    instruction lets no possible state halt and sends every successor belief
    into the current winning set.  A belief's verdict depends only on what
    it reaches, so solving several initial beliefs together gives each the
    verdict it gets alone.
    """
    memo = _ROWS.get(system)
    if memo is None:
        memo = _ROWS[system] = {}
    n_instructions = len(system.instructions)
    expanded: Dict[_Key, _Rows] = {}         # corridor beliefs -> successors per instruction
    winning: set[_Key] = set()               # target-view beliefs found
    seen: set[_Key] = set(init)
    queue = deque(init)
    while queue:
        key = queue.popleft()
        bit = 1 << key[0]
        if bit & target_mask:
            winning.add(key)
            continue
        if not bit & corridor_mask:
            continue
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = tuple(_step(system, key, instr)
                                     for instr in range(n_instructions))
        for succs in rows:
            if succs is not None:
                fresh = [nb for nb in succs if nb not in seen]
                seen.update(fresh)
                queue.extend(fresh)
        expanded[key] = rows

    witness: Dict[_Key, int] = {}
    changed = True
    while changed:
        changed = False
        for key, rows in expanded.items():
            if key in winning:
                continue
            for instr, succs in enumerate(rows):
                if succs is not None and all(nb in winning for nb in succs):
                    winning.add(key)
                    witness[key] = instr
                    changed = True
                    break
    return winning, witness, len(seen)


def decide_recall(system: EpistemicTransitionSystem,
                  objective: UntilObjective) -> RecallDecision:
    """Decide one mask triple for a perfect-recall agent (sure winning).

    The atom holds when every initial belief wins; see `_solve`.
    """
    init = _initial(system, objective.start)
    winning, witness, explored = _solve(system, init, objective.corridor,
                                        objective.target)
    if not all(key in winning for key in init):
        return RecallDecision(False, None, explored)
    return RecallDecision(True, {_belief(system, key): system.instructions[instr]
                                 for key, instr in witness.items()}, explored)


def winning_views(system: EpistemicTransitionSystem, start_mask: int,
                  corridor_mask: int, target_mask: int) -> int:
    """The start views v for which nav({v}; corridor; target) holds under
    perfect recall, as a mask, from one solve over every start view.

    A view that no state observes has no initial belief and wins vacuously,
    as it does in `decide_recall`.
    """
    init = _initial(system, start_mask)
    winning, _, _ = _solve(system, init, corridor_mask, target_mask)
    wins = start_mask
    for key in init:
        if key not in winning:
            wins &= ~(1 << key[0])
    return wins


def check_atom_recall(system: EpistemicTransitionSystem, atom: Atom) -> RecallDecision:
    """Decide one atom for a perfect-recall agent; see `decide_recall`."""
    return decide_recall(system, UntilObjective(*atom.masks(system.universe)))


def verify_recall_witness(system: EpistemicTransitionSystem, atom: Atom,
                          witness: Dict[Belief, str]) -> list[str]:
    """Independently replay a recall witness; returns all defects found.

    Simulates every environment resolution: from each initial belief, follow
    the witness instruction into all successor beliefs, depth first and in
    declaration order.  Every branch must reach a target view with all
    earlier views in the corridor, and must do so without revisiting a belief
    on its own branch (the fixpoint ranking makes witness play well-founded).
    A belief counts as settled once all of its branches have been walked."""
    start_mask, corridor_mask, target_mask = atom.masks(system.universe)
    problems: list[str] = []
    settled: set[_Key] = set()
    on_path: Dict[_Key, None] = {}           # the branch walked, in order
    iters = [iter(_initial(system, start_mask))]
    while iters:
        key = next(iters[-1], None)
        if key is None:
            iters.pop()
            if on_path:
                settled.add(on_path.popitem()[0])
            continue
        if key in settled:
            continue
        bit = 1 << key[0]
        if bit & target_mask:
            settled.add(key)
            continue
        bel = _belief(system, key)
        if not bit & corridor_mask:
            problems.append(f"{bel!r} sits outside corridor and target")
            continue
        if key in on_path:
            problems.append(f"witness play revisits {bel!r}")
            continue
        if bel not in witness:
            problems.append(f"witness has no instruction for {bel!r}")
            continue
        name = witness[bel]
        try:
            instr = system.instruction_index(name)
        except KeyError:
            problems.append(f"witness names unknown instruction {name!r} at {bel!r}")
            continue
        succs = _step(system, key, instr)
        if succs is None:
            problems.append(f"witness instruction dead-ends at {bel!r}")
            continue
        on_path[key] = None
        iters.append(iter(succs))
    return problems

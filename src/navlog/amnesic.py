"""Forgetful-agent navigability: existence of a per-view instruction choice.

`decide_amnesic` decides whether SOME strategy (one instruction per view, no
memory) drives every maximal run from the start views through the corridor
into the target.  The search assigns instructions lazily, only to views the
exploration actually consults: a partial assignment that already exhibits a
counterexample among consulted views rules out all of its completions, and a
partial assignment under which every run succeeds settles the atom because
unconsulted views are never reached (the agreement property of strategies,
restricted to consulted views).  One search is one walk of the depth-first
explorer `core.explore`, the same one `core.check_strategy` runs under a
total strategy.  The walk pauses at each view it meets unassigned and
resumes there once the view has an instruction; on backtrack it resumes
from the position saved with the choice it revisits, so no work before that
position is repeated and a chain of views is decided in linear time.
Verdicts are deterministic: start states, successors and candidate
instructions are always scanned in declaration order.

The witness reported is the lexicographically least one.  Minimisation fixes
views in declaration order and keeps the last successful assignment: a view
it never consults takes instruction 0 unsearched, and a consulted view is
searched only below its current choice, which the assignment proves workable.
It keeps one spine, a walk of the explorer under the views fixed so far,
paused where it first meets a view not yet fixed.  Every trial resumes the
search from the spine's position and is undone afterwards, and the spine
walks on once the view it is paused at is fixed, so no trial repeats the
walk up to a view: a two-way chain is minimised in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (UNSEEN, AmnesicStrategy, EpistemicTransitionSystem,
                   UntilObjective, explore, move_path)
from .syntax import Atom, AtomNode, Formula, Implies, Not
from . import recall as _recall

__all__ = [
    "AmnesicDecision", "decide_amnesic", "check_atom_amnesic", "evaluate",
    "NavigabilityTable", "navigability_table",
]


@dataclass(frozen=True)
class AmnesicDecision:
    """Outcome of one atom under forgetful semantics.

    `witness` is present exactly when the atom holds and replays cleanly
    through check_strategy.  `strategies_examined` counts partial assignments
    that reached a definite verdict during the search (each stands for a whole
    class of total strategies).
    """

    holds: bool
    witness: Optional[AmnesicStrategy]
    strategies_examined: int
    note: Optional[str] = None


def _search(system: EpistemicTransitionSystem, roots: Sequence[int], corridor: int,
            target: int, sigma: list[Optional[int]],
            status: Optional[list[int]] = None, trail: Optional[list[int]] = None,
            top: Optional[tuple] = None, i: int = 0
            ) -> tuple[bool, int, Optional[tuple]]:
    """Complete the partial strategy `sigma` in place, if it can be done.

    One resumable walk of the explorer, backtracking over an explicit stack
    of [view, instruction, trail mark, top, i] frames.  When the walk meets
    a view with no instruction, a frame records the view with the position
    (top, i) where the walk stopped, the view is tried with instructions in
    declaration order, and the walk resumes there.  A counterexample undoes
    the newest choice that has an instruction left: the trail of safe marks
    (states whose every run verified) rolls back to that frame's mark, the
    path marks move from the current path to the frame's, and the walk
    resumes from the frame's position, never from the roots.  A frame holds
    only the path's last node, and saved paths share their prefixes, so a
    frame costs O(1).

    The walk starts from the roots with fresh marks, or, given `status`,
    `trail`, `top` and `i`, from that position of an `explore` walk under
    `sigma`: the marks are used and updated in place, and the search ends as
    if it had walked there from the roots itself.  Returns whether an
    extension succeeds (left in `sigma`; otherwise `sigma` is restored), the
    number of partial assignments that reached a definite verdict, and the
    node where the walk's path ends, whose states hold the path marks (None
    on success, the last counterexample's on failure).  Safe marks trailed
    after the start may remain; a caller that resumes the same marks
    elsewhere resets them and moves the path marks back with `move_path`.
    """
    n_instructions = len(system.instructions)
    if status is None:
        status, trail = [UNSEEN] * len(system.states), []
    frames: list[list] = []
    examined = 0
    found, top, i = explore(system, sigma, corridor, target, roots, status,
                            trail, top, i)
    while found is not None:
        if isinstance(found, int):
            frames.append([found, 0, len(trail), top, i])
            sigma[found] = 0
        else:
            examined += 1
            while frames:
                frame = frames[-1]
                view, instruction, mark, saved, j = frame
                for state in trail[mark:]:
                    status[state] = UNSEEN
                del trail[mark:]
                if instruction + 1 < n_instructions:
                    frame[1] = sigma[view] = instruction + 1
                    break
                sigma[view] = None
                frames.pop()
            else:
                return False, examined, top
            move_path(status, top, saved)
            top, i = saved, j
        found, top, i = explore(system, sigma, corridor, target, roots,
                                status, trail, top, i)
    return True, examined + 1, top


def decide_amnesic(system: EpistemicTransitionSystem, objective: UntilObjective,
                   canonical_witness: bool = True) -> AmnesicDecision:
    """Decide one (start, corridor, target) mask triple for a forgetful agent.

    With `canonical_witness` (the default) a positive verdict reports the
    lexicographically least successful strategy under view declaration order,
    found by fixing each view in turn to its least workable instruction;
    views the objective never consults end up with instruction index 0.
    Each view starts from the last successful assignment, so only the
    instructions below its current choice are tried (none for a view that
    assignment never consults).
    Trials do not start from the roots.  A spine walk under the views fixed
    so far (later views free) pauses at the first view it meets that is not
    fixed.  Each trial sets the view being fixed and resumes the search from
    the spine's position, sharing its marks; afterwards the trial's safe
    marks are reset and the path marks moved back to the spine's path.
    Once the view the spine is paused at is fixed, the spine walks on.  The
    spine consults only fixed views, so a trial from the roots reaches its
    position in the same state, whether the spine is paused at the view
    being fixed or at a later one (or has finished: every run then verifies
    and the trial succeeds at once).  Trials therefore meet the same
    counterexamples in the same order as trials from the roots, and the
    witness and `strategies_examined` are theirs.
    Passing False skips that minimization and reports the raw assignment the
    search found first (still a valid witness) -- useful in bulk sweeps where
    only the verdict matters.  No results are cached across atoms.
    """
    corridor, target = objective.corridor, objective.target
    roots = system.observers(objective.start)
    note = None if roots else "no state observes a start view; holds vacuously"
    n_views = len(system.universe)
    sigma: list[Optional[int]] = [None] * n_views
    holds, examined, _ = _search(system, roots, corridor, target, sigma)
    if not holds:
        return AmnesicDecision(False, None, examined)
    if canonical_witness:
        # Invariant: `sigma` succeeds and agrees with `fixed` before v;
        # `fixed` leaves v and later views free.  The spine walks under
        # `fixed` and is paused at (top, i), meeting view `paused`.
        fixed: list[Optional[int]] = [None] * n_views
        status, trail = [UNSEEN] * len(system.states), []
        paused, top, i = explore(system, fixed, corridor, target, roots,
                                 status, trail)
        for v in range(n_views):
            mark = len(trail)
            for c in range(sigma[v] or 0):  # unassigned: 0, unsearched
                fixed[v] = c
                holds, more, end = _search(system, roots, corridor, target,
                                           fixed, status, trail, top, i)
                examined += more
                # Undo the trial: back to the spine's marks.
                for state in trail[mark:]:
                    status[state] = UNSEEN
                del trail[mark:]
                move_path(status, end, top)
                if holds:  # its completion is the new solution in hand
                    sigma[v + 1:] = fixed[v + 1:]
                    fixed[v + 1:] = [None] * (n_views - v - 1)
                    sigma[v] = c
                    break
            fixed[v] = sigma[v] = sigma[v] or 0
            if paused == v:
                paused, top, i = explore(system, fixed, corridor, target,
                                         roots, status, trail, top, i)
    choices = tuple(0 if c is None else c for c in sigma)
    return AmnesicDecision(True, AmnesicStrategy(choices), examined, note)


def check_atom_amnesic(system: EpistemicTransitionSystem, atom: Atom,
                       canonical_witness: bool = True) -> AmnesicDecision:
    """Decide one atom for a forgetful agent; see `decide_amnesic`."""
    return decide_amnesic(system, UntilObjective(*atom.masks(system.universe)),
                          canonical_witness)


def evaluate(system: EpistemicTransitionSystem, formula: Formula,
             mode: str = "amnesic") -> bool:
    """Truth of a formula: atoms under forgetful ("amnesic") or perfect
    ("recall") memory, connectives classical.

    An implication's consequent is decided only when its antecedent holds.
    Each distinct atom is decided once per call, by the engine itself (no
    proof rule stands in for a decision).  The walk keeps an explicit stack
    of what is left to do on the way back up (None negates, a formula is a
    consequent still to decide), so nesting depth costs no recursion.
    """
    if mode == "amnesic":
        decide = lambda atom: check_atom_amnesic(
            system, atom, canonical_witness=False).holds
    elif mode == "recall":
        decide = lambda atom: _recall.check_atom_recall(system, atom).holds
    else:
        raise ValueError(f"unknown mode {mode!r}")
    decided: dict[Atom, bool] = {}
    pending: list[Optional[Formula]] = []
    while True:
        while not isinstance(formula, AtomNode):
            if isinstance(formula, Not):
                pending.append(None)
                formula = formula.operand
            elif isinstance(formula, Implies):
                pending.append(formula.consequent)
                formula = formula.antecedent
            else:
                raise TypeError(f"not a formula: {formula!r}")
        value = decided.get(formula.atom)
        if value is None:
            value = decided[formula.atom] = decide(formula.atom)
        while pending:
            step = pending.pop()
            if step is None:
                value = not value
            elif value:
                formula = step
                break
            else:
                value = True
        else:
            return value


@dataclass(frozen=True)
class NavigabilityTable:
    """Pairwise unrestricted navigability between view classes.

    Cell [row][col]: 'a' when a forgetful strategy reaches col from row,
    else 'r' when a perfect-recall agent can, else '-'.
    """

    classes: tuple[str, ...]
    grid: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        width = max((len(c) for c in self.classes), default=1)
        head = " " * (width + 2) + "  ".join(c.rjust(width) for c in self.classes)
        rows = [head]
        for name, cells in zip(self.classes, self.grid):
            rows.append(name.ljust(width + 2) + "  ".join(c.rjust(width) for c in cells))
        return "\n".join(rows)


def navigability_table(system: EpistemicTransitionSystem, classes: Sequence[str],
                       modes: Sequence[str] = ("amnesic", "recall")) -> NavigabilityTable:
    """Grid of nav({row}; ALL; {col}) verdicts over the given view classes.

    Recall is decided first, one solve per column.  A forgetful strategy is
    also a perfect-recall one, so a cell where recall fails is '-' in every
    mode, and the amnesic search runs only on the cells where recall holds.
    """
    universe = system.universe
    for mode in modes:
        if mode not in ("amnesic", "recall"):
            raise ValueError(f"unknown mode {mode!r}")
    if not modes:
        raise ValueError("no mode given; choose from amnesic, recall")
    bits = [universe.mask([name]) for name in classes]
    starts = 0
    for name, bit in zip(classes, bits):
        if starts & bit:
            raise ValueError(f"duplicate class {name!r}")
        starts |= bit
    columns = []
    for target in bits:
        wins = _recall.winning_views(system, starts, universe.full, target)
        cells = []
        for start in bits:
            if not wins & start:
                cells.append("-")
            elif "amnesic" in modes and decide_amnesic(
                    system, UntilObjective(start, universe.full, target),
                    canonical_witness=False).holds:
                cells.append("a")
            else:
                cells.append("r" if "recall" in modes else "-")
        columns.append(cells)
    return NavigabilityTable(tuple(classes), tuple(zip(*columns)))

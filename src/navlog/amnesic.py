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

A search from the roots that outgrows the transition table -- more
counterexamples than the system has (state, instruction) rows -- probes
once: it reads one total strategy off the full-observation attractor (each
view takes the instruction whose worst successor rank is least) and replays
it.  If every run verifies, the search ends with that strategy, restricted
to the views the replay consulted; if not, it carries on exactly where it
stopped.  A probe costs about one pass over the table, so it runs only
after the search has done that much work, and small searches never reach
it.  It counts as one examined assignment, won or lost, unless a root lies
outside the attractor: then no strategy can win, and nothing is replayed
or counted.  Verdicts and the lex-least witness do not depend on the probe;
the raw witness and `strategies_examined` of a search past the budget do.

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


def _probe(system: EpistemicTransitionSystem, roots: Sequence[int],
           corridor: int, target: int
           ) -> tuple[int, Optional[list[Optional[int]]]]:
    """One total strategy read off the full-observation attractor, replayed.

    Ranks come from a counting attractor, linear in the transitions: target
    states have rank 0, and a corridor state joins when some instruction's
    non-empty successor row has joined in full, at one more than the rank
    of that row's last successor to join.  Each view takes the instruction
    whose worst successor rank, over all of the view's states, is least; an
    empty row or an unjoined successor counts as worst, and ties go to the
    lower index.  The strategy is replayed from the roots on fresh marks.

    Returns the number of assignments examined and, when every run
    verifies, the strategy restricted to the views of the states the replay
    marked safe (the others None).  A root outside the attractor loses even
    with full observation, so then nothing is replayed: (0, None).
    """
    view_bit, view_of, succ = system.view_bit, system.view_of, system.succ
    n_instructions = len(system.instructions)
    worst = len(system.states)
    rank = [worst] * len(system.states)
    # Row s * n_instructions + k is succ[s][k]: its successors yet to join,
    # the rank of its last successor to join, and each state's rows.
    owed = [0] * (len(system.states) * n_instructions)
    row_rank = [worst] * len(owed)
    before: list[list[int]] = [[] for _ in system.states]
    layer, owing = [], []
    for s, row in enumerate(succ):
        m = view_bit[s]
        if m & target:
            rank[s] = 0
            layer.append(s)
        elif m & corridor:
            owing.append(s)
            for key, cell in enumerate(row, s * n_instructions):
                if cell:
                    owed[key] = len(cell)
                    for t in cell:
                        before[t].append(key)
    r = 0
    while layer:
        joined = []
        for t in layer:
            for key in before[t]:
                owed[key] -= 1
                if not owed[key]:
                    row_rank[key] = r
                    s = key // n_instructions
                    if rank[s] == worst:
                        rank[s] = r + 1
                        joined.append(s)
        layer = joined
        r += 1
    if any(rank[s] == worst for s in roots):
        return 0, None
    cost = [[-1] * n_instructions for _ in system.universe]
    for s in owing:
        v, key = view_of[s], s * n_instructions
        cost[v] = list(map(max, cost[v], row_rank[key:key + n_instructions]))
    strategy = [per.index(min(per)) for per in cost]
    trail: list[int] = []
    found, _, _ = explore(system, strategy, corridor, target, roots,
                          [UNSEEN] * len(system.states), trail)
    if found is not None:
        return 1, None
    consulted = {view_of[s] for s in trail}
    return 1, [c if v in consulted else None for v, c in enumerate(strategy)]


def _search(system: EpistemicTransitionSystem, roots: Sequence[int], corridor: int,
            target: int, sigma: list[Optional[int]],
            status: Optional[list[int]] = None, trail: Optional[list[int]] = None,
            top: Optional[tuple] = None, i: int = 0, probe: bool = False
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

    With `probe`, the search runs `_probe` once, when its count of
    counterexamples first exceeds the number of rows of the transition
    table; a probe that wins ends the search with its assignment.
    """
    n_instructions = len(system.instructions)
    budget = len(system.states) * n_instructions
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
            if probe and examined > budget:
                probe = False
                probed, won = _probe(system, roots, corridor, target)
                examined += probed
                if won is not None:
                    sigma[:] = won
                    return True, examined, None
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

    The verdict search, and only it, probes once it has met more
    counterexamples than the system has (state, instruction) rows: it
    replays the strategy read off the full-observation attractor, and ends
    if that wins.  The assignment it then returns is that strategy on the
    views the replay consulted, None elsewhere, so the raw witness has 0 on
    the other views and minimisation leaves them unsearched.  The probe
    counts as one examined assignment, won or lost (it is skipped, and not
    counted, when a root lies outside the attractor).  So past that budget
    the raw witness and `strategies_examined` may differ from a search
    without the probe; the verdict and the lex-least witness never do.
    """
    corridor, target = objective.corridor, objective.target
    roots = system.observers(objective.start)
    note = None if roots else "no state observes a start view; holds vacuously"
    n_views = len(system.universe)
    sigma: list[Optional[int]] = [None] * n_views
    holds, examined, _ = _search(system, roots, corridor, target, sigma,
                                 probe=True)
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

"""Finite epistemic transition systems and single-strategy checking.

A system is a finite set of states, each observing exactly one view, plus a
family of labelled transition relations (one per instruction).  Nondeterminism
and dead ends are both permitted, and a view may be observed by no state at
all.  A forgetful agent acts through a strategy that picks one instruction per
view; `check_strategy` decides whether every maximal run from a given start
region stays inside a corridor of views until it reaches a target view, and
produces a replayable counterexample when it does not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")

# Counterexample categories for check_strategy.
LEFT_CORRIDOR = "left_corridor"    # stepped onto a view outside corridor and target
DEAD_END = "dead_end"              # run halted before reaching the target
NEVER_REACHES = "never_reaches"    # run cycles forever short of the target

UNSEEN, _ON_PATH, _SAFE, _OPEN = 0, 1, 2, 3


class SystemValidationError(ValueError):
    """Raised when a system description breaks a structural invariant.

    Carries every violation found, not just the first.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class Universe:
    """Ordered, interned view identifiers with bitmask helpers.

    View sets are represented as Python ints: bit k stands for the view
    declared k-th.  Declaration order is the canonical order everywhere.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        self.names: tuple[str, ...] = tuple(names)
        self._index: dict[str, int] = {}
        for k, name in enumerate(self.names):
            if not _IDENT.match(name):
                raise SystemValidationError([f"bad view identifier {name!r}"])
            if name in self._index:
                raise SystemValidationError([f"duplicate view {name!r}"])
            self._index[name] = k

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Universe({list(self.names)!r})"

    @property
    def full(self) -> int:
        """Mask with every declared view set."""
        return (1 << len(self.names)) - 1

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown view {name!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        """View names in a mask, in declaration order."""
        return tuple(n for k, n in enumerate(self.names) if mask >> k & 1)


class EpistemicTransitionSystem:
    """Validated system with interned states, views and instructions.

    `__init__` takes the integer tables below and trusts them: navlog's own
    builders (the canonical model, the fuzz generator) call it directly.
    Descriptions from outside the program go through `validate_system`, or
    the `build` wrapper over names, which check them first.

    The integer tables the engines run on are public and read-only, indexed
    by declaration order: `view_of[s]` is the view index state s observes,
    `view_bit[s]` is `1 << view_of[s]`, and `succ[s][i]` is the sorted
    tuple of state indices that state s reaches under instruction i.
    `observers(mask)` lists the states observing the views of a mask from
    the per-view lists built here, so no engine scans every state for its
    roots.
    """

    def __init__(
        self,
        universe: Universe,
        instructions: tuple[str, ...],
        states: tuple[str, ...],
        observation: tuple[int, ...],
        succ: tuple[tuple[tuple[int, ...], ...], ...],
    ):
        self.universe = universe
        self.instructions = instructions
        self.states = states
        self.view_of = observation
        self.view_bit = tuple(1 << v for v in observation)
        self.succ = succ
        self._state_index = {name: k for k, name in enumerate(states)}
        self._instr_index = {name: k for k, name in enumerate(instructions)}
        per_view: list[list[int]] = [[] for _ in range(len(universe))]
        for k, v in enumerate(observation):
            per_view[v].append(k)
        self._view_states = tuple(tuple(ks) for ks in per_view)
        self._observers: dict[int, tuple[int, ...]] = {}

    @classmethod
    def build(
        cls,
        views: Iterable[str],
        instructions: Iterable[str],
        states: Iterable[tuple[str, str]],
        transitions: Iterable[tuple[str, str, str]] = (),
    ) -> "EpistemicTransitionSystem":
        return validate_system([(v, None) for v in views],
                               [(i, None) for i in instructions],
                               [(s, v, None) for s, v in states],
                               [(s, i, t, None) for s, i, t in transitions])

    def __repr__(self) -> str:
        return (
            f"<EpistemicTransitionSystem {len(self.states)} states, "
            f"{len(self.universe)} views, {len(self.instructions)} instructions>"
        )

    def state_index(self, name: str) -> int:
        try:
            return self._state_index[name]
        except KeyError:
            raise KeyError(f"unknown state {name!r}") from None

    def instruction_index(self, name: str) -> int:
        try:
            return self._instr_index[name]
        except KeyError:
            raise KeyError(f"unknown instruction {name!r}") from None

    def observation(self, state: str) -> str:
        """View observed in a state."""
        return self.universe.names[self.view_of[self.state_index(state)]]

    def observers(self, mask: int) -> tuple[int, ...]:
        """Indices of the states observing a view in `mask`, ascending.

        Views outside the universe, and views no state observes, add none.
        Each mask is worked out once per system: engines ask again for the
        same start views, and on tiny systems a lookup beats any merge.
        """
        found = self._observers.get(mask)
        if found is None:
            groups = []
            rest = mask & self.universe.full
            while rest:
                low = rest & -rest
                groups.append(self._view_states[low.bit_length() - 1])
                rest ^= low
            found = self._observers[mask] = (
                groups[0] if len(groups) == 1
                else tuple(sorted(chain.from_iterable(groups))))
        return found

    def successors(self, state: str, instruction: str) -> tuple[str, ...]:
        """Targets reachable from `state` in one `instruction` step."""
        ks = self.succ[self.state_index(state)][self.instruction_index(instruction)]
        return tuple(self.states[k] for k in ks)

    def transition_triples(self) -> tuple[tuple[str, str, str], ...]:
        """Every (source, instruction, target), in declaration order."""
        out = []
        for s, rows in enumerate(self.succ):
            for i, targets in enumerate(rows):
                for t in targets:
                    out.append((self.states[s], self.instructions[i], self.states[t]))
        return tuple(out)


def validate_system(
    views: Iterable[tuple[str, Optional[int]]],
    instructions: Iterable[tuple[str, Optional[int]]],
    states: Iterable[tuple[str, str, Optional[int]]],
    transitions: Iterable[tuple[str, str, str, Optional[int]]],
) -> EpistemicTransitionSystem:
    """Check a description given by names, and intern it.

    The entries are (view, line), (instruction, line), (state, view, line)
    and (source, instruction, target, line), where line is the source line
    of a description read from text, else None.  Reports every violated
    invariant at once, naming source lines when it has them.  Duplicate
    transitions collapse silently (the relation is a set); everything else
    duplicated or dangling is an error.
    """
    problems: list[str] = []

    def where(line: Optional[int]) -> str:
        return f" (line {line})" if line is not None else ""

    def fresh(kind: str, table: dict, name: str, line: Optional[int]) -> bool:
        """Whether a declaration names a well-formed name not yet in `table`."""
        if not _IDENT.match(name):
            problems.append(f"bad {kind} identifier {name!r}{where(line)}")
        elif name in table:
            problems.append(f"duplicate {kind} {name!r}{where(line)}")
        else:
            return True
        return False

    def resolve(table: dict, name: str, line: Optional[int], role: str,
                state: Optional[str] = None) -> Optional[int]:
        """The index of a name used as `role` on `line`, by the declaration
        of `state` or else by a transition; None once the use is reported."""
        found = table.get(name)
        if found is None:
            problem = (f"transition {role} {name!r} is undeclared" if state is None
                       else f"state {state!r} observes undeclared {role} {name!r}")
        elif line is not None and found[1] is not None and found[1] > line:
            user = "transition" if state is None else f"state {state!r}"
            problem = f"{user} uses {role} {name!r} before its declaration"
        else:
            return found[0]
        problems.append(problem + where(line))
        return None

    view_at: dict[str, tuple[int, Optional[int]]] = {}
    for name, line in views:
        if fresh("view", view_at, name, line):
            view_at[name] = (len(view_at), line)
    instr_at: dict[str, tuple[int, Optional[int]]] = {}
    for name, line in instructions:
        if fresh("instruction", instr_at, name, line):
            instr_at[name] = (len(instr_at), line)
    if not instr_at:
        problems.append("at least one instruction is required (strategies must be total)")

    state_at: dict[str, tuple[int, Optional[int]]] = {}
    observation: list[int] = []
    for name, view, line in states:
        if not fresh("state", state_at, name, line):
            continue
        v = resolve(view_at, view, line, "view", name)
        if v is not None:
            state_at[name] = (len(state_at), line)
            observation.append(v)

    edges: list[tuple[int, int, int]] = []
    for src, instr, dst, line in transitions:
        s = resolve(state_at, src, line, "source state")
        t = resolve(state_at, dst, line, "target state")
        i = resolve(instr_at, instr, line, "instruction")
        if s is not None and t is not None and i is not None:
            edges.append((s, i, t))

    if problems:
        raise SystemValidationError(problems)

    buckets: list[list[set[int]]] = [[set() for _ in instr_at] for _ in state_at]
    for s, i, t in edges:
        buckets[s][i].add(t)
    succ = tuple(tuple(tuple(sorted(cell)) for cell in row) for row in buckets)
    return EpistemicTransitionSystem(Universe(view_at), tuple(instr_at),
                                     tuple(state_at), tuple(observation), succ)


@dataclass(frozen=True)
class AmnesicStrategy:
    """Total choice of one instruction per view (no memory of the run).

    `choices[k]` is the instruction index picked for the view with index k.
    """

    choices: tuple[int, ...]

    @classmethod
    def from_map(cls, system: EpistemicTransitionSystem,
                 mapping: Mapping[str, str]) -> "AmnesicStrategy":
        missing = [v for v in system.universe if v not in mapping]
        if missing:
            raise ValueError(f"strategy is not total; missing views {missing}")
        extra = [v for v in mapping if v not in system.universe]
        if extra:
            raise ValueError(f"strategy names unknown views {extra}")
        return cls(tuple(system.instruction_index(mapping[v]) for v in system.universe))

    def as_map(self, system: EpistemicTransitionSystem) -> dict[str, str]:
        return {
            view: system.instructions[self.choices[k]]
            for k, view in enumerate(system.universe.names)
        }


@dataclass(frozen=True)
class UntilObjective:
    """Bitmask triple (start, corridor, target) over a system's universe."""

    start: int
    corridor: int
    target: int


@dataclass(frozen=True)
class PathWitness:
    """Replayable evidence that one strategy misses an objective.

    `states` is a nonempty run under the strategy starting from a start-view
    state.  For `never_reaches` the run is a lasso: the final state steps back
    to `states[loop_start]`.  For the other two reasons `loop_start` is None
    and the run is a simple prefix ending at the offending state.
    """

    states: tuple[str, ...]
    reason: str
    loop_start: Optional[int] = None


def explore(system: EpistemicTransitionSystem, sigma: Sequence[Optional[int]],
            corridor: int, target: int, roots: Sequence[int],
            status: list[int], trail: list[int],
            top: Optional[tuple] = None, i: int = 0, ahead: bool = False
            ) -> "tuple[None | int | str, Optional[tuple], int]":
    """Depth-first walk over the runs from `roots` under a partial strategy,
    resumable where it stopped.

    `sigma[v]` is the instruction index chosen for view v, or None.  The
    path is a chain of immutable nodes (state, index in the parent's
    successor list, parent, depth), the roots' parent being None, so saved
    paths share their prefixes.  The walk reads the `i`-th successor of node
    `top` next, or the `i`-th root when `top` is None.  A node's successors
    are `succ[state][sigma[view]]`: the views on a saved path keep their
    instructions until it is resumed.  States and successors are scanned in
    declaration order, so the result is deterministic.  `status` holds one
    mark per state: the states on the path are _ON_PATH, and a state whose
    every run verified is _SAFE and pushed on `trail`, so a walk under an
    extension of `sigma` skips it (a caller that retracts a choice resets
    the marks trailed since).

    Returns (found, top, i), where the walk stopped at the `i`-th successor
    of `top`.  `found` is None when every run verifies; the index of that
    successor's view when the view has no instruction, in which case the
    walk has not stepped past it and resumes there once it has one; or the
    reason of a counterexample ending at that successor (for
    `never_reaches`, the path up to `top` closes a lasso on it).  The path's
    marks stay in place on return.

    With `ahead`, a state whose view has no instruction is passed over, not
    paused at, and the walk goes on: a counterexample anywhere is returned
    as above.  A state finished with such a state among its runs is marked
    _OPEN rather than safe, and skipped when met again (its runs were all
    walked, and a cycle through it would have met the path); these marks
    are cleared on return.  A walk that finds no counterexample returns the
    first view with no instruction it met, at the position it met it, with
    the path marks moved there: what a walk without `ahead` would return,
    bar the safe marks it has added past that position.
    """
    view_bit, view_of, succ = system.view_bit, system.view_of, system.succ
    children = roots if top is None else succ[top[0]][sigma[view_of[top[0]]]]
    n = len(children)
    # With `ahead`: the first view met with no instruction, with its
    # position; the states marked _OPEN; and the depth down to which the
    # path's nodes have a state with no instruction among their runs.
    first, opened, tainted = None, [], -1
    while True:
        if i == n:
            if top is None:
                found = None
                break
            done, i, top, depth = top
            if tainted < depth:
                status[done] = _SAFE
                trail.append(done)
            else:
                status[done] = _OPEN
                opened.append(done)
                tainted = depth - 1
            i += 1
            children = roots if top is None else succ[top[0]][sigma[view_of[top[0]]]]
            n = len(children)
            continue
        u = children[i]
        m = view_bit[u]
        mark = status[u]
        if m & target or mark == _SAFE:
            i += 1
        elif not m & corridor:
            found = LEFT_CORRIDOR
            break
        elif mark == _ON_PATH:
            found = NEVER_REACHES
            break
        else:
            # An _OPEN state is passed over like one with no instruction.
            instruction = None if mark else sigma[view_of[u]]
            if instruction is None:
                if not ahead:
                    return view_of[u], top, i
                if first is None:
                    first = view_of[u], top, i
                tainted = -1 if top is None else top[3]
                i += 1
            elif not succ[u][instruction]:
                found = DEAD_END
                break
            else:
                status[u] = _ON_PATH
                top = (u, i, top, 0 if top is None else top[3] + 1)
                children, i = succ[u][instruction], 0
                n = len(children)
    for state in opened:
        status[state] = UNSEEN
    if found is None and first is not None:
        found, top, i = first
        move_path(status, None, top)
    return found, top, i


def move_path(status: list[int], old: Optional[tuple],
              new: Optional[tuple]) -> None:
    """Move `explore`'s _ON_PATH marks from the path ending at node `old`
    to the one ending at `new`; only the two suffixes below their common
    ancestor change."""
    gained = []
    while old is not new:
        if new is None or (old is not None and old[3] >= new[3]):
            status[old[0]] = UNSEEN
            old = old[2]
        else:
            gained.append(new[0])
            new = new[2]
    for state in gained:
        status[state] = _ON_PATH


def check_strategy(
    system: EpistemicTransitionSystem,
    strategy: AmnesicStrategy,
    objective: UntilObjective,
) -> Optional[PathWitness]:
    """Decide one strategy against an objective; None means it succeeds.

    Succeeds when every maximal run from every start-view state keeps its
    views inside the corridor until (immediately or eventually) a target view
    appears; a start already on a target view succeeds with zero steps.
    Exploration is depth-first in declaration order, so the counterexample
    returned for a failing strategy is deterministic.  States observing a
    target view are success leaves: the run is not extended past them.
    """
    choices, view_of = strategy.choices, system.view_of
    roots = system.observers(objective.start)
    reason, top, i = explore(system, choices, objective.corridor,
                             objective.target, roots,
                             [UNSEEN] * len(system.states), [])
    if reason is None:
        return None
    u = roots[i] if top is None else system.succ[top[0]][choices[view_of[top[0]]]][i]
    path: list[int] = []
    loop_start = None
    while top is not None:
        state, _, top, depth = top
        path.append(state)
        if state == u:
            loop_start = depth
    path.reverse()
    if reason != NEVER_REACHES:
        path.append(u)
    return PathWitness(tuple(system.states[k] for k in path), reason, loop_start)


def verify_witness(
    system: EpistemicTransitionSystem,
    strategy: AmnesicStrategy,
    objective: UntilObjective,
    witness: PathWitness,
) -> list[str]:
    """Independently replay a counterexample; returns all defects found.

    An empty list means the witness is genuine: the run starts on a start
    view, follows the strategy's instructions, and exhibits its stated reason
    (corridor exit, halt short of the target, or a strategy-closed lasso that
    never meets the target).
    """
    problems: list[str] = []
    sts = witness.states
    if not sts:
        return ["witness has no states"]
    try:
        idxs = [system.state_index(s) for s in sts]
    except KeyError as e:
        return [e.args[0]]
    a_mask, b_mask, c_mask = objective.start, objective.corridor, objective.target
    obs = system.view_bit

    if not obs[idxs[0]] & a_mask:
        problems.append(f"first state {sts[0]!r} does not observe a start view")
    for here, there in zip(idxs, idxs[1:]):
        instr = strategy.choices[system.view_of[here]]
        if there not in system.succ[here][instr]:
            problems.append(
                f"{system.states[here]!r} does not step to {system.states[there]!r} "
                f"under the strategy"
            )
    body = idxs if witness.reason == NEVER_REACHES else idxs[:-1]
    for k in body:
        m = obs[k]
        if m & c_mask or not m & b_mask:
            problems.append(f"state {system.states[k]!r} is not strictly inside the corridor")

    last = idxs[-1]
    if witness.reason == LEFT_CORRIDOR:
        if witness.loop_start is not None:
            problems.append("left_corridor witness carries a loop_start")
        if obs[last] & (b_mask | c_mask):
            problems.append(f"final state {sts[-1]!r} still observes a corridor or target view")
    elif witness.reason == DEAD_END:
        if witness.loop_start is not None:
            problems.append("dead_end witness carries a loop_start")
        if obs[last] & c_mask:
            problems.append(f"final state {sts[-1]!r} observes a target view")
        instr = strategy.choices[system.view_of[last]]
        if system.succ[last][instr]:
            problems.append(f"final state {sts[-1]!r} still has successors under the strategy")
    elif witness.reason == NEVER_REACHES:
        ls = witness.loop_start
        if ls is None or not 0 <= ls < len(idxs):
            problems.append("never_reaches witness needs a loop_start inside the run")
        else:
            instr = strategy.choices[system.view_of[last]]
            if idxs[ls] not in system.succ[last][instr]:
                problems.append("lasso does not close under the strategy")
    else:
        problems.append(f"unknown witness reason {witness.reason!r}")
    return problems

"""Reference deciders owned by the benchmark.

Nothing here imports navlog.  Each decider answers the same question as an
engine of the program with a different algorithm, so an answer the two
agree on is unlikely to share a defect:

* `replay_strategy` checks one memoryless strategy by a topological sort of
  the states it can reach (the program uses a depth-first search);
* `solve_belief_game` decides perfect-recall navigability with a counting
  attractor over knowledge beliefs (the program iterates rounds);
* `solve_amnesic` refutes through the belief game first (a memoryless win is
  also a perfect-recall win) and otherwise backtracks over view choices;
* `saturate_keys` closes a theory under the six rules with a bit table;
* `replay_tree` checks a derivation tree rule by rule;
* closed forms give the answers for the chain families and the empty theory.

Systems are `Sys` values built by the benchmark's generators, not parsed
from the files the program reads.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Key = Tuple[int, int, int]


@dataclass(frozen=True)
class Sys:
    """A finite system: `succ[state][instruction]` lists target states."""

    views: Tuple[str, ...]
    instructions: Tuple[str, ...]
    states: Tuple[str, ...]
    view_of: Tuple[int, ...]
    succ: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def text(self) -> str:
        """The system in the program's .ets format."""
        lines = ["views " + " ".join(self.views),
                 "instructions " + " ".join(self.instructions)]
        lines += [f"state {s} {self.views[v]}"
                  for s, v in zip(self.states, self.view_of)]
        for s, row in enumerate(self.succ):
            for i, targets in enumerate(row):
                for t in targets:
                    lines.append(f"trans {self.states[s]} {self.instructions[i]} "
                                 f"{self.states[t]}")
        return "\n".join(lines) + "\n"


def chain(n: int, two_way: bool) -> Sys:
    """States s0..s(n-1), state k observing view vk.

    Two-way chains have instruction 0 stepping back and 1 stepping forward;
    one-way chains have a single instruction 0 stepping forward.
    """
    views = tuple(f"v{k}" for k in range(n))
    states = tuple(f"s{k}" for k in range(n))
    rows = []
    for k in range(n):
        fwd = (k + 1,) if k + 1 < n else ()
        if two_way:
            rows.append(((k - 1,) if k else (), fwd))
        else:
            rows.append((fwd,))
    instrs = ("0", "1") if two_way else ("0",)
    return Sys(views, instrs, states, tuple(range(n)), tuple(rows))


def random_system(rng: random.Random, n_states: int, n_views: int,
                  n_instructions: int, fanout: int) -> Sys:
    """Uniform views; `fanout` uniform draws of successor per (state, instr)."""
    views = tuple(f"v{k}" for k in range(n_views))
    view_of = tuple(rng.randrange(n_views) for _ in range(n_states))
    rows = tuple(
        tuple(tuple(sorted({rng.randrange(n_states) for _ in range(fanout)}))
              for _ in range(n_instructions))
        for _ in range(n_states))
    return Sys(views, tuple(str(i) for i in range(n_instructions)),
               tuple(f"s{j}" for j in range(n_states)), view_of, rows)


# --- memoryless strategies -------------------------------------------------

def replay_strategy(sys: Sys, choice: Sequence[int], start: int, corridor: int,
                    target: int) -> bool:
    """Whether every maximal run from a start-view state stays in the
    corridor until it first meets a target view, under `choice[view]`."""
    live = set()
    todo = [s for s, v in enumerate(sys.view_of) if start >> v & 1]
    while todo:
        s = todo.pop()
        bit = 1 << sys.view_of[s]
        if bit & target or s in live:
            continue
        if not bit & corridor:
            return False
        nxt = sys.succ[s][choice[sys.view_of[s]]]
        if not nxt:
            return False
        live.add(s)
        todo.extend(nxt)
    # No cycle among live states: Kahn's algorithm must consume them all.
    indeg = {s: 0 for s in live}
    for s in live:
        for t in set(sys.succ[s][choice[sys.view_of[s]]]):
            if t in live:
                indeg[t] += 1
    ready = [s for s, d in indeg.items() if d == 0]
    consumed = 0
    while ready:
        s = ready.pop()
        consumed += 1
        for t in set(sys.succ[s][choice[sys.view_of[s]]]):
            if t in live:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    return consumed == len(live)


# --- perfect recall --------------------------------------------------------

Belief = Tuple[int, int]   # (view index, bitmask of possible states)


def _belief_step(sys: Sys, belief: Belief, instr: int) -> Optional[List[Belief]]:
    """Successor beliefs, or None when some possible state halts."""
    by_view: Dict[int, int] = {}
    mask = belief[1]
    while mask:
        low = mask & -mask
        s = low.bit_length() - 1
        mask ^= low
        nxt = sys.succ[s][instr]
        if not nxt:
            return None
        for t in nxt:
            v = sys.view_of[t]
            by_view[v] = by_view.get(v, 0) | 1 << t
    return sorted(by_view.items())


def initial_beliefs(sys: Sys, start: int) -> List[Belief]:
    out: Dict[int, int] = {}
    for s, v in enumerate(sys.view_of):
        if start >> v & 1:
            out[v] = out.get(v, 0) | 1 << s
    return sorted(out.items())


@dataclass
class BeliefGame:
    holds: bool
    winning: set           # winning beliefs on corridor views off the target


def solve_belief_game(sys: Sys, start: int, corridor: int,
                      target: int) -> BeliefGame:
    """Sure winning for an agent that remembers its observations."""
    init = initial_beliefs(sys, start)
    edges: Dict[Belief, List[Optional[List[Belief]]]] = {}
    terminal_win: set = set()
    seen = set(init)
    queue = deque(init)
    while queue:
        b = queue.popleft()
        bit = 1 << b[0]
        if bit & target:
            terminal_win.add(b)
            continue
        if not bit & corridor:
            continue
        rows = [_belief_step(sys, b, i) for i in range(len(sys.instructions))]
        edges[b] = rows
        for row in rows:
            for nb in row or ():
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
    # Counting attractor: a belief wins once some instruction has all of its
    # successor beliefs winning.
    preds: Dict[Belief, List[Tuple[Belief, int]]] = {}
    pending: Dict[Tuple[Belief, int], int] = {}
    for b, rows in edges.items():
        for i, row in enumerate(rows):
            if row is None:
                continue
            pending[(b, i)] = len(row)
            for nb in row:
                preds.setdefault(nb, []).append((b, i))
    won = set(terminal_win)
    work = list(terminal_win)
    for (b, i), count in pending.items():
        if count == 0 and b not in won:
            won.add(b)
            work.append(b)
    while work:
        nb = work.pop()
        for b, i in preds.get(nb, ()):
            pending[(b, i)] -= 1
            if pending[(b, i)] == 0 and b not in won:
                won.add(b)
                work.append(b)
    holds = all(b in won for b in init)
    return BeliefGame(holds, won - terminal_win)


def replay_recall_witness(sys: Sys, start: int, corridor: int, target: int,
                          plan: Dict[Belief, int]) -> Optional[str]:
    """Follow a belief-to-instruction plan against every resolution.

    Returns None when every branch reaches a target view through corridor
    views without revisiting a belief, else a description of the defect.
    """
    succ_of: Dict[Belief, List[Belief]] = {}
    todo = list(initial_beliefs(sys, start))
    while todo:
        b = todo.pop()
        if b in succ_of or 1 << b[0] & target:
            continue
        if not 1 << b[0] & corridor:
            return f"plan reaches belief {b} outside corridor and target"
        if b not in plan:
            return f"plan has no instruction for reachable belief {b}"
        row = _belief_step(sys, b, plan[b])
        if row is None:
            return f"plan instruction dead-ends at belief {b}"
        succ_of[b] = row
        todo.extend(row)
    indeg = {b: 0 for b in succ_of}
    for row in succ_of.values():
        for nb in row:
            if nb in indeg:
                indeg[nb] += 1
    ready = [b for b, d in indeg.items() if d == 0]
    consumed = 0
    while ready:
        b = ready.pop()
        consumed += 1
        for nb in succ_of[b]:
            if nb in indeg:
                indeg[nb] -= 1
                if indeg[nb] == 0:
                    ready.append(nb)
    if consumed != len(succ_of):
        return "plan play can cycle among beliefs"
    return None


# --- memoryless existence --------------------------------------------------

class _Backtrack:
    """Search over choices for the views that reachable states consult."""

    def __init__(self, sys: Sys, start: int, corridor: int, target: int):
        self.sys, self.corridor, self.target = sys, corridor, target
        self.roots = [s for s, v in enumerate(sys.view_of) if start >> v & 1]
        self.n_instr = len(sys.instructions)

    def solve(self, fixed: Dict[int, int]) -> Optional[Dict[int, int]]:
        return self._extend(dict(fixed))

    def _extend(self, choice: Dict[int, int]) -> Optional[Dict[int, int]]:
        # Explore under the partial choice; stop at states of unchosen views.
        sys = self.sys
        live: set = set()
        pending_view = None
        todo = list(self.roots)
        while todo:
            s = todo.pop()
            bit = 1 << sys.view_of[s]
            if bit & self.target or s in live:
                continue
            if not bit & self.corridor:
                return None
            v = sys.view_of[s]
            if v not in choice:
                if pending_view is None or v < pending_view:
                    pending_view = v
                continue
            nxt = sys.succ[s][choice[v]]
            if not nxt:
                return None
            live.add(s)
            todo.extend(nxt)
        if self._has_cycle(live, choice):
            return None
        if pending_view is None:
            return choice
        for i in range(self.n_instr):
            choice[pending_view] = i
            found = self._extend(choice)
            if found is not None:
                return found
        del choice[pending_view]
        return None

    def _has_cycle(self, live: set, choice: Dict[int, int]) -> bool:
        sys = self.sys
        indeg = {s: 0 for s in live}
        for s in live:
            for t in sys.succ[s][choice[sys.view_of[s]]]:
                if t in live:
                    indeg[t] += 1
        ready = [s for s, d in indeg.items() if d == 0]
        consumed = 0
        while ready:
            s = ready.pop()
            consumed += 1
            for t in sys.succ[s][choice[sys.view_of[s]]]:
                if t in live:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        ready.append(t)
        return consumed != len(live)


def solve_amnesic(sys: Sys, start: int, corridor: int, target: int,
                  lex_least: bool) -> Tuple[bool, Optional[List[int]]]:
    """(holds, witness): the witness is the lexicographically least winning
    choice vector in view order when `lex_least`, else None."""
    if not solve_belief_game(sys, start, corridor, target).holds:
        return False, None
    search = _Backtrack(sys, start, corridor, target)
    if search.solve({}) is None:
        return False, None
    if not lex_least:
        return True, None
    fixed: Dict[int, int] = {}
    for v in range(len(sys.views)):
        for i in range(len(sys.instructions)):
            fixed[v] = i
            if search.solve(fixed) is not None:
                break
        else:
            raise AssertionError("reference lost its own witness")
    witness = [fixed[v] for v in range(len(sys.views))]
    if not replay_strategy(sys, witness, start, corridor, target):
        raise AssertionError("reference witness does not replay")
    return True, witness


# --- derivations -----------------------------------------------------------

def saturate_keys(n: int, assumptions: Iterable[Key]) -> set:
    """Least set of (start, corridor, target) masks over n views closed
    under the six rules, containing the assumptions."""
    full = (1 << n) - 1
    shift = n
    have = bytearray(1 << 3 * n)
    out: set = set()
    starts: Dict[int, List[Key]] = {}
    targets: Dict[int, List[Key]] = {}
    work: List[Key] = []

    def put(k: Key) -> None:
        code = k[0] | k[1] << shift | k[2] << 2 * shift
        if not have[code]:
            have[code] = 1
            out.add(k)
            starts.setdefault(k[0], []).append(k)
            targets.setdefault(k[2], []).append(k)
            work.append(k)

    for a in range(full + 1):
        for c in range(full + 1):
            if a & ~c == 0:
                for b in range(full + 1):
                    put((a, b, c))
    for k in assumptions:
        put(k)
    while work:
        a, b, c = work.pop()
        for d in range(full + 1):
            put((a | d, b, c | d))
        put((a, b & ~c, c))
        if b == 0:
            put((a & ~c, 0, 0))
        if c == 0:
            put((a, 0, 0))
        for (_, b2, c2) in list(starts.get(c, ())):
            if b & b2 == 0:
                put((a, b | b2, c2))
        for (a0, b0, _) in list(targets.get(a, ())):
            if b0 & b == 0:
                put((a0, b0 | b, c))
    return out


def empty_theory_keys(n: int) -> set:
    """Closed form: with no assumptions exactly the atoms with start inside
    target are derivable, 6^n of them."""
    full = (1 << n) - 1
    return {(a, b, c) for c in range(full + 1) for a in range(full + 1)
            if a & ~c == 0 for b in range(full + 1)}


def replay_tree(tree: dict, parse, assumptions: set) -> Optional[str]:
    """Check a derivation tree rule by rule; None when every step is an
    instance of its rule and every leaf is an assumption or reflexive."""
    stack = [tree]
    while stack:
        node = stack.pop()
        key = parse(node["atom"])
        prem = [parse(p["atom"]) for p in node["premises"]]
        stack.extend(node["premises"])
        a, b, c = key
        rule = node["rule"]
        if rule == "assumption":
            ok = not prem and key in assumptions
        elif rule == "reflexivity":
            ok = not prem and a & ~c == 0
        elif rule == "augmentation" and len(prem) == 1:
            a0, b0, c0 = prem[0]
            d = (a & ~a0) | (c & ~c0)
            ok = b == b0 and a == a0 | d and c == c0 | d
        elif rule == "transitivity" and len(prem) == 2:
            (a1, b1, c1), (a2, b2, c2) = prem
            ok = c1 == a2 and b1 & b2 == 0 and key == (a1, b1 | b2, c2)
        elif rule == "trim_corridor" and len(prem) == 1:
            a0, b0, c0 = prem[0]
            ok = key == (a0, b0 & ~c0, c0)
        elif rule == "zero_step" and len(prem) == 1:
            a0, b0, c0 = prem[0]
            ok = b0 == 0 and key == (a0 & ~c0, 0, 0)
        elif rule == "empty_target" and len(prem) == 1:
            a0, b0, c0 = prem[0]
            ok = c0 == 0 and key == (a0, 0, 0)
        else:
            ok = False
        if not ok:
            return f"step {node['atom']} [{rule}] does not follow from its premises"
    return None


def canonical_shape(n: int, keys: set) -> Tuple[List[int], int]:
    """(valid view indices, instruction count) of the canonical system:
    a view is valid unless ({v}, {}, {}) is derivable, and an instruction is
    a disjoint (start, transit, target) of valid views whose one-shot atom
    (start, start|transit, target) is derivable."""
    valid = [v for v in range(n) if (1 << v, 0, 0) not in keys]
    vmask = sum(1 << v for v in valid)
    count = 0
    a = vmask
    while True:
        rest = vmask & ~a
        b = rest
        while True:
            rest2 = rest & ~b
            c = rest2
            while True:
                if (a, a | b, c) in keys:
                    count += 1
                if c == 0:
                    break
                c = (c - 1) & rest2
            if b == 0:
                break
            b = (b - 1) & rest
        if a == 0:
            break
        a = (a - 1) & vmask
    return valid, count

"""Canonical systems built from a closure, and machine checks over them.

From a saturated closure this module builds a concrete system whose truth
matches derivability: a view stays `valid` unless the closure proves that
starting from it with an empty corridor reaches nothing; an instruction is a
pairwise-disjoint triple (start, transit, target) of valid view sets whose
one-shot atom (start, start|transit, target) is derivable.  States are one
plain state per valid view plus one in-progress state per (valid view,
instruction) pair; each instruction moves start-observing states either
straight to its targets or into its own in-progress band, and drains that
band to the targets.

`verify_truth_lemma` model-checks every atom (or a seeded sample) against
membership in the closure -- the executable form of the agreement between
derivability and truth in the built system.  `gstar_chain` replays the
covering construction that underpins the completeness argument: given a
per-view instruction choice, it grows a set of views certified to reach a
goal, and every stage leaves two derivability obligations that
`verify_chain` discharges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .amnesic import decide_amnesic
from .core import EpistemicTransitionSystem, UntilObjective
from .proof import Closure, Key, is_closed
from .syntax import Atom

__all__ = [
    "CanonicalInstruction", "valid_views", "canonical_instructions",
    "build_canonical", "TruthLemmaMismatch", "TruthLemmaReport",
    "verify_truth_lemma", "GStage", "GChain", "gstar_chain",
    "verify_chain", "verify_stage_conditions",
]

# Above three views, verify_truth_lemma checks the atoms of this many draws
# from a generator seeded with _SEED.
_SAMPLES = 500
_SEED = 0


@dataclass(frozen=True)
class CanonicalInstruction:
    """Disjoint (start, transit, target) view masks with a derivable one-shot
    atom (start, start|transit, target)."""

    start: int
    transit: int
    target: int


def _valid_mask(closure: Closure) -> int:
    """Views v for which ({v}, {}, {}) is NOT derivable."""
    mask = 0
    for k in range(len(closure.universe)):
        if (1 << k, 0, 0) not in closure.derived:
            mask |= 1 << k
    return mask


def valid_views(closure: Closure) -> tuple[str, ...]:
    return closure.universe.names_of(_valid_mask(closure))


def canonical_instructions(closure: Closure) -> tuple[CanonicalInstruction, ...]:
    """All qualifying triples, in ascending numeric (start, transit, target)
    order; that order is the canonical one everywhere downstream."""
    valid = _valid_mask(closure)
    derived = closure.derived
    out = []
    for a in range(valid + 1):
        if a & ~valid:
            continue
        rest = valid & ~a
        for b in range(rest + 1):
            if b & ~rest:
                continue
            rest2 = rest & ~b
            for c in range(rest2 + 1):
                if c & ~rest2:
                    continue
                if (a, a | b, c) in derived:
                    out.append(CanonicalInstruction(a, b, c))
    return tuple(out)


def build_canonical(closure: Closure) -> EpistemicTransitionSystem:
    """Concrete system over the closure's universe.

    Instruction k is named "i<k>", matching canonical_instructions(closure)
    by position.  Plain state p is named after the p-th valid view and
    observes it; state n + p*L + k (n valid views, L instructions) is that
    view's in-progress state for instruction k, named "<view>__i<k>".
    Invalid views keep no states (their classes are empty), so atoms
    mentioning them stay checkable.

    Rejects hand-assembled closures that are not actually closed; the model
    construction is only meaningful over a fixpoint.
    """
    if not closure.sealed and not is_closed(closure):
        raise ValueError(
            "closure is not saturated: some rule application adds an atom")
    universe = closure.universe
    instrs = canonical_instructions(closure)
    labels = tuple(f"i{k}" for k in range(len(instrs)))
    valid = _valid_mask(closure)
    views = [v for v in range(len(universe)) if valid >> v & 1]
    n, count = len(views), len(instrs)
    states = tuple(universe.names[v] for v in views) + tuple(
        f"{universe.names[v]}__{label}" for v in views for label in labels)
    if len(set(states)) != len(states):
        raise ValueError(
            "canonical state names collide; avoid view names ending in __i<k>")
    view_of = tuple(views) + tuple(v for v in views for _ in labels)

    succ = [[()] * count for _ in states]
    for k, ins in enumerate(instrs):
        # Start-view states move straight to the targets or into the band,
        # the instruction's in-progress states on start|transit views; a
        # band state drains to the targets, even on a start view.
        goal = tuple(p for p, v in enumerate(views) if ins.target >> v & 1)
        band = tuple(n + p * count + k for p, v in enumerate(views)
                     if (ins.start | ins.transit) >> v & 1)
        onward = goal + band
        for p, v in enumerate(views):
            if ins.start >> v & 1:
                for s in (p, *range(n + p * count, n + (p + 1) * count)):
                    succ[s][k] = onward
        for s in band:
            succ[s][k] = goal
    return EpistemicTransitionSystem(universe, labels, states, view_of,
                                     tuple(map(tuple, succ)))


@dataclass(frozen=True)
class TruthLemmaMismatch:
    atom: Atom
    derivable: bool
    holds: bool


@dataclass(frozen=True)
class TruthLemmaReport:
    atoms_checked: int
    exhaustive: bool
    mismatches: Tuple[TruthLemmaMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_truth_lemma(closure: Closure, exhaustive: Optional[bool] = None,
                       system: Optional[EpistemicTransitionSystem] = None
                       ) -> TruthLemmaReport:
    """Compare derivability against model truth on the built system.

    Exhaustive over all (2^|V|)^3 atoms when |V| <= 3 (or when forced);
    otherwise a sample of _SAMPLES draws seeded with _SEED (deduplicated).  Any
    mismatch in either direction is reported.  `system` is
    `build_canonical(closure)` when the caller has built it already;
    otherwise it is built here.
    """
    universe = closure.universe
    n = len(universe)
    if exhaustive is None:
        exhaustive = n <= 3
    if system is None:
        system = build_canonical(closure)
    side = 1 << n
    keys: list[Key]
    if exhaustive:
        keys = [(a, b, c)
                for a in range(side) for b in range(side) for c in range(side)]
    else:
        rng = random.Random(_SEED)
        seen = set()
        for _ in range(_SAMPLES):
            key = (rng.randrange(side), rng.randrange(side), rng.randrange(side))
            seen.add(key)
        keys = sorted(seen)
    mismatches = []
    for key in keys:
        derivable = key in closure.derived
        holds = decide_amnesic(system, UntilObjective(*key),
                               canonical_witness=False).holds
        if derivable != holds:
            mismatches.append(TruthLemmaMismatch(
                Atom.from_masks(universe, *key), derivable, holds))
    return TruthLemmaReport(len(keys), exhaustive, tuple(mismatches))


@dataclass(frozen=True)
class GStage:
    """One step of the covering chain.

    `start_gain`  views of the instruction's start set that choose it and
                  were not covered yet (their addition is what the stage
                  certifies);
    `transit_gain` transit views choosing the instruction (they join the
                  corridor the chain is allowed to cross);
    `covered`     all views certified so far, goal included;
    `carried`     every transit_gain accumulated so far.
    """

    index: int
    instruction: CanonicalInstruction
    start_gain: int
    transit_gain: int
    covered: int
    carried: int


@dataclass(frozen=True)
class GChain:
    """Deterministic covering chain for (corridor, goal) under one strategy."""

    corridor: int
    goal: int
    stages: Tuple[GStage, ...]

    @property
    def covered(self) -> int:
        return self.stages[-1].covered if self.stages else self.goal

    @property
    def carried(self) -> int:
        return self.stages[-1].carried if self.stages else 0


def _selection_masks(closure: Closure, strategy: Mapping[str, CanonicalInstruction],
                     instrs: tuple[CanonicalInstruction, ...]) -> list[int]:
    """Per instruction: mask of views whose strategy picks it."""
    universe = closure.universe
    position = {ins: k for k, ins in enumerate(instrs)}
    sel = [0] * len(instrs)
    for name, ins in strategy.items():
        k = position.get(ins)
        if k is None:
            raise ValueError(f"strategy assigns view {name!r} a non-canonical instruction")
        sel[k] |= 1 << universe.index(name)
    return sel


def _unmet(ins: CanonicalInstruction, chosen: int, covered: int,
           budget: int) -> list[str]:
    """Conditions (a)-(e) an instruction fails as the next stage, given the
    views `chosen` whose strategy picks it, the views covered so far and the
    `budget` corridor|goal."""
    unmet = []
    if (ins.start | ins.transit) & ~budget:
        unmet.append("strays outside corridor|goal")
    if not ins.start & chosen & ~covered:
        unmet.append("gains no new start view")
    if (ins.start & ~chosen) & ~covered:
        unmet.append("an uncovered start view defects")
    if (ins.transit & ~chosen) & ~covered:
        unmet.append("an uncovered transit view defects")
    if ins.target & ~covered:
        unmet.append("target not yet covered")
    return unmet


def gstar_chain(closure: Closure, strategy: Mapping[str, CanonicalInstruction],
                corridor: Iterable[str], goal: Iterable[str]) -> GChain:
    """Grow the set of views certified to reach `goal` under one strategy.

    Stages scan instructions in canonical order and take the first one that
    (a) stays inside corridor|goal, (b) gains at least one new start view
    choosing it, (c)/(d) has every non-choosing start/transit view already
    covered, and (e) has its whole target already covered.  The scan repeats
    until no instruction qualifies; the chain then cannot grow further (the
    qualifying test is monotone in the covered set, so the final coverage
    does not depend on scan order).
    """
    universe = closure.universe
    instrs = canonical_instructions(closure)
    valid = _valid_mask(closure)
    missing = [v for v in universe.names_of(valid) if v not in strategy]
    if missing:
        raise ValueError(f"strategy leaves valid views unassigned: {missing}")
    sel = _selection_masks(closure, strategy, instrs)

    corridor_mask = universe.mask(corridor)
    goal_mask = universe.mask(goal)
    budget = corridor_mask | goal_mask
    covered = goal_mask
    carried = 0
    stages: list[GStage] = []
    while True:
        k = next((k for k, ins in enumerate(instrs)
                  if not _unmet(ins, sel[k], covered, budget)), None)
        if k is None:
            return GChain(corridor_mask, goal_mask, tuple(stages))
        ins = instrs[k]
        start_gain = ins.start & sel[k]
        transit_gain = ins.transit & sel[k]
        covered |= start_gain
        carried |= transit_gain
        stages.append(GStage(len(stages) + 1, ins, start_gain, transit_gain,
                             covered, carried))


def verify_chain(closure: Closure, chain: GChain) -> list[str]:
    """Discharge both derivability obligations of every stage.

    Stage n must support (covered_n, covered_n | transit_gain_n, covered_{n-1})
    -- each stage is one certified hop backwards -- and
    (covered_n, covered_n | carried_n, goal) -- everything covered so far
    reaches the goal through the carried transit views."""
    problems = []
    previous = chain.goal
    for st in chain.stages:
        step = (st.covered, st.covered | st.transit_gain, previous)
        if step not in closure.derived:
            problems.append(f"stage {st.index}: hop atom {step} is not derivable")
        home = (st.covered, st.covered | st.carried, chain.goal)
        if home not in closure.derived:
            problems.append(f"stage {st.index}: goal atom {home} is not derivable")
        previous = st.covered
    return problems


def verify_stage_conditions(closure: Closure,
                            strategy: Mapping[str, CanonicalInstruction],
                            chain: GChain) -> list[str]:
    """Re-check conditions (a)-(e) and the bookkeeping of every stage."""
    instrs = canonical_instructions(closure)
    sel = _selection_masks(closure, strategy, instrs)
    position = {ins: k for k, ins in enumerate(instrs)}
    budget = chain.corridor | chain.goal
    problems = []
    covered = chain.goal
    carried = 0
    for st in chain.stages:
        k = position.get(st.instruction)
        if k is None:
            problems.append(f"stage {st.index}: instruction is not canonical")
            continue
        ins = st.instruction
        problems.extend(f"stage {st.index}: {condition}"
                        for condition in _unmet(ins, sel[k], covered, budget))
        if (st.start_gain != ins.start & sel[k]
                or st.transit_gain != ins.transit & sel[k]):
            problems.append(f"stage {st.index}: recorded gains are wrong")
        covered |= st.start_gain
        carried |= st.transit_gain
        if st.covered != covered or st.carried != carried:
            problems.append(f"stage {st.index}: recorded accumulation is wrong")
    return problems

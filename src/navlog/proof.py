"""Derivability of navigability atoms by forward-chaining saturation.

Atoms are (start, corridor, target) view-set triples, held as bitmask
triples.  Six rules generate the closure of a set of assumed atoms:

    reflexivity     infer (A, B, C) outright whenever A is a subset of C
    augmentation    from (A, B, C) infer (A|D, B, C|D) for every D
    transitivity    from (A, B, C) and (C, D, E) with B, D disjoint
                    infer (A, B|D, E)
    trim_corridor   from (A, B, C) infer (A, B minus C, C)
    zero_step       from (A, {}, C) infer (A minus C, {}, {})
    empty_target    from (A, B, {}) infer (A, {}, {})

Each rule is stated once: reflexivity, with the assumptions, in `_axioms`, and
the other five in the rule step `_fire`.  `saturate` fires that step on every
atom of a worklist, `is_closed` fires it once on each atom of a closure, and
`verify_provenance` and the fuzz campaign call it through `rule_steps`.  The
campaign checks every conclusion it yields against model truth on random
systems; the round-based closure the tests keep (tests/_oracles.py) checks
the rules as the paper writes them.

The worklist seeds every reflexive atom before anything fires, and the rules
map reflexive premises to reflexive conclusions, so it skips the steps that
can only conclude a reflexive atom or repeat an earlier step (see `_close`).
The first derivations and their order are those of firing every step, which
the slow twin in tests/_oracles.py checks.  The empty theory, whose closure
is its reflexive atoms, saturates in about 0.02 s at 5 views and 0.1 s at 6
(2-vCPU VM, in process).

Saturation enumerates the whole (2^|V|)^3 atom space in the worst case, so
the universe size is capped (default 5 views; `max_views` overrides): a
theory that derives non-reflexive atoms still pays for every transitivity
pair among them.
Each derived atom records the first derivation that produced it, and
`explain` rebuilds that derivation as a tree.  `check_derived_lemmas` sweeps
five closure properties that the rules are supposed to subsume; any violation
means the engine itself is broken.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .core import Universe
from .syntax import Atom

__all__ = [
    "ASSUMPTION", "REFLEXIVITY", "AUGMENTATION", "TRANSITIVITY",
    "TRIM_CORRIDOR", "ZERO_STEP", "EMPTY_TARGET",
    "Key", "Closure", "DerivationTree", "UniverseTooLarge",
    "saturate", "is_closed", "derives", "explain", "rule_steps",
    "LemmaViolation", "LemmaSweepReport", "check_derived_lemmas",
    "verify_provenance",
]

Key = Tuple[int, int, int]   # (start, corridor, target) masks

ASSUMPTION = "assumption"
REFLEXIVITY = "reflexivity"
AUGMENTATION = "augmentation"
TRANSITIVITY = "transitivity"
TRIM_CORRIDOR = "trim_corridor"
ZERO_STEP = "zero_step"
EMPTY_TARGET = "empty_target"

DEFAULT_MAX_VIEWS = 5


class UniverseTooLarge(ValueError):
    """The view universe exceeds the saturation cap."""


def _submasks(mask: int):
    """All submasks of `mask`, descending, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass
class Closure:
    """Saturated derivability state over one universe.

    `assumptions` and `derived` hold mask triples; `provenance` maps each
    derived triple to (rule, premise triples) for the first derivation found.
    Assumptions are always contained in `derived`.
    """

    universe: Universe
    assumptions: FrozenSet[Key]
    derived: FrozenSet[Key]
    provenance: Dict[Key, Tuple[str, Tuple[Key, ...]]] = field(repr=False)
    sealed: bool = field(default=False, compare=False, repr=False)

    def atom(self, key: Key) -> Atom:
        return Atom.from_masks(self.universe, *key)

    def derived_atoms(self) -> tuple[Atom, ...]:
        return tuple(self.atom(k) for k in sorted(self.derived))

    def assumption_atoms(self) -> tuple[Atom, ...]:
        return tuple(self.atom(k) for k in sorted(self.assumptions))


def _axioms(full: int, assumed: Iterable[Key]):
    """The premise-free steps: every reflexive atom, then the assumptions."""
    for c in range(full + 1):
        for a in _submasks(c):
            for b in range(full + 1):
                yield (a, b, c), REFLEXIVITY, ()
    for key in sorted(assumed):
        yield key, ASSUMPTION, ()


def _fire(t: Key, masks: Iterable[int], by_start: Dict[int, list[Key]],
          by_target: Dict[int, list[Key]], add) -> None:
    """Pass `add(key, rule, premises)` every step with `t` as a premise.

    Augmentation widens by each of `masks`.  The other transitivity premise
    comes from the atoms indexed by start (`t` on the left) or by target (`t`
    on the right), each index as it stands when its loop begins.  Partner
    checks stay inline: saturation examines far more transitivity pairs than
    it derives atoms.
    """
    a, b, c = t
    for d in masks:
        add((a | d, b, c | d), AUGMENTATION, (t,))
    add((a, b & ~c, c), TRIM_CORRIDOR, (t,))
    if b == 0:
        add((a & ~c, 0, 0), ZERO_STEP, (t,))
    if c == 0:
        add((a, 0, 0), EMPTY_TARGET, (t,))
    for left in (True, False):
        for u in tuple(by_start.get(c, ()) if left else by_target.get(a, ())):
            if not b & u[1]:
                pair = (t, u) if left else (u, t)
                add((pair[0][0], b | u[1], pair[1][2]), TRANSITIVITY, pair)


def _close(full: int, assumed: Iterable[Key]
           ) -> Dict[Key, Tuple[str, Tuple[Key, ...]]]:
    """Close the axioms under the rules; maps each atom to its first step.

    A worklist: each atom fires once, when popped, against every atom derived
    so far, so each pair of transitivity premises meets when the later pops.
    Every reflexive atom is seeded before anything fires, so a step with a
    reflexive conclusion only re-adds an atom; such steps, and steps that
    repeat an earlier one of the same firing, are skipped:

    - A reflexive atom (A within C) fires no augmentation (A|D lies within
      C|D), and meets only non-reflexive transitivity partners: with a
      reflexive partner (C, D, E) or (X, D, A) the conclusion's start lies
      within its target.  Its other steps conclude reflexive atoms too but
      cost one `add` each.  `reach_start`/`reach_target` index the
      non-reflexive atoms in the order of `by_start`/`by_target`, and `_fire`
      snapshots them when it would have snapshotted those.
    - A non-reflexive atom fires every step except augmentation by a D that
      meets A & C (it repeats D minus A & C, a smaller mask fired earlier)
      or holds all of A minus C (the conclusion is reflexive).

    The steps left add the same atoms in the same order, with the same first
    derivations, as firing every step would.
    """
    provenance: Dict[Key, Tuple[str, Tuple[Key, ...]]] = {}
    by_start: Dict[int, list[Key]] = {}
    by_target: Dict[int, list[Key]] = {}
    reach_start: Dict[int, list[Key]] = {}      # non-reflexive atoms only
    reach_target: Dict[int, list[Key]] = {}
    queue: deque[Key] = deque()

    def add(key: Key, rule: str, premises: Tuple[Key, ...]) -> None:
        if key in provenance:
            return
        provenance[key] = (rule, premises)
        by_start.setdefault(key[0], []).append(key)
        by_target.setdefault(key[2], []).append(key)
        if key[0] & ~key[2]:
            reach_start.setdefault(key[0], []).append(key)
            reach_target.setdefault(key[2], []).append(key)
        queue.append(key)

    for step in _axioms(full, assumed):
        add(*step)
    widen: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    while queue:
        t = queue.popleft()
        if t[0] & ~t[2]:
            _fire(t, _widening(widen, full, t), by_start, by_target, add)
        else:
            _fire(t, (), reach_start, reach_target, add)
    return provenance


def _widening(widen: Dict[Tuple[int, int], Tuple[int, ...]], full: int,
              t: Key) -> Tuple[int, ...]:
    """The augmentation masks a non-reflexive atom fires: those that miss
    A & C and do not hold all of A minus C.  `widen` keeps them by
    (A & C, A minus C)."""
    a, _, c = t
    key = (a & c, a & ~c)
    masks = widen.get(key)
    if masks is None:
        masks = widen[key] = tuple(d for d in range(full + 1)
                                   if not d & key[0] and d & key[1] != key[1])
    return masks


def rule_steps(premises: Tuple[Key, ...],
               masks: Iterable[int]) -> list[Tuple[Key, str, Tuple[Key, ...]]]:
    """The (conclusion, rule, premises) steps the rule step yields when fired
    on `premises[0]`, in firing order.

    `premises[1:]` are the only transitivity partners, with `premises[0]` on
    the left, and augmentation widens by each of `masks` (all of them,
    `range(full + 1)`, to match saturation).
    """
    partners: Dict[int, list[Key]] = {}
    for p in premises[1:]:
        partners.setdefault(p[0], []).append(p)
    steps: list = []
    _fire(premises[0], masks, partners, {}, lambda *step: steps.append(step))
    return steps


def saturate(universe: Universe, assumptions: Iterable[Atom] = (),
             max_views: Optional[int] = None) -> Closure:
    """Close a set of assumed atoms under the six rules.

    Deterministic: rule applications fire in a fixed order, so the recorded
    provenance is reproducible.  Raises UniverseTooLarge past the cap
    (max_views argument, else 5).
    """
    cap = DEFAULT_MAX_VIEWS if max_views is None else max_views
    n = len(universe)
    if n > cap:
        raise UniverseTooLarge(
            f"universe has {n} views; saturation is capped at {cap} "
            f"(pass max_views or --max-views to raise the cap)")
    assumed = frozenset(atom.masks(universe) for atom in assumptions)
    provenance = _close(universe.full, assumed)
    return Closure(universe, assumed, frozenset(provenance), provenance, sealed=True)


def is_closed(closure: Closure) -> bool:
    """True when `derived` holds every axiom and no rule application adds to it.

    One sweep: every reflexive atom and every assumption must lie in
    `derived`, and the rule step saturation uses, fired once on each derived
    atom with the derived atoms as right transitivity partners, must
    conclude nothing outside it.  Each transitivity pair then meets once,
    with its left premise.  With the axioms present, the steps `_close`
    skips only conclude reflexive atoms or repeat a step, so the sweep
    skips them too.  It stops after the first atom that fires a step out
    of `derived`.
    Saturate-produced closures pass by construction; hand-assembled ones get
    checked before model building.
    """
    derived = closure.derived
    full = closure.universe.full
    if any(key not in derived for key, _, _ in _axioms(full, closure.assumptions)):
        return False
    by_start: Dict[int, list[Key]] = {}
    reach_start: Dict[int, list[Key]] = {}
    for key in derived:
        by_start.setdefault(key[0], []).append(key)
        if key[0] & ~key[2]:
            reach_start.setdefault(key[0], []).append(key)
    outside: list[Key] = []

    def add(key: Key, rule: str, premises: Tuple[Key, ...]) -> None:
        if key not in derived:
            outside.append(key)

    widen: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for t in derived:
        if t[0] & ~t[2]:
            _fire(t, _widening(widen, full, t), by_start, {}, add)
        else:
            _fire(t, (), reach_start, {}, add)
        if outside:
            return False
    return True


def derives(closure: Closure, atom: Atom) -> bool:
    """Membership of one atom in the saturated closure."""
    return atom.masks(closure.universe) in closure.derived


@dataclass(frozen=True)
class DerivationTree:
    """One derivation: this atom, the rule that produced it, its premises."""

    atom: Atom
    rule: str
    premises: Tuple["DerivationTree", ...]

    def render(self, indent: int = 0) -> str:
        from .syntax import AtomNode, render_formula
        own = "  " * indent + f"{render_formula(AtomNode(self.atom))}  [{self.rule}]"
        return "\n".join([own] + [p.render(indent + 1) for p in self.premises])


def explain(closure: Closure, atom: Atom) -> DerivationTree:
    """Rebuild the recorded derivation of an atom.

    Raises ValueError when the atom is not in the closure, or when its
    recorded derivation is not well-founded (an atom met again while its
    own premises are still being rebuilt).  Shared premises become shared
    subtrees.  Saturation records every premise before its conclusion, so
    its closures always rebuild.
    """
    root = atom.masks(closure.universe)
    if root not in closure.derived:
        raise ValueError(f"atom {atom} is not derivable from the assumptions")
    memo: Dict[Key, DerivationTree] = {}
    opened: set[Key] = set()      # expanded, premises not yet all rebuilt
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        rule, premises = closure.provenance[key]
        pending = [p for p in premises if p not in memo]
        if pending:
            if key in opened:
                raise ValueError(
                    f"recorded derivation of {atom} is not well-founded: "
                    f"{closure.atom(key)} depends on itself")
            opened.add(key)
            stack.extend(pending)
            continue
        memo[key] = DerivationTree(closure.atom(key), rule,
                                   tuple(memo[p] for p in premises))
        stack.pop()
    return memo[root]


@dataclass(frozen=True)
class LemmaViolation:
    lemma: str
    premises: Tuple[Key, ...]
    conclusion: Key


@dataclass(frozen=True)
class LemmaSweepReport:
    """Instance counts and violations from the derived-lemma sweeps."""

    instances: Dict[str, int]
    violations: Tuple[LemmaViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_derived_lemmas(closure: Closure) -> LemmaSweepReport:
    """Sweep five closure properties the six rules are expected to subsume.

    shrink_start             (A,B,C) derived, A' subset of A  => (A',B,C)
    widen_corridor           (A,B,C) derived, B subset of B'  => (A,B',C)
    widen_target             (A,B,C) derived, C subset of C'  => (A,B,C')
    drop_void_views          (Bv,{},{}) and (A,B,C) derived   => (A,B-Bv,C)
    overlapping_transitivity (A,B,C),(C,D,E) derived, B&D<=C  => (A,B|D,E)

    Every instance over the closure is checked; any violation is an engine
    bug, not a property of the assumptions.
    """
    derived = closure.derived
    full = closure.universe.full
    instances = {name: 0 for name in (
        "shrink_start", "widen_corridor", "widen_target",
        "drop_void_views", "overlapping_transitivity")}
    violations: list[LemmaViolation] = []

    def expect(lemma: str, premises: Tuple[Key, ...], conclusion: Key) -> None:
        instances[lemma] += 1
        if conclusion not in derived:
            violations.append(LemmaViolation(lemma, premises, conclusion))

    by_start: Dict[int, list[Key]] = {}
    voids: list[int] = []
    for key in sorted(derived):
        by_start.setdefault(key[0], []).append(key)
        if key[1] == 0 and key[2] == 0:
            voids.append(key[0])

    for key in sorted(derived):
        a, b, c = key
        for a2 in _submasks(a):
            expect("shrink_start", (key,), (a2, b, c))
        for extra in _submasks(full & ~b):
            expect("widen_corridor", (key,), (a, b | extra, c))
        for extra in _submasks(full & ~c):
            expect("widen_target", (key,), (a, b, c | extra))
        for void in voids:
            expect("drop_void_views", ((void, 0, 0), key), (a, b & ~void, c))
        for u in by_start.get(c, ()):
            if not (b & u[1]) & ~c:
                expect("overlapping_transitivity", (key, u), (a, b | u[1], u[2]))

    return LemmaSweepReport(instances, tuple(violations))


def verify_provenance(closure: Closure) -> list[str]:
    """Replay every recorded derivation step; returns all defects found.

    Checks that premises are themselves derived and that each recorded step
    is one the rules produce: a premise-free step must be an axiom, and any
    other must be among the `rule_steps` of its recorded premises.
    Then reports, in provenance order, every atom whose derivation is not
    well-founded (it leads back into a cycle); a step already reported as
    unjustified counts as a leaf there.
    """
    full = closure.universe.full
    axioms = set(_axioms(full, closure.assumptions))
    problems: list[str] = []
    waiting: Dict[Key, set[Key]] = {}     # recorded premises not yet founded
    users: Dict[Key, list[Key]] = {}
    for key, (rule, premises) in closure.provenance.items():
        for p in premises:
            if p not in closure.derived:
                problems.append(f"{key}: premise {p} is not derived")
        steps = rule_steps(premises, range(full + 1)) if premises else axioms
        if (key, rule, premises) not in steps:
            problems.append(f"{key}: rule {rule} does not justify this step")
            premises = ()                 # reported: a leaf from here on
        waiting[key] = {p for p in premises if p in closure.provenance}
        for p in waiting[key]:
            users.setdefault(p, []).append(key)
    founded = [key for key, pending in waiting.items() if not pending]
    for done in founded:                  # grows as atoms become founded
        for user in users.get(done, ()):
            waiting[user].discard(done)
            if not waiting[user]:
                founded.append(user)
    return problems + [f"{key}: derivation is not well-founded"
                       for key, pending in waiting.items() if pending]

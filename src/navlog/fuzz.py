"""Randomized soundness checks tying the proof rules to model truth.

Each trial draws a small random system (trial 0 is the fixed eight-state
fixture) and premises over it.  Whenever drawn premises hold, the campaign
fires `proof`'s rule step on them (`rule_steps`, with one drawn augmentation
mask) and checks each conclusion the step emits against model truth, so a
rule added to or changed in the rule step is fuzzed with no edit here.
Where a rule's soundness argument names an explicit witness (augmentation
and corridor trimming reuse the premise's strategy, transitivity splices
the two strategies along the first corridor), the transferred witness itself
is replayed.  Reflexivity is checked on drawn atoms, since its axioms number
6^n.  Each holding premise also checks the corridor agreement lemma (only
corridor choices matter to a witness) and that it holds with recall; recall
transitivity is checked on its own.  Violations carry the offending system in
portable text form so a failure replays outside the fuzzer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .amnesic import AmnesicDecision, decide_amnesic
from .core import (AmnesicStrategy, EpistemicTransitionSystem, Universe,
                   UntilObjective, check_strategy)
from .fixtures import T0_ETS, load_t0
from .proof import (AUGMENTATION, REFLEXIVITY, TRANSITIVITY, TRIM_CORRIDOR,
                    Key, rule_steps)
from .recall import winning_views
from .syntax import Atom, render_system

__all__ = ["FuzzConfig", "FuzzViolation", "FuzzReport",
           "generate_random_system", "fuzz_soundness"]


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    trials: int = 500
    max_states: int = 6
    max_views: int = 4
    max_instructions: int = 2
    density: float = 0.5

    def __post_init__(self) -> None:
        for name, least in (("trials", 0), ("max_states", 1), ("max_views", 1),
                            ("max_instructions", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density}")


@dataclass(frozen=True)
class FuzzViolation:
    trial: int
    prop: str
    detail: str
    system_text: str


@dataclass(frozen=True)
class FuzzReport:
    config: FuzzConfig
    trials_run: int
    checks: Dict[str, int]
    violations: Tuple[FuzzViolation, ...]
    notes: Tuple[str, ...]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed << 32) ^ trial)


def _random_system(rng: random.Random, config: FuzzConfig) -> EpistemicTransitionSystem:
    n_views = rng.randint(1, config.max_views)
    n_instructions = rng.randint(1, config.max_instructions)
    n_states = rng.randint(1, config.max_states)
    view_of = tuple(rng.randrange(n_views) for _ in range(n_states))
    succ = tuple(
        tuple(tuple(t for t in range(n_states) if rng.random() < config.density)
              for _ in range(n_instructions))
        for _ in range(n_states))
    return EpistemicTransitionSystem(
        Universe(f"v{k}" for k in range(n_views)),
        tuple(str(i) for i in range(n_instructions)),
        tuple(f"s{j}" for j in range(n_states)), view_of, succ)


def generate_random_system(config: FuzzConfig, trial: int) -> EpistemicTransitionSystem:
    """Deterministic in (seed, trial); always within the configured bounds."""
    return _random_system(_trial_rng(config.seed, trial), config)


class _Campaign:
    """The checks and violations of one campaign; `start` sets the trial."""

    def __init__(self) -> None:
        self.checks: Dict[str, int] = {}
        self.violations: List[FuzzViolation] = []
        self.notes: List[str] = []

    def start(self, trial: int, system: EpistemicTransitionSystem,
              rng: random.Random) -> None:
        self.trial, self.system, self.rng = trial, system, rng
        self.side = 1 << len(system.universe)

    def _check(self, prop: str, ok: bool, detail: Callable[[], str]) -> None:
        """Count one check of `prop`; a failed one records `detail()`."""
        self.checks[prop] = self.checks.get(prop, 0) + 1
        if not ok:
            text = T0_ETS if self.trial == 0 else render_system(self.system)
            self.violations.append(FuzzViolation(self.trial, prop, detail(), text))

    def _text(self, *keys: Key) -> str:
        return ", ".join(repr(Atom.from_masks(self.system.universe, *key))
                         for key in keys)

    def _amnesic(self, key: Key) -> AmnesicDecision:
        return decide_amnesic(self.system, UntilObjective(*key),
                              canonical_witness=False)

    def _recall_holds(self, key: Key) -> bool:
        return winning_views(self.system, *key) == key[0]

    def _expect(self, prop: str, key: Key, premises: Tuple[Key, ...]) -> None:
        self._check(prop, self._amnesic(key).holds, lambda: (
            f"{self._text(key)} fails, yet {prop} derives it from "
            f"{self._text(*premises) or 'no premise'}"))

    def _replay(self, prop: str, strategy: AmnesicStrategy, key: Key,
                premises: Tuple[Key, ...]) -> None:
        path = check_strategy(self.system, strategy, UntilObjective(*key))
        self._check(prop, path is None, lambda: (
            f"strategy {strategy.as_map(self.system)} taken from "
            f"{self._text(*premises)} fails {self._text(key)} ({path.reason})"))

    def _draw(self) -> int:
        return self.rng.randrange(self.side)

    def run(self) -> None:
        for _ in range(2):
            c = self._draw()
            self._expect(REFLEXIVITY, (c & self._draw(), self._draw(), c), ())
        for _ in range(5):
            self.fire((self._draw(), self._draw(), self._draw()))
        for _ in range(3):
            a, b, c, d, e = (self._draw() for _ in range(5))
            self.fire((a, b, c), (c, d, e))
        for _ in range(2):
            self.recall_transitivity()

    def fire(self, first: Key, *partners: Key) -> None:
        """When `first` holds, fire the rule step on it with the partners
        that hold, and check every conclusion the step emits."""
        decision = self._amnesic(first)
        if not decision.holds:
            return
        held, witness = [first], {first: decision.witness}
        self._check("amnesic_implies_recall", self._recall_holds(first), lambda:
                    f"{self._text(first)} holds amnesically but not with recall")
        n_instructions = len(self.system.instructions)
        rerolled = AmnesicStrategy(tuple(self.rng.randrange(n_instructions)
                                         for _ in decision.witness.choices))
        self._replay("corridor_agreement",
                     _splice(decision.witness, rerolled, first[1]), first, (first,))
        for key in partners:
            decision = self._amnesic(key)
            if decision.holds:
                held.append(key)
                witness[key] = decision.witness
        for key, rule, used in rule_steps(tuple(held), (self._draw(),)):
            if rule in (AUGMENTATION, TRIM_CORRIDOR):
                self._replay(rule, witness[used[0]], key, used)
                continue
            self._expect(rule, key, used)
            if rule == TRANSITIVITY:
                spliced = _splice(witness[used[0]], witness[used[1]], used[0][1])
                self._replay("transitivity_splice", spliced, key, used)

    def fixture(self) -> None:
        """Trial 0 carries a known counterexample: chaining two unrestricted
        amnesic trips can fail when their corridors overlap, which is why the
        transitivity rule demands disjoint corridors.  The shape is asserted
        so the engines cannot drift, and the two trips are fed to the rule
        step, which must not chain them."""
        universe = self.system.universe
        v1, v2, v6 = (1 << universe.index(v) for v in ("v1", "v2", "v6"))
        legs = ((v1, universe.full, v6), (v6, universe.full, v2))
        holds = [self._amnesic(key).holds
                 for key in (*legs, (v1, universe.full, v2))]
        self._check("fixture_counterexample", holds == [True, True, False],
                    lambda: "expected holds/holds/fails for the chained trips, "
                            f"got {holds}")
        self.fire(*legs)
        self.notes.append(
            "trial 0: v1 reaches v6 and v6 reaches v2, yet v1 does not reach "
            "v2 amnesically; overlapping corridors admit no spliced witness")

    def recall_transitivity(self) -> None:
        full = self.side - 1
        a, c, e = self._draw(), self._draw(), self._draw()
        if self._recall_holds((a, full, c)) and self._recall_holds((c, full, e)):
            self._check("recall_transitivity", self._recall_holds((a, full, e)),
                        lambda: f"recall reaches {c:#x} from {a:#x} and {e:#x} "
                                f"from {c:#x} but not {e:#x} from {a:#x}")


def _splice(first: AmnesicStrategy, second: AmnesicStrategy,
            corridor: int) -> AmnesicStrategy:
    """First strategy on corridor views, second elsewhere.  A winning run
    consults only corridor views before it reaches the target, so the splice
    still wins what the first strategy wins; it wins a transitivity
    conclusion when the second premise's corridor is disjoint from
    `corridor`."""
    choices = tuple(
        first.choices[k] if corridor & (1 << k) else second.choices[k]
        for k in range(len(first.choices)))
    return AmnesicStrategy(choices)


def fuzz_soundness(config: FuzzConfig = FuzzConfig()) -> FuzzReport:
    started = time.perf_counter()
    campaign = _Campaign()
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        if trial == 0:
            campaign.start(trial, load_t0(), rng)
            campaign.fixture()
        else:
            campaign.start(trial, _random_system(rng, config), rng)
        campaign.run()
    elapsed = time.perf_counter() - started
    return FuzzReport(config, config.trials, campaign.checks,
                      tuple(campaign.violations), tuple(campaign.notes), elapsed)

"""Navigability of a single imperfect-information agent in finite systems.

The package decides whether an agent that observes only a view of the current
state can force its way from one set of views to another: `amnesic` covers an
agent with no memory (one instruction per view), `recall` an agent that
remembers its whole history.  `proof` derives such claims axiomatically,
`canonical` turns a saturated theory back into a concrete system and
cross-checks derivability against model truth, and `fuzz` stress-tests the
whole stack on random systems.  The `navlog` console script exposes all of it.
"""

from .amnesic import (AmnesicDecision, NavigabilityTable, check_atom_amnesic,
                      decide_amnesic, evaluate, navigability_table)
from .canonical import (CanonicalInstruction, GChain, GStage,
                        TruthLemmaMismatch, TruthLemmaReport, build_canonical,
                        canonical_instructions, gstar_chain, valid_views,
                        verify_chain, verify_stage_conditions,
                        verify_truth_lemma)
from .core import (DEAD_END, LEFT_CORRIDOR, NEVER_REACHES, AmnesicStrategy,
                   EpistemicTransitionSystem, PathWitness,
                   SystemValidationError, Universe, UntilObjective,
                   check_strategy, validate_system, verify_witness)
from .fixtures import T0_ETS, T1_ETS, load_t0, load_t1
from .fuzz import FuzzConfig, FuzzReport, FuzzViolation, fuzz_soundness
from .proof import (ASSUMPTION, AUGMENTATION, EMPTY_TARGET, REFLEXIVITY,
                    TRANSITIVITY, TRIM_CORRIDOR, ZERO_STEP, Closure,
                    DerivationTree, LemmaSweepReport, LemmaViolation,
                    UniverseTooLarge, check_derived_lemmas, derives, explain,
                    is_closed, rule_steps, saturate, verify_provenance)
from .recall import (Belief, RecallDecision, check_atom_recall,
                     decide_recall, verify_recall_witness, winning_views)
from .syntax import (Atom, AtomNode, Formula, Implies, Not, ParseError,
                     as_atom, parse_formula, parse_system, render_formula,
                     render_system)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Universe", "EpistemicTransitionSystem", "validate_system",
    "SystemValidationError", "AmnesicStrategy", "UntilObjective",
    "PathWitness", "check_strategy", "verify_witness",
    "LEFT_CORRIDOR", "DEAD_END", "NEVER_REACHES",
    # syntax
    "Atom", "AtomNode", "Not", "Implies", "Formula", "ParseError", "as_atom",
    "parse_formula", "render_formula", "parse_system", "render_system",
    # amnesic
    "AmnesicDecision", "decide_amnesic", "check_atom_amnesic", "evaluate",
    "NavigabilityTable", "navigability_table",
    # recall
    "Belief", "RecallDecision", "decide_recall", "check_atom_recall",
    "winning_views", "verify_recall_witness",
    # proof
    "ASSUMPTION", "REFLEXIVITY", "AUGMENTATION", "TRANSITIVITY",
    "TRIM_CORRIDOR", "ZERO_STEP", "EMPTY_TARGET", "Closure",
    "DerivationTree", "UniverseTooLarge", "saturate", "is_closed", "derives",
    "explain", "rule_steps",
    "LemmaViolation", "LemmaSweepReport", "check_derived_lemmas",
    "verify_provenance",
    # canonical
    "CanonicalInstruction", "valid_views", "canonical_instructions",
    "build_canonical", "TruthLemmaMismatch", "TruthLemmaReport",
    "verify_truth_lemma", "GStage", "GChain", "gstar_chain", "verify_chain",
    "verify_stage_conditions",
    # fixtures
    "T0_ETS", "T1_ETS", "load_t0", "load_t1",
    # fuzz
    "FuzzConfig", "FuzzViolation", "FuzzReport", "fuzz_soundness",
]

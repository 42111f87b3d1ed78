"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every navlog
module that holds a reference to it (the defining module and every module
that imported the name), so calls made through `from .x import f`, through
`module.f` and from inside the defining module are all seen.  Nothing in the
program changes on disk.

A span is (name, start, end, parent span, request id).  Spans stay in memory
in one list and are written once, at exit, as JSON.  Self time of a span is its
duration minus the time its child spans cover; summed per name it gives the
per-layer `_ms` metrics.  Counters are read from the values the traced
functions return.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _amnesic_span(args, kwargs) -> str:
    """Lex-least witness searches and verdict-only calls are separate spans."""
    canonical = kwargs.get("canonical_witness", args[2] if len(args) > 2 else True)
    return "amnesic.witness" if canonical else "amnesic.verdict"


# (module, function, span name or a classifier of the call's arguments).
TRACED: Tuple[Tuple[str, str, object], ...] = (
    ("navlog.cli", "run_cli", "cli.run"),
    ("navlog.syntax", "parse_system", "syntax.parse"),
    ("navlog.syntax", "parse_formula", "syntax.parse"),
    ("navlog.syntax", "render_formula", "syntax.render"),
    ("navlog.syntax", "render_system", "syntax.render"),
    ("navlog.core", "validate_system", "core.validate"),
    ("navlog.core", "check_strategy", "core.check_strategy"),
    ("navlog.amnesic", "check_atom_amnesic", _amnesic_span),
    ("navlog.amnesic", "evaluate", "amnesic.evaluate"),
    ("navlog.amnesic", "navigability_table", "amnesic.table"),
    ("navlog.recall", "check_atom_recall", "recall.check"),
    ("navlog.recall", "verify_recall_witness", "recall.verify"),
    ("navlog.proof", "saturate", "proof.saturate"),
    ("navlog.proof", "explain", "proof.explain"),
    ("navlog.canonical", "build_canonical", "canonical.build"),
    ("navlog.canonical", "verify_truth_lemma", "canonical.truth_lemma"),
    ("navlog.fuzz", "fuzz_soundness", "fuzz.campaign"),
)


def _count(counters: Dict[str, float], name: str, result) -> None:
    """Work counters taken from a traced call's return value."""
    if name in ("amnesic.witness", "amnesic.verdict"):
        counters["amnesic.examined"] += result.strategies_examined
    elif name == "recall.check":
        counters["recall.beliefs"] += result.explored
        if result.holds and result.witness is not None:
            counters["recall.holding_beliefs"] += result.explored
            counters["recall.witness_beliefs"] += len(result.witness)
    elif name == "proof.saturate":
        counters["proof.derived_atoms"] += len(result.derived)
    elif name == "canonical.build":
        counters["canonical.states"] += len(result.states)
    elif name == "canonical.truth_lemma":
        counters["canonical.truth_lemma_atoms"] += result.atoms_checked
    elif name == "fuzz.campaign":
        counters["fuzz.checks"] += sum(result.checks.values())


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, request id)
        self.spans: List[Optional[tuple]] = []
        self.request = -1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)   # outermost spans only
        self.calls: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []    # [span index, name, child seconds]
        self._originals: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, label) -> Callable:
        tracer = self
        classify = label if callable(label) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = classify(args, kwargs) if classify else label
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            outer = not any(frame[1] == name for frame in stack)
            tracer.spans.append(None)   # filled in when the span ends
            frame = [index, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.request)
                tracer.self_s[name] += duration - frame[2]
                if outer:
                    tracer.total_s[name] += duration
                if stack:
                    stack[-1][2] += duration
                tracer.calls[name] += 1
                if not ok:
                    tracer.failed[name] += 1
            _count(tracer.counters, name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a navlog module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "navlog" or n.startswith("navlog.")) and m is not None]
        for module_name, attr, label in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, label)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._originals):
            setattr(module, key, original)
        self._originals.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, out)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics: `_ms` are self times summed over the run."""
        ms = lambda *names: 1000 * sum(self.self_s.get(n, 0.0) for n in names)
        rate = lambda work, seconds: work / seconds if seconds > 0 else 0.0
        c = self.counters
        amnesic_s = self.total_s.get("amnesic.witness", 0.0) + self.total_s.get("amnesic.verdict", 0.0)
        holding = c.get("recall.holding_beliefs", 0.0)
        return {
            "cli.self_ms": ms("cli.run"),
            "syntax.parse_ms": ms("syntax.parse"),
            "syntax.parse_calls": self.calls.get("syntax.parse", 0),
            "syntax.render_ms": ms("syntax.render"),
            "core.validate_ms": ms("core.validate"),
            "core.check_strategy_ms": ms("core.check_strategy"),
            "core.check_strategy_calls": self.calls.get("core.check_strategy", 0),
            "amnesic.witness_ms": ms("amnesic.witness"),
            "amnesic.witness_calls": self.calls.get("amnesic.witness", 0),
            "amnesic.examined": c.get("amnesic.examined", 0.0),
            "amnesic.examined_per_s": rate(c.get("amnesic.examined", 0.0), amnesic_s),
            "amnesic.failed": (self.failed.get("amnesic.witness", 0)
                               + self.failed.get("amnesic.verdict", 0)),
            "amnesic.verdict_ms": ms("amnesic.verdict"),
            "amnesic.verdict_calls": self.calls.get("amnesic.verdict", 0),
            "amnesic.table_ms": ms("amnesic.table"),
            "recall.check_ms": ms("recall.check"),
            "recall.check_calls": self.calls.get("recall.check", 0),
            "recall.beliefs": c.get("recall.beliefs", 0.0),
            "recall.beliefs_per_s": rate(c.get("recall.beliefs", 0.0),
                                         self.total_s.get("recall.check", 0.0)),
            "recall.winning_ratio": rate(c.get("recall.witness_beliefs", 0.0), holding),
            "recall.verify_ms": ms("recall.verify"),
            "recall.failed": (self.failed.get("recall.check", 0)
                              + self.failed.get("recall.verify", 0)),
            "proof.saturate_ms": ms("proof.saturate"),
            "proof.saturate_calls": self.calls.get("proof.saturate", 0),
            "proof.derived_atoms": c.get("proof.derived_atoms", 0.0),
            "proof.atoms_per_s": rate(c.get("proof.derived_atoms", 0.0),
                                      self.total_s.get("proof.saturate", 0.0)),
            "proof.explain_ms": ms("proof.explain"),
            "canonical.build_ms": ms("canonical.build"),
            "canonical.states": c.get("canonical.states", 0.0),
            "canonical.truth_lemma_ms": ms("canonical.truth_lemma"),
            "canonical.truth_lemma_atoms": c.get("canonical.truth_lemma_atoms", 0.0),
            "fuzz.campaign_ms": ms("fuzz.campaign"),
            "fuzz.checks": c.get("fuzz.checks", 0.0),
            "fuzz.checks_per_s": rate(c.get("fuzz.checks", 0.0),
                                      self.total_s.get("fuzz.campaign", 0.0)),
        }

    def self_ms_total(self) -> float:
        return 1000 * sum(self.self_s.values())

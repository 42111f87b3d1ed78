"""Command-line front end.

Each subcommand builds its answer once, as a --json report, a function
giving its text lines, and its exit code; `run_cli` prints one of the two.

Exit codes: 0 the question was answered; 1 the answer was negative and
--fail-on-false was given; 2 usage, parse, or validation errors, including
a file named by an argument that cannot be read or written; 3 an internal
invariant violation (a checker contradicting itself, a fuzz violation, or a
chain that fails its own certification) or any other internal failure, such
as running out of memory on a system too large to explore, reported as one
`navlog: internal error:` line on stderr and nothing on stdout.  A reader
that closes stdout early (`navlog ... | head -1`) only cuts the answer
short: nothing goes to stderr and the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .amnesic import check_atom_amnesic, evaluate, navigability_table
from .canonical import (build_canonical, canonical_instructions, gstar_chain,
                        valid_views, verify_chain, verify_stage_conditions,
                        verify_truth_lemma)
from .core import (AmnesicStrategy, SystemValidationError, Universe,
                   UntilObjective, check_strategy)
from .fixtures import FIXTURES
from .fuzz import FuzzConfig, fuzz_soundness
from .proof import UniverseTooLarge, derives, explain, saturate
from .recall import check_atom_recall
from .syntax import (Atom, AtomNode, ParseError, as_atom, parse_formula,
                     parse_system, render_formula, render_system)

__all__ = ["REPORT_SCHEMA", "TABLE_SCHEMA", "run_cli", "main"]

# Shape of `check` and `eval` --json output.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["query", "mode", "holds", "witness", "counterexample", "stats"],
    "properties": {
        "query": {"type": "string"},
        "mode": {"enum": ["amnesic", "recall"]},
        "holds": {"type": "boolean"},
        "witness": {"type": ["object", "array", "null"]},
        "counterexample": {
            "type": ["object", "null"],
            "required": ["states", "loop_start", "reason"],
            "properties": {
                "states": {"type": "array", "items": {"type": "string"}},
                "loop_start": {"type": ["integer", "null"]},
                "reason": {"type": "string"},
            },
        },
        "stats": {"type": "object"},
    },
}

# Shape of `table` --json output.
TABLE_SCHEMA = {
    "type": "object",
    "required": ["classes", "modes", "grid"],
    "properties": {
        "classes": {"type": "array", "items": {"type": "string"}},
        "modes": {"type": "array", "items": {"type": "string"}},
        "grid": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": {"enum": ["a", "r", "-"]},
            },
        },
    },
}

# A report value may be a function that builds it, called only for --json.
Answer = Tuple[Optional[dict], Callable[[], Iterable[str]], int]


def _file_lines(path: str):
    """(number, text) of each line holding more than a '#' comment, cut off."""
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0]
        if line.strip():
            yield number, line


def _parse_assignment(spec: str) -> Dict[str, str]:
    """view=value pairs separated by commas or spaces."""
    pairs: Dict[str, str] = {}
    for part in spec.replace(",", " ").split():
        name, eq, value = part.partition("=")
        if not eq or not name or not value:
            raise ValueError(f"bad assignment {part!r}; expected view=value")
        if name in pairs:
            raise ValueError(f"view {name!r} assigned twice")
        pairs[name] = value
    if not pairs:
        raise ValueError("empty assignment")
    return pairs


def _names_arg(text: str) -> List[str]:
    return [part for part in text.replace(",", " ").split() if part]


def _text(atom: Atom) -> str:
    return render_formula(AtomNode(atom))


def _claim(text: str, universe: Universe, what: str) -> Tuple[Atom, str]:
    """A bare claim parsed over `universe`, and its canonical text."""
    atom = as_atom(parse_formula(text, universe))
    if atom is None:
        raise ParseError(f"{what} must be a bare claim, not a compound formula")
    return atom, _text(atom)


def _views(universe: Universe, obj, *fields: str) -> dict:
    """Each named view-mask attribute of `obj` as a list of view names."""
    return {field: list(universe.names_of(getattr(obj, field))) for field in fields}


def _set_text(names: Sequence[str]) -> str:
    return "{" + ",".join(names) + "}"


def _sets_text(row: dict, *fields: str) -> str:
    return " ".join(f"{field}={_set_text(row[field])}" for field in fields)


def _theory(args):
    universe = Universe(_names_arg(args.views))
    assumptions = [_claim(text, universe, "an assumption")[0]
                   for text in args.assume or ()]
    if args.theory:
        for number, line in _file_lines(args.theory):
            try:
                assumptions.append(_claim(line, universe, "an assumption")[0])
            except ParseError as e:
                raise ParseError(f"{args.theory}: {e.message}", number, e.col) from None
    return universe, saturate(universe, assumptions, max_views=args.max_views)


def _verdict(args, started, query, holds, words, stats=None, witness=None,
             counterexample=None, note=None, details=None) -> Answer:
    """The answer of `check` and `eval`: a REPORT_SCHEMA report timed from `started`;
    as text, the verdict in `words` (false, true), the note and `details`."""
    stats = dict(stats or {}, elapsed_ms=round((time.perf_counter() - started) * 1000, 3))
    report = {"query": query, "mode": args.mode, "holds": holds, "witness": witness,
              "counterexample": counterexample, "stats": stats}
    if note:
        report["note"] = note

    def text():
        yield f"{query}: {words[holds]} [{args.mode}]"
        if note:
            yield f"note: {note}"
        if details is not None:
            yield from details()
    return report, text, 1 if args.fail_on_false and not holds else 0


def _cmd_check(args) -> Answer:
    system = parse_system(Path(args.system).read_text())
    atom, query = _claim(args.formula, system.universe, "check")
    started = time.perf_counter()
    witness = counterexample = note = None
    if args.strategy is not None:
        if args.mode != "amnesic":
            raise ValueError("--strategy applies to amnesic checking only")
        strategy = AmnesicStrategy.from_map(system, _parse_assignment(args.strategy))
        objective = UntilObjective(*atom.masks(system.universe))
        path = check_strategy(system, strategy, objective)
        holds, stats = path is None, {"strategies_examined": 1}
        witness = strategy.as_map(system) if holds else None
        if path is not None:
            counterexample = {"states": list(path.states), "loop_start": path.loop_start,
                              "reason": path.reason}
    elif args.mode == "amnesic":
        decision = check_atom_amnesic(system, atom)
        holds, note = decision.holds, decision.note
        stats = {"strategies_examined": decision.strategies_examined}
        witness = decision.witness.as_map(system) if decision.witness else None
    else:
        decision = check_atom_recall(system, atom)
        holds, stats = decision.holds, {"beliefs_explored": decision.explored}
        if decision.witness is not None:
            beliefs = sorted(decision.witness, key=lambda bel: (
                system.universe.index(bel.view), sorted(bel.possible)))
            witness = [{"view": bel.view, "possible": sorted(bel.possible),
                        "instruction": decision.witness[bel]} for bel in beliefs]

    def details():
        if isinstance(witness, dict):
            yield "witness: " + " ".join(f"{view}→{i}" for view, i in witness.items())
        elif witness is not None:
            yield "witness:"
            yield from (f"  {row['view']}{_set_text(row['possible'])} → "
                        f"{row['instruction']}" for row in witness)
        elif counterexample is not None:
            states, loop = counterexample["states"], counterexample["loop_start"]
            tail = "" if loop is None else f", cycles back to {states[loop]}"
            yield f"counterexample: {' '.join(states)} ({counterexample['reason']}{tail})"
        elif args.mode == "amnesic":
            yield (f"no strategy works ({stats['strategies_examined']} assignment "
                   f"classes examined)")
        else:
            yield "some initial belief cannot force the target"
    return _verdict(args, started, query, holds, ("FAILS", "HOLDS"), stats, witness,
                    counterexample, note, details if args.witness else None)


def _cmd_eval(args) -> Answer:
    system = parse_system(Path(args.system).read_text())
    formula = parse_formula(args.formula, system.universe)
    query = render_formula(formula)
    started = time.perf_counter()
    holds = evaluate(system, formula, args.mode)
    return _verdict(args, started, query, holds, ("false", "true"))


def _cmd_table(args) -> Answer:
    system = parse_system(Path(args.system).read_text())
    classes = _names_arg(args.classes) if args.classes else list(system.universe.names)
    modes = tuple(_names_arg(args.modes))
    table = navigability_table(system, classes, modes)
    grid = {row: dict(zip(table.classes, cells))
            for row, cells in zip(table.classes, table.grid)}
    report = {"classes": list(table.classes), "modes": list(modes), "grid": grid}
    return report, lambda: [table.render()], 0


def _cmd_saturate(args) -> Answer:
    universe, closure = _theory(args)
    assumptions = [_text(a) for a in closure.assumption_atoms()]
    report = {"views": list(universe.names), "assumptions": assumptions,
              "derived_count": len(closure.derived),
              "derived": lambda: [_text(a) for a in closure.derived_atoms()]}

    def text():
        yield "views: " + " ".join(universe.names)
        yield f"assumptions ({len(assumptions)}):"
        yield from ("  " + a for a in assumptions)
        yield f"derived: {len(closure.derived)} atoms"
        if args.list:
            yield from ("  " + _text(a) for a in closure.derived_atoms())
    return report, text, 0


def _cmd_derive(args) -> Answer:
    universe, closure = _theory(args)
    atom, query = _claim(args.formula, universe, "derive")
    derivable = derives(closure, atom)
    verdict = "derivable" if derivable else "not derivable"
    return ({"query": query, "derivable": derivable}, lambda: [f"{query}: {verdict}"],
            1 if args.fail_on_false and not derivable else 0)


def _tree_obj(tree) -> dict:
    return {"atom": _text(tree.atom), "rule": tree.rule,
            "premises": [_tree_obj(p) for p in tree.premises]}


def _cmd_explain(args) -> Answer:
    universe, closure = _theory(args)
    atom, query = _claim(args.formula, universe, "explain")
    tree = explain(closure, atom) if derives(closure, atom) else None
    report = {"query": query, "derivable": tree is not None,
              "tree": None if tree is None else lambda: _tree_obj(tree)}
    return (report, lambda: [f"{query}: not derivable from the assumptions"
                             if tree is None else tree.render()],
            1 if args.fail_on_false and tree is None else 0)


def _cmd_canonical(args) -> Answer:
    universe, closure = _theory(args)
    rows = [{"label": f"i{k}", **_views(universe, ins, "start", "transit", "target")}
            for k, ins in enumerate(canonical_instructions(closure))]
    system = build_canonical(closure)
    valid = valid_views(closure)
    if args.emit:
        header = "canonical system over views " + " ".join(universe.names)
        Path(args.emit).write_text(render_system(system, header=header))
    report = {"valid_views": list(valid), "instructions": rows, "states": len(system.states),
              "transitions": sum(len(cell) for row in system.succ for cell in row),
              "ets": lambda: render_system(system), "emitted": args.emit,
              "verification": None}
    lemma = verify_truth_lemma(closure, system=system) if args.verify else None
    if lemma is not None:
        mismatches = [{"atom": _text(m.atom), "derivable": m.derivable, "holds": m.holds}
                      for m in lemma.mismatches]
        report["verification"] = {"atoms_checked": lemma.atoms_checked,
                                  "exhaustive": lemma.exhaustive,
                                  "mismatches": mismatches, "ok": lemma.ok}

    def text():
        yield "valid views: " + (" ".join(valid) if valid else "(none)")
        yield f"instructions: {len(rows)}"
        for row in rows:
            yield f"  {row['label']}: " + _sets_text(row, "start", "transit", "target")
        yield (f"states: {len(system.states)} ({len(valid)} plain, "
               f"{len(system.states) - len(valid)} in progress)")
        yield f"transitions: {report['transitions']}"
        if args.emit:
            yield f"wrote {args.emit}"
        if lemma is not None:
            kind = "exhaustive" if lemma.exhaustive else "sampled"
            yield (f"derivability vs model truth: {lemma.atoms_checked} atoms ({kind}), "
                   f"{len(mismatches)} mismatches")
            for m in mismatches:
                yield (f"  MISMATCH {m['atom']}: derivable={m['derivable']} "
                       f"holds={m['holds']}")
    return report, text, 3 if lemma is not None and not lemma.ok else 0


def _cmd_gchain(args) -> Answer:
    universe, closure = _theory(args)
    labels = {f"i{k}": ins for k, ins in enumerate(canonical_instructions(closure))}
    spec = " ".join(line for _, line in _file_lines(args.strategy))
    try:
        strategy = {view: labels[label]
                    for view, label in _parse_assignment(spec).items()}
    except KeyError as e:
        raise ValueError(f"unknown instruction label {e.args[0]!r} "
                         f"(the theory admits {len(labels)} instructions)") from None
    chain = gstar_chain(closure, strategy, _names_arg(args.corridor),
                        _names_arg(args.goal))
    problems = (verify_chain(closure, chain)
                + verify_stage_conditions(closure, strategy, chain))
    position = {ins: label for label, ins in labels.items()}
    gains = ("start_gain", "transit_gain", "covered", "carried")
    stages = [{"index": st.index, "instruction": position[st.instruction],
               **_views(universe, st, *gains)} for st in chain.stages]
    report = {**_views(universe, chain, "corridor", "goal"), "stages": stages,
              **_views(universe, chain, "covered", "carried"),
              "certified": not problems, "problems": problems}

    def text():
        yield (f"corridor: {_set_text(report['corridor'])}  "
               f"goal: {_set_text(report['goal'])}")
        for st in stages:
            yield f"stage {st['index']}: {st['instruction']} " + _sets_text(st, *gains)
        yield f"covered: {_set_text(report['covered'])}"
        if problems:
            yield "certification FAILED:"
            yield from ("  " + p for p in problems)
        else:
            yield (f"certified: {len(stages)} stages, "
                   f"{2 * len(stages)} obligations discharged")
    return report, text, 3 if problems else 0


def _cmd_fuzz(args) -> Answer:
    config = FuzzConfig(seed=args.seed, trials=args.trials, max_states=args.max_states,
                        max_views=args.max_views, max_instructions=args.max_instructions,
                        density=args.density)
    outcome = fuzz_soundness(config)
    report = {"seed": config.seed, "trials": outcome.trials_run, "checks": outcome.checks,
              "violations": [{"trial": v.trial, "prop": v.prop, "detail": v.detail,
                              "system": v.system_text} for v in outcome.violations],
              "notes": list(outcome.notes), "elapsed_s": round(outcome.elapsed_s, 3)}

    def text():
        yield f"trials: {outcome.trials_run} (seed {config.seed})"
        for prop in sorted(outcome.checks):
            yield f"  {prop}: {outcome.checks[prop]} checks"
        yield from (f"note: {note}" for note in outcome.notes)
        if outcome.violations:
            yield f"VIOLATIONS: {len(outcome.violations)}"
            yield from (f"  trial {v.trial} [{v.prop}] {v.detail}"
                        for v in outcome.violations)
        else:
            yield "violations: 0"
        yield f"elapsed: {outcome.elapsed_s:.1f}s"
    return report, text, 3 if outcome.violations else 0


def _cmd_fixture(args) -> Answer:
    if args.name not in FIXTURES:
        raise ValueError(f"unknown fixture {args.name!r}; "
                         f"available: {', '.join(sorted(FIXTURES))}")
    text = FIXTURES[args.name]
    if args.out:
        Path(args.out).write_text(text)
    return None, list if args.out else text.splitlines, 0


def _add_json(sub) -> None:
    sub.add_argument("--json", action="store_true",
                     help="emit a machine-readable report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `navlog` argument parser, built on first use and then shared.

    Parsing keeps no state in the parser: each call gets a fresh namespace,
    and repeatable options start from a fresh list."""
    parser = argparse.ArgumentParser(
        prog="navlog",
        description="Decide view-level navigability for a forgetful or "
                    "perfect-recall agent, and reason about it axiomatically.")
    subs = parser.add_subparsers(dest="command", required=True)

    theory = argparse.ArgumentParser(add_help=False)
    theory.add_argument("--views", required=True,
                        help="comma-separated view universe, in order")
    theory.add_argument("--assume", action="append", metavar="CLAIM",
                        help="assumed claim (repeatable)")
    theory.add_argument("--theory", metavar="PATH",
                        help="file with one assumed claim per line")
    theory.add_argument("--max-views", type=int, default=None,
                        help="override the saturation size cap")

    p = subs.add_parser("check", help="decide one claim on a system")
    p.add_argument("system", help=".ets system file")
    p.add_argument("formula", help="claim, e.g. 'nav({v1}; ALL; {v6})'")
    p.add_argument("--mode", choices=["amnesic", "recall"], default="amnesic")
    p.add_argument("--strategy", metavar="SPEC",
                   help="verify this fixed assignment (view=instruction,...) "
                        "instead of searching")
    p.add_argument("--witness", action="store_true",
                   help="show the witness or counterexample")
    p.add_argument("--fail-on-false", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("eval", help="evaluate a compound formula on a system")
    p.add_argument("system")
    p.add_argument("formula")
    p.add_argument("--mode", choices=["amnesic", "recall"], default="amnesic")
    p.add_argument("--fail-on-false", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("table", help="pairwise navigability grid")
    p.add_argument("system")
    p.add_argument("--classes", help="comma-separated view classes (default: all)")
    p.add_argument("--modes", default="amnesic,recall",
                   help="comma-separated subset of amnesic,recall")
    _add_json(p)
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("saturate", parents=[theory],
                        help="close assumptions under the proof rules")
    p.add_argument("--list", action="store_true", help="list every derived atom")
    _add_json(p)
    p.set_defaults(func=_cmd_saturate)

    p = subs.add_parser("derive", parents=[theory],
                        help="test whether a claim is derivable")
    p.add_argument("formula")
    p.add_argument("--fail-on-false", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_derive)

    p = subs.add_parser("explain", parents=[theory],
                        help="print the recorded derivation of a claim")
    p.add_argument("formula")
    p.add_argument("--fail-on-false", action="store_true")
    _add_json(p)
    p.set_defaults(func=_cmd_explain)

    p = subs.add_parser("canonical", parents=[theory],
                        help="build the canonical system of a theory")
    p.add_argument("--emit", metavar="PATH",
                   help="write the system to this .ets file")
    p.add_argument("--verify", action="store_true",
                   help="compare derivability with model truth on the "
                        "built system (mismatches exit 3)")
    _add_json(p)
    p.set_defaults(func=_cmd_canonical)

    p = subs.add_parser("gchain", parents=[theory],
                        help="grow and certify a covering chain")
    p.add_argument("--strategy", required=True, metavar="FILE",
                   help="file of view=label pairs choosing a canonical "
                        "instruction per view ('#' comments allowed)")
    p.add_argument("--F", dest="corridor", default="", metavar="SET",
                   help="comma-separated corridor views")
    p.add_argument("--G", dest="goal", required=True, metavar="SET",
                   help="comma-separated goal views")
    _add_json(p)
    p.set_defaults(func=_cmd_gchain)

    p = subs.add_parser("fuzz", help="randomized soundness checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-states", type=int, default=6)
    p.add_argument("--max-views", type=int, default=4)
    p.add_argument("--max-instructions", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    _add_json(p)
    p.set_defaults(func=_cmd_fuzz)

    p = subs.add_parser("fixture", help="print a bundled example system")
    p.add_argument("name", help="t0 or t1")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=_cmd_fixture)

    return parser



def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        report, text, code = args.func(args)
        lines = ([json.dumps(report, indent=2, default=lambda build: build())]
                 if getattr(args, "json", False) else text())
        answer = "".join(f"{line}\n" for line in lines)
    except KeyError as e:
        print(f"navlog: error: {e.args[0]}", file=sys.stderr)
        return 2
    except (ParseError, SystemValidationError, UniverseTooLarge,
            ValueError, OSError) as e:
        print(f"navlog: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"navlog: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        sys.stdout.write(answer)
        sys.stdout.flush()
    except BrokenPipeError:
        pass    # the reader closed stdout; the rest of the answer is not wanted
    except OSError as e:
        print(f"navlog: error: {e}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    code = run_cli()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Interpreter exit flushes stdout once more; send what is left of
        # the answer to devnull so that the closed pipe is not reported.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

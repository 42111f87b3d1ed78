"""Command-line front end.

Exit codes: 0 the question was answered; 1 the answer was negative and
--fail-on-false was given; 2 usage, parse, or validation errors; 3 an
internal invariant violation (a checker contradicting itself, a fuzz
violation, or a chain that fails its own certification) or any other
internal failure, such as running out of memory on a system too large to
explore, reported as one `navlog: internal error:` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .amnesic import check_atom_amnesic, evaluate, navigability_table
from .canonical import (CanonicalInstruction, build_canonical,
                        canonical_instructions, gstar_chain, valid_views,
                        verify_chain, verify_stage_conditions,
                        verify_truth_lemma)
from .core import (AmnesicStrategy, SystemValidationError, Universe,
                   UntilObjective, check_strategy)
from .fixtures import FIXTURES
from .fuzz import FuzzConfig, fuzz_soundness
from .proof import UniverseTooLarge, explain, saturate
from .recall import check_atom_recall
from .syntax import (AtomNode, Formula, ParseError, as_atom, parse_formula,
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


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_system(path: str):
    return parse_system(Path(path).read_text())


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


def _require_atom(formula: Formula, what: str):
    atom = as_atom(formula)
    if atom is None:
        raise ValueError(f"{what} must be a bare claim, not a compound formula")
    return atom


def _theory(args) -> tuple[Universe, "object"]:
    universe = Universe(_names_arg(args.views))
    assumptions = []
    for text in args.assume or ():
        assumptions.append(_require_atom(parse_formula(text, universe), "an assumption"))
    if args.theory:
        for line in Path(args.theory).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                assumptions.append(
                    _require_atom(parse_formula(line, universe), "an assumption"))
    closure = saturate(universe, assumptions, max_views=args.max_views)
    return universe, closure


def _witness_text(mapping: Dict[str, str]) -> str:
    return " ".join(f"{view}→{instr}" for view, instr in mapping.items())


def _set_text(names: Sequence[str]) -> str:
    return "{" + ",".join(names) + "}"


def _recall_witness_obj(system, witness) -> List[dict]:
    order = lambda bel: (system.universe.index(bel.view), sorted(bel.possible))
    return [
        {"view": bel.view, "possible": sorted(bel.possible),
         "instruction": witness[bel]}
        for bel in sorted(witness, key=order)
    ]


def _cmd_check(args) -> int:
    system = _load_system(args.system)
    atom = _require_atom(parse_formula(args.formula, system.universe), "check")
    query = render_formula(AtomNode(atom))
    started = time.perf_counter()
    counterexample = None
    note = None
    if args.strategy is not None:
        if args.mode != "amnesic":
            raise ValueError("--strategy applies to amnesic checking only")
        strategy = AmnesicStrategy.from_map(system, _parse_assignment(args.strategy))
        objective = UntilObjective(*atom.masks(system.universe))
        path = check_strategy(system, strategy, objective)
        holds = path is None
        witness_obj = strategy.as_map(system) if holds else None
        if path is not None:
            counterexample = {"states": list(path.states),
                              "loop_start": path.loop_start,
                              "reason": path.reason}
        stats = {"strategies_examined": 1}
    elif args.mode == "amnesic":
        decision = check_atom_amnesic(system, atom)
        holds = decision.holds
        witness_obj = decision.witness.as_map(system) if decision.witness else None
        note = decision.note
        stats = {"strategies_examined": decision.strategies_examined}
    else:
        decision = check_atom_recall(system, atom)
        holds = decision.holds
        witness_obj = (_recall_witness_obj(system, decision.witness)
                       if decision.witness is not None else None)
        stats = {"beliefs_explored": decision.explored}
    stats["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)

    report = {"query": query, "mode": args.mode, "holds": holds,
              "witness": witness_obj, "counterexample": counterexample,
              "stats": stats}
    if note:
        report["note"] = note
    if args.json:
        _emit(report)
    else:
        print(f"{query}: {'HOLDS' if holds else 'FAILS'} [{args.mode}]")
        if note:
            print(f"note: {note}")
        if args.witness:
            _print_witness_details(args, holds, witness_obj, counterexample, stats)
    return 1 if args.fail_on_false and not holds else 0


def _print_witness_details(args, holds, witness_obj, counterexample, stats) -> None:
    if holds and args.mode == "amnesic":
        print("witness: " + _witness_text(witness_obj))
    elif holds:
        print("witness:")
        for row in witness_obj:
            possible = ",".join(row["possible"])
            print(f"  {row['view']}{{{possible}}} → {row['instruction']}")
    elif counterexample is not None:
        states = " ".join(counterexample["states"])
        tail = counterexample["reason"]
        if counterexample["loop_start"] is not None:
            tail += f", cycles back to {counterexample['states'][counterexample['loop_start']]}"
        print(f"counterexample: {states} ({tail})")
    elif args.mode == "amnesic":
        print(f"no strategy works ({stats['strategies_examined']} assignment "
              f"classes examined)")
    else:
        print("some initial belief cannot force the target")


def _cmd_eval(args) -> int:
    system = _load_system(args.system)
    formula = parse_formula(args.formula, system.universe)
    started = time.perf_counter()
    holds = evaluate(system, formula, args.mode)
    elapsed = round((time.perf_counter() - started) * 1000, 3)
    query = render_formula(formula)
    if args.json:
        _emit({"query": query, "mode": args.mode, "holds": holds,
               "witness": None, "counterexample": None,
               "stats": {"elapsed_ms": elapsed}})
    else:
        print(f"{query}: {'true' if holds else 'false'} [{args.mode}]")
    return 1 if args.fail_on_false and not holds else 0


def _cmd_table(args) -> int:
    system = _load_system(args.system)
    classes = _names_arg(args.classes) if args.classes else list(system.universe.names)
    modes = tuple(_names_arg(args.modes))
    table = navigability_table(system, classes, modes)
    if args.json:
        grid = {row: dict(zip(table.classes, cells))
                for row, cells in zip(table.classes, table.grid)}
        _emit({"classes": list(table.classes), "modes": list(modes), "grid": grid})
    else:
        print(table.render())
    return 0


def _cmd_saturate(args) -> int:
    universe, closure = _theory(args)
    atoms = closure.derived_atoms()
    if args.json:
        _emit({
            "views": list(universe.names),
            "assumptions": [render_formula(AtomNode(a))
                            for a in closure.assumption_atoms()],
            "derived_count": len(atoms),
            "derived": [render_formula(AtomNode(a)) for a in atoms],
        })
        return 0
    print("views: " + " ".join(universe.names))
    print(f"assumptions ({len(closure.assumptions)}):")
    for a in closure.assumption_atoms():
        print("  " + render_formula(AtomNode(a)))
    print(f"derived: {len(atoms)} atoms")
    if args.list:
        for a in atoms:
            print("  " + render_formula(AtomNode(a)))
    return 0


def _cmd_derive(args) -> int:
    universe, closure = _theory(args)
    atom = _require_atom(parse_formula(args.formula, universe), "derive")
    key = atom.masks(universe)
    derivable = key in closure.derived
    query = render_formula(AtomNode(atom))
    if args.json:
        _emit({"query": query, "derivable": derivable})
    else:
        print(f"{query}: {'derivable' if derivable else 'not derivable'}")
    return 1 if args.fail_on_false and not derivable else 0


def _tree_obj(tree) -> dict:
    return {"atom": render_formula(AtomNode(tree.atom)), "rule": tree.rule,
            "premises": [_tree_obj(p) for p in tree.premises]}


def _cmd_explain(args) -> int:
    universe, closure = _theory(args)
    atom = _require_atom(parse_formula(args.formula, universe), "explain")
    query = render_formula(AtomNode(atom))
    if atom.masks(universe) not in closure.derived:
        if args.json:
            _emit({"query": query, "derivable": False, "tree": None})
        else:
            print(f"{query}: not derivable from the assumptions")
        return 1 if args.fail_on_false else 0
    tree = explain(closure, atom)
    if args.json:
        _emit({"query": query, "derivable": True, "tree": _tree_obj(tree)})
    else:
        print(tree.render())
    return 0


def _instruction_rows(universe, instructions) -> List[dict]:
    return [
        {"label": f"i{k}",
         "start": list(universe.names_of(ins.start)),
         "transit": list(universe.names_of(ins.transit)),
         "target": list(universe.names_of(ins.target))}
        for k, ins in enumerate(instructions)
    ]


def _cmd_canonical(args) -> int:
    universe, closure = _theory(args)
    instructions = canonical_instructions(closure)
    system = build_canonical(closure)
    valid = valid_views(closure)
    triples = system.transition_triples()
    if args.emit:
        header = "canonical system over views " + " ".join(universe.names)
        Path(args.emit).write_text(render_system(system, header=header))
    verification = None
    if args.verify:
        report = verify_truth_lemma(closure)
        verification = {
            "atoms_checked": report.atoms_checked,
            "exhaustive": report.exhaustive,
            "mismatches": [
                {"atom": render_formula(AtomNode(m.atom)),
                 "derivable": m.derivable, "holds": m.holds}
                for m in report.mismatches
            ],
            "ok": report.ok,
        }
    if args.json:
        _emit({
            "valid_views": list(valid),
            "instructions": _instruction_rows(universe, instructions),
            "states": len(system.states),
            "transitions": len(triples),
            "ets": render_system(system),
            "emitted": args.emit,
            "verification": verification,
        })
        return 3 if verification is not None and not verification["ok"] else 0
    print("valid views: " + (" ".join(valid) if valid else "(none)"))
    print(f"instructions: {len(instructions)}")
    for row in _instruction_rows(universe, instructions):
        print(f"  {row['label']}: start={_set_text(row['start'])} "
              f"transit={_set_text(row['transit'])} "
              f"target={_set_text(row['target'])}")
    plain = len(valid)
    print(f"states: {len(system.states)} ({plain} plain, "
          f"{len(system.states) - plain} in progress)")
    print(f"transitions: {len(triples)}")
    if args.emit:
        print(f"wrote {args.emit}")
    if verification is not None:
        kind = "exhaustive" if verification["exhaustive"] else "sampled"
        print(f"derivability vs model truth: {verification['atoms_checked']} "
              f"atoms ({kind}), {len(verification['mismatches'])} mismatches")
        for m in verification["mismatches"]:
            print(f"  MISMATCH {m['atom']}: derivable={m['derivable']} "
                  f"holds={m['holds']}")
        if not verification["ok"]:
            return 3
    return 0


def _cmd_gchain(args) -> int:
    universe, closure = _theory(args)
    instructions = canonical_instructions(closure)
    labels = {f"i{k}": ins for k, ins in enumerate(instructions)}
    spec = " ".join(line.split("#", 1)[0]
                    for line in Path(args.strategy).read_text().splitlines())
    strategy: Dict[str, CanonicalInstruction] = {}
    for view, label in _parse_assignment(spec).items():
        if label not in labels:
            raise ValueError(f"unknown instruction label {label!r} "
                             f"(the theory admits {len(labels)} instructions)")
        strategy[view] = labels[label]
    corridor = _names_arg(args.corridor)
    goal = _names_arg(args.goal)
    chain = gstar_chain(closure, strategy, corridor, goal)
    problems = (verify_chain(closure, chain)
                + verify_stage_conditions(closure, strategy, chain))
    position = {ins: f"i{k}" for k, ins in enumerate(instructions)}
    stages = [
        {"index": st.index, "instruction": position[st.instruction],
         "start_gain": list(universe.names_of(st.start_gain)),
         "transit_gain": list(universe.names_of(st.transit_gain)),
         "covered": list(universe.names_of(st.covered)),
         "carried": list(universe.names_of(st.carried))}
        for st in chain.stages
    ]
    if args.json:
        _emit({"corridor": list(universe.names_of(chain.corridor)),
               "goal": list(universe.names_of(chain.goal)),
               "stages": stages,
               "covered": list(universe.names_of(chain.covered)),
               "carried": list(universe.names_of(chain.carried)),
               "certified": not problems,
               "problems": problems})
    else:
        print(f"corridor: {_set_text(universe.names_of(chain.corridor))}  "
              f"goal: {_set_text(universe.names_of(chain.goal))}")
        for st in stages:
            print(f"stage {st['index']}: {st['instruction']} "
                  f"start_gain={_set_text(st['start_gain'])} "
                  f"transit_gain={_set_text(st['transit_gain'])} "
                  f"covered={_set_text(st['covered'])} "
                  f"carried={_set_text(st['carried'])}")
        print(f"covered: {_set_text(universe.names_of(chain.covered))}")
        if problems:
            print("certification FAILED:")
            for p in problems:
                print("  " + p)
        else:
            print(f"certified: {len(chain.stages)} stages, "
                  f"{2 * len(chain.stages)} obligations discharged")
    return 3 if problems else 0


def _cmd_fuzz(args) -> int:
    config = FuzzConfig(seed=args.seed, trials=args.trials,
                        max_states=args.max_states, max_views=args.max_views,
                        max_instructions=args.max_instructions,
                        density=args.density)
    report = fuzz_soundness(config)
    if args.json:
        _emit({
            "seed": config.seed, "trials": report.trials_run,
            "checks": report.checks,
            "violations": [
                {"trial": v.trial, "prop": v.prop, "detail": v.detail,
                 "system": v.system_text}
                for v in report.violations
            ],
            "notes": list(report.notes),
            "elapsed_s": round(report.elapsed_s, 3),
        })
    else:
        print(f"trials: {report.trials_run} (seed {config.seed})")
        for prop in sorted(report.checks):
            print(f"  {prop}: {report.checks[prop]} checks")
        for note in report.notes:
            print(f"note: {note}")
        if report.violations:
            print(f"VIOLATIONS: {len(report.violations)}")
            for v in report.violations:
                print(f"  trial {v.trial} [{v.prop}] {v.detail}")
        else:
            print("violations: 0")
        print(f"elapsed: {report.elapsed_s:.1f}s")
    return 3 if report.violations else 0


def _cmd_fixture(args) -> int:
    if args.name not in FIXTURES:
        raise ValueError(f"unknown fixture {args.name!r}; "
                         f"available: {', '.join(sorted(FIXTURES))}")
    text = FIXTURES[args.name]
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


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
        return args.func(args)
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


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

"""End-to-end command-line checks: output text, JSON shapes, exit codes.

Everything goes through run_cli(argv) in process; JSON outputs are validated
against the module's published schemas, not just spot-read.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import T0_GRID, two_way_chain

import navlog
from navlog.cli import REPORT_SCHEMA, TABLE_SCHEMA, build_parser, run_cli
from navlog.fixtures import T0_ETS, T1_ETS
from navlog.syntax import parse_system, render_system

LEX_LEAST_V1_TO_V3 = {"v1": "1", "v2": "1", "v3": "0",
                      "v4": "0", "v5": "1", "v6": "0"}


@pytest.fixture()
def t0_path(tmp_path):
    path = tmp_path / "t0.ets"
    path.write_text(T0_ETS)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestCheck:
    def test_holds_line(self, capsys, t0_path):
        code, out, _ = run(capsys, "check", t0_path, "nav({v1}; ALL; {v6})")
        assert code == 0
        assert "HOLDS [amnesic]" in out

    def test_fails_line_and_fail_on_false(self, capsys, t0_path):
        code, out, _ = run(capsys, "check", t0_path, "nav({v3}; ALL; {v1})")
        assert code == 0 and "FAILS [amnesic]" in out
        code, _, _ = run(capsys, "check", t0_path, "nav({v3}; ALL; {v1})",
                         "--fail-on-false")
        assert code == 1

    def test_witness_is_the_per_view_least_one(self, capsys, t0_path):
        code, out, _ = run(capsys, "check", t0_path, "nav({v1}; ALL; {v3})",
                           "--witness")
        assert code == 0
        assert "witness: v1→1 v2→1 v3→0 v4→0 v5→1 v6→0" in out

    def test_chain_witness_is_its_closed_form(self, capsys, tmp_path):
        path = tmp_path / "chain.ets"
        path.write_text(render_system(two_way_chain(300)))
        code, out, _ = run(capsys, "check", str(path),
                           "nav({v0}; ALL; {v299})", "--witness")
        assert code == 0
        want = " ".join(f"v{k}→1" for k in range(299)) + " v299→0"
        assert out.splitlines()[1] == "witness: " + want

    def test_json_report(self, capsys, t0_path):
        code, report = run_json(capsys, "check", t0_path,
                                "nav({v1}; ALL; {v3})", "--json")
        assert code == 0
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["holds"] is True
        assert report["witness"] == LEX_LEAST_V1_TO_V3
        assert report["counterexample"] is None
        assert report["stats"]["strategies_examined"] >= 1

    def test_recall_mode_separates(self, capsys, t0_path):
        code, out, _ = run(capsys, "check", t0_path, "nav({v1}; ALL; {v2})",
                           "--mode", "recall")
        assert code == 0 and "HOLDS [recall]" in out
        code, out, _ = run(capsys, "check", t0_path, "nav({v1}; ALL; {v2})")
        assert "FAILS [amnesic]" in out

    def test_fixed_strategy_counterexample(self, capsys, t0_path):
        code, report = run_json(
            capsys, "check", t0_path, "nav({v1}; ALL; {v3})",
            "--strategy", "v1=0,v2=0,v3=0,v4=0,v5=0,v6=0", "--json")
        assert code == 0
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["holds"] is False
        trace = report["counterexample"]
        assert trace is not None
        assert trace["reason"] in {"left_corridor", "dead_end", "never_reaches"}
        assert trace["states"]

    def test_strategy_needs_amnesic_mode(self, capsys, t0_path):
        code, _, err = run(capsys, "check", t0_path, "nav({v1}; ALL; {v3})",
                           "--mode", "recall", "--strategy", "v1=0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("spec, message", [
        ("v1=0,v2", "bad assignment 'v2'; expected view=value"),
        ("v1=0 v1=1", "view 'v1' assigned twice"),
        (" , ", "empty assignment"),
    ])
    def test_bad_strategy_assignment(self, capsys, t0_path, spec, message):
        code, out, err = run(capsys, "check", t0_path, "nav({v1}; ALL; {v3})",
                             "--strategy", spec)
        assert (code, out, err) == (2, "", f"navlog: error: {message}\n")

    def test_invalid_system_reports_every_problem_in_order(self, capsys, tmp_path):
        path = tmp_path / "bad.ets"
        path.write_text("views a b\ninstructions 0\nstate s a\nstate s b\n"
                        "trans s 0 t\nstate u c\ntrans u 1 s\n")
        code, out, err = run(capsys, "check", str(path), "nav({a}; ALL; {b})")
        assert (code, out) == (2, "")
        assert err == (
            "navlog: error: duplicate state 's' (line 4); state 'u' observes "
            "undeclared view 'c' (line 6); transition target state 't' is "
            "undeclared (line 5); transition source state 'u' is undeclared "
            "(line 7); transition instruction '1' is undeclared (line 7)\n")

    def test_unknown_view_in_formula(self, capsys, t0_path):
        code, _, err = run(capsys, "check", t0_path, "nav({v9}; ALL; {v3})")
        assert code == 2 and "unknown view" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.ets"),
                           "nav({v1}; ALL; {v3})")
        assert code == 2 and "error" in err


class TestEval:
    def test_compound_formula(self, capsys, t0_path):
        code, out, _ = run(
            capsys, "eval", t0_path,
            "!nav({v3}; ALL; {v1}) -> nav({v1}; ALL; {v6})")
        assert code == 0 and "true [amnesic]" in out

    def test_fail_on_false(self, capsys, t0_path):
        code, out, _ = run(capsys, "eval", t0_path, "nav({v3}; ALL; {v1})",
                           "--fail-on-false")
        assert code == 1 and "false" in out

    def test_deep_chain(self, capsys, tmp_path):
        path = tmp_path / "chain.ets"
        path.write_text(render_system(two_way_chain(1500)))
        code, report = run_json(capsys, "eval", str(path),
                                "nav({v0}; ALL; {v1499})", "--json")
        assert code == 0 and report["holds"] is True

    @pytest.mark.parametrize("formula, verdict", [
        ("!" * 5000 + "nav({v1}; ALL; {v6})", "true"),
        ("(" * 5000 + "nav({v1}; ALL; {v6})" + ")" * 5000, "true"),
        (" -> ".join(["nav({v1}; ALL; {v6})"] * 4999 + ["nav({v3}; ALL; {v1})"]),
         "false"),
    ], ids=["negations", "parentheses", "implications"])
    def test_deeply_nested_formula_answers(self, capsys, t0_path, formula,
                                           verdict):
        code, out, err = run(capsys, "eval", t0_path, formula)
        assert code == 0 and err == ""
        assert out.endswith(f": {verdict} [amnesic]\n")


class TestTable:
    def test_text_grid_is_the_frozen_one(self, capsys, t0_path):
        code, out, _ = run(capsys, "table", t0_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == list(T0_GRID)
        for line in lines[1:]:
            row, cells = line.split(maxsplit=1)
            assert " ".join(cells.split()) == T0_GRID[row]

    def test_json_grid(self, capsys, t0_path):
        code, table = run_json(capsys, "table", t0_path, "--json")
        assert code == 0
        jsonschema.validate(table, TABLE_SCHEMA)
        assert table["grid"]["v1"]["v6"] == "a"
        assert table["grid"]["v1"]["v2"] == "r"
        assert table["grid"]["v3"]["v1"] == "-"

    def test_modes_and_classes_subset(self, capsys, t0_path):
        code, table = run_json(capsys, "table", t0_path, "--json",
                               "--modes", "amnesic", "--classes", "v1,v3")
        assert code == 0
        assert table["modes"] == ["amnesic"]
        assert set(table["grid"]) == {"v1", "v3"}
        cells = {cell for row in table["grid"].values() for cell in row.values()}
        assert cells <= {"a", "-"}

    @pytest.mark.parametrize("option, value, message", [
        ("--classes", "v1,v3,v1", "duplicate class 'v1'"),
        ("--modes", "", "no mode given"),
    ])
    def test_bad_grid_request_is_a_usage_error(self, capsys, t0_path, option,
                                               value, message):
        code, out, err = run(capsys, "table", t0_path, option, value)
        assert code == 2 and out == ""
        assert err.startswith("navlog: error: ") and err.count("\n") == 1
        assert message in err


class TestParserReuse:
    """One parser serves every call in a process; no call may see another's
    options, defaults or failure."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_match_a_fresh_process(self, capsys, monkeypatch, t0_path):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ("saturate", "--views", "x,y", "--assume", "nav({x}; {}; {y})"),
            ("saturate", "--views", "x,y"),
            ("check", t0_path),
            ("table", t0_path, "--json"),
        ]
        src = str(Path(navlog.__file__).resolve().parents[1])
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        codes = []
        for argv in calls:
            in_process = run(capsys, *argv)
            proc = subprocess.run([sys.executable, "-m", "navlog.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv
            codes.append(in_process[0])
        assert codes == [0, 0, 2, 0]


THEORY = ("--views", "x,y", "--assume", "nav({x}; {}; {y})")
GOLDEN_THEORY = ("--views", "x,y,z", "--assume", "nav({x}; {y}; {z})",
                 "--assume", "nav({z}; {}; {y})")


def node(atom, rule, *premises):
    return {"atom": atom, "rule": rule, "premises": list(premises)}


_XY_TO_YZ = node("nav({x,y}; {}; {y,z})", "trim_corridor",
                 node("nav({x,y}; {y}; {y,z})", "augmentation",
                      node("nav({x}; {y}; {z})", "assumption")))


class TestTheoryCommands:
    def test_saturate_counts(self, capsys):
        code, out, _ = run(capsys, "saturate", "--views", "x,y")
        assert code == 0 and "derived: 36 atoms" in out

    def test_saturate_json_lists_consequences(self, capsys):
        code, report = run_json(capsys, "saturate", *THEORY, "--json")
        assert code == 0
        assert report["views"] == ["x", "y"]
        assert report["assumptions"] == ["nav({x}; {}; {y})"]
        assert report["derived_count"] == len(report["derived"])
        assert "nav({x}; {}; {})" in report["derived"]

    def test_theory_file_equals_assume_flags(self, capsys, tmp_path):
        theory = tmp_path / "theory.txt"
        theory.write_text("# one-hop assumption\nnav({x}; {}; {y})\n")
        code, from_file = run_json(capsys, "saturate", "--views", "x,y",
                                   "--theory", str(theory), "--json")
        assert code == 0
        _, from_flag = run_json(capsys, "saturate", *THEORY, "--json")
        assert from_file["derived"] == from_flag["derived"]

    def test_derive(self, capsys):
        code, out, _ = run(capsys, "derive", *THEORY, "nav({x}; {}; {})")
        assert code == 0 and "derivable" in out
        code, out, _ = run(capsys, "derive", "--views", "x,y",
                           "nav({x}; {}; {})", "--fail-on-false")
        assert code == 1 and "not derivable" in out

    def test_explain_tree(self, capsys):
        code, report = run_json(capsys, "explain", *THEORY,
                                "nav({x}; {}; {})", "--json")
        assert code == 0
        assert report["derivable"] is True
        assert report["tree"]["rule"] == "zero_step"
        assert len(report["tree"]["premises"]) == 1
        assert report["tree"]["premises"][0]["rule"] == "assumption"

    @pytest.mark.parametrize("query, tree", [
        ("nav({x,y}; {}; {y})",
         node("nav({x,y}; {}; {y})", "transitivity",
              _XY_TO_YZ,
              node("nav({y,z}; {}; {y})", "augmentation",
                   node("nav({z}; {}; {y})", "assumption")))),
        ("nav({x,y}; {x}; {y,z})",
         node("nav({x,y}; {x}; {y,z})", "trim_corridor",
              node("nav({x,y}; {x,y}; {y,z})", "augmentation",
                   node("nav({x}; {x,y}; {z})", "transitivity",
                        node("nav({x}; {x}; {x})", "reflexivity"),
                        node("nav({x}; {y}; {z})", "assumption"))))),
        ("nav({x,y}; {z}; {y})",
         node("nav({x,y}; {z}; {y})", "transitivity",
              _XY_TO_YZ,
              node("nav({y,z}; {z}; {y})", "augmentation",
                   node("nav({z}; {z}; {y})", "transitivity",
                        node("nav({z}; {}; {y})", "assumption"),
                        node("nav({y}; {z}; {y})", "reflexivity"))))),
    ])
    def test_explain_golden_trees(self, capsys, query, tree):
        """The recorded derivation is pinned, so a change in the order in
        which the rules fire shows up as a different tree."""
        code, report = run_json(capsys, "explain", *GOLDEN_THEORY, query, "--json")
        assert code == 0
        assert report == {"query": query, "derivable": True, "tree": tree}

    def test_explain_underivable_is_an_answer(self, capsys):
        code, out, _ = run(capsys, "explain", "--views", "x,y",
                           "nav({x}; {}; {})")
        assert code == 0 and "not derivable" in out

    def test_compound_assumption_rejected(self, capsys):
        code, _, err = run(capsys, "saturate", "--views", "x,y",
                           "--assume", "nav({x}; {}; {y}) -> nav({y}; {}; {x})")
        assert code == 2 and "assumption" in err

    @pytest.mark.parametrize("line, message", [
        ("    nav({x}; {; {y})  # bad set",
         "expected a view name, found ';' at line 4, column 15"),
        ("  !nav({x}; {}; {y})",
         "an assumption must be a bare claim, not a compound formula at line 4"),
    ], ids=["syntax", "compound"])
    def test_theory_file_error_names_the_file_line(self, capsys, tmp_path, line,
                                                   message):
        theory = tmp_path / "theory.txt"
        theory.write_text(f"# assumptions\nnav({{x}}; {{}}; {{y}})\n\n{line}\n")
        code, out, err = run(capsys, "saturate", "--views", "x,y",
                             "--theory", str(theory))
        assert code == 2 and out == ""
        assert err == f"navlog: error: {theory}: {message}\n"

    def test_view_cap(self, capsys):
        code, _, err = run(capsys, "saturate", "--views", "a,b,c",
                           "--max-views", "2")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("command", ["saturate", "canonical"])
    def test_non_identifier_view_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--views", "a-b,c")
        assert (code, out) == (2, "")
        assert err == "navlog: error: bad view identifier 'a-b'\n"


CANON = ("--views", "x,y,z", "--assume", "nav({x}; {x,y}; {z})")


class TestCanonical:
    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "canonical", "--views", "x")
        assert code == 0
        assert "valid views: x" in out
        assert "instructions: 3" in out
        assert "states: 4 (1 plain, 3 in progress)" in out

    def test_emit_and_verify(self, capsys, tmp_path):
        target = tmp_path / "canon.ets"
        code, out, _ = run(capsys, "canonical", *CANON,
                           "--emit", str(target), "--verify")
        assert code == 0
        assert f"wrote {target}" in out
        assert "512 atoms (exhaustive), 0 mismatches" in out
        emitted = parse_system(target.read_text())
        assert len(emitted.states) > 0

    def test_json_shape(self, capsys):
        code, report = run_json(capsys, "canonical", *CANON,
                                "--verify", "--json")
        assert code == 0
        assert report["valid_views"] == ["x", "y", "z"]
        assert report["states"] == len(parse_system(report["ets"]).states)
        assert report["verification"]["ok"] is True
        assert report["verification"]["atoms_checked"] == 512
        labels = [row["label"] for row in report["instructions"]]
        assert labels == [f"i{k}" for k in range(len(labels))]

    def test_verify_builds_the_model_once(self, capsys, monkeypatch):
        """The truth-lemma check runs on the model the command built."""
        from navlog.canonical import build_canonical
        built = []

        def counted(closure):
            built.append(build_canonical(closure))
            return built[-1]
        monkeypatch.setattr("navlog.cli.build_canonical", counted)
        monkeypatch.setattr("navlog.canonical.build_canonical", counted)
        code, report = run_json(capsys, "canonical", *CANON,
                                "--verify", "--json")
        assert code == 0 and report["verification"]["ok"] is True
        assert len(built) == 1


class TestGchain:
    def write_strategy(self, tmp_path, text):
        path = tmp_path / "strategy.txt"
        path.write_text(text)
        return str(path)

    def hop_label(self, capsys):
        """Label of the (start {x}, transit {y}, target {z}) instruction."""
        _, report = run_json(capsys, "canonical", *CANON, "--json")
        for row in report["instructions"]:
            if (row["start"], row["transit"], row["target"]) == (["x"], ["y"], ["z"]):
                return row["label"]
        raise AssertionError("expected instruction is missing")

    def test_certified_chain(self, capsys, tmp_path):
        hop = self.hop_label(capsys)
        spec = self.write_strategy(
            tmp_path, f"x={hop}\ny={hop}  # ferries the corridor\nz=i0\n")
        code, out, _ = run(capsys, "gchain", *CANON, "--strategy", spec,
                           "--F", "x,y", "--G", "z")
        assert code == 0
        assert "certified: 1 stages, 2 obligations discharged" in out

    def test_json_chain(self, capsys, tmp_path):
        hop = self.hop_label(capsys)
        spec = self.write_strategy(tmp_path, f"x={hop} y={hop} z=i0")
        code, report = run_json(capsys, "gchain", *CANON, "--strategy", spec,
                                "--F", "x,y", "--G", "z", "--json")
        assert code == 0
        assert report["certified"] is True
        assert report["covered"] == ["x", "z"]
        assert report["carried"] == ["y"]
        assert [st["instruction"] for st in report["stages"]] == [hop]

    def test_unknown_label(self, capsys, tmp_path):
        spec = self.write_strategy(tmp_path, "x=i999 y=i0 z=i0")
        code, _, err = run(capsys, "gchain", *CANON, "--strategy", spec,
                           "--F", "x,y", "--G", "z")
        assert code == 2 and "unknown instruction label" in err

    def test_goal_is_required(self, capsys, tmp_path):
        spec = self.write_strategy(tmp_path, "x=i0 y=i0 z=i0")
        code, _, _ = run(capsys, "gchain", *CANON, "--strategy", spec)
        assert code == 2


class TestFuzzCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--trials", "20")
        assert code == 0 and "violations: 0" in out

    def test_json_report(self, capsys):
        code, report = run_json(capsys, "fuzz", "--trials", "20", "--json")
        assert code == 0
        assert report["trials"] == 20
        assert report["violations"] == []
        assert report["checks"]["reflexivity"] == 40
        assert len(report["notes"]) == 1

    @pytest.mark.parametrize("option, value", [
        ("--trials", "-5"), ("--max-views", "0"), ("--max-states", "0"),
        ("--max-instructions", "0"), ("--density", "nan"), ("--density", "2"),
    ])
    def test_bad_bound_is_a_usage_error(self, capsys, option, value):
        code, out, err = run(capsys, "fuzz", option, value)
        assert code == 2 and out == ""
        assert err.startswith("navlog: error: ") and err.count("\n") == 1
        assert option[2:].replace("-", "_") in err


class TestFixtureCommand:
    def test_prints_exact_text(self, capsys):
        code, out, _ = run(capsys, "fixture", "t0")
        assert code == 0 and out == T0_ETS

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "t1.ets"
        code, _, _ = run(capsys, "fixture", "t1", "--out", str(target))
        assert code == 0
        assert target.read_text() == T1_ETS
        assert parse_system(T1_ETS).states

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "fixture", "t9")
        assert code == 2 and "unknown fixture" in err


def test_no_arguments_is_a_usage_error(capsys):
    assert run_cli([]) == 2


@pytest.mark.parametrize("engine, argv", [
    ("evaluate", ("eval", "T0", "nav({v1}; ALL; {v6})")),
    ("saturate", ("saturate", "--views", "x,y", "--json")),
    ("build_canonical", ("canonical", "--views", "x")),
], ids=["eval", "saturate", "canonical"])
def test_internal_failure_exits_3(capsys, t0_path, monkeypatch, engine, argv):
    """An engine failure is one stderr line and leaves stdout empty."""
    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")
    monkeypatch.setattr(f"navlog.cli.{engine}", exhausted)
    code, out, err = run(capsys, *(t0_path if a == "T0" else a for a in argv))
    assert code == 3 and out == ""
    assert err == "navlog: internal error: MemoryError: out of memory\n"


def test_closed_stdout_is_not_an_error():
    """`navlog ... | head -1`: the reader closes the pipe after one line of a
    273 KB answer; the command still exits 0 and writes nothing to stderr."""
    src = str(Path(navlog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "navlog.cli", "saturate", "--views", "a,b,c,d,e",
         "--json"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()


def test_unwritable_stdout_is_a_usage_error(capsys, monkeypatch):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert run_cli(["fixture", "t0"]) == 2
    assert capsys.readouterr().err == "navlog: error: [Errno 28] No space left on device\n"

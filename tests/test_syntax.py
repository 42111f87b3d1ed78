"""Formula and .ets text formats: parsing, rendering, round trips."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navlog
from navlog.core import SystemValidationError, Universe
from navlog.fixtures import T0_ETS
from navlog.syntax import (Atom, AtomNode, Implies, Not, ParseError, as_atom,
                           parse_formula, parse_system, render_formula,
                           render_system)

U = Universe(("a", "b", "c"))


class TestFormulaParsing:
    def test_atom_with_all(self):
        f = parse_formula("nav({a}; ALL; {c})", U)
        assert f == AtomNode(Atom(("a",), ("a", "b", "c"), ("c",)))

    def test_sets_are_canonicalized(self):
        assert (parse_formula("nav({c,a}; {}; {b,b})", U)
                == parse_formula("nav({a,c}; {}; {b})", U))

    def test_whitespace_and_comments(self):
        text = "nav( {a} ;  # the start\n     {} ; {c} )"
        assert as_atom(parse_formula(text, U)) == Atom(("a",), (), ("c",))

    def test_implication_is_right_associative(self):
        f = parse_formula("nav({a};{};{a}) -> nav({b};{};{b}) -> nav({c};{};{c})", U)
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)
        assert isinstance(f.antecedent, AtomNode)

    def test_parenthesized_antecedent(self):
        f = parse_formula("(nav({a};{};{a}) -> nav({b};{};{b})) -> nav({c};{};{c})", U)
        assert isinstance(f.antecedent, Implies)

    def test_negation_binds_tighter_than_implies(self):
        f = parse_formula("!nav({a};{};{a}) -> nav({b};{};{b})", U)
        assert isinstance(f, Implies)
        assert isinstance(f.antecedent, Not)

    def test_as_atom_on_compounds(self):
        assert as_atom(parse_formula("!nav({a};{};{a})", U)) is None

    @pytest.mark.parametrize("bad, fragment", [
        ("", "empty formula"),
        ("nav({a}; {b})", "expected"),
        ("nav({a}; {b}; {z})", "unknown view 'z'"),
        ("nav({a}; {b}; {c}) nav({a};{b};{c})", "trailing"),
        ("nav({a}; {b}; {c}", "ends unexpectedly"),
        ("nav({a}; {b}; {c}) -> ", "ends unexpectedly"),
        ("$", "unexpected character"),
    ])
    def test_errors(self, bad, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_formula(bad, U)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("nav({a};\n {zz}; {c})", U)
        assert exc.value.line == 2
        assert exc.value.col is not None
        assert "line 2" in str(exc.value)


class TestFormulaRendering:
    def test_atom_format(self):
        atom = Atom.over(U, ("b", "a"), (), ("c",))
        assert render_formula(AtomNode(atom)) == "nav({a,b}; {}; {c})"

    def test_minimal_parentheses(self):
        a = AtomNode(Atom.over(U, ("a",), (), ("a",)))
        b = AtomNode(Atom.over(U, ("b",), (), ("b",)))
        c = AtomNode(Atom.over(U, ("c",), (), ("c",)))
        assert render_formula(Implies(a, Implies(b, c))).count("(") == 3  # atoms only
        assert render_formula(Implies(Implies(a, b), c)).startswith("(")
        assert render_formula(Not(Implies(a, b))).startswith("!(")
        assert render_formula(Not(Not(a))).startswith("!!")


_A, _N = "nav({a}; {}; {a})", 5000
DEEP_TEXTS = {
    "negations": "!" * _N + _A,
    "implications": " -> ".join([_A] * _N),
    "left_nested": "(" * (_N - 1) + _A + (" -> " + _A + ")") * (_N - 1) + " -> " + _A,
    "negated_implications": ("!(" + _A + " -> ") * _N + _A + ")" * _N,
}


class TestDeepFormulas:
    """Nesting depth costs the parser, the renderer and the formula nodes'
    equality, hash and repr no recursion.  The texts are canonical, so
    parsing and rendering gives each one back."""

    @pytest.mark.parametrize("shape", sorted(DEEP_TEXTS))
    def test_canonical_text_round_trips(self, shape):
        text = DEEP_TEXTS[shape]
        assert render_formula(parse_formula(text, U)) == text

    @pytest.mark.parametrize("shape", ["negations", "implications"])
    def test_compare_hash_and_print(self, shape):
        text = DEEP_TEXTS[shape]
        f, g = parse_formula(text, U), parse_formula(text, U)
        assert f is not g
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        assert repr(f) == text
        other = parse_formula(text.replace(_A, "nav({b}; {}; {b})", 1), U)
        assert f != other and f not in {other}
        assert f != text

    def test_parentheses_leave_no_node(self):
        f = parse_formula("(" * _N + _A + ")" * _N, U)
        assert f == AtomNode(Atom(("a",), (), ("a",)))

    def test_left_nesting_depth(self):
        f = parse_formula(DEEP_TEXTS["left_nested"], U)
        depth = 0
        while isinstance(f, Implies):
            assert isinstance(f.consequent, AtomNode)
            f, depth = f.antecedent, depth + 1
        assert depth == _N and isinstance(f, AtomNode)


def test_pickled_formula_hashes_under_the_loading_seed():
    text = "!(nav({a}; {}; {a}) -> nav({b}; {}; {b}))"
    src = str(Path(navlog.__file__).resolve().parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import pickle, sys\n"
            "from navlog.core import Universe\n"
            "from navlog.syntax import parse_formula\n"
            f"f = parse_formula({text!r}, Universe(('a', 'b', 'c')))\n"
            "sys.stdout.buffer.write(pickle.dumps(f))\n")
    dumped = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, timeout=120, check=True).stdout
    f, g = pickle.loads(dumped), parse_formula(text, U)
    assert f == g and hash(f) == hash(g) and f in {g}


def formulas(universe: Universe, depth: int = 6):
    names = st.sets(st.sampled_from(universe.names))
    atoms = st.builds(
        lambda s, b, t: AtomNode(Atom.over(universe, s, b, t)),
        names, names, names)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Implies, sub, sub)),
        max_leaves=2 ** depth)


@settings(max_examples=300)
@given(formulas(U))
def test_formula_round_trip(f):
    assert parse_formula(render_formula(f), U) == f


class TestSystemFormat:
    def test_fixture_round_trip(self):
        system = parse_system(T0_ETS)
        again = parse_system(render_system(system))
        assert again.states == system.states
        assert again.universe == system.universe
        assert again.instructions == system.instructions
        assert sorted(again.transition_triples()) == sorted(system.transition_triples())

    def test_render_includes_header(self, t0):
        text = render_system(t0, header="hello world")
        assert text.startswith("# hello world\n")
        assert parse_system(text).states == t0.states

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="directive"):
            parse_system("views v\ninstructions 0\nbogus x y\n")

    def test_undeclared_identifiers_reported_with_lines(self):
        text = "views v\ninstructions 0\nstate s w\ntrans s 0 t\n"
        with pytest.raises(SystemValidationError) as exc:
            parse_system(text)
        message = str(exc.value)
        assert "line 3" in message and "line 4" in message

    def test_directive_arity_errors(self):
        for text in ("views\n", "instructions\n", "state s\n", "trans s 0\n"):
            with pytest.raises(ParseError):
                parse_system("views v\ninstructions 0\n" + text)

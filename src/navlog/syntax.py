"""Text formats: the navigability formula language and the .ets system format.

Formulas follow a small grammar over one fixed view universe:

    formula := implies
    implies := unary ('->' implies)?            (right associative)
    unary   := '!' unary | '(' formula ')' | atom
    atom    := 'nav' '(' set ';' set ';' set ')'
    set     := '{' (VIEW (',' VIEW)*)? '}' | 'ALL'

Whitespace is insignificant and '#' starts a comment running to end of line.
`ALL` names the full view universe.  System descriptions (.ets) are
line-oriented: `views`, `instructions`, `state`, and `trans` directives, with
declarations preceding use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Union

from .core import EpistemicTransitionSystem, Universe, validate_system

__all__ = [
    "Atom", "AtomNode", "Not", "Implies", "Formula", "ParseError",
    "parse_formula", "render_formula", "as_atom",
    "parse_system", "render_system",
]


class ParseError(ValueError):
    """Syntax problem in a formula or .ets description: `message` plus its position."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        place = ""
        if line is not None:
            place = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + place)
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Atom:
    """One navigability claim: start views, corridor views, target views.

    Each component is stored sorted by view declaration order, so two atoms
    built from the same sets compare equal no matter how the input was
    ordered.
    """

    start: tuple[str, ...]
    corridor: tuple[str, ...]
    target: tuple[str, ...]

    @classmethod
    def over(cls, universe: Universe, start: Iterable[str],
             corridor: Iterable[str], target: Iterable[str]) -> "Atom":
        def canon(names: Iterable[str]) -> tuple[str, ...]:
            ks = sorted({universe.index(n) for n in names})
            return tuple(universe.names[k] for k in ks)
        return cls(canon(start), canon(corridor), canon(target))

    @classmethod
    def from_masks(cls, universe: Universe, start: int, corridor: int, target: int) -> "Atom":
        return cls(universe.names_of(start), universe.names_of(corridor),
                   universe.names_of(target))

    def masks(self, universe: Universe) -> tuple[int, int, int]:
        return (universe.mask(self.start), universe.mask(self.corridor),
                universe.mask(self.target))


@dataclass(frozen=True)
class AtomNode:
    atom: Atom


class _Compound:
    """Equality, hashing and repr for the connectives, at any nesting depth.

    The hash is worked out once, from the children's, when a node is built;
    equality compares over an explicit stack; repr is the canonical text.
    A pickle holds only the children, so a load in another process, under
    another hash seed, works the hash out again.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if x.__class__ is not y.__class__ or hash(x) != hash(y):
                return False
            if isinstance(x, Not):
                todo.append((x.operand, y.operand))
            elif isinstance(x, Implies):
                todo += [(x.consequent, y.consequent), (x.antecedent, y.antecedent)]
            elif x != y:
                return False
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return render_formula(self)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Compound):
    operand: "Formula"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((Not, self.operand)))


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Compound):
    antecedent: "Formula"
    consequent: "Formula"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((Implies, self.antecedent, self.consequent)))


Formula = Union[AtomNode, Not, Implies]


def as_atom(formula: Formula) -> Optional[Atom]:
    """The bare atom if the formula is exactly one claim, else None."""
    return formula.atom if isinstance(formula, AtomNode) else None


_TOKEN = re.compile(r"->|[!(){};,]|[A-Za-z0-9_]+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, line, col) triples; comments and blanks dropped."""
    out: list[tuple[str, int, int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        at = 0
        for m in _TOKEN.finditer(line):
            gap = line[at:m.start()]
            if gap.strip():
                raise ParseError(f"unexpected character {gap.strip()[0]!r}", ln, at + 1)
            out.append((m.group(), ln, m.start() + 1))
            at = m.end()
        tail = line[at:]
        if tail.strip():
            raise ParseError(f"unexpected character {tail.strip()[0]!r}", ln, at + 1)
    return out


def _negated(formula: Formula, times: int) -> Formula:
    for _ in range(times):
        formula = Not(formula)
    return formula


class _FormulaParser:
    def __init__(self, tokens: list[tuple[str, int, int]], universe: Universe):
        self.tokens = tokens
        self.universe = universe
        self.at = 0

    def _peek(self) -> Optional[str]:
        return self.tokens[self.at][0] if self.at < len(self.tokens) else None

    def _take(self) -> tuple[str, int, int]:
        if self.at >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else (None, 1, 1)
            raise ParseError("formula ends unexpectedly", last[1], last[2])
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def _expect(self, want: str) -> None:
        tok, ln, col = self._take()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", ln, col)

    def parse(self) -> Formula:
        """The whole token list as one formula, parsed without recursion.

        `chains` holds the operands read so far of each open implication
        chain (the outermost first, then one per open parenthesis), and
        `negations` the number of '!' before each open parenthesis.
        """
        chains: list[list[Formula]] = [[]]
        negations: list[int] = []
        while True:
            bangs = 0
            while self._peek() == "!":
                self._take()
                bangs += 1
            if self._peek() == "(":
                self._take()
                negations.append(bangs)
                chains.append([])
                continue
            f = _negated(self._atom(), bangs)
            while True:
                chains[-1].append(f)
                if self._peek() == "->":
                    self._take()
                    break
                chain = chains.pop()
                f = chain.pop()
                while chain:
                    f = Implies(chain.pop(), f)
                if not negations:
                    if self.at < len(self.tokens):
                        tok, ln, col = self.tokens[self.at]
                        raise ParseError(f"unexpected trailing {tok!r}", ln, col)
                    return f
                self._expect(")")
                f = _negated(f, negations.pop())

    def _atom(self) -> Formula:
        tok, ln, col = self._take()
        if tok != "nav":
            raise ParseError(f"expected an atom, found {tok!r}", ln, col)
        self._expect("(")
        start = self._set()
        self._expect(";")
        corridor = self._set()
        self._expect(";")
        target = self._set()
        self._expect(")")
        return AtomNode(Atom.over(self.universe, start, corridor, target))

    def _set(self) -> list[str]:
        tok, ln, col = self._take()
        if tok == "ALL":
            return list(self.universe.names)
        if tok != "{":
            raise ParseError(f"expected a view set, found {tok!r}", ln, col)
        names: list[str] = []
        if self._peek() == "}":
            self._take()
            return names
        while True:
            name, ln, col = self._take()
            if not re.fullmatch(r"[A-Za-z0-9_]+", name):
                raise ParseError(f"expected a view name, found {name!r}", ln, col)
            if name not in self.universe:
                raise ParseError(f"unknown view {name!r}", ln, col)
            names.append(name)
            tok, ln, col = self._take()
            if tok == "}":
                return names
            if tok != ",":
                raise ParseError(f"expected ',' or '}}', found {tok!r}", ln, col)


def parse_formula(text: str, universe: Universe) -> Formula:
    """Parse a formula over the given universe; raises ParseError."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty formula")
    return _FormulaParser(tokens, universe).parse()


def render_formula(formula: Formula) -> str:
    """Canonical text for a formula, with minimal parentheses.

    Implication renders right-associated; a left-nested implication and a
    negated implication are the only spots that need parentheses.  Compound
    formulas are written out from an explicit stack of pieces still to emit
    (text or subformulas), so nesting depth costs no recursion.
    """
    if isinstance(formula, AtomNode):
        a = formula.atom
        return (f"nav({{{','.join(a.start)}}}; {{{','.join(a.corridor)}}}; "
                f"{{{','.join(a.target)}}})")
    out: list[str] = []
    todo: list[Union[str, Formula]] = [formula]
    while todo:
        f = todo.pop()
        if isinstance(f, str):
            out.append(f)
        elif isinstance(f, AtomNode):
            out.append(render_formula(f))
        elif isinstance(f, Not):
            if isinstance(f.operand, Implies):
                todo += [")", f.operand, "!("]
            else:
                todo += [f.operand, "!"]
        elif isinstance(f, Implies):
            todo += [f.consequent, " -> "]
            if isinstance(f.antecedent, Implies):
                todo += [")", f.antecedent, "("]
            else:
                todo.append(f.antecedent)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


def parse_system(text: str) -> EpistemicTransitionSystem:
    """Parse and validate an .ets description.

    Raises ParseError for malformed lines and SystemValidationError (with
    line numbers) for structural problems such as undeclared identifiers.
    """
    views: list[tuple[str, int]] = []
    instructions: list[tuple[str, int]] = []
    states: list[tuple[str, str, int]] = []
    transitions: list[tuple[str, str, str, int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        hash_at = line.find("#")
        if hash_at >= 0:
            line = line[:hash_at]
        fields = line.split()
        if not fields:
            continue
        directive, args = fields[0], fields[1:]
        if directive == "views":
            if not args:
                raise ParseError("views directive lists no identifiers", ln)
            views.extend((name, ln) for name in args)
        elif directive == "instructions":
            if not args:
                raise ParseError("instructions directive lists no identifiers", ln)
            instructions.extend((name, ln) for name in args)
        elif directive == "state":
            if len(args) != 2:
                raise ParseError("state directive needs: state <name> <view>", ln)
            states.append((args[0], args[1], ln))
        elif directive == "trans":
            if len(args) != 3:
                raise ParseError("trans directive needs: trans <from> <instruction> <to>", ln)
            transitions.append((args[0], args[1], args[2], ln))
        else:
            raise ParseError(f"unknown directive {directive!r}", ln)
    return validate_system(views, instructions, states, transitions)


def render_system(system: EpistemicTransitionSystem, header: str = "") -> str:
    """Emit a system as .ets text that parses back to an equal system."""
    lines: list[str] = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    if len(system.universe):
        lines.append("views " + " ".join(system.universe.names))
    lines.append("instructions " + " ".join(system.instructions))
    for state in system.states:
        lines.append(f"state {state} {system.observation(state)}")
    for src, instr, dst in system.transition_triples():
        lines.append(f"trans {src} {instr} {dst}")
    return "\n".join(lines) + "\n"

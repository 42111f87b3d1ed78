"""The workloads: seeded inputs, request streams and answer checks.

A workload is a `Plan`: the files it writes, a prologue issued once per run,
and a cycle issued back to back until the run's time is up.  Every request
carries a judge that checks its answer against the reference deciders in
`reference.py` (or against their answers stored in `expected.json`), and may
spawn a follow-up request from its output, as a recall check spawns the
library replay of the witness it returned.

Sizes are fixed per request slot.  The seed draws the campaign seeds of
`fuzz`, the atoms `explain` is asked about, and a relabelling (a
permutation of states and views) of the fixed random templates that
`search`, `beliefs` and `theory` use: the cost of a freshly drawn system or
theory varies threefold to tenfold between draws, which would swamp the
changes the benchmark is there to show, while a relabelled template keeps
most of its cost.  Why each workload exists:

* search: keeps the amnesic search and lex-least minimisation busy, with
  claims that recall alone cannot settle;
* beliefs: keeps the recall fixpoint and witness replay busy and never
  calls the amnesic engine;
* theory: keeps saturation, derivation replay and the canonical model busy;
  recall never runs and amnesic runs only inside the truth-lemma check;
* fuzz: thousands of tiny checker calls, where per-call set-up dominates.

A fifth plan, `defects`, is not measured: it issues the requests that fail
at the ROADMAP baseline (a search past the time limit, two RecursionErrors),
which the measured workloads leave out because every request there must
answer.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import reference as ref

WORKLOADS = ("search", "beliefs", "theory", "fuzz")
# Not a measured workload: ROADMAP's known failing requests (see _defects).
DEFECTS = "defects"

# Slot sizes per scale.  "full" is the measured benchmark; "tiny" is for the
# self-test and finishes in a second or two.
SIZES = {
    "full": {
        # A ladder of 40-118 views with two bands of near-equal requests:
        # 76-84 views, one apart, holds the workload's median, and 110-118,
        # two apart, its 11th slowest request, so that neither percentile
        # jumps between sizes from run to run.
        "search_chains": (40, 50, 60, 65, 70, *range(76, 85), *range(110, 119, 2)),
        # (states, views) per random-system slot, spanning 200-400 x 10-12.
        "search_random": ((200, 10), (300, 10), (400, 10), (200, 11), (300, 11),
                          (200, 12)),
        "search_table": (60, 8),
        # 700-790 states, ten apart, hold the workload's 11th slowest
        # request (its tail), so that it does not jump between sizes.
        "belief_chains": (500, 600, *range(700, 800, 10), 1000, 1500),
        # verify_recall_witness recurses once per chain state and raises
        # RecursionError from about 1,000 states (issued in `defects`);
        # from 900 states up a few more stack frames would tip it over, so
        # only the shorter chains get a verify request.
        "belief_verify_below": 900,
        "belief_random": 40,
        "belief_random_shape": (60, 4, 3),
        "theory_big": 6,
        # (views, explain queries) on the empty theory.  The 5-view
        # requests (about 0.3-0.5 s each) hold the workload's 11th slowest
        # request: about two cycles run in a run, so that about seven
        # requests are slower (the 6-view prologue and the 5-view random
        # theory) and about fourteen are these.
        "theory_empty": ((4, 1), (5, 7)),
        # (template, views) of each random theory.  A random theory is a
        # fixed random template whose views the seed permutes: the closure
        # size of a freshly drawn theory, and with it the cost, varies
        # fourfold.
        "theory_random": tuple((t, 4) for t in range(10)) + ((24, 5),),
        "canonical": (4,),   # canonical --verify on the empty theory
        "fuzz_trials": 500,
        # defects
        "slow_system": (800, 16),
        "deep_chain": 1500,
        "defect_verify_chains": (1000, 1500),
    },
    "tiny": {
        "search_chains": (8, 12),
        "search_random": ((24, 6), (30, 7)),
        "search_table": (20, 4),
        "belief_chains": (20, 40),
        "belief_verify_below": 30,
        "belief_random": 2,
        "belief_random_shape": (20, 3, 2),
        "theory_big": 3,
        "theory_empty": ((2, 1), (3, 2)),
        "theory_random": ((0, 3), (1, 3)),
        "canonical": (3,),
        "fuzz_trials": 20,
        "slow_system": (40, 5),
        "deep_chain": 30,
        "defect_verify_chains": (30,),
    },
}


@dataclass
class Outcome:
    rc: Optional[int]
    stdout: str
    stderr: str
    result: object = None       # return value of a library request


@dataclass
class Request:
    """One request: a CLI argv for `navlog.cli.run_cli`, or a library call.
    Either way the program's functions are looked up when the request runs,
    so a traced run sees them."""

    name: str
    kind: str
    judge: Callable[[Outcome], Optional[str]]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None
    follow: Optional[Callable[[Outcome], Optional["Request"]]] = None
    work: Optional[Callable[[Outcome], Dict[str, float]]] = None


@dataclass
class Plan:
    files: Dict[str, str]
    prologue: List[Request]
    cycle: List[Request]
    # Reference answers: key -> function computing a JSON value.
    refs: Dict[str, Callable[[], object]] = field(default_factory=dict)


class Answers:
    """Reference answers: from expected.json when it holds this seed, else
    computed by the reference deciders (after the timed part of a run)."""

    def __init__(self, plan: Plan, stored: Optional[dict]):
        self.plan = plan
        self.stored = stored or {}
        self.cache: Dict[str, object] = {}

    def __getitem__(self, key: str):
        if key not in self.cache:
            if key in self.stored:
                self.cache[key] = self.stored[key]
            else:
                self.cache[key] = self.plan.refs[key]()
        return self.cache[key]


def _json(out: Outcome) -> dict:
    return json.loads(out.stdout)


def _judged(check: Callable[[dict], Optional[str]]) -> Callable[[Outcome], Optional[str]]:
    """Judge of a --json CLI request: parse stdout, then apply `check`."""
    def judge(out: Outcome) -> Optional[str]:
        try:
            obj = _json(out)
        except ValueError:
            return "output is not JSON"
        try:
            return check(obj)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            return f"output has the wrong shape: {e!r}"
    return judge


def _stat(counter: str, field: str) -> Callable[[Outcome], Dict[str, float]]:
    """Work counter read from the `stats` a --json check prints."""
    def work(out: Outcome) -> Dict[str, float]:
        try:
            return {counter: float(_json(out)["stats"][field])}
        except (ValueError, KeyError, TypeError):
            return {}
    return work


# --- search ----------------------------------------------------------------

def _search(seed: int, sizes: dict, answers: Callable[[], Answers],
            at: Callable[[str], str]) -> Plan:
    rng = random.Random(f"search/{seed}")
    files: Dict[str, str] = {}
    refs: Dict[str, Callable[[], object]] = {}

    def expect_holds(want_key: Optional[str], want: Optional[bool] = None,
                     witness_key: Optional[str] = None, witness=None):
        def check(obj: dict) -> Optional[str]:
            holds = answers()[want_key]["holds"] if want_key else want
            if obj["holds"] is not holds:
                return f"holds={obj['holds']}, reference says {holds}"
            expected = answers()[witness_key]["witness"] if witness_key else witness
            if holds and expected is not None and obj["witness"] != expected:
                return "witness is not the lex-least one"
            return None
        return _judged(check)

    chain_reqs = []
    for n in sizes["search_chains"]:
        files[f"chain{n}.ets"] = ref.chain(n, two_way=True).text()
        witness = {f"v{k}": "1" for k in range(n - 1)}
        witness[f"v{n - 1}"] = "0"
        chain_reqs.append(Request(
            f"chain-witness-{n}", "check_chain_witness",
            expect_holds(None, True, None, witness),
            argv=["check", at(f"chain{n}.ets"), f"nav({{v0}}; ALL; {{v{n - 1}}})",
                  "--witness", "--json"],
            work=_stat("examined", "strategies_examined")))

    random_reqs = []
    for r, (n, v) in enumerate(sizes["search_random"]):
        # A fixed random template per slot, relabelled by the seed, as in
        # beliefs: the cost of a freshly drawn system varies threefold.
        template_rng = random.Random(f"search-template/{r}")
        template, views = _plant_claims(ref.random_system(template_rng, n, v, 3, 2),
                                        template_rng)
        system, view_map = _relabel(template, rng)
        a, x, b, c, y, d = (view_map[w] for w in views)
        name = f"rand{r}"
        files[f"{name}.ets"] = system.text()
        full = (1 << v) - 1
        # Even slots check the memoryless claim (lex-least witness compared),
        # odd slots the claim only recall wins.
        s, t = (a, b) if r % 2 == 0 else (c, d)
        key = f"{name}.check"
        refs[key] = _amnesic_ref(system, 1 << s, full, 1 << t, True)
        refs[f"{key}.recall"] = (lambda system=system, s=s, full=full, t=t:
                                 {"holds": ref.solve_belief_game(system, 1 << s, full,
                                                                 1 << t).holds})
        random_reqs.append(Request(
            f"{name}-check", "check_random", expect_holds(key, witness_key=key),
            argv=["check", at(f"{name}.ets"), f"nav({{v{s}}}; ALL; {{v{t}}})", "--json"],
            work=_stat("examined", "strategies_examined")))
        # eval: nav(a; ALL; b) -> nav(c; ALL; T).  The antecedent holds, so
        # the consequent is evaluated too: with T = {d} it fails (recall
        # only), with T = {y, d} it holds after one step.
        targets = (d,) if r % 2 == 0 else tuple(sorted((y, d)))
        first, second = f"{name}.eval.first", f"{name}.eval.second"
        refs[first] = _amnesic_ref(system, 1 << a, full, 1 << b, False)
        refs[second] = _amnesic_ref(system, 1 << c, full, sum(1 << k for k in targets),
                                    False)
        formula = (f"nav({{v{a}}}; ALL; {{v{b}}}) -> nav({{v{c}}}; ALL; "
                   + "{" + ",".join(f"v{k}" for k in targets) + "})")

        def eval_check(obj, first=first, second=second):
            want = (not answers()[first]["holds"]) or answers()[second]["holds"]
            if obj["holds"] is not want:
                return f"holds={obj['holds']}, reference says {want}"
            return None
        random_reqs.append(Request(
            f"{name}-eval", "eval_random", _judged(eval_check),
            argv=["eval", at(f"{name}.ets"), formula, "--json"]))

    n_tab, v_tab = sizes["search_table"]
    table_sys = ref.random_system(rng, n_tab, v_tab, 3, 2)
    files["table.ets"] = table_sys.text()
    refs["table"] = lambda: {"grid": _table_grid(table_sys)}

    def table_check(obj):
        grid = answers()["table"]["grid"]
        got = [[obj["grid"][f"v{r}"][f"v{c}"] for c in range(v_tab)]
               for r in range(v_tab)]
        return None if got == grid else "navigability grid differs from the reference"
    table_req = Request("table", "table", _judged(table_check),
                        argv=["table", at("table.ets"), "--json"])

    # Interleave so that any prefix of the cycle has the same mix.
    cycle = _interleave(_spread(chain_reqs), _spread(random_reqs)) + [table_req]
    return Plan(files, [], cycle, refs)


def _plant_claims(system: ref.Sys, rng: random.Random) -> Tuple[ref.Sys, Tuple[int, ...]]:
    """Plant two claims into a random 3-instruction system by rewriting a
    few transitions; every other transition stays random.  Returns the
    system and views (a, x, b, c, y, d):

    * nav({a}; ALL; {b}) holds memorylessly: instruction 2 on a leads only
      into view x, and 1 on x only into b;
    * nav({c}; ALL; {d}) holds with recall: 0 on c leads only into one half
      of view y's states, 1 on that half only into the other half, and 2
      on that one only into d, so view y needs 1 on its first visit and 2
      on its second, which a memoryless strategy cannot do.

    A random route could still change a verdict; the reference deciders
    judge every answer, and make_expected.py checks that every stored seed
    has claims of both kinds (the seed only relabels a fixed template, which
    keeps every verdict).
    """
    of_view = lambda w: [s for s, u in enumerate(system.view_of) if u == w]
    six = rng.sample([w for w in range(len(system.views)) if of_view(w)], 6)
    y = max(six, key=lambda w: len(of_view(w)))
    a, x, b, c, d = (w for w in six if w != y)
    ys = of_view(y)
    assert len(ys) >= 2, "view y needs two states"
    y1, y2 = ys[:len(ys) // 2], ys[len(ys) // 2:]
    # state -> (instruction, pool its successors are drawn from)
    planted = {s: (2, of_view(x)) for s in of_view(a)}
    planted.update({s: (1, of_view(b)) for s in of_view(x)})
    planted.update({s: (0, y1) for s in of_view(c)})
    planted.update({s: (1, y2) for s in y1})
    planted.update({s: (2, of_view(d)) for s in y2})
    rows = []
    for s, row in enumerate(system.succ):
        if s in planted:
            i, pool = planted[s]
            row = list(row)
            row[i] = tuple(sorted({rng.choice(pool) for _ in range(2)}))
        rows.append(tuple(row))
    return ref.Sys(system.views, system.instructions, system.states,
                   system.view_of, tuple(rows)), (a, x, b, c, y, d)


def _amnesic_ref(system: ref.Sys, a: int, b: int, c: int, lex: bool):
    def compute():
        holds, witness = ref.solve_amnesic(system, a, b, c, lex)
        if witness is not None:
            witness = {system.views[k]: system.instructions[i]
                       for k, i in enumerate(witness)}
        return {"holds": holds, "witness": witness}
    return compute


def _table_grid(system: ref.Sys) -> List[List[str]]:
    full = (1 << len(system.views)) - 1
    grid = []
    for r in range(len(system.views)):
        row = []
        for c in range(len(system.views)):
            if ref.solve_amnesic(system, 1 << r, full, 1 << c, False)[0]:
                row.append("a")
            elif ref.solve_belief_game(system, 1 << r, full, 1 << c).holds:
                row.append("r")
            else:
                row.append("-")
        grid.append(row)
    return grid


def _spread(items: List[Request]) -> List[Request]:
    """Reorder a list sorted by size so that every prefix samples the whole
    range (bit-reversed positions: smallest, middle, quarter, ...)."""
    bits = max(1, (len(items) - 1).bit_length())
    rev = lambda k: int(format(k, f"0{bits}b")[::-1], 2)
    return [items[k] for k in sorted(range(len(items)), key=rev)]


def _interleave(*groups: List[Request]) -> List[Request]:
    """Merge the groups, each spread evenly over the result."""
    slots: List[Tuple[float, int, Request]] = []
    for gi, group in enumerate(groups):
        for k, req in enumerate(group):
            slots.append(((k + 0.5) / len(group), gi, req))
    slots.sort(key=lambda t: (t[0], t[1]))
    return [req for _, _, req in slots]


# --- beliefs ---------------------------------------------------------------

def _recall_rows(obj: dict, system: ref.Sys) -> Dict[ref.Belief, int]:
    index = {s: k for k, s in enumerate(system.states)}
    view_index = {v: k for k, v in enumerate(system.views)}
    instr_index = {i: k for k, i in enumerate(system.instructions)}
    plan = {}
    for row in obj["witness"]:
        mask = 0
        for s in row["possible"]:
            mask |= 1 << index[s]
        plan[(view_index[row["view"]], mask)] = instr_index[row["instruction"]]
    return plan


def _verify_request(name: str, path: Path, claim: str, rows: List[dict]) -> Request:
    """Library request: load the system as a user would, then replay the
    witness with navlog's own verify_recall_witness."""
    def call():
        syntax = sys.modules["navlog.syntax"]
        recall = sys.modules["navlog.recall"]
        system = syntax.parse_system(path.read_text())
        atom = syntax.parse_formula(claim, system.universe).atom
        witness = {recall.Belief(r["view"], frozenset(r["possible"])): r["instruction"]
                   for r in rows}
        return recall.verify_recall_witness(system, atom, witness)

    def judge(out: Outcome) -> Optional[str]:
        if out.result != []:
            return f"verify_recall_witness reports {out.result!r}"
        return None
    return Request(f"{name}-verify", "verify_recall_witness", judge, call=call)


def _planted(system: ref.Sys, rng: random.Random, a: int, x: int, b: int,
             wins: bool) -> ref.Sys:
    """Fix the verdict of nav({a}; ALL; {b}) while keeping the rest random,
    so that every seed has the same number of holding claims (and so of
    witnesses to replay).  A winning system sends view a under instruction
    0 only to view x, and view x under instruction 1 only to view b; a
    losing one has no transition into view b at all."""
    of_view = lambda w: [s for s, u in enumerate(system.view_of) if u == w]
    xs, bs = of_view(x), of_view(b)
    others = [s for s, u in enumerate(system.view_of) if u != b]
    draw = lambda pool, k: tuple(sorted({rng.choice(pool) for _ in range(k)}))
    rows = []
    for s, row in enumerate(system.succ):
        row = list(row)
        if wins and system.view_of[s] == a and xs:
            row[0] = draw(xs, len(row[0]) or 1)
        elif wins and system.view_of[s] == x and bs:
            row[1] = draw(bs, len(row[1]) or 1)
        elif not wins:
            row = [tuple(sorted({t if system.view_of[t] != b else rng.choice(others)
                                 for t in targets})) for targets in row]
        rows.append(tuple(row))
    return ref.Sys(system.views, system.instructions, system.states,
                   system.view_of, tuple(rows))


def _relabel(system: ref.Sys, rng: random.Random) -> Tuple[ref.Sys, List[int]]:
    """The same system with states and views renumbered at random; returns
    it with the new index of each old view."""
    n, v = len(system.states), len(system.views)
    new_state = rng.sample(range(n), n)
    new_view = rng.sample(range(v), v)
    old_state = sorted(range(n), key=lambda s: new_state[s])
    view_of = tuple(new_view[system.view_of[s]] for s in old_state)
    succ = tuple(tuple(tuple(sorted(new_state[t] for t in targets))
                       for targets in system.succ[s]) for s in old_state)
    return ref.Sys(system.views, system.instructions, system.states, view_of,
                   succ), new_view


def _beliefs(seed: int, sizes: dict, answers: Callable[[], Answers],
             at: Callable[[str], str]) -> Plan:
    rng = random.Random(f"beliefs/{seed}")
    files: Dict[str, str] = {}
    refs: Dict[str, Callable[[], object]] = {}

    def recall_request(name: str, system: ref.Sys, fname: str, a: int, b: int,
                       c: int, claim: str, key: Optional[str],
                       verify: bool = True) -> Request:
        games: List[ref.BeliefGame] = []    # solved once, on first use

        def check(obj: dict) -> Optional[str]:
            holds = True if key is None else answers()[key]["holds"]
            if obj["holds"] is not holds:
                return f"holds={obj['holds']}, reference says {holds}"
            if not holds:
                return None if obj["witness"] is None else "witness for a failing claim"
            plan = _recall_rows(obj, system)
            if key is None:
                # Closed form for one-way chains: every off-target singleton
                # belief moves forward.
                n = len(system.states)
                want = {(k, 1 << k): 0 for k in range(n - 1)}
                if plan != want:
                    return "chain witness differs from the closed form"
            else:
                games[:] = games or [ref.solve_belief_game(system, a, b, c)]
                if set(plan) != games[0].winning:
                    return "witness does not cover exactly the winning beliefs"
            problem = ref.replay_recall_witness(system, a, b, c, plan)
            return f"witness replay: {problem}" if problem else None

        def follow(out: Outcome) -> Optional[Request]:
            if not verify:
                return None
            try:
                obj = _json(out)
            except ValueError:
                return None
            if not obj.get("holds") or not obj.get("witness"):
                return None
            return _verify_request(name, Path(at(fname)), claim, obj["witness"])

        return Request(f"{name}-recall", "check_recall" if key else "check_recall_chain",
                       _judged(check),
                       argv=["check", at(fname), claim, "--mode", "recall", "--json"],
                       follow=follow, work=_stat("beliefs", "beliefs_explored"))

    chain_reqs = []
    for n in sizes["belief_chains"]:
        system = ref.chain(n, two_way=False)
        fname = f"chain{n}.ets"
        files[fname] = system.text()
        full = (1 << n) - 1
        chain_reqs.append(recall_request(
            f"chain{n}", system, fname, 1, full, 1 << (n - 1),
            f"nav({{v0}}; ALL; {{v{n - 1}}})", None,
            verify=n < sizes["belief_verify_below"]))

    random_reqs = []
    n, v, fanout = sizes["belief_random_shape"]
    for r in range(sizes["belief_random"]):
        # A fixed random template per slot, relabelled by the seed: the size
        # of a fresh system's belief space, and so its cost, varies tenfold.
        template_rng = random.Random(f"beliefs-template/{r}")
        a, x, b = template_rng.sample(range(v), 3)
        template = _planted(ref.random_system(template_rng, n, v, 2, fanout),
                            template_rng, a, x, b, wins=r % 2 == 0)
        system, view_map = _relabel(template, rng)
        a, b = view_map[a], view_map[b]
        fname = f"rand{r}.ets"
        files[fname] = system.text()
        claim = f"nav({{v{a}}}; ALL; {{v{b}}})"
        key = f"rand{r}"
        full = (1 << v) - 1
        refs[key] = (lambda system=system, a=a, full=full, b=b:
                     {"holds": ref.solve_belief_game(system, 1 << a, full, 1 << b).holds})
        random_reqs.append(recall_request(
            f"rand{r}", system, fname, 1 << a, full, 1 << b, claim, key))

    cycle = _interleave(random_reqs, _spread(chain_reqs))
    return Plan(files, [], cycle, refs)


# --- theory ----------------------------------------------------------------

def _parser(n: int):
    index = {f"x{k}": k for k in range(n)}

    def parse(text: str) -> ref.Key:
        body = text.strip()
        assert body.startswith("nav(") and body.endswith(")"), text
        parts = body[4:-1].split(";")
        masks = []
        for part in parts:
            inner = part.strip()[1:-1]
            m = 0
            for name in filter(None, (s.strip() for s in inner.split(","))):
                m |= 1 << index[name]
            masks.append(m)
        return tuple(masks)
    return parse


def _render(n: int, key: ref.Key) -> str:
    seg = lambda m: "{" + ",".join(f"x{k}" for k in range(n) if m >> k & 1) + "}"
    return f"nav({seg(key[0])}; {seg(key[1])}; {seg(key[2])})"


def _digest(keys) -> str:
    return hashlib.sha256(json.dumps(sorted(keys)).encode()).hexdigest()


def _random_theory(rng: random.Random, n: int) -> Tuple[List[ref.Key], ref.Key]:
    """A few random atoms plus a chained pair (A,B,C), (C,D,E) with B and D
    disjoint, so that (A, B|D, E) is derivable by transitivity."""
    full = (1 << n) - 1
    draw = lambda: rng.randrange(full + 1)
    atoms = []
    for _ in range(2):
        a = 1 << rng.randrange(n)
        atoms.append((a, draw(), draw() & ~a))
    a, c, e = (1 << k for k in rng.sample(range(n), 3))
    b = draw() & ~(a | c)
    d = draw() & ~b & ~(c | e)
    atoms += [(a, b, c), (c, d, e)]
    return atoms, (a, b | d, e)


def _theory(seed: int, sizes: dict, answers: Callable[[], Answers],
            at: Callable[[str], str]) -> Plan:
    rng = random.Random(f"theory/{seed}")
    files: Dict[str, str] = {}
    refs: Dict[str, Callable[[], object]] = {}
    views = lambda n: ",".join(f"x{k}" for k in range(n))

    def saturate_check(n: int, key: Optional[str]):
        parse = _parser(n)

        def check(obj):
            got = [parse(t) for t in obj["derived"]]
            if obj["derived_count"] != len(got) or len(set(got)) != len(got):
                return "derived list and count disagree"
            if key is None:
                ok = set(got) == ref.empty_theory_keys(n)
            else:
                want = answers()[key]
                ok = len(got) == want["count"] and _digest(got) == want["digest"]
            return None if ok else "derived set differs from the reference closure"
        return _judged(check)

    def explain_check(n: int, query: ref.Key, assumptions: List[ref.Key]):
        parse = _parser(n)

        def check(obj):
            if not obj["derivable"] or obj["tree"] is None:
                return "derivable atom reported as not derivable"
            if parse(obj["tree"]["atom"]) != query:
                return "tree is rooted at another atom"
            problem = ref.replay_tree(obj["tree"], parse, set(assumptions))
            return f"tree replay: {problem}" if problem else None
        return _judged(check)

    def canonical_check(n: int, key: Optional[str]):
        def check(obj):
            if key is None:
                valid, count = list(range(n)), 3 ** n
            else:
                want = answers()[key]
                valid, count = want["valid"], want["instructions"]
            ver = obj["verification"]
            if not ver["ok"] or ver["mismatches"]:
                return f"{len(ver['mismatches'])} truth-lemma mismatches"
            if obj["valid_views"] != [f"x{k}" for k in valid]:
                return "valid views differ from the reference closure"
            if len(obj["instructions"]) != count:
                return "instruction count differs from the reference closure"
            if obj["states"] != len(valid) * (1 + count):
                return "state count differs from the canonical construction"
            return None
        return _judged(check)

    big = sizes["theory_big"]
    prologue = [Request(
        f"saturate-empty-{big}", "saturate_empty", saturate_check(big, None),
        argv=["saturate", "--views", views(big), "--json", "--max-views", str(big)])]

    # Requests grouped by cost: 4-view work is light, the empty 5-view
    # saturation and explanation are medium, everything else over 5 views
    # is heavy.  Interleaving the groups gives every prefix of the cycle the
    # same mix, so a run's figures do not depend on where its time runs out.
    light, medium, heavy = [], [], []

    def group(n: int, weighty: bool) -> list:
        return light if n < 5 else heavy if weighty else medium

    for n, queries in sizes["theory_empty"]:
        full = (1 << n) - 1
        group(n, False).append(Request(
            f"saturate-empty-{n}", "saturate_empty", saturate_check(n, None),
            argv=["saturate", "--views", views(n), "--json"]))
        for k in range(queries):
            query = (rng.randrange(full + 1) & 1, rng.randrange(full + 1), 1)
            group(n, False).append(Request(
                f"explain-empty-{n}-{k}", "explain", explain_check(n, query, []),
                argv=["explain", "--views", views(n), _render(n, query), "--json"]))
    for t, n in sizes["theory_random"]:
        template, query = _random_theory(random.Random(f"template/{t}"), n)
        perm = rng.sample(range(n), n)
        relabel = lambda m: sum(1 << perm[k] for k in range(n) if m >> k & 1)
        assumptions = [tuple(relabel(m) for m in key) for key in template]
        query = tuple(relabel(m) for m in query)
        fname = f"theory{t}.txt"
        files[fname] = "".join(_render(n, k) + "\n" for k in assumptions)
        key = f"theory{t}"

        def compute(n=n, assumptions=assumptions):
            keys = ref.saturate_keys(n, assumptions)
            valid, count = ref.canonical_shape(n, keys)
            return {"count": len(keys), "digest": _digest(keys),
                    "valid": valid, "instructions": count}
        refs[key] = compute
        base = ["--views", views(n), "--theory", at(fname)]
        group(n, True).extend([
            Request(f"saturate-{key}", "saturate_random", saturate_check(n, key),
                    argv=["saturate", *base, "--json"]),
            Request(f"explain-{key}", "explain", explain_check(n, query, assumptions),
                    argv=["explain", *base, _render(n, query), "--json"]),
            Request(f"canonical-{key}", "canonical_verify", canonical_check(n, key),
                    argv=["canonical", *base, "--verify", "--json"])])
    for n in sizes["canonical"]:
        group(n, True).append(Request(
            f"canonical-empty-{n}", "canonical_verify", canonical_check(n, None),
            argv=["canonical", "--views", views(n), "--verify", "--json"]))
    cycle = _interleave(light, medium, heavy)
    return Plan(files, prologue, cycle, refs)


# --- defects ---------------------------------------------------------------

def _defects(sizes: dict, answers: Callable[[], Answers],
             at: Callable[[str], str]) -> Plan:
    """The failing rows of ROADMAP's baseline, kept out of the measured
    workloads (whose every request must answer) and issued here instead, so
    that each shows up in this workload's failed requests until it is fixed:
    a search past the time limit on the fixed 800-state system, a
    RecursionError from `eval` on a deep two-way chain, and RecursionErrors
    from `verify_recall_witness` on long one-way chains.  Nothing here is
    seeded."""
    files: Dict[str, str] = {}
    refs: Dict[str, Callable[[], object]] = {}

    def expect(want: Callable[[], bool]):
        def check(obj: dict) -> Optional[str]:
            if obj["holds"] is not want():
                return f"holds={obj['holds']}, reference says {want()}"
            return None
        return _judged(check)

    n_deep = sizes["deep_chain"]
    files["deep.ets"] = ref.chain(n_deep, two_way=True).text()
    cycle = [Request(
        f"deep-chain-{n_deep}", "eval_deep_chain", expect(lambda: True),
        argv=["eval", at("deep.ets"), f"nav({{v0}}; ALL; {{v{n_deep - 1}}})", "--json"])]
    for n in sizes["defect_verify_chains"]:
        fname = f"chain{n}.ets"
        files[fname] = ref.chain(n, two_way=False).text()
        # The closed-form recall witness of a one-way chain.
        rows = [{"view": f"v{k}", "possible": [f"s{k}"], "instruction": "0"}
                for k in range(n - 1)]
        cycle.append(_verify_request(f"chain{n}", Path(at(fname)),
                                     f"nav({{v0}}; ALL; {{v{n - 1}}})", rows))
    # Last, so that a short run still issues the quick failures above.
    n_slow, v_slow = sizes["slow_system"]
    slow = ref.random_system(random.Random(1), n_slow, v_slow, 3, 2)
    files["slow.ets"] = slow.text()
    refs["slow"] = _amnesic_ref(slow, 1, (1 << v_slow) - 1, 2, False)
    cycle.append(Request(
        "slow-system", "check_slow", expect(lambda: answers()["slow"]["holds"]),
        argv=["check", at("slow.ets"), "nav({v0}; ALL; {v1})", "--json"]))
    return Plan(files, [], cycle, refs)


# --- fuzz ------------------------------------------------------------------

def _fuzz(seed: int, sizes: dict) -> Plan:
    trials = sizes["fuzz_trials"]

    def request(k: int) -> Request:
        fuzz_seed = seed * 1000 + k

        def check(obj):
            if obj["violations"]:
                return f"{len(obj['violations'])} soundness violations"
            if obj["seed"] != fuzz_seed or obj["trials"] != trials:
                return "campaign ran with other settings"
            return None if sum(obj["checks"].values()) > 0 else "campaign made no checks"

        def work(out: Outcome) -> Dict[str, float]:
            try:
                return {"checks": float(sum(_json(out)["checks"].values()))}
            except (ValueError, KeyError):
                return {}
        return Request(f"fuzz-{fuzz_seed}", "fuzz", _judged(check),
                       argv=["fuzz", "--seed", str(fuzz_seed), "--trials", str(trials),
                             "--json"], work=work)

    # Enough distinct campaigns that no run repeats one.
    return Plan({}, [], [request(k) for k in range(400)], {})


def build(workload: str, seed: int, scale: str, workdir: Path,
          answers: Callable[[], Answers]) -> Plan:
    sizes = SIZES[scale]
    at = lambda name: str(workdir / name)
    if workload == "search":
        return _search(seed, sizes, answers, at)
    if workload == "beliefs":
        return _beliefs(seed, sizes, answers, at)
    if workload == "theory":
        return _theory(seed, sizes, answers, at)
    if workload == "fuzz":
        return _fuzz(seed, sizes)
    if workload == DEFECTS:
        return _defects(sizes, answers, at)
    raise ValueError(f"unknown workload {workload!r}")

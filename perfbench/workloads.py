"""The three workloads: seeded op pools, the call each op makes, its check.

An op is one call into the library (or one `cli.main(argv)`), timed alone.
Ops are grouped into rounds of fixed composition; a run repeats rounds from
the workload's pool until its time is up, so every run samples the same mix
and the percentiles land at the same place in it whatever the run length.
Library callables are looked up through their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Any, Callable

import gen
import oracle

import planebranch.cli as pb_cli
import planebranch.expansion as pb_expansion
import planebranch.fixtures as pb_fixtures
import planebranch.geometry as pb_geometry
import planebranch.semigroup as pb_semigroup
import planebranch.zariski as pb_zariski
from planebranch.errors import NonRationalCoefficient
from planebranch.series import TSeries

WORKLOADS = ("zariski-ladder", "geometry-pairs", "cli-mix")


@dataclass
class Op:
    """One timed call.  `check` returns None when the result is right,
    else a one-line reason; `exact` renders the exact output for the digest.
    `out` names the slot of the item state that keeps the result for the
    item's later ops.  `known` holds the exception types of a named known
    defect of the library that this op may hit; any other raise is a
    correctness failure."""

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    exact: Callable[[Any], str]
    out: str | None = None
    state: dict = field(default_factory=dict)
    known: tuple = ()


@dataclass
class Plan:
    """A workload's pool of rounds, its warm-up op, the percentile behind
    op_tail_ms, the rounds a traced run covers, and the generated inputs."""

    rounds: list
    warmup: Op
    tail_pct: int
    trace_rounds: int
    inputs: list


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- canonical renderings of exact outputs ----------------------------------------

def _series(s: TSeries) -> str:
    body = ",".join(f"{e}:{c}" for e, c in sorted(s.terms.items()))
    return f"[{body}]/{s.trunc}"


def _param(p) -> str:
    return f"(t^{p.n},{_series(p.y)})"


def _poly(p) -> str:
    return "[" + ",".join(f"{i},{j}:{c}" for (i, j), c in sorted(p.terms.items())) + "]"


def _zariski(r) -> str:
    moves = ";".join(
        f"{mv.kind},{mv.a},{mv.b},{mv.c},{mv.target_exponent},"
        + (_series(mv.reparametrization) if mv.reparametrization else "-")
        for mv in r.moves
    )
    return (
        f"lam={r.exponent};c={r.coefficient};scale={r.leading_scale};"
        f"W={_param(r.witness)};N={_param(r.normal_form)};moves={moves}"
    )


def _expansion(d) -> str:
    blocks = "|".join(_poly(b) for b in d.blocks)
    return f"h={_poly(d.h)};blocks={blocks};c={d.c};p={d.p};q={d.q};tail={_poly(d.tail)}"


# -- shared checks ---------------------------------------------------------------------

def _param_of(n: int, y: dict, trunc=None):
    if trunc is None:
        return pb_geometry.Parametrization.from_pairs(n, sorted(y.items()))
    return pb_geometry.Parametrization(n, TSeries("t", dict(y), trunc))


def _check_zariski(r, lam, coeff, wit_n: int, first, free_from=float("inf")):
    """Planted invariant, the shape of the normal form and of the move log.

    The normal form keeps only non-removable exponents of its class, the
    first of them being the planted survivor `first`.  With no planted
    survivor, some may still appear from `free_from` on, where the
    generator cut the branch.
    Each logged move targets a removable exponent, in increasing order.
    """
    if (r.exponent, r.coefficient) != (lam, coeff):
        return f"invariant {r.exponent}, {r.coefficient}; planted {lam}, {coeff}"
    nf = r.normal_form
    n1 = nf.n
    m1 = min(nf.y.terms)
    gamma = oracle.semigroup((n1, m1), nf.trunc + n1)
    if nf.y.terms[m1] != 1:
        return "normal form is not monic at its first exponent"
    extra = sorted(j for j in nf.y.terms if j > m1)
    if any(j + n1 in gamma for j in extra):
        return "normal form keeps a removable exponent"
    lowest = min(extra, default=None)
    if lowest != first and not (first is None and lowest >= free_from):
        return f"normal form survives first at {lowest}, not {first}"
    last = 0
    for mv in r.moves:
        j = mv.target_exponent
        if j <= last or j + n1 not in gamma or not mv.c:
            return f"move at {j} is not a valid elimination step"
        if (mv.kind == "p") != (mv.a == 0) or (mv.kind == "p") != bool(mv.reparametrization):
            return f"move at {j} has inconsistent kind data"
        last = j
    if r.witness.n != wit_n or not r.witness.exact:
        return "witness is not an exact branch of the reduced multiplicity"
    return None


def _check_genus1(r, item: gen.Genus1Item):
    """`_check_zariski` plus the witness: it may leave the branch only at
    survivor slots from lam on, and must meet it with the extremal
    intersection (n - 1) m + lam, counted by the conjugate oracle."""
    reason = _check_zariski(r, item.lam, item.coeff, item.n, item.lam)
    if reason:
        return reason
    wy = r.witness.y.terms
    if item.lam is None:
        return None if wy == item.y else "special witness is not the branch itself"
    moved = [e for e in set(item.y) | set(wy) if item.y.get(e) != wy.get(e)]
    if min(moved, default=None) != item.lam:
        return f"witness parts from the branch at {min(moved, default=None)}, not {item.lam}"
    expected = (item.n - 1) * item.m + item.lam
    got = oracle.intersection(item.n, item.y, item.n, wy)
    return None if got == expected else f"I(branch, witness) = {got}, expected {expected}"


def _run_cli(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pb_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# -- zariski-ladder -------------------------------------------------------------------

# one round: eight finite-invariant branches climbing to K(6,7) and two
# disguised (t^n, t^m); sorted by cost the median falls inside the K(4,7)
# pair and the 75th percentile inside the K(5,6) pair
LADDER_ROUND = (
    (3, 4, False), (3, 7, True), (4, 5, True), (4, 7, True), (4, 7, True),
    (5, 6, True), (5, 6, True), (5, 7, True), (5, 7, False), (6, 7, True),
)
LADDER_POOL = 6


def _ladder_op(key: str, item: gen.Genus1Item) -> Op:
    phi = _param_of(item.n, item.y)
    return Op(
        key,
        lambda: pb_zariski.zariski_invariant(phi),
        lambda r: _check_genus1(r, item),
        _zariski,
    )


def ladder(seed: int) -> Plan:
    rng = random.Random(f"zariski-ladder/{seed}")
    rounds, inputs = [], []
    for r in range(LADDER_POOL):
        ops = []
        for i, (n, m, finite) in enumerate(LADDER_ROUND):
            free = gen.slots(n, m)
            lam = free[(r + i) % len(free)] if finite else None
            item = gen.genus1_item(rng, n, m, lam)
            inputs.append(item)
            ops.append(_ladder_op(f"r{r}.{i}.K({n},{m}).lam={lam}", item))
        rounds.append(ops)
    warm = _ladder_op("warmup.K(3,7)", gen.genus1_item(rng, 3, 7, 8))
    return Plan(rounds, warm, tail_pct=75, trace_rounds=3, inputs=inputs)


# -- geometry-pairs -------------------------------------------------------------------

# (characteristic exponents, length of the dense branch, planted survivor of
# the reduced genus-one branch); multiplicities 4, 6 and 8, genus 2 and 3.
# Every round holds the same classes at the same lengths, and the signs at
# beta_1 and beta_2 follow the class, so the Newton-Puiseux defect hits the
# same ops in every round whatever the seed.
PAIR_CLASSES = (
    ((4, 6, 9), 16, None),
    ((4, 10, 11), 18, None),
    ((6, 8, 11), 18, None),
    ((6, 9, 10), 16, None),
    ((6, 10, 13), 20, None),
    ((6, 14, 17), 24, 8),
    ((8, 10, 17), 24, 7),
    ((8, 12, 13), 18, None),
    ((8, 12, 14, 15), 20, None),
    ((8, 12, 18, 19), 24, None),
)
PAIR_POOL = 3


def _pair_ops(key: str, item: gen.PairItem) -> list:
    """Nine ops on one branch, its partner and its witness."""
    n, beta = item.n, item.beta
    e = gen.gcd_chain(beta)
    n1, m1 = n // e[1], beta[1] // e[1]
    phi = _param_of(n, item.y)
    psi = _param_of(n, item.partner)
    conductor = pb_semigroup.CharData.from_char_exponents(beta).conductor
    # the truncation Newton-Puiseux picks by default; the cut path of the
    # intersection runs on inputs known only this far
    phi_t = _param_of(n, item.y, conductor + 2 * n)
    st: dict = {}

    def check_f(f):
        if f.deg_y() != n or not f.is_monic_in_y():
            return "implicit equation is not monic of degree n"
        rest = oracle.eval_poly(f.terms, n, item.y, float("inf"))
        return None if not rest else "implicit equation does not vanish on the branch"

    def check_puiseux(p):
        if p.n != n:
            return f"multiplicity {p.n}, expected {n}"
        for sgn in (1, -1) if n % 2 == 0 else (1,):
            if all(
                p.y.terms.get(x, 0) == item.y.get(x, 0) * sgn ** x
                for x in range(max(max(item.y), max(p.y.terms, default=0)) + 1)
                if x < p.trunc
            ):
                return None
        return "parametrization is no conjugate of the branch"

    # (n1 - 1) m + lam, which is the generator v2 when lam = beta_2
    extremal = (n1 - 1) * beta[1] + item.lam

    def check_iw(i):
        w = st["Z"].witness
        got = oracle.intersection(n, item.y, w.n, w.y.terms)
        return None if i == got == extremal else f"I = {i}; oracle {got}, planted {extremal}"

    def check_cw(c):
        w = st["Z"].witness
        got = oracle.contact(n, item.y, w.n, w.y.terms)
        return None if c.theta == got else f"contact {c}; oracle {got}"

    def check_dec(d):
        h = d.h.terms
        w = st["Z"].witness
        if d.h.deg_y() != n1 or not d.h.is_monic_in_y():
            return "h is not monic of the reduced degree"
        if oracle.eval_poly(h, n1, w.y.terms, float("inf")):
            return "h does not vanish on the witness"
        acc = {(0, 0): F(1)}
        for block in reversed(d.blocks):
            acc = oracle.padd(oracle.pmul(acc, h), block.terms)
        if acc != st["f"].terms:
            return "h-adic blocks do not rebuild f"
        if not d.c or d.p * n1 + d.q * m1 != extremal:
            return f"distinguished monomial has weight {d.p * n1 + d.q * m1}, not {extremal}"
        if any(i * n1 + j * m1 <= extremal for i, j in d.tail.terms):
            return "tail monomial at or below the distinguished weight"
        return None

    def check_cd(cd):
        gamma = oracle.semigroup(cd.generators, cd.conductor + n)
        if cd.char_exponents != beta:
            return f"characteristic exponents {cd.char_exponents}, planted {beta}"
        tail = range(cd.conductor, cd.conductor + n)
        if cd.conductor - 1 in gamma or any(z not in gamma for z in tail):
            return f"conductor {cd.conductor} does not bound the semigroup"
        return None

    # every conjugate pair of branch and partner parts at t^(n+1)
    planted_i = n * (n + 1)
    if oracle.intersection(n, item.y, n, item.partner) != planted_i:
        raise AssertionError(f"generator broke the planted contact of {key}")
    planted_c = F(n + 1, n)
    ops = [
        Op(f"{key}.char_sequence", lambda: pb_semigroup.char_sequence(phi), check_cd, str),
        Op(f"{key}.implicitize", lambda: pb_geometry.implicitize(phi), check_f, _poly, "f"),
        # known defect: an even root of negative leading data is not rational
        Op(f"{key}.puiseux", lambda: pb_geometry.puiseux_parametrization(st["f"]),
           check_puiseux, _param, known=(NonRationalCoefficient,)),
        Op(f"{key}.intersection.partner", lambda: pb_geometry.intersection(phi_t, psi),
           lambda i: None if i == planted_i else f"I = {i}, planted {planted_i}", str),
        Op(f"{key}.contact.partner", lambda: pb_geometry.contact(phi_t, psi),
           lambda c: None if c.theta == planted_c else f"contact {c}, planted {planted_c}", str),
        Op(f"{key}.zariski", lambda: pb_zariski.zariski_invariant(phi),
           lambda r: _check_zariski(r, item.lam, item.coeff, n1, item.red_lam,
                                    -(-beta[2] // e[1])), _zariski, "Z"),
        Op(f"{key}.intersection.witness", lambda: pb_geometry.intersection(phi, st["Z"].witness),
           check_iw, str),
        Op(f"{key}.contact.witness", lambda: pb_geometry.contact(phi, st["Z"].witness), check_cw, str),
        Op(f"{key}.decomposition",
           lambda: pb_expansion.zariski_decomposition(
               st["f"], st["Z"].witness, pb_semigroup.char_sequence(phi), item.lam),
           check_dec, _expansion),
    ]
    for op in ops:
        op.state = st
    return ops


def pairs(seed: int) -> Plan:
    rng = random.Random(f"geometry-pairs/{seed}")
    rounds, inputs = [], []
    for r in range(PAIR_POOL):
        ops = []
        for c, (beta, length, red_lam) in enumerate(PAIR_CLASSES):
            signs = (-1 if c % 3 == 0 else 1, -1 if c % 2 else 1)
            item = gen.pair_item(rng, beta, length, red_lam, signs)
            inputs.append(item)
            ops.extend(_pair_ops(f"r{r}.K{beta}".replace(" ", ""), item))
        rounds.append(ops)
    warm = _pair_ops("warmup", gen.pair_item(rng, (4, 6, 9), 12, None))[1]
    return Plan(rounds, warm, tail_pct=95, trace_rounds=2, inputs=inputs)


# -- cli-mix ------------------------------------------------------------------------------

def _cli_files(rng: random.Random, workdir: str) -> dict:
    """Seeded branch files, malformed and precondition-violating ones included."""
    # small classes only, so that the heaviest calls of a round are fixture
    # calls, whose cost is the same for every seed
    a = gen.genus1_item(rng, 3, 7, 8)
    b = gen.genus1_item(rng, 3, 7, 8)
    g2 = gen.pair_item(rng, (4, 6, 9), 12, None)

    ys = {
        "a": a.y,
        # the partners part from the branch below its first exponent, or
        # just after its invariant, where the inference hypothesis holds
        "a_low": {**a.y, 5: F(gen.sign(rng))},
        "a_close": {**a.y, 9: a.y.get(9, 0) + gen.sign(rng)},
        "b": b.y,
        "b_low": {**b.y, 4: F(gen.sign(rng) * 2)},
        "g2": g2.y,
    }
    mult = {"a": 3, "a_low": 3, "a_close": 3, "b": 3, "b_low": 3, "g2": 4}
    docs = {
        name: {"kind": "parametrization", "n": mult[name],
               "terms": [[e, str(c)] for e, c in sorted(y.items()) if c]}
        for name, y in ys.items()
    }
    docs.update(
        bad_rational={"kind": "parametrization", "n": 4, "terms": [[7, "1.5"]]},
        not_transversal={"kind": "parametrization", "n": 4, "terms": [[3, "1"], [5, "1"]]},
        not_primitive={"kind": "parametrization", "n": 4, "terms": [[6, "1"], [8, "1"]]},
    )
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    paths["bad_json"] = os.path.join(workdir, "bad_json.json")
    with open(paths["bad_json"], "w", encoding="utf-8") as handle:
        handle.write('{"kind": "parametrization", "n": 4, "terms": [[7, "1"]')
    ys = {name: oracle.clean(y) for name, y in ys.items()}
    return {"paths": paths, "y": ys, "a": a, "b": b, "g2": g2}


def _terms(doc) -> dict:
    return {e: F(c) for e, c in doc["terms"]}


def _poly_terms(doc) -> dict:
    return {tuple(ij): F(c) for ij, c in doc["terms"]}


def _cli_op(key: str, argv: list, code, check=None, known=()) -> Op:
    """`code` is the documented exit code expected, or None when any
    documented code will do (0 or 2-6): a raw exception is the failure,
    and it is a known defect when its type is in `known`."""
    json_mode = "--json" in argv

    def verify(result):
        got, out = result
        if code is None:
            return None if got in (0, 2, 3, 4, 5, 6) else f"undocumented exit code {got}"
        if got != code:
            return f"exit code {got}, expected {code}"
        if check is None:
            return None
        return check(json.loads(out)["results"] if json_mode else out)

    return Op(key, lambda: _run_cli(argv), verify, lambda r: f"{r[0]}\n{r[1]}", known=known)


def _text_has(line: str):
    return lambda out: None if line in out.splitlines() else f"missing line {line!r}"


def _equals(name: str, value):
    return lambda res: None if res[name] == value else f"{name} = {res[name]!r}, expected {value!r}"


def _vanishes(n: int, y: dict):
    def check(res):
        rest = oracle.eval_poly(_poly_terms(res["branch"]), n, y, float("inf"))
        return None if not rest else "implicit equation does not vanish on the branch"
    return check


def _puiseux_of(poly: dict):
    def check(res):
        doc = res["branch"]
        bound = doc.get("trunc", float("inf"))
        rest = oracle.eval_poly(poly, doc["n"], _terms(doc), bound)
        return None if not rest else "parametrization does not annihilate f"
    return check


def _expansion_rebuilds(f: dict):
    def check(res):
        h = _poly_terms(res["h"])
        acc = {(0, 0): F(1)}
        for block in reversed(res["blocks"]):
            acc = oracle.padd(oracle.pmul(acc, h), _poly_terms(block))
        if acc != f:
            return "h-adic blocks do not rebuild f"
        return None if (res["c"], res["p"], res["q"]) == ("9", 10, 2) else "wrong monomial"
    return check


def _cli_ops(files: dict) -> list:
    p = files["paths"]
    a, b, g2 = files["a"], files["b"], files["g2"]
    fx = "--fixture"
    y = files["y"]
    # fixture data read raw, without the library's parser
    k37 = _terms(pb_fixtures.FIXTURES["k37-branch"])
    sextic = _poly_terms(pb_fixtures.FIXTURES["k61417-poly"])
    theta_b = oracle.contact(3, y["b"], 3, y["b_low"])
    return [
        _cli_op("invariants.k47", ["invariants", fx, "k47-branch"], 0,
                _text_has("class: K(4, 7)")),
        _cli_op("invariants.sextic", ["invariants", fx, "k61417-poly", "--json"], 0,
                _equals("char_exponents", [6, 14, 17])),
        _cli_op("invariants.a", ["invariants", p["a"]], 0, _text_has("class: K(3, 7)")),
        _cli_op("invariants.g2", ["invariants", p["g2"], "--json"], 0,
                _equals("char_exponents", [4, 6, 9])),
        _cli_op("zariski.k47", ["zariski", fx, "k47-branch"], 0,
                _text_has("zariski invariant: 13")),
        _cli_op("zariski.k47-special", ["zariski", fx, "k47-special", "--json"], 0,
                _equals("invariant", "infinite")),
        _cli_op("zariski.k37", ["zariski", fx, "k37-branch", "--json"], 0,
                _equals("invariant", 8)),
        _cli_op("zariski.a", ["zariski", p["a"], "--json"], 0,
                lambda res: _equals("invariant", a.lam)(res)
                or _equals("coefficient", str(a.coeff))(res)),
        _cli_op("zariski.b", ["zariski", p["b"]], 0,
                _text_has(f"zariski invariant: {b.lam}")),
        _cli_op("zariski.g2", ["zariski", p["g2"], "--json"], 0,
                _equals("invariant", g2.lam)),
        _cli_op("zariski.sextic", ["zariski", fx, "k61417-poly", "--json"], 0,
                _equals("invariant", 16)),
        _cli_op("intersect.k37-cusp", ["pair", "intersect", fx, "k37-branch", fx, "k37-cusp"], 0,
                _text_has(f"intersection: {oracle.intersection(3, k37, 3, {7: F(1)})}")),
        _cli_op("intersect.a-low", ["pair", "intersect", p["a"], p["a_low"], "--json"], 0,
                _equals("intersection", oracle.intersection(3, y["a"], 3, y["a_low"]))),
        _cli_op("contact.k47", ["pair", "contact", fx, "k47-branch", fx, "k47-special", "--json"],
                0, _equals("contact", "13/4")),
        _cli_op("contact.b-low", ["pair", "contact", p["b"], p["b_low"]], 0,
                _text_has(f"contact: {theta_b}")),
        _cli_op("infer.sextic", ["pair", "infer", fx, "k37-branch", fx, "k61417-poly",
                                 "--known-lambda", "8", "--json"], 0,
                _equals("inferred_invariant", 16)),
        _cli_op("infer.a-close", ["pair", "infer", p["a"], p["a_close"], "--json"], 0,
                _equals("inferred_invariant", a.lam)),
        _cli_op("infer.boundary", ["pair", "infer", fx, "k47-branch", fx, "k47-special"], 5),
        _cli_op("expand.cusp", ["expand", fx, "k61417-poly", fx, "k37-cusp", "--json"], 0,
                _expansion_rebuilds(sextic)),
        _cli_op("expand.deformed", ["expand", fx, "k61417-poly", fx, "k37-deformed"], 0,
                _text_has("distinguished monomial: (9)*x^10*y^2")),
        _cli_op("implicitize.k47", ["convert", "implicitize", fx, "k47-branch", "--json"], 0,
                _vanishes(4, _terms(pb_fixtures.FIXTURES["k47-branch"]))),
        _cli_op("implicitize.b", ["convert", "implicitize", p["b"], "--json"], 0,
                _vanishes(3, y["b"])),
        _cli_op("puiseux.sextic", ["convert", "puiseux", fx, "k61417-poly", "--json"], 0,
                _puiseux_of(sextic)),
        _cli_op("puiseux.deformed", ["convert", "puiseux", fx, "k37-deformed-poly"], 0,
                _text_has("(t^3, t^7 + t^9)")),
        _cli_op("malformed.json", ["invariants", p["bad_json"]], 2),
        _cli_op("malformed.rational", ["zariski", p["bad_rational"]], 2),
        _cli_op("malformed.subcommand", ["pair", "frobnicate", fx, "k37-cusp"], 2),
        _cli_op("malformed.fixture", ["invariants", fx, "no-such-branch"], 2),
        _cli_op("precondition.transversal", ["invariants", p["not_transversal"]], 3),
        _cli_op("precondition.primitive", ["zariski", p["not_primitive"]], 3),
        _cli_op("precondition.swap", ["invariants", fx, "k37-cusp", "--swap-xy"], 3),
        # known defect: a non-positive --precision escapes main as ValueError
        _cli_op("defect.precision-0", ["invariants", fx, "k61417-poly", "--precision", "0"], None,
                known=(ValueError,)),
        _cli_op("defect.precision-neg", ["zariski", fx, "k61417-poly", "--precision", "-1"], None,
                known=(ValueError,)),
    ]


def cli_mix(seed: int, workdir: str) -> Plan:
    rng = random.Random(f"cli-mix/{seed}")
    os.makedirs(workdir, exist_ok=True)
    files = _cli_files(rng, workdir)
    warm = _cli_op("warmup", ["invariants", "--fixture", "k23-cusp"], 0)
    return Plan([_cli_ops(files)], warm, tail_pct=95, trace_rounds=12, inputs=[files["y"]])


def plan(workload: str, seed: int, workdir: str) -> Plan:
    if workload == "zariski-ladder":
        return ladder(seed)
    if workload == "geometry-pairs":
        return pairs(seed)
    return cli_mix(seed, workdir)

"""Differential corpus: every public entry point on seeded inputs, locked by digest.

Usage:
    python tests/differential/run.py               check every chunk
    python tests/differential/run.py --show 7      print chunk 7's outcomes
    python tests/differential/run.py --write       rewrite digests.json

Chunk k holds CHUNK inputs drawn from random.Random(k), so each chunk can be
rebuilt on its own.  An input is one call: the conversions, the pairwise
invariants, the Zariski invariant and decomposition, the moves, and the ring
operations and kernels of `series`, on exact, truncated and malformed
arguments.  Its outcome is one line: a label naming the call and its
arguments, then the repr of the value, or the exception's type, message and
`needed`.  `digests.json` holds one sha256 per chunk of those lines, so
"bit-identical" is a check: a change that alters an outcome on purpose
regenerates the chunks it touches (`--write`) and lists them in CHANGES.md,
and `--show` on both trees diffs a chunk that no longer matches.

Exit status: 0 when every chunk checked matches; 1 when one does not.
Standard library only; the file is not named test_*, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction as F
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from planebranch import geometry, series, zariski  # noqa: E402
from planebranch.errors import PlaneBranchError  # noqa: E402
from planebranch.expansion import zariski_decomposition  # noqa: E402
from planebranch.geometry import Parametrization  # noqa: E402
from planebranch.semigroup import CharData, char_sequence, contains  # noqa: E402
from planebranch.series import EXACT, BivarPoly, TSeries  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
CHUNK = 100
CHUNKS = 200

GENUS1 = [(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7)]
GENUS2 = [(4, 6, 7), (4, 6, 9), (4, 10, 11), (6, 9, 10), (6, 8, 11)]
GENUS3 = [(8, 12, 14, 15)]


def rat(rng: random.Random) -> F:
    return F(rng.choice([-7, -3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 1, 2, 3, 4, 7]))


def chain(beta) -> list:
    """The gcd chain e_0, e_1, ... of characteristic exponents."""
    e = [beta[0]]
    for b in beta[1:]:
        e.append(gcd(e[-1], b))
    return e


def terms_of(rng: random.Random, beta, length: int, density=0.6) -> dict:
    """y-terms of a branch of class K(beta) below `length`: t**beta_1 and
    t**beta_i, and between them seeded terms that keep the class."""
    e = chain(beta)
    y = {beta[1]: rat(rng)}
    for i, b in enumerate(beta[1:], 1):
        hi = beta[i + 1] if i + 1 < len(beta) else length
        y[b] = rat(rng)
        for x in range(b + 1, hi):
            if x % e[i] == 0 and rng.random() < density:
                y[x] = rat(rng)
    return y


def branch(rng: random.Random, beta=None, length=None, trunc=EXACT) -> Parametrization:
    if beta is None:
        beta = rng.choice(GENUS1 * 3 + GENUS2)
    if length is None:
        length = beta[-1] + rng.randint(1, 2 * beta[0])
    y = {e: c for e, c in terms_of(rng, beta, length).items() if e < trunc}
    return Parametrization(beta[0], TSeries("t", y, trunc))


def series_of(rng: random.Random, var="t", low=0, high=9, trunc=None) -> TSeries:
    if trunc is None:
        trunc = rng.choice([EXACT, EXACT, rng.randint(1, 14)])
    terms = {rng.randint(low, high): rat(rng) for _ in range(rng.randint(0, 6))}
    return TSeries(var, terms, trunc)


def poly_of(rng: random.Random, di=4, dj=4, size=6) -> BivarPoly:
    return BivarPoly(
        {(rng.randint(0, di), rng.randint(0, dj)): rat(rng) for _ in range(rng.randint(0, size))}
    )


def monic(rng: random.Random, d=None) -> BivarPoly:
    d = d or rng.randint(1, 3)
    lower = {
        (rng.randint(0, 4), rng.randint(0, d - 1)): rat(rng) for _ in range(rng.randint(0, 4))
    }
    return BivarPoly({**lower, (0, d): 1})


# -- the kinds of input: each returns (label, thunk) ---------------------------------

def k_char_sequence(rng):
    mode = rng.choice(["exact", "exact", "trunc", "short", "transversal", "primitive", "zero",
                       "smooth"])
    beta = rng.choice(GENUS1 + GENUS2 + GENUS3)
    if mode == "exact":
        phi = branch(rng, beta)
    elif mode == "trunc":
        phi = branch(rng, beta, trunc=beta[-1] + rng.randint(1, 6))
    elif mode == "short":
        phi = branch(rng, beta, trunc=rng.randint(beta[1], beta[-1]))
    elif mode == "transversal":
        low = rng.randint(1, beta[0])
        phi = Parametrization(beta[0], TSeries("t", {low: 1, beta[1]: 1}, EXACT))
    elif mode == "primitive":
        terms = {6: rat(rng), 10: rat(rng)}
        phi = Parametrization(4, TSeries("t", terms, rng.choice([EXACT, 12])))
    elif mode == "zero":
        phi = Parametrization(3, TSeries("t", {}, rng.choice([EXACT, 9])))
    else:
        phi = Parametrization(1, TSeries("t", {2: 1, 3: rat(rng)}, EXACT))
    return f"char_sequence {phi}", lambda: char_sequence(phi)


def k_implicitize(rng):
    n = rng.randint(1, 4)
    terms = {rng.randint(1, 9): rat(rng) for _ in range(rng.randint(0, 4))}
    trunc = rng.choice([EXACT, EXACT, EXACT, 12])
    phi = Parametrization(n, TSeries("t", terms, trunc))
    return f"implicitize {phi}", lambda: geometry.implicitize(phi)


MALFORMED_POLYS = [
    {(0, 2): 1, (3, 0): -2},            # a square root of 2
    {(0, 2): 1, (3, 0): 1},             # a square root of -1
    {(0, 2): 1, (2, 0): -1},            # two smooth branches
    {(0, 2): 2, (3, 0): -1},            # not monic
    {(0, 2): 1, (1, 2): 1, (3, 0): -1},  # not monic in y
    {(0, 2): 1, (0, 1): 1, (3, 0): -1},  # f(0, y) not a power of y
    {(0, 0): 1},                         # y-degree 0
    {(0, 4): 1, (3, 2): -2, (6, 0): 1, (7, 0): -1},  # two branches tangent
    {(0, 2): 1, (3, 1): 1, (5, 0): 1},   # reducible
    {(0, 3): 1, (1, 2): 1, (2, 0): 1},
]


def k_puiseux(rng):
    trunc = rng.choice([None] * 6 + [rng.randint(1, 30), rng.randint(1, 30), 0, "7", 2.5])
    mode = rng.random()
    if mode < 0.6:
        beta = rng.choice([(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6, 7), (4, 6, 9)])
        phi = branch(rng, beta, length=beta[-1] + rng.randint(1, 4))
        f = geometry.implicitize(phi)
        if rng.random() < 0.4:
            i, j = rng.randint(beta[-1], 2 * beta[-1]), rng.randint(0, beta[0] - 1)
            f = f + BivarPoly.monomial(i, j, rat(rng))
        label = f"from {phi}"
    elif mode < 0.9:
        f = BivarPoly(rng.choice(MALFORMED_POLYS))
        label = "malformed"
    else:
        f = rng.choice([None, "y^2 - x^3", {(0, 2): 1}])
        label = "not a polynomial"
    return (f"puiseux_parametrization {label} {f!r} trunc={trunc!r}",
            lambda: geometry.puiseux_parametrization(f, trunc))


def k_swap(rng):
    mode = rng.random()
    if mode < 0.5:
        n = rng.randint(1, 5)
        m = rng.randint(1, 7)
        terms = {m: rng.choice([1, 1, 1, F(1, 4) ** (m % 3 == 1), (-8) ** (m % 2), 2, -1])}
        for _ in range(rng.randint(0, 3)):
            terms[rng.randint(m + 1, m + 6)] = rat(rng)
        phi = Parametrization(n, TSeries("t", terms, rng.choice([EXACT, m + rng.randint(1, 9)])))
    elif mode < 0.8:
        phi = branch(rng, rng.choice(GENUS1), trunc=rng.choice([EXACT, 14, 20]))
    else:
        phi = Parametrization(3, TSeries("t", {}, rng.choice([EXACT, 6])))
    trunc = rng.choice([None, None, rng.randint(1, 25), 0, 40])
    return (f"swap_parametrization {phi} trunc={trunc!r}",
            lambda: geometry.swap_parametrization(phi, trunc))


def pair(rng):
    """Two branches that share a seeded prefix: equal, truncated, of other
    multiplicities, or parting at a seeded exponent."""
    beta = rng.choice(GENUS1 + GENUS2)
    a = branch(rng, beta)
    mode = rng.choice(["part", "part", "part", "equal", "trunc", "other", "mult"])
    if mode == "equal":
        return a, Parametrization(a.n, TSeries("t", dict(a.y.terms), EXACT))
    if mode == "trunc":
        cut = rng.randint(beta[1], max(a.y.terms) + 2)
        return a.with_trunc(cut), Parametrization(a.n, TSeries("t", dict(a.y.terms), cut + 3))
    if mode == "other":
        return a, branch(rng, rng.choice(GENUS1 + GENUS2))
    if mode == "mult":
        # the same curve in parameter t**k: a branch of multiplicity k*n
        k = rng.choice([2, 3])
        other = {e * k: c for e, c in a.y.terms.items()}
        other[max(other) + rng.randint(1, 3)] = rat(rng)
        return a, Parametrization(a.n * k, TSeries("t", other, EXACT))
    terms = dict(a.y.terms)
    at = rng.randint(a.n + 1, max(terms) + 3)
    terms[at] = terms.get(at, 0) + rat(rng)
    if rng.random() < 0.3:
        terms[at] = -terms[at]
    trunc = rng.choice([EXACT, EXACT, at + rng.randint(0, 4)])
    b = Parametrization(a.n, TSeries("t", {e: c for e, c in terms.items() if e < trunc}, trunc))
    return (a, b) if rng.random() < 0.5 else (b, a)


def k_intersection(rng):
    a, b = pair(rng)
    return f"intersection {a} {b}", lambda: geometry.intersection(a, b)


def k_contact(rng):
    a, b = pair(rng)
    return f"contact {a} {b}", lambda: geometry.contact(a, b)


def k_intersection_poly_param(rng):
    a, b = pair(rng)
    if not b.exact or rng.random() < 0.2:
        f = poly_of(rng)
    else:
        f = geometry.implicitize(b) if b.n <= 6 else poly_of(rng)
    return (f"intersection_poly_param {f!r} {a}",
            lambda: geometry.intersection_poly_param(f, a))


def cdata(rng) -> CharData:
    return CharData.from_char_exponents(rng.choice(GENUS1 + GENUS2 + GENUS3))


def k_from_contact(rng):
    cd = cdata(rng)
    n = cd.mult
    theta = rng.choice([
        F(rng.randint(n, 3 * cd.char_exponents[-1]), n),
        F(cd.char_exponents[rng.randint(1, cd.genus)], n),
        F(rng.randint(1, 40), rng.randint(1, 9)),
        "3/2", 1, F(1, 2), "x",
    ])
    mult = rng.choice([1, 2, 3, n, 7, 0, -2])
    return (f"intersection_from_contact {cd.char_exponents} {theta!r} {mult!r}",
            lambda: geometry.intersection_from_contact(cd, theta, mult))


def k_from_intersection(rng):
    cd = cdata(rng)
    mult = rng.choice([1, 2, 3, cd.mult, 7, 0])
    value = rng.choice([
        rng.randint(0, 4 * cd.generators[-1]),
        F(rng.randint(1, 300), rng.randint(1, 8)),
        cd.mult * max(mult, 1), cd.generators[-1], "45", "q",
    ])
    return (f"contact_from_intersection {cd.char_exponents} {value!r} {mult!r}",
            lambda: geometry.contact_from_intersection(cd, value, mult))


def k_infer(rng):
    cd = cdata(rng)
    beta, n = cd.char_exponents, cd.mult
    # mostly a lambda that some branch of the class can have
    top = beta[2] if cd.genus >= 2 else cd.conductor - n
    lams = [lam for lam in range(beta[1] + 1, top + 1) if not contains(lam + n, cd)]
    lam = rng.choice(lams) if lams and rng.random() < 0.8 else rng.randint(beta[1] - 1, top + 3)
    other = rng.choice([1, 2, n, n, 2 * n, 5, 0])
    delta = rng.choice([0, 1, -1, F(1, 2), F(1, 2 * n), 5])
    mode = rng.choice(["contact", "contact", "intersection", "intersection", "both", "neither"])

    def run():
        kwargs = {}
        if mode in ("contact", "both"):
            kwargs["contact_order"] = F(lam, n) + delta
        if mode in ("intersection", "both"):
            kwargs["intersection_value"] = (
                geometry.intersection_from_contact(cd, F(lam, n), max(other, 1)) + delta
            )
        return zariski.infer_zariski(cd, lam, other, **kwargs)

    return f"infer_zariski {beta} {lam} {other} {mode} {delta!r}", run


def zariski_branch(rng) -> Parametrization:
    beta = rng.choice(GENUS1 * 3 + GENUS2[:3])
    mode = rng.choice(["exact", "exact", "exact", "trunc", "short", "special"])
    if mode == "special":
        return Parametrization(beta[0], TSeries("t", {beta[1]: rat(rng)}, EXACT))
    phi = branch(rng, beta, length=beta[-1] + rng.randint(2, 12))
    if mode == "exact":
        return phi
    n, m = beta[0], beta[1]
    need = (n - 1) * (m - 1) + 2 * n
    cut = rng.randint(need, need + 6) if mode == "trunc" else rng.randint(m + 1, need)
    return Parametrization(phi.n, TSeries("t", dict(phi.y.terms), cut))


def k_zariski_invariant(rng):
    phi = zariski_branch(rng)
    return f"zariski_invariant {phi}", lambda: zariski.zariski_invariant(phi)


def k_genus1(rng):
    phi = zariski_branch(rng)
    op = rng.choice(["genus1_reduce", "is_in_b", "replay"])
    if op == "genus1_reduce":
        return f"genus1_reduce {phi}", lambda: zariski.genus1_reduce(phi)
    if op == "is_in_b":
        n1, m1 = rng.choice(GENUS1)
        return f"is_in_b {phi} {n1} {m1}", lambda: zariski.is_in_b(phi, n1, m1)

    def replay():
        return zariski.replay_moves(phi, zariski.zariski_invariant(phi))

    return f"replay_moves {phi}", replay


def k_decomposition(rng):
    # classes whose invariant is mostly finite
    beta = rng.choice([(4, 5), (4, 7), (5, 6), (4, 6, 7), (4, 6, 9), (3, 4)])
    phi = branch(rng, beta, length=beta[-1] + rng.randint(1, 4))
    # a lambda off by one is refused; None, for no invariant, is refused too
    shift = rng.choice([0, 0, 0, 0, 1, -1, None])

    def run():
        res = zariski.zariski_invariant(phi)
        if shift is not None and res.exponent is None:
            return res
        lam = None if shift is None else res.exponent + shift
        f = geometry.implicitize(phi)
        return zariski_decomposition(f, res.witness, char_sequence(phi), lam)

    return f"zariski_decomposition {phi} shift={shift}", run


def k_moves(rng):
    n, m = rng.choice(GENUS1)
    phi = branch(rng, (n, m), length=m + rng.randint(2, 10))
    if rng.random() < 0.5:
        phi = phi.with_trunc((n - 1) * (m - 1) + 2 * n)
    op = rng.choice(["q", "q", "p", "p", "eliminate", "eliminate"])
    c = rng.choice([rat(rng), rat(rng), "1/3", 0])
    if op == "q":
        a, b = rng.choice([(1, 1), (2, 0), (2, 1), (1, 2), (3, 0), (0, 1), (1, -1), (1.0, 1)])
        return (f"apply_qmove {phi} {a!r} {b!r} {c!r}", lambda: zariski.apply_qmove(phi, a, b, c))
    if op == "p":
        b = rng.choice([2, 2, 3, 1, "2"])
        return f"apply_pmove {phi} {b!r} {c!r}", lambda: zariski.apply_pmove(phi, b, c)
    j = rng.choice([rng.randint(m + 1, (n - 1) * (m - 1) + n), m, n + 1, 2.0])
    return f"eliminate_term {phi} {j!r}", lambda: zariski.eliminate_term(phi, j)


def k_tseries_ops(rng):
    var = rng.choice(["t", "t", "t", "u"])
    a, b = series_of(rng), series_of(rng, var)
    op = rng.choice(["+", "-", "*", "neg", "pow", "scale", "shift", "truncated", "agrees",
                     "coeff", "order", "eq"])
    k = rng.choice([0, 1, 2, 3, -1, 9, 1.5])
    c = rng.choice([rat(rng), 0, "2/3"])
    below = rng.choice([None, 3, 8])
    calls = {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: a * b,
        "neg": lambda: -a,
        "pow": lambda: a ** k,
        "scale": lambda: a.scale(c),
        "shift": lambda: a.shift(k),
        "truncated": lambda: a.truncated(k),
        "agrees": lambda: a.agrees_with(b, below),
        "coeff": lambda: a.coeff(abs(int(k))),
        "order": lambda: (a.order(), a.max_exponent(), a.is_zero_below_trunc(), a.exact),
        "eq": lambda: (a == b, a == TSeries(a.var, dict(a.terms), a.trunc), a == 1),
    }
    return f"TSeries {a!r} {op} {b!r} k={k!r}", calls[op]


# the public constructors on malformed maps, and on well-formed ones in
# every accepted spelling: float and Fraction exponents, str coefficients,
# repeated keys and zeros
CONSTRUCTIONS = [
    lambda: TSeries("t", {1.5: 1}, 5),
    lambda: TSeries("t", {-1: 1}, 5),
    lambda: TSeries("t", {1: "x"}, 5),
    lambda: TSeries("t", {1: 1.5}, 5),
    lambda: TSeries("t", {2.0: "3/4", F(3): 1, 7: 0}, 5),
    lambda: TSeries("t", {1: 1}, 0),
    lambda: TSeries("t", {1: 1}, True),
    lambda: TSeries("t", [1, 2], 5),
    lambda: BivarPoly({(1, 1.5): 1}),
    lambda: BivarPoly({(1,): 1}),
    lambda: BivarPoly({(1, 2.0): " -3/7 ", (0, 0): 0}),
    lambda: BivarPoly([((0, 2), 1)]),
    lambda: TSeries.from_terms("t", [(1, 1), (1, -1), (2, "1/2")], 6),
    lambda: BivarPoly.from_pairs([((0, 2), 1), ((0, 2), 1), ((3, 0), "-1")]),
    lambda: TSeries.monomial("t", 3, "5/2", 4),
    lambda: TSeries.constant("t", 0),
]


def k_constructors(rng):
    i = rng.randrange(len(CONSTRUCTIONS))
    return f"constructor {i}", CONSTRUCTIONS[i]


def k_roots(rng):
    op = rng.choice(["root", "root", "solve", "solve", "reparametrize", "inverse"])
    trunc = rng.choice([rng.randint(1, 16), EXACT])
    if op == "root":
        tail = {rng.randint(1, 8): rat(rng) for _ in range(rng.randint(0, 4))}
        const = rng.choice([1, 1, 1, 2, 0])
        unit = TSeries("t", {**tail, 0: const}, trunc)
        n = rng.choice([1, 2, 3, 5, 0])
        return f"nth_root_unit {unit!r} {n}", lambda: series.nth_root_unit(unit, n)
    w = TSeries("t", {rng.choice([1, 1, 1, 2]): rat(rng),
                      **{rng.randint(2, 7): rat(rng) for _ in range(rng.randint(0, 3))}},
                rng.choice([trunc, rng.randint(2, 16)]))
    if op == "solve":
        targets = [series_of(rng, low=0, high=10, trunc=rng.choice([trunc, 12, EXACT]))
                   for _ in range(rng.randint(1, 3))]
        return (f"solve_composition {targets!r} {w!r}",
                lambda: series.solve_composition(targets, w))
    if op == "inverse":
        return f"inverse_parameter {w!r}", lambda: series.inverse_parameter(w)
    s = series_of(rng)
    return f"reparametrize {s!r} {w!r}", lambda: series.reparametrize(s, w)


def k_substitute(rng):
    f = poly_of(rng)
    n = rng.choice([0, 1, 2, 3, 4, -1])
    y = series_of(rng, low=rng.choice([0, 1, 2]))
    return f"substitute {f!r} {n} {y!r}", lambda: series.substitute(f, n, y)


def k_bivar_ops(rng):
    p, q = poly_of(rng), poly_of(rng)
    op = rng.choice(["+", "-", "*", "neg", "pow", "scale", "swap", "divmod", "divmod", "divexact",
                     "inspect"])
    k = rng.choice([0, 1, 2, 3, -1])
    h = monic(rng) if rng.random() < 0.8 else q
    c = rng.choice([rat(rng), 0, "-5"])

    def divmod_():
        return (p * h + q).divmod_monic_y(h)

    calls = {
        "+": lambda: p + q,
        "-": lambda: p - q,
        "*": lambda: p * q,
        "neg": lambda: -p,
        "pow": lambda: p ** k,
        "scale": lambda: p.scale(c),
        "swap": lambda: p.swap_xy(),
        "divmod": divmod_,
        "divexact": lambda: (p * q).divexact(q),
        "inspect": lambda: (p.deg_y(), p.is_monic_in_y(), p.coeff(1, 1), p.is_zero, p == q,
                            p == BivarPoly(dict(p.terms))),
    }
    return f"BivarPoly {p!r} {op} {q!r} {h!r} k={k}", calls[op]


KINDS = [
    k_char_sequence, k_implicitize, k_puiseux, k_swap, k_intersection, k_contact,
    k_intersection_poly_param, k_from_contact, k_from_intersection, k_infer,
    k_zariski_invariant, k_genus1, k_decomposition, k_moves, k_tseries_ops, k_constructors,
    k_roots, k_substitute, k_bivar_ops,
]


def outcome(thunk) -> str:
    try:
        value = thunk()
    except PlaneBranchError as exc:
        return f"!! {type(exc).__name__}: {exc} needed={getattr(exc, 'needed', None)!r}"
    except Exception as exc:  # an untyped escape: its message varies with the Python version
        return f"!! untyped {type(exc).__name__}"
    return f"-> {value!r}"


def chunk_lines(k: int) -> list:
    """The outcome lines of chunk k."""
    rng = random.Random(k)
    lines = []
    for i in range(CHUNK):
        kind = KINDS[(k * CHUNK + i) % len(KINDS)]
        label, thunk = kind(rng)
        lines.append(f"{k * CHUNK + i} {kind.__name__[2:]}: {label} {outcome(thunk)}")
    return lines


def digest(k: int) -> str:
    return hashlib.sha256("\n".join(chunk_lines(k)).encode()).hexdigest()


def check(chunks) -> list:
    """The chunks among `chunks` whose outcomes differ from digests.json."""
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    return [k for k in chunks if digest(k) != stored[k]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", type=int, metavar="CHUNK", help="print one chunk's outcomes")
    parser.add_argument("--write", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    if args.show is not None:
        print("\n".join(chunk_lines(args.show)))
        return 0
    start = time.monotonic()
    if args.write:
        doc = {"chunk": CHUNK, "digests": [digest(k) for k in range(CHUNKS)]}
        DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {CHUNKS} digests in {time.monotonic() - start:.1f} s")
        return 0
    bad = check(range(CHUNKS))
    for k in bad:
        print(f"chunk {k} differs: python tests/differential/run.py --show {k}")
    print(f"{CHUNKS - len(bad)} of {CHUNKS} chunks match, "
          f"{CHUNKS * CHUNK} inputs, in {time.monotonic() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

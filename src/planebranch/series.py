"""Exact truncated power series and bivariate polynomials over Q.

All coefficients are `fractions.Fraction`; nothing is ever rounded.  A
`TSeries` knows its variable tag, a finite map exponent -> coefficient and a
truncation bound `trunc`: coefficients at exponents >= trunc are unknown and
no operation ever reports information there.  Exactly known polynomials
(user input, implicit equations) carry the infinite truncation `EXACT`, in
which case the term map is the whole series.  `order()` is the smallest
exponent with a nonzero term, or None when no term below `trunc` is known.

The hot kernels (`TSeries.__mul__`, `_powers`, `nth_root_unit`,
`solve_composition`, `substitute`, `BivarPoly.__mul__`, `divmod_monic_y`)
work on integer numerators over one shared denominator per operand, the
layout of FLINT's `fmpq_poly`: `_common` clears an operand's denominators
with one lcm, `_convolve` multiplies in integers, and each output
coefficient becomes a `Fraction` once, with one gcd.  `.terms` stays a map
to `Fraction`s everywhere outside the kernels.

A series in that layout is an integer form (numerators, den, trunc): an
exponent -> int map with no zeros, below trunc, over one denominator
den > 0, in lowest terms (`_reduced` divides out the content).  `_form`
builds one from a `TSeries` and `_to_series` builds the `Fraction`s back;
between the two, kernels pass forms to each other.  `_powers` yields
y**0, y**1, ... of one form, each over its reduced denominator; it is the
one power routine of `substitute`, `solve_composition`, `implicitize`, the
moves and the route.  `_root` and `_solve` are the form cores of
`nth_root_unit` and `solve_composition`, so that the genus-one sweep in
`zariski` runs a p-move from y to its new branch and parameter change with
no `Fraction` series in between.

The public constructors `TSeries(...)` and `BivarPoly(...)` check and clean
what they are given.  Kernel outputs whose invariants hold by construction
(int exponents, below `trunc` for a series, nonzero `Fraction` values, a
dict of their own) go through the trusted `TSeries._make` and
`BivarPoly._make` instead: the ring operations of both, `scale`, `shift`,
`truncated`, `nth_root_unit`, `solve_composition`, `substitute`, `swap_xy`
and `divmod_monic_y`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce

from .errors import (
    ConstantTermNotOne,
    CrossCheckFailed,
    InvalidArgument,
    InvalidParameterChange,
    NeedsTruncation,
    NotMonic,
    PrecisionExhausted,
    TagMismatch,
)

#: truncation bound of a series that is exactly known (a polynomial)
EXACT = math.inf

_ZERO = Fraction(0)
_ONE = Fraction(1)


def ratio(value) -> Fraction:
    """Coerce ints, strings like '17/14' and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidArgument(f"cannot interpret {value!r} as an exact rational")


def _check_positive(value, what: str) -> None:
    """Refuse anything but an int >= 1, a bool included, with InvalidArgument."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidArgument(f"{what} {value!r} is not a positive integer")


def _natural(e) -> bool:
    """Whether e is an int, Fraction or float equal to a natural number."""
    if isinstance(e, int):
        return e >= 0
    return isinstance(e, (Fraction, float)) and e >= 0 and e % 1 == 0


def _common(terms: dict, bound=None) -> tuple[dict, int]:
    """(numerators, den): the Fraction terms below `bound` (all of them at
    None) as integers over their one common denominator, the lcm of theirs."""
    # pairwise, because math.lcm(*dens) builds a tuple per call, and freed
    # short tuples pile up on the interpreter's free lists
    den = 1
    for e, c in terms.items():
        if bound is None or e < bound:
            den = math.lcm(den, c.denominator)
    return {
        e: c.numerator * (den // c.denominator)
        for e, c in terms.items()
        if bound is None or e < bound
    }, den


def _convolve(a: dict, b: dict, bound, acc: dict | None = None) -> dict:
    """Product of two exponent -> int maps below `bound`, added into `acc`."""
    if acc is None:
        acc = {}
    get = acc.get
    b = sorted(b.items())
    for e1, c1 in a.items():
        room = bound - e1
        for e2, c2 in b:
            if e2 >= room:
                break
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def _rows(terms: dict) -> tuple[dict, int]:
    """(rows, den): a polynomial's Fraction terms (i, j) -> c as integer
    rows y-degree j -> {x-exponent i: int} over their one common
    denominator."""
    num, den = _common(terms)
    rows: dict = {}
    for (i, j), c in num.items():
        rows.setdefault(j, {})[i] = c
    return rows, den


def _addmul(acc: dict, terms: dict, q: int, shift: int = 0, bound=EXACT) -> None:
    """acc += q * terms * var**shift below `bound`, in place; zeros dropped."""
    for e, c in terms.items():
        e += shift
        if e < bound:
            c = acc.get(e, 0) + q * c
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)


def _form(s: TSeries, bound=EXACT) -> tuple:
    """The integer form of s below `bound`: (numerators, den, trunc), the
    terms as integers over their one reduced denominator den > 0, and the
    truncation min(s.trunc, bound)."""
    return (*_common(s.terms, bound), min(s.trunc, bound))


def _to_series(var: str, form: tuple) -> TSeries:
    """The series of an integer form: each term becomes a Fraction here."""
    num, den, trunc = form
    return TSeries._make(var, {e: Fraction(c, den) for e, c in num.items()}, trunc)


def _reduced(num: dict, den: int, trunc) -> tuple:
    """The integer form num / den below trunc in lowest terms: the content
    shared by the numerators and den divided out, and den made positive."""
    g = math.gcd(den, *num.values()) * (-1 if den < 0 else 1)
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den, trunc


def _cut(form: tuple, bound) -> tuple:
    """An integer form below `bound`, in lowest terms."""
    num, den, trunc = form
    if bound >= trunc:
        return form
    return _reduced({e: c for e, c in num.items() if e < bound}, den, bound)


def _powers(y: tuple, below=EXACT):
    """Yield y**0, y**1, y**2, ... of the integer form y as integer forms
    (numerators, den, trunc), each in lowest terms and computed only below
    its trunc.

    A term of y**g at or past y's trunc + (g - 1)*ord y meets an unknown
    term of y, so y**g is known exactly below min(below, trunc + (g - 1)*ord y);
    y**0 = 1 below `below`.  The content shared by the numerators and den is
    divided out after every product, so the numerators grow like the true
    denominators of y**g.  For an exact y, den = yden**g by Gauss's lemma.
    """
    order = min(y[0]) if y[0] else y[2]
    ynum, yden, _ = _cut(y, below)
    num, den, reach = ynum, yden, y[2]
    yield ({0: 1} if below > 0 else {}), 1, below
    while True:
        yield num, den, min(below, reach)
        reach += order
        num = {e: c for e, c in _convolve(num, ynum, min(below, reach)).items() if c}
        num, den, _ = _reduced(num, den * yden, None)


def _accumulate(pairs) -> dict:
    """key -> the sum of the coefficients given for it, over (key, c) pairs."""
    acc: dict = {}
    for key, c in pairs:
        acc[key] = acc.get(key, _ZERO) + ratio(c)
    return acc


def _power(base, k: int, one):
    """base**k by repeated squaring; `one()` builds the result at k = 0."""
    if not isinstance(k, int) or k < 0:
        raise InvalidArgument("exponent must be a non-negative integer")
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return one() if result is None else result


def _mono(var: str, e: int) -> str:
    """var**e as printed: empty at e = 0, the bare var at e = 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _render(terms) -> str:
    """(monomial, coefficient) pairs joined by + in the given order: an
    empty monomial prints its coefficient bare, +-1 prints +-monomial, any
    other c prints c*monomial; no pairs print 0."""
    parts = []
    for mono, c in terms:
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


class TSeries:
    """Truncated univariate power series with exact rational coefficients."""

    __slots__ = ("var", "terms", "trunc")

    def __init__(self, var: str, terms: dict, trunc):
        if trunc != EXACT:
            _check_positive(trunc, "trunc")
        if not isinstance(terms, dict):
            raise InvalidArgument(f"series terms {terms!r} are not a dict")
        clean = {}
        for e, c in terms.items():
            if not _natural(e):
                raise InvalidArgument(f"exponent {e!r} is not a non-negative integer")
            c = ratio(c)
            if c and e < trunc:
                clean[int(e)] = c
        self.var = var
        self.terms = clean
        self.trunc = trunc

    @classmethod
    def _make(cls, var: str, terms: dict, trunc) -> "TSeries":
        """A kernel output, unchecked: `terms` maps int exponents below
        `trunc` to nonzero Fractions and belongs to no other series."""
        s = object.__new__(cls)
        s.var = var
        s.terms = terms
        s.trunc = trunc
        return s

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, var: str, trunc=EXACT) -> "TSeries":
        return cls(var, {}, trunc)

    @classmethod
    def constant(cls, var: str, value, trunc=EXACT) -> "TSeries":
        return cls(var, {0: ratio(value)}, trunc)

    @classmethod
    def monomial(cls, var: str, exponent: int, value=1, trunc=EXACT) -> "TSeries":
        return cls(var, {exponent: ratio(value)}, trunc)

    @classmethod
    def from_terms(cls, var: str, pairs, trunc=EXACT) -> "TSeries":
        return cls(var, _accumulate(pairs), trunc)

    # -- inspection ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.trunc == EXACT

    def order(self) -> int | None:
        """The smallest nonzero exponent; None when no term below trunc is
        known to be nonzero (the order is then undetermined, or infinite for
        an exact zero)."""
        return min(self.terms) if self.terms else None

    def _eff_order(self):
        """Lower bound valid for every term, known or unknown."""
        return min(self.terms) if self.terms else self.trunc

    def coeff(self, exponent: int) -> Fraction:
        if exponent >= self.trunc:
            raise PrecisionExhausted(
                f"coefficient at {exponent} is beyond the truncation {self.trunc}",
                needed=exponent + 1,
            )
        return self.terms.get(exponent, _ZERO)

    def is_zero_below_trunc(self) -> bool:
        return not self.terms

    def max_exponent(self) -> int:
        return max(self.terms) if self.terms else -1

    def agrees_with(self, other: "TSeries", below=None) -> bool:
        """Exact term-for-term agreement below `below` (default: both truncs)."""
        bound = min(self.trunc, other.trunc)
        if below is not None:
            bound = min(bound, below)
        for e in set(self.terms) | set(other.terms):
            if e < bound and self.terms.get(e, _ZERO) != other.terms.get(e, _ZERO):
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.var == other.var
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.var, self.trunc, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"TSeries({self})"

    def __str__(self) -> str:
        body = _render((_mono(self.var, e), self.terms[e]) for e in sorted(self.terms))
        if self.exact:
            return body
        return f"{body} + O({self.var}^{self.trunc})"

    # -- ring operations -----------------------------------------------------

    def _check_tag(self, other: "TSeries") -> None:
        if self.var != other.var:
            raise TagMismatch(f"variable tags differ: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "TSeries") -> "TSeries":
        self._check_tag(other)
        trunc = min(self.trunc, other.trunc)
        acc = {e: c for e, c in self.terms.items() if e < trunc}
        for e, c in other.terms.items():
            if e < trunc:
                c += acc.get(e, _ZERO)
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        return TSeries._make(self.var, acc, trunc)

    def __neg__(self) -> "TSeries":
        return TSeries._make(self.var, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __mul__(self, other: "TSeries") -> "TSeries":
        self._check_tag(other)
        # Unknown tails start at trunc; the cheapest unknown contribution of
        # each factor bounds where the product stays certified.
        trunc = min(
            self.trunc + other._eff_order(),
            other.trunc + self._eff_order(),
        )
        a, da = _common(self.terms, trunc)
        b, db = _common(other.terms, trunc)
        den = da * db
        acc = _convolve(a, b, trunc)
        return TSeries._make(
            self.var, {e: Fraction(c, den) for e, c in acc.items() if c}, trunc
        )

    def scale(self, value) -> "TSeries":
        c = ratio(value)
        if not c:
            return TSeries.zero(self.var, self.trunc)
        return TSeries._make(self.var, {e: c * v for e, v in self.terms.items()}, self.trunc)

    def shift(self, offset: int) -> "TSeries":
        """Multiply by var**offset (offset may be negative if all terms allow)."""
        if not isinstance(offset, int):
            raise InvalidArgument(f"shift offset must be an integer, got {offset!r}")
        if offset < 0 and any(e + offset < 0 for e in self.terms):
            raise InvalidArgument("shift would create negative exponents")
        trunc = self.trunc + offset
        if trunc < 1:
            raise InvalidArgument(f"trunc must be a positive integer, got {trunc!r}")
        return TSeries._make(self.var, {e + offset: c for e, c in self.terms.items()}, trunc)

    def __pow__(self, k: int) -> "TSeries":
        return _power(self, k, lambda: TSeries.constant(self.var, 1))

    def truncated(self, bound) -> "TSeries":
        if bound >= self.trunc:
            return self
        _check_positive(bound, "trunc")
        return TSeries._make(self.var, {e: c for e, c in self.terms.items() if e < bound}, bound)


def nth_root_unit(s: TSeries, n: int) -> TSeries:
    """Principal n-th root of a series with constant term exactly 1.

    Solves n * s * r' = s' * r term by term, so the whole computation stays
    in Q; the result has constant term 1 and r**n = s below the truncation.
    """
    _check_positive(n, "root index")
    if s.terms.get(0, _ZERO) != 1:
        raise ConstantTermNotOne("n-th root requires constant term exactly 1")
    if len(s.terms) == 1:
        return TSeries.constant(s.var, 1, s.trunc)
    if s.trunc == EXACT:
        raise NeedsTruncation("root of a non-trivial unit is infinite; truncate first")
    return _to_series(s.var, _root(_form(s), n))


def _root(s: tuple, n: int) -> tuple:
    """The principal n-th root of the integer form s of a unit with constant
    term 1 and a finite trunc, as an integer form at the same trunc.

    At order k + 1, n*(k+1)*r[k+1] = sum_{i>=1} s[i]*(i - n*(k+1-i))*r[k+1-i];
    the known r are held as integers over the lcm of their denominators,
    rescaled when a new one widens it.
    """
    snum, sden, trunc = s
    support = sorted((i, c) for i, c in snum.items() if i)
    rnum = [1]  # rnum[j] / rden = r[j]
    rden = 1
    for k1 in range(1, trunc):
        acc = 0
        for i, c in support:
            if i > k1:
                break
            r = rnum[k1 - i]
            if r:
                acc += c * (i - n * (k1 - i)) * r
        if not acc:
            rnum.append(0)
            continue
        den = sden * n * k1 * rden
        g = math.gcd(acc, den)
        acc, den = acc // g, den // g
        widen = den // math.gcd(rden, den)
        if widen != 1:
            rden *= widen
            rnum = [r * widen for r in rnum]
        rnum.append(acc * (rden // den))
    return {k: r for k, r in enumerate(rnum) if r}, rden, trunc


def reparametrize(s: TSeries, rho: TSeries) -> TSeries:
    """Composition s(rho(u)) for a parameter change rho of order exactly 1:
    the polynomial sum c_e * y**e on the branch (u, rho(u))."""
    if rho.order() != 1:
        raise InvalidParameterChange("parameter change must have order exactly 1")
    poly = BivarPoly({(0, e): c for e, c in s.terms.items()})
    return substitute(poly, 1, rho).truncated(s.trunc)


def solve_composition(targets, w: TSeries) -> tuple:
    """The unique series Y_i with Y_i(w(t)) = targets[i](t), for ord(w) = 1.

    Triangular solve: each Y_i is read off its residual at order k, and one
    power of w per order serves every target, so several targets cost one
    pass over the powers of w.  Each target keeps its own truncation
    min(target.trunc, w.trunc).  Equivalent to composing with the
    compositional inverse of w, without constructing it.
    """
    if w.order() != 1:
        raise InvalidParameterChange("composition solve needs ord(w) = 1")
    if EXACT in (min(target.trunc, w.trunc) for target in targets):
        raise NeedsTruncation("composition solve needs a finite truncation")
    outs = _solve([_form(target) for target in targets], _form(w))
    return tuple(_to_series(target.var, out) for target, out in zip(targets, outs))


def _solve(targets: list, w: tuple) -> list:
    """`solve_composition` on integer forms: the forms of the Y_i, each at
    min(target trunc, w trunc), with w**k read from `_powers` below the
    largest.  The residual of each target is kept as integers over one
    denominator, and each coefficient of Y_i as a reduced pair, put over
    their lcm at the end."""
    bounds = [min(trunc, w[2]) for _, _, trunc in targets]
    bound = max(bounds, default=0)
    # residual i is rnums[i] / rdens[i]; w**k is wpow / pden
    cuts = [_cut(target, tb) for target, tb in zip(targets, bounds)]
    rnums, rdens = [dict(num) for num, _, _ in cuts], [den for _, den, _ in cuts]
    outs = [{} for _ in targets]
    for k, (wpow, pden, _) in zip(range(bound), _powers(w, bound)):
        if not any(rnums):
            break
        for i, (out, tb) in enumerate(zip(outs, bounds)):
            rnum = rnums[i]
            ck = rnum.get(k)
            if not ck:
                continue
            # Y_i[k] = p / q in lowest terms
            p, q = ck * pden, rdens[i] * wpow[k]
            g = math.gcd(p, q)
            p, q = p // g, q // g
            out[k] = p, q
            # subtract (a / b) * wpow from the residual over the lcm of b
            # and the residual's denominator
            g = math.gcd(p, pden)
            b = q * (pden // g)
            den = math.lcm(rdens[i], b)
            a = p // g * (den // b)
            widen = den // rdens[i]
            if widen != 1:
                rnum = {e: c * widen for e, c in rnum.items()}
            _addmul(rnum, wpow, -a, 0, tb)
            rnums[i], rdens[i] = rnum, den
    forms = []
    for out, tb in zip(outs, bounds):
        # pairwise: math.lcm(*qs) builds a tuple per call, and freed tuples
        # pile up on the interpreter's free lists
        den = reduce(math.lcm, (q for _, q in out.values()), 1)
        forms.append(({k: p * (den // q) for k, (p, q) in out.items()}, den, tb))
    return forms


def inverse_parameter(w: TSeries) -> TSeries:
    """Compositional inverse rho of w (ord 1): w(rho(u)) = u = rho(w(t))."""
    (rho,) = solve_composition([TSeries.monomial(w.var, 1, 1, w.trunc)], w)
    return rho


def exact_root(q: Fraction, k: int):
    """The rational k-th root of q, or None if it does not exist in Q."""
    q = ratio(q)
    _check_positive(k, "root index")
    if k == 1:
        return q
    if q == 0:
        return Fraction(0)
    if q < 0 and k % 2 == 0:
        return None
    num = _int_root(abs(q.numerator), k)
    den = _int_root(q.denominator, k)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if q < 0 else root


def _int_root(a: int, k: int):
    """Exact integer k-th root of a >= 0, or None (bisection in integers,
    so any size works)."""
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** k
        if p == a:
            return mid
        if p < a:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


# -- bivariate polynomials ----------------------------------------------------

class BivarPoly:
    """Polynomial in x and y with exact rational coefficients.

    Terms are a map (i, j) -> coefficient for monomials x**i * y**j; zero
    coefficients are never stored and the y-degree is finite by construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms is not None:
            if not isinstance(terms, dict):
                raise InvalidArgument(f"polynomial terms {terms!r} are not a dict")
            for key, c in terms.items():
                if not (isinstance(key, tuple) and len(key) == 2 and _natural(key[0])
                        and _natural(key[1])):
                    raise InvalidArgument(
                        f"monomial exponents {key!r} are not non-negative integers"
                    )
                c = ratio(c)
                if c:
                    clean[(int(key[0]), int(key[1]))] = c
        self.terms = clean

    @classmethod
    def _make(cls, terms: dict) -> "BivarPoly":
        """A kernel output, unchecked: `terms` maps pairs of natural ints to
        nonzero Fractions and belongs to no other polynomial."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): _ONE})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivarPoly":
        return cls({(i, j): ratio(c)})

    @classmethod
    def from_pairs(cls, pairs) -> "BivarPoly":
        return cls(_accumulate(((i, j), c) for (i, j), c in pairs))

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def is_monic_in_y(self) -> bool:
        d = self.deg_y()
        if d < 0:
            return False
        top = {i: c for (i, j), c in self.terms.items() if j == d}
        return top == {0: _ONE}

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        return f"BivarPoly({self})"

    def __str__(self) -> str:
        return _render(
            ("*".join(filter(None, (_mono("x", i), _mono("y", j)))), self.terms[(i, j)])
            for i, j in sorted(self.terms, key=lambda ij: (-ij[1], ij[0]))
        )

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other: "BivarPoly", op) -> "BivarPoly":
        """op(self, other) term by term, for op = operator.add or sub."""
        acc = dict(self.terms)
        for k, c in other.terms.items():
            c = op(acc.get(k, _ZERO), c)
            if c:
                acc[k] = c
            else:
                del acc[k]
        return BivarPoly._make(acc)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, operator.add)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._make({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        a, da = _common(self.terms)
        b, db = _common(other.terms)
        acc: dict = {}
        get = acc.get
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                k = (i1 + i2, j1 + j2)
                acc[k] = get(k, 0) + c1 * c2
        den = da * db
        return BivarPoly._make({k: Fraction(c, den) for k, c in acc.items() if c})

    def scale(self, value) -> "BivarPoly":
        c = ratio(value)
        if not c:
            return BivarPoly()
        return BivarPoly._make({k: c * v for k, v in self.terms.items()})

    def __pow__(self, k: int) -> "BivarPoly":
        return _power(self, k, BivarPoly.one)

    def swap_xy(self) -> "BivarPoly":
        return BivarPoly._make({(j, i): c for (i, j), c in self.terms.items()})

    def divmod_monic_y(self, divisor: "BivarPoly"):
        """Euclidean division in y by a divisor monic in y; exact in Q[x][y].
        From the top down, row k of what remains is row k - d of the
        quotient, and it times the divisor's lower rows comes off below.
        What remains is held as integer rows over one denominator, which
        grows by the lower rows' denominator per row taken off; each output
        term becomes a Fraction once."""
        d = divisor.deg_y()
        if d < 1 or not divisor.is_monic_in_y():
            raise NotMonic("divisor must be monic in y with positive y-degree")
        rows, den = _rows(self.terms)
        lower, lden = _common({ij: c for ij, c in divisor.terms.items() if ij[1] < d})
        quotient = {}
        for k in range(max(rows, default=-1), d - 1, -1):
            top = rows.pop(k, None)
            if not top:
                continue
            quotient.update({(i1, k - d): Fraction(c1, den) for i1, c1 in top.items()})
            if lden != 1:
                rows = {j: {i: c * lden for i, c in row.items()} for j, row in rows.items()}
                den *= lden
            for i1, c1 in top.items():
                for (i2, j), c2 in lower.items():
                    row = rows.setdefault(k - d + j, {})
                    c = row.get(i1 + i2, 0) - c1 * c2
                    if c:
                        row[i1 + i2] = c
                    else:
                        del row[i1 + i2]
        rem = {(i, j): Fraction(c, den) for j, row in rows.items() for i, c in row.items()}
        return BivarPoly._make(quotient), BivarPoly._make(rem)

    def divexact(self, divisor: "BivarPoly") -> "BivarPoly":
        """Exact division (the divisor is known to divide self)."""
        if divisor.is_zero:
            raise CrossCheckFailed("polynomial division by zero")
        if divisor.terms == {(0, 0): _ONE}:
            return self
        quotient: dict = {}
        rem = self
        lt_d = max(divisor.terms)
        cd = divisor.terms[lt_d]
        while rem.terms:
            lt_r = max(rem.terms)
            di, dj = lt_r[0] - lt_d[0], lt_r[1] - lt_d[1]
            if di < 0 or dj < 0:
                raise CrossCheckFailed("polynomial division is not exact")
            c = rem.terms[lt_r] / cd
            quotient[(di, dj)] = c
            rem = rem - BivarPoly.monomial(di, dj, c) * divisor
        return BivarPoly(quotient)


def substitute(poly: BivarPoly, n: int, y: TSeries) -> TSeries:
    """poly(t**n, y(t)): a bivariate polynomial on the branch (t**n, y(t)).

    x**i is the shift by n*i, so each y-row of poly is an exact series; one
    Horner pass in y combines the rows on integers, y**g from `_powers` and
    each row added over the lcm of its denominator and the accumulator's.
    The truncation is the ring operations': acc * y**g is known below
    min(T_acc + ord y**g, T_g + ord acc), each order read after cancellation.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidArgument(f"x-exponent n must be a non-negative integer, got {n!r}")
    rows: dict = {}
    for (i, j), c in poly.terms.items():
        row = rows.setdefault(j, {})
        if n * i in row:  # only at n = 0
            c += row[n * i]
        row[n * i] = c
    if not rows:
        return TSeries.zero(y.var)
    ydegs = sorted(rows, reverse=True)
    steps = [(prev - j, rows[j]) for prev, j in zip(ydegs, ydegs[1:])]
    steps.append((ydegs[-1], None))
    powers = list(itertools.islice(_powers(_form(y)), max(g for g, _ in steps) + 1))
    acc, den = _common(rows[ydegs[0]])
    trunc = EXACT
    for g, row in steps:
        if g:
            pnum, pden, ptrunc = powers[g]
            order = min((e for e, c in acc.items() if c), default=trunc)
            trunc = min(trunc + g * y._eff_order(), ptrunc + order)
            acc = _convolve(acc, pnum, trunc)
            den *= pden
        if row:
            rnum, rden = _common(row, trunc)
            lcm = math.lcm(den, rden)
            if lcm != den:
                acc = {e: c * (lcm // den) for e, c in acc.items()}
            _addmul(acc, rnum, lcm // rden)
            den = lcm
    return TSeries._make(y.var, {e: Fraction(c, den) for e, c in acc.items() if c}, trunc)

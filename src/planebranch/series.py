"""Exact truncated power series and bivariate polynomials over Q.

Nothing is ever rounded.  A `TSeries` knows its variable tag and a
truncation bound `trunc`: coefficients at exponents >= trunc are unknown and
no operation ever reports information there.  Exactly known polynomials
(user input, implicit equations) carry the infinite truncation `EXACT`.
`order()` is the smallest exponent with a nonzero term, or None when no term
below `trunc` is known.

Both classes store one integer form, the layout of FLINT's `fmpq_poly`:
integer numerators over one denominator `den > 0`, in lowest terms, with no
zero numerator.  A series holds `num`, exponent -> int, below its trunc; a
polynomial holds `rows`, y-degree j -> {x-exponent i: int}, with no empty
row.  The form is canonical, so `==` and `hash` read it, and every ring
operation and kernel computes on it: `_convolve` multiplies in integers,
`_addmul` adds a multiple in place, `_reduced` divides out the content, and
`_powers` yields y**0, y**1, ... of a series, each over its reduced
denominator, for `substitute`, `solve_composition`, `implicitize`, the moves
and the route.  `_at_two_power` evaluates a polynomial on an exact branch
at t = 2**k as one Python int, which tells whether it vanishes there and
at which t-order, with no series built, for `implicitize`'s check and
`intersection_poly_param`.  `num`, `rows` and `den` are read, never
written.

`.terms` is a read-only view of the same coefficients, exponent (or (i, j))
-> Fraction, built on first access and cached, for the printers, branch
files and callers.  The public constructors `TSeries(...)` and
`BivarPoly(...)` check and clean the maps they are given and keep them as
the view.  Kernel outputs skip those checks: `TSeries._make` and
`BivarPoly._make` take integer numerators over one denominator and put them
in lowest terms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from types import MappingProxyType

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


# -- the argument contract: one predicate per kind of scalar argument.  Each
# refuses a bool, which Python counts as an int, through _is_int

def _is_int(value) -> bool:
    """int: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_natural(value) -> bool:
    """natural: an int >= 0."""
    return _is_int(value) and value >= 0


def _check_positive(value, what: str) -> None:
    """positive int: an int >= 1; anything else is refused with InvalidArgument."""
    if not _is_int(value) or value < 1:
        raise InvalidArgument(f"{what} {value!r} is not a positive integer")


def ratio(value) -> Fraction:
    """rational: an int, a Fraction or a string Fraction reads, such as
    '17/14', as a Fraction; anything else, a float included, is refused with
    InvalidArgument."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidArgument(f"cannot interpret {value!r} as an exact rational")


def _is_exponent(e) -> bool:
    """constructor exponent, read by TSeries(...), BivarPoly(...) and their
    monomials alone: an int >= 0, or a Fraction or float equal to one."""
    if _is_int(e):
        return e >= 0
    return isinstance(e, (Fraction, float)) and e >= 0 and e % 1 == 0


# the refusals of a constructor exponent and of a monomial key
_EXPONENT = "exponent {!r} is not a non-negative integer"
_MONOMIAL = "monomial exponents {!r} are not non-negative integers"


def _is_monomial(key) -> bool:
    """monomial key, read by BivarPoly(...) and BivarPoly.from_pairs: a
    tuple (i, j) of constructor exponents."""
    return (isinstance(key, tuple) and len(key) == 2
            and _is_exponent(key[0]) and _is_exponent(key[1]))


def _is_tag(var) -> bool:
    """variable tag: a non-empty str."""
    return isinstance(var, str) and var != ""


def _check_instance(value, kind: type, what: str) -> None:
    """An argument that must be a `kind`, a branch or a polynomial, say;
    anything else is refused with InvalidArgument."""
    if not isinstance(value, kind):
        raise InvalidArgument(f"{what} {value!r} is not a {kind.__name__}")


def _common(terms: dict) -> tuple[dict, int]:
    """(numerators, den): a map of Fractions as integers over the lcm of
    their denominators, a form in lowest terms."""
    # pairwise, because math.lcm(*dens) builds a tuple per call, and freed
    # short tuples pile up on the interpreter's free lists
    den = 1
    for c in terms.values():
        den = math.lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _convolve(a: dict, b: dict, bound, acc: dict | None = None) -> dict:
    """Product of two exponent -> int maps below `bound`, added into `acc`.

    At a finite bound the second factor is read in exponent order, up to
    the first term past bound - e1.  An exact product (bound EXACT) keeps
    every term, so it reads the second factor unsorted and tests no bound.
    """
    if acc is None:
        acc = {}
    get = acc.get
    if bound == EXACT:
        b = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return acc
    b = sorted(b.items())
    for e1, c1 in a.items():
        room = bound - e1
        for e2, c2 in b:
            if e2 >= room:
                break
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


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


def _reduced(num: dict, den: int) -> tuple:
    """num / den in lowest terms: the content shared by the numerators and
    den divided out, and den made positive."""
    g = math.gcd(den, *num.values()) * (-1 if den < 0 else 1)
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den


def _cut(s: TSeries, bound) -> TSeries:
    """s below `bound`, in lowest terms; s itself when bound >= s.trunc."""
    if bound >= s.trunc:
        return s
    num = {e: c for e, c in s.num.items() if e < bound}
    return TSeries._make(s.var, num, s.den, bound)


def _powers(y: TSeries, below=EXACT):
    """Yield y**0, y**1, y**2, ... as integer forms (numerators, den, trunc),
    each in lowest terms and computed only below its trunc.

    A term of y**g at or past y's trunc + (g - 1)*ord y meets an unknown
    term of y, so y**g is known exactly below min(below, trunc + (g - 1)*ord y);
    y**0 = 1 below `below`.  The content shared by the numerators and den is
    divided out after every product, so the numerators grow like the true
    denominators of y**g.  For an exact y, den = yden**g by Gauss's lemma.
    """
    order = y._eff_order()
    cut = _cut(y, below)
    ynum, yden = cut.num, cut.den
    num, den, reach = ynum, yden, y.trunc
    yield ({0: 1} if below > 0 else {}), 1, below
    while True:
        yield num, den, min(below, reach)
        reach += order
        num = {e: c for e, c in _convolve(num, ynum, min(below, reach)).items() if c}
        num, den = _reduced(num, den * yden)


def _accumulate(pairs, is_key, message: str) -> dict:
    """key -> the sum of the coefficients given for it, over (key, c) pairs;
    a key that `is_key` refuses is refused with InvalidArgument, `message`
    formatted with it, before it is hashed."""
    acc: dict = {}
    for key, c in pairs:
        if not is_key(key):
            raise InvalidArgument(message.format(key))
        acc[key] = acc.get(key, 0) + ratio(c)
    return acc


def _power(base, k: int, one):
    """base**k by repeated squaring; `one()` builds the result at k = 0."""
    if not _is_natural(k):
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

    __slots__ = ("var", "num", "den", "trunc", "_terms")

    def __init__(self, var: str, terms: dict, trunc):
        if not _is_tag(var):
            raise InvalidArgument(f"variable tag {var!r} is not a non-empty string")
        if trunc != EXACT:
            _check_positive(trunc, "trunc")
        if not isinstance(terms, dict):
            raise InvalidArgument(f"series terms {terms!r} are not a dict")
        clean = {}
        for e, c in terms.items():
            if not _is_exponent(e):
                raise InvalidArgument(_EXPONENT.format(e))
            c = ratio(c)
            if c and e < trunc:
                clean[int(e)] = c
        self.var = var
        self.num, self.den = _common(clean)
        self.trunc = trunc
        self._terms = MappingProxyType(clean)

    @classmethod
    def _make(cls, var: str, num: dict, den: int, trunc) -> "TSeries":
        """A kernel output, unchecked but for its form: `num` maps int
        exponents below `trunc` to nonzero ints over den != 0, belongs to no
        other series, and is put in lowest terms."""
        s = object.__new__(cls)
        s.var = var
        s.num, s.den = _reduced(num, den)
        s.trunc = trunc
        s._terms = None
        return s

    def __reduce__(self):
        # the view is a mappingproxy, which does not pickle; the form does
        return TSeries._make, (self.var, self.num, self.den, self.trunc)

    @property
    def terms(self) -> MappingProxyType:
        """exponent -> Fraction, read-only, built on first access."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})
        return self._terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, var: str, trunc=EXACT) -> "TSeries":
        return cls(var, {}, trunc)

    @classmethod
    def constant(cls, var: str, value, trunc=EXACT) -> "TSeries":
        return cls(var, {0: ratio(value)}, trunc)

    @classmethod
    def monomial(cls, var: str, exponent: int, value=1, trunc=EXACT) -> "TSeries":
        # checked before it is a key: a list is not hashable
        if not _is_exponent(exponent):
            raise InvalidArgument(_EXPONENT.format(exponent))
        return cls(var, {exponent: ratio(value)}, trunc)

    @classmethod
    def from_terms(cls, var: str, pairs, trunc=EXACT) -> "TSeries":
        return cls(var, _accumulate(pairs, _is_exponent, _EXPONENT), trunc)

    # -- inspection ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.trunc == EXACT

    def order(self) -> int | None:
        """The smallest nonzero exponent; None when no term below trunc is
        known to be nonzero (the order is then undetermined, or infinite for
        an exact zero)."""
        return min(self.num) if self.num else None

    def _eff_order(self):
        """Lower bound valid for every term, known or unknown."""
        return min(self.num) if self.num else self.trunc

    def coeff(self, exponent: int) -> Fraction:
        if not _is_natural(exponent):
            raise InvalidArgument(_EXPONENT.format(exponent))
        if exponent >= self.trunc:
            raise PrecisionExhausted(
                f"coefficient at {exponent} is beyond the truncation {self.trunc}",
                needed=exponent + 1,
            )
        return Fraction(self.num.get(exponent, 0), self.den)

    def is_zero_below_trunc(self) -> bool:
        return not self.num

    def max_exponent(self) -> int:
        return max(self.num) if self.num else -1

    def agrees_with(self, other: "TSeries", below=None) -> bool:
        """Exact term-for-term agreement below `below` (default: both truncs)."""
        _check_instance(other, TSeries, "series")
        bound = min(self.trunc, other.trunc)
        if below is not None:
            bound = min(bound, below)
        a, b = self.num, other.num
        return all(a.get(e, 0) * other.den == b.get(e, 0) * self.den
                   for e in a.keys() | b.keys() if e < bound)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TSeries)
            and self.var == other.var
            and self.trunc == other.trunc
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.var, self.trunc, self.den, tuple(sorted(self.num.items()))))

    def __repr__(self) -> str:
        return f"TSeries({self})"

    def __str__(self) -> str:
        terms = self.terms
        body = _render((_mono(self.var, e), terms[e]) for e in sorted(terms))
        if self.exact:
            return body
        return f"{body} + O({self.var}^{self.trunc})"

    # -- ring operations -----------------------------------------------------

    def _check_tag(self, other: "TSeries") -> None:
        _check_instance(other, TSeries, "series")
        if self.var != other.var:
            raise TagMismatch(f"variable tags differ: {self.var!r} vs {other.var!r}")

    def _combine(self, other: "TSeries", sign: int) -> "TSeries":
        """self + sign * other over the lcm of the two denominators."""
        self._check_tag(other)
        trunc = min(self.trunc, other.trunc)
        den = math.lcm(self.den, other.den)
        acc = {e: c * (den // self.den) for e, c in self.num.items() if e < trunc}
        _addmul(acc, other.num, sign * (den // other.den), 0, trunc)
        return TSeries._make(self.var, acc, den, trunc)

    def __add__(self, other: "TSeries") -> "TSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TSeries":
        return TSeries._make(self.var, {e: -c for e, c in self.num.items()}, self.den, self.trunc)

    def __mul__(self, other: "TSeries") -> "TSeries":
        self._check_tag(other)
        # Unknown tails start at trunc; the cheapest unknown contribution of
        # each factor bounds where the product stays certified.
        trunc = min(
            self.trunc + other._eff_order(),
            other.trunc + self._eff_order(),
        )
        acc = _convolve(self.num, other.num, trunc)
        num = {e: c for e, c in acc.items() if c}
        return TSeries._make(self.var, num, self.den * other.den, trunc)

    def scale(self, value) -> "TSeries":
        c = ratio(value)
        num = {e: v * c.numerator for e, v in self.num.items() if c}
        return TSeries._make(self.var, num, self.den * c.denominator, self.trunc)

    def shift(self, offset: int) -> "TSeries":
        """Multiply by var**offset (offset may be negative if all terms allow)."""
        if not _is_int(offset):
            raise InvalidArgument(f"shift offset must be an integer, got {offset!r}")
        if offset < 0 and any(e + offset < 0 for e in self.num):
            raise InvalidArgument("shift would create negative exponents")
        trunc = self.trunc + offset
        if trunc < 1:
            raise InvalidArgument(f"trunc must be a positive integer, got {trunc!r}")
        num = {e + offset: c for e, c in self.num.items()}
        return TSeries._make(self.var, num, self.den, trunc)

    def __pow__(self, k: int) -> "TSeries":
        return _power(self, k, lambda: TSeries.constant(self.var, 1))

    def truncated(self, bound) -> "TSeries":
        if bound != EXACT:
            _check_positive(bound, "trunc")
        return _cut(self, bound)


def nth_root_unit(s: TSeries, n: int) -> TSeries:
    """Principal n-th root of a series with constant term exactly 1.

    Solves n * s * r' = s' * r term by term, so the whole computation stays
    in Q; the result has constant term 1 and r**n = s below the truncation.
    """
    _check_positive(n, "root index")
    _check_instance(s, TSeries, "series")
    if s.num.get(0) != s.den:
        raise ConstantTermNotOne("n-th root requires constant term exactly 1")
    if len(s.num) == 1:
        return TSeries.constant(s.var, 1, s.trunc)
    if s.trunc == EXACT:
        raise NeedsTruncation("root of a non-trivial unit is infinite; truncate first")
    return _root(s, n)


def _root(s: TSeries, n: int) -> TSeries:
    """The principal n-th root of a unit s with constant term 1 and a
    finite trunc, at the same trunc.

    At order k + 1, n*(k+1)*r[k+1] = sum_{i>=1} s[i]*(i - n*(k+1-i))*r[k+1-i];
    the known r are held as integers over the lcm of their denominators,
    rescaled when a new one widens it.
    """
    sden, trunc = s.den, s.trunc
    support = sorted((i, c) for i, c in s.num.items() if i)
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
    return TSeries._make(s.var, {k: r for k, r in enumerate(rnum) if r}, rden, trunc)


def reparametrize(s: TSeries, rho: TSeries) -> TSeries:
    """Composition s(rho(u)) for a parameter change rho of order exactly 1:
    the polynomial sum c_e * y**e on the branch (u, rho(u))."""
    _check_instance(s, TSeries, "series")
    _check_instance(rho, TSeries, "series")
    if rho.order() != 1:
        raise InvalidParameterChange("parameter change must have order exactly 1")
    poly = BivarPoly._make({e: {0: c} for e, c in s.num.items()}, s.den)
    return _cut(substitute(poly, 1, rho), s.trunc)


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
    return tuple(_solve(targets, w))


def _solve(targets, w: TSeries) -> list:
    """`solve_composition` unchecked: the Y_i, each at min(target trunc,
    w trunc), with w**k read from `_powers` below the largest.  The residual
    of each target is kept as integers over one denominator, and each
    coefficient of Y_i as a reduced pair, put over their lcm at the end."""
    bounds = [min(target.trunc, w.trunc) for target in targets]
    bound = max(bounds, default=0)
    # residual i is rnums[i] / rdens[i]; w**k is wpow / pden
    cuts = [_cut(target, tb) for target, tb in zip(targets, bounds)]
    rnums, rdens = [dict(cut.num) for cut in cuts], [cut.den for cut in cuts]
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
    solved = []
    for target, out, tb in zip(targets, outs, bounds):
        # pairwise: math.lcm(*qs) builds a tuple per call, and freed tuples
        # pile up on the interpreter's free lists
        den = reduce(math.lcm, (q for _, q in out.values()), 1)
        num = {k: p * (den // q) for k, (p, q) in out.items()}
        solved.append(TSeries._make(target.var, num, den, tb))
    return solved


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

    The coefficient of x**i * y**j is rows[j][i] / den; zero coefficients
    are never stored and the y-degree is finite by construction.
    """

    __slots__ = ("rows", "den", "_terms")

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms is not None:
            if not isinstance(terms, dict):
                raise InvalidArgument(f"polynomial terms {terms!r} are not a dict")
            for key, c in terms.items():
                if not _is_monomial(key):
                    raise InvalidArgument(_MONOMIAL.format(key))
                c = ratio(c)
                if c:
                    clean[(int(key[0]), int(key[1]))] = c
        num, self.den = _common(clean)
        self.rows = {}
        for (i, j), c in num.items():
            self.rows.setdefault(j, {})[i] = c
        self._terms = MappingProxyType(clean)

    @classmethod
    def _make(cls, rows: dict, den: int) -> "BivarPoly":
        """A kernel output, unchecked but for its form: integer rows
        j -> {i: c} over den > 0, copied into lowest terms with zero entries
        and empty rows dropped."""
        rows = {j: {i: c for i, c in row.items() if c} for j, row in rows.items()}
        rows = {j: row for j, row in rows.items() if row}
        g = math.gcd(den, *(c for row in rows.values() for c in row.values()))
        if g != 1:
            rows = {j: {i: c // g for i, c in row.items()} for j, row in rows.items()}
            den //= g
        p = object.__new__(cls)
        p.rows = rows
        p.den = den
        p._terms = None
        return p

    def __reduce__(self):
        return BivarPoly._make, (self.rows, self.den)

    @property
    def terms(self) -> MappingProxyType:
        """(i, j) -> Fraction, read-only, built on first access."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(
                {(i, j): Fraction(c, den) for j, row in self.rows.items() for i, c in row.items()}
            )
        return self._terms

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def one(cls) -> "BivarPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c=1) -> "BivarPoly":
        # checked before they are a key: a list is not hashable
        if not _is_monomial((i, j)):
            raise InvalidArgument(_MONOMIAL.format((i, j)))
        return cls({(i, j): ratio(c)})

    @classmethod
    def from_pairs(cls, pairs) -> "BivarPoly":
        return cls(_accumulate(pairs, _is_monomial, _MONOMIAL))

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def coeff(self, i: int, j: int) -> Fraction:
        if not (_is_natural(i) and _is_natural(j)):
            raise InvalidArgument(_MONOMIAL.format((i, j)))
        return Fraction(self.rows.get(j, {}).get(i, 0), self.den)

    def deg_y(self) -> int:
        return max(self.rows, default=-1)

    def is_monic_in_y(self) -> bool:
        d = self.deg_y()
        return d >= 0 and self.rows[d] == {0: self.den}

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.den == other.den and self.rows == other.rows

    def __hash__(self):
        return hash((self.den, tuple(sorted((j, tuple(sorted(row.items())))
                                            for j, row in self.rows.items()))))

    def __repr__(self) -> str:
        return f"BivarPoly({self})"

    def __str__(self) -> str:
        terms = self.terms
        return _render(
            ("*".join(filter(None, (_mono("x", i), _mono("y", j)))), terms[(i, j)])
            for i, j in sorted(terms, key=lambda ij: (-ij[1], ij[0]))
        )

    # -- arithmetic ------------------------------------------------------------

    def _combine(self, other: "BivarPoly", sign: int) -> "BivarPoly":
        """self + sign * other over the lcm of the two denominators."""
        _check_instance(other, BivarPoly, "polynomial")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        acc = {j: {i: c * a for i, c in row.items()} for j, row in self.rows.items()}
        for j, row in other.rows.items():
            _addmul(acc.setdefault(j, {}), row, b)
        return BivarPoly._make(acc, den)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly._make(
            {j: {i: -c for i, c in row.items()} for j, row in self.rows.items()}, self.den
        )

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        _check_instance(other, BivarPoly, "polynomial")
        acc: dict = {}
        for j1, row1 in self.rows.items():
            for j2, row2 in other.rows.items():
                _convolve(row1, row2, EXACT, acc.setdefault(j1 + j2, {}))
        return BivarPoly._make(acc, self.den * other.den)

    def scale(self, value) -> "BivarPoly":
        c = ratio(value)
        rows = {j: {i: v * c.numerator for i, v in row.items()} for j, row in self.rows.items()}
        return BivarPoly._make(rows, self.den * c.denominator)

    def __pow__(self, k: int) -> "BivarPoly":
        return _power(self, k, BivarPoly.one)

    def swap_xy(self) -> "BivarPoly":
        rows: dict = {}
        for j, row in self.rows.items():
            for i, c in row.items():
                rows.setdefault(i, {})[j] = c
        return BivarPoly._make(rows, self.den)

    def divmod_monic_y(self, divisor: "BivarPoly"):
        """Euclidean division in y by a divisor monic in y; exact in Q[x][y].
        From the top down, row k of what remains is row k - d of the
        quotient, and it times the divisor's lower rows comes off below.
        What remains is held over one denominator, which grows by the
        divisor's per row taken off; each quotient row is put over the last
        at the end."""
        _check_instance(divisor, BivarPoly, "divisor")
        d = divisor.deg_y()
        if d < 1 or not divisor.is_monic_in_y():
            raise NotMonic("divisor must be monic in y with positive y-degree")
        # the divisor's top row is 1, so its den is that of its lower rows
        lower = [(j, row) for j, row in divisor.rows.items() if j < d]
        lden = divisor.den
        rows = {j: dict(row) for j, row in self.rows.items()}
        den = self.den
        quotient = {}  # row k - d: (numerators, their den)
        for k in range(max(rows, default=-1), d - 1, -1):
            top = rows.pop(k, None)
            if not top:
                continue
            quotient[k - d] = top, den
            if lden != 1:
                rows = {j: {i: c * lden for i, c in row.items()} for j, row in rows.items()}
                den *= lden
            for i1, c1 in top.items():
                for j2, row2 in lower:
                    _addmul(rows.setdefault(k - d + j2, {}), row2, -c1, i1)
        quotient = {j: {i: c * (den // qden) for i, c in top.items()}
                    for j, (top, qden) in quotient.items()}
        return BivarPoly._make(quotient, den), BivarPoly._make(rows, den)

    def divexact(self, divisor: "BivarPoly") -> "BivarPoly":
        """Exact division (the divisor is known to divide self)."""
        if divisor.is_zero:
            raise CrossCheckFailed("polynomial division by zero")
        if divisor == BivarPoly.one():
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
    Horner pass in y combines the rows on integers, y**g from `_powers`, the
    accumulator over the product of their denominators and every row over
    poly's one den, which divides the sum at the end.
    The truncation is the ring operations': acc * y**g is known below
    min(T_acc + ord y**g, T_g + ord acc), each order read after cancellation.
    """
    if not _is_natural(n):
        raise InvalidArgument(f"x-exponent n must be a non-negative integer, got {n!r}")
    _check_instance(poly, BivarPoly, "polynomial")
    _check_instance(y, TSeries, "series")
    rows: dict = {}
    for j, xrow in poly.rows.items():
        rows[j] = row = {}
        for i, c in xrow.items():
            row[n * i] = row.get(n * i, 0) + c  # a sum only at n = 0
    if not rows:
        return TSeries.zero(y.var)
    ydegs = sorted(rows, reverse=True)
    steps = [(prev - j, rows[j]) for prev, j in zip(ydegs, ydegs[1:])]
    steps.append((ydegs[-1], None))
    powers = list(itertools.islice(_powers(y), max(g for g, _ in steps) + 1))
    acc, den = rows[ydegs[0]], 1
    trunc = EXACT
    for g, row in steps:
        if g:
            pnum, pden, ptrunc = powers[g]
            order = min((e for e, c in acc.items() if c), default=trunc)
            trunc = min(trunc + g * y._eff_order(), ptrunc + order)
            acc = _convolve(acc, pnum, trunc)
            den *= pden
        if row:
            _addmul(acc, row, den, 0, trunc)
    num = {e: c for e, c in acc.items() if c}
    return TSeries._make(y.var, num, den * poly.den, trunc)


def _at_two_power(poly: BivarPoly, n: int, y: TSeries) -> tuple[int, int]:
    """(v, k) with v = G(2**k), for an exact y = Num(t) / den, poly of
    y-degree d with integer rows F_j and n >= 0 unchecked, and
    G(t) = sum_j F_j(t**n) * Num(t)**j * den**(d - j)
    = den**d * poly.den * poly(t**n, y(t)) in Z[t]: whether poly vanishes on
    the branch (t**n, y), and at which t-order, by one evaluation.

    Proof (Kronecker substitution).  The l1-norm of a product is at most the
    product of the norms, so every coefficient c of G has
    |c| <= beta = sum_j ||F_j||_1 * ||Num||_1**j * den**(d - j), and
    k = beta.bit_length() + 1 gives |c| < 2**(k - 1).  Digits in base 2**k
    with |digit| < 2**(k - 1) are unique, so G = 0 exactly when v = 0.
    Otherwise, with e = ord_t G, v = 2**(k*e) * (G_e + 2**k * w) for an
    integer w, and v_2(G_e) <= k - 2 because 0 < |G_e| < 2**(k - 1); so
    v_2(v) = k*e + v_2(G_e) and e = v_2(v) // k.  Each F_j(2**(k*n)) and
    Num(2**k) is packed by shifts, and one Horner pass in y runs on Python
    ints; no digit of v is ever unpacked.
    """
    rows, den = poly.rows, y.den
    d = max(rows, default=0)
    norm = sum(map(abs, y.num.values()))
    beta, scale = 0, 1
    for j in range(d, -1, -1):
        beta *= norm
        if j in rows:
            beta += sum(map(abs, rows[j].values())) * scale
        scale *= den
    k = beta.bit_length() + 1
    point = sum(c << (k * e) for e, c in y.num.items())
    shift = k * n
    v, scale = 0, 1
    for j in range(d, -1, -1):
        v *= point
        if j in rows:
            v += sum(c << (shift * i) for i, c in rows[j].items()) * scale
        scale *= den
    return v, k

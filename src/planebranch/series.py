"""Exact truncated power series and bivariate polynomials over Q.

All coefficients are `fractions.Fraction`; nothing is ever rounded.  A
`TSeries` knows its variable tag, a finite map exponent -> coefficient and a
truncation bound `trunc`: coefficients at exponents >= trunc are unknown and
no operation ever reports information there.  Exactly known polynomials
(user input, implicit equations) carry the infinite truncation `EXACT`, in
which case the term map is the whole series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstantTermNotOne,
    CrossCheckFailed,
    InvalidParameterChange,
    NotAUnit,
    NotMonic,
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
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Order:
    """Order of a series: the smallest nonzero exponent, when certified.

    `known(k)` means the coefficient at k is nonzero and everything below
    vanishes; `at_least(T)` means the series vanishes up to the truncation
    bound T, so the order is undetermined (or the series is zero when T is
    infinite).
    """

    value: int | float
    known: bool

    @staticmethod
    def known_at(k: int) -> "Order":
        return Order(k, True)

    @staticmethod
    def at_least(bound) -> "Order":
        return Order(bound, False)

    @property
    def is_zero_series(self) -> bool:
        return not self.known and self.value == EXACT


class TSeries:
    """Truncated univariate power series with exact rational coefficients."""

    __slots__ = ("var", "terms", "trunc")

    def __init__(self, var: str, terms: dict, trunc):
        if trunc != EXACT:
            if not isinstance(trunc, int) or trunc < 1:
                raise ValueError(f"trunc must be a positive integer, got {trunc!r}")
        clean = {}
        for e, c in terms.items():
            if e < 0 or e != int(e):
                raise ValueError(f"exponent {e!r} is not a non-negative integer")
            c = ratio(c)
            if c and e < trunc:
                clean[int(e)] = c
        self.var = var
        self.terms = clean
        self.trunc = trunc

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
        acc: dict = {}
        for e, c in pairs:
            acc[e] = acc.get(e, _ZERO) + ratio(c)
        return cls(var, acc, trunc)

    # -- inspection ----------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.trunc == EXACT

    def order(self) -> Order:
        if self.terms:
            return Order.known_at(min(self.terms))
        return Order.at_least(self.trunc)

    def known_order(self) -> int:
        """Order as an int; the caller guarantees the series is nonzero."""
        o = self.order()
        if not o.known:
            raise NotAUnit(f"series is zero up to its truncation {self.trunc}")
        return o.value

    def _eff_order(self):
        """Lower bound valid for every term, known or unknown."""
        return min(self.terms) if self.terms else self.trunc

    def coeff(self, exponent: int) -> Fraction:
        if exponent >= self.trunc:
            raise ValueError(
                f"coefficient at {exponent} is beyond the truncation {self.trunc}"
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
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e in sorted(self.terms):
                c = self.terms[e]
                mono = "1" if e == 0 else (self.var if e == 1 else f"{self.var}^{e}")
                if e == 0:
                    txt = str(c)
                elif c == 1:
                    txt = mono
                elif c == -1:
                    txt = f"-{mono}"
                else:
                    txt = f"{c}*{mono}"
                parts.append(txt)
            body = " + ".join(parts).replace("+ -", "- ")
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
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, _ZERO) + c
        return TSeries(self.var, acc, trunc)

    def __neg__(self) -> "TSeries":
        return TSeries(self.var, {e: -c for e, c in self.terms.items()}, self.trunc)

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
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e < trunc:
                    acc[e] = acc.get(e, _ZERO) + c1 * c2
        return TSeries(self.var, acc, trunc)

    def scale(self, value) -> "TSeries":
        c = ratio(value)
        if not c:
            return TSeries.zero(self.var, self.trunc)
        return TSeries(self.var, {e: c * v for e, v in self.terms.items()}, self.trunc)

    def shift(self, offset: int) -> "TSeries":
        """Multiply by var**offset (offset may be negative if all terms allow)."""
        if offset < 0 and any(e + offset < 0 for e in self.terms):
            raise ValueError("shift would create negative exponents")
        return TSeries(
            self.var,
            {e + offset: c for e, c in self.terms.items()},
            self.trunc + offset if self.trunc != EXACT else EXACT,
        )

    def __pow__(self, k: int) -> "TSeries":
        if k < 0 or k != int(k):
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return TSeries.constant(self.var, 1)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def truncated(self, bound) -> "TSeries":
        if bound >= self.trunc:
            return self
        return TSeries(self.var, self.terms, bound)


def invert_unit(s: TSeries) -> TSeries:
    """Multiplicative inverse of a series of order 0, up to its truncation."""
    o = s.order()
    if not o.known or o.value != 0:
        raise NotAUnit("inversion requires a series of order exactly 0")
    c0 = s.terms[0]
    if len(s.terms) == 1:
        return TSeries.constant(s.var, 1 / c0, s.trunc)
    if s.trunc == EXACT:
        raise ValueError("inverse of a non-constant series is infinite; truncate first")
    inv = {0: 1 / c0}
    for k in range(1, s.trunc):
        acc = _ZERO
        for i, c in s.terms.items():
            if 1 <= i <= k:
                acc += c * inv.get(k - i, _ZERO)
        if acc:
            inv[k] = -acc / c0
    return TSeries(s.var, inv, s.trunc)


def nth_root_unit(s: TSeries, n: int) -> TSeries:
    """Principal n-th root of a series with constant term exactly 1.

    Solves n * s * r' = s' * r term by term, so the whole computation stays
    in Q; the result has constant term 1 and r**n = s below the truncation.
    """
    if n < 1:
        raise ValueError("root index must be a positive integer")
    if s.terms.get(0, _ZERO) != 1:
        raise ConstantTermNotOne("n-th root requires constant term exactly 1")
    if len(s.terms) == 1:
        return TSeries.constant(s.var, 1, s.trunc)
    if s.trunc == EXACT:
        raise ValueError("root of a non-trivial unit is infinite; truncate first")
    if n == 1:
        return s
    root = {0: _ONE}
    get_s = s.terms.get
    for k in range(0, s.trunc - 1):
        acc = _ZERO
        for i in range(0, k + 1):
            si1 = get_s(i + 1)
            if si1:
                acc += (i + 1) * si1 * root.get(k - i, _ZERO)
        for i in range(1, k + 1):
            si = get_s(i)
            if si:
                acc -= n * si * (k - i + 1) * root.get(k - i + 1, _ZERO)
        if acc:
            root[k + 1] = acc / (n * (k + 1))
    return TSeries(s.var, root, s.trunc)


def _horner(coeffs: dict, s: TSeries) -> TSeries:
    """Evaluate sum(coeffs[e] * s**e) by Horner steps over the sparse support."""
    if not coeffs:
        return TSeries.zero(s.var)
    exps = sorted(coeffs, reverse=True)
    acc = TSeries.constant(s.var, coeffs[exps[0]])
    prev = exps[0]
    for e in exps[1:]:
        acc = acc * (s ** (prev - e)) + TSeries.constant(s.var, coeffs[e])
        prev = e
    if prev:
        acc = acc * (s ** prev)
    return acc


def reparametrize(s: TSeries, rho: TSeries) -> TSeries:
    """Composition s(rho(u)) for a parameter change rho of order exactly 1."""
    o = rho.order()
    if not o.known or o.value != 1:
        raise InvalidParameterChange("parameter change must have order exactly 1")
    result = _horner(s.terms, rho)
    return result.truncated(min(result.trunc, s.trunc))


def solve_composition(target: TSeries, w: TSeries) -> TSeries:
    """The unique series Y with Y(w(t)) = target(t), for ord(w) = 1.

    Triangular solve: Y_k is read off the residual at order k and one power
    of w is accumulated per order.  Equivalent to composing with the
    compositional inverse of w, without constructing it.
    """
    o = w.order()
    if not o.known or o.value != 1:
        raise InvalidParameterChange("composition solve needs ord(w) = 1")
    bound = min(target.trunc, w.trunc)
    if bound == EXACT:
        raise ValueError("composition solve needs a finite truncation")
    lead = w.terms[1]
    wterms = [(e, c) for e, c in w.terms.items() if e < bound]
    residual = {e: c for e, c in target.terms.items() if e < bound}
    wpow = {0: _ONE}
    out: dict = {}
    lead_k = _ONE
    for k in range(0, bound):
        if not residual:
            break
        ck = residual.get(k)
        if ck:
            yk = ck / lead_k
            out[k] = yk
            for e, c in wpow.items():
                cur = residual.get(e, _ZERO) - yk * c
                if cur:
                    residual[e] = cur
                else:
                    residual.pop(e, None)
        nxt: dict = {}
        for e1, c1 in wpow.items():
            for e2, c2 in wterms:
                e = e1 + e2
                if e < bound:
                    acc = nxt.get(e)
                    nxt[e] = c1 * c2 if acc is None else acc + c1 * c2
        wpow = nxt
        lead_k *= lead
    return TSeries(target.var, out, bound)


def inverse_parameter(w: TSeries) -> TSeries:
    """Compositional inverse rho of w (ord 1): w(rho(u)) = u = rho(w(t))."""
    ident = TSeries.monomial(w.var, 1, 1, w.trunc)
    return solve_composition(ident, w)


def exact_root(q: Fraction, k: int):
    """The rational k-th root of q, or None if it does not exist in Q."""
    q = ratio(q)
    if k < 1:
        raise ValueError("root index must be positive")
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
    """Exact integer k-th root of a >= 0, or None."""
    if a in (0, 1):
        return a
    r = round(a ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** k == a:
            return cand
    # float guess can be off for large inputs; fall back to bisection
    lo, hi = 0, 1 << ((a.bit_length() + k - 1) // k + 1)
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
        if terms:
            for (i, j), c in terms.items():
                c = ratio(c)
                if c:
                    if i < 0 or j < 0:
                        raise ValueError("monomial exponents must be non-negative")
                    clean[(int(i), int(j))] = c
        self.terms = clean

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
        acc: dict = {}
        for (i, j), c in pairs:
            key = (int(i), int(j))
            acc[key] = acc.get(key, _ZERO) + ratio(c)
        return cls(acc)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def by_y_degree(self) -> dict:
        rows: dict = {}
        for (i, j), c in self.terms.items():
            rows.setdefault(j, {})[i] = c
        return rows

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
        if not self.terms:
            return "0"
        def mono(i, j):
            parts = []
            if i:
                parts.append("x" if i == 1 else f"x^{i}")
            if j:
                parts.append("y" if j == 1 else f"y^{j}")
            return "*".join(parts)
        parts = []
        for (i, j) in sorted(self.terms, key=lambda ij: (-ij[1], ij[0])):
            c = self.terms[(i, j)]
            m = mono(i, j)
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(m)
            elif c == -1:
                parts.append(f"-{m}")
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, _ZERO) + c
        return BivarPoly(acc)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        acc: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                acc[k] = acc.get(k, _ZERO) + c1 * c2
        return BivarPoly(acc)

    def scale(self, value) -> "BivarPoly":
        c = ratio(value)
        if not c:
            return BivarPoly()
        return BivarPoly({k: c * v for k, v in self.terms.items()})

    def __pow__(self, k: int) -> "BivarPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = BivarPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def swap_xy(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for (i, j), c in self.terms.items()})

    def divmod_monic_y(self, divisor: "BivarPoly"):
        """Euclidean division in y by a divisor monic in y; exact in Q[x][y]."""
        d = divisor.deg_y()
        if d < 1 or not divisor.is_monic_in_y():
            raise NotMonic("divisor must be monic in y with positive y-degree")
        quotient = BivarPoly()
        rem = self
        while not rem.is_zero and rem.deg_y() >= d:
            k = rem.deg_y()
            lead = BivarPoly(
                {(i, k - d): c for (i, j), c in rem.terms.items() if j == k}
            )
            quotient = quotient + lead
            rem = rem - lead * divisor
        return quotient, rem

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


def substitute(poly: BivarPoly, xs: TSeries, ys: TSeries) -> TSeries:
    """Evaluate a bivariate polynomial at a pair of series (ring homomorphism).

    Performed with Horner steps in y whose coefficients are Horner
    evaluations in x, so truncation bounds propagate through the ring
    operations only.
    """
    xs._check_tag(ys)
    if not poly.terms:
        return TSeries.zero(xs.var)
    rows = poly.by_y_degree()
    ydegs = sorted(rows, reverse=True)
    acc = _horner(rows[ydegs[0]], xs)
    prev = ydegs[0]
    for j in ydegs[1:]:
        acc = acc * (ys ** (prev - j)) + _horner(rows[j], xs)
        prev = j
    if prev:
        acc = acc * (ys ** prev)
    return acc

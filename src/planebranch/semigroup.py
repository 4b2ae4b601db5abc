"""Characteristic sequence, semigroup of values, conductor and membership.

The characteristic exponents of a primitive transversal parametrization
determine the gcd chain, the quotient sequence, the semigroup generators and
the conductor; membership of any integer is decided through its unique
standard representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    CrossCheckFailed,
    InvalidArgument,
    NotPrimitive,
    NotSingular,
    NotTransversal,
    PrecisionExhausted,
)
from .series import _is_int


@dataclass(frozen=True)
class CharData:
    """Numerical data of an equisingularity class.

    char_exponents  -- (beta_0, ..., beta_g), beta_0 = multiplicity
    gcd_sequence    -- (e_0, ..., e_g) with e_j = gcd(e_{j-1}, beta_j), e_g = 1
    quotients       -- (n_1, ..., n_g) with n_i = e_{i-1} / e_i
    generators      -- (v_0, ..., v_g) generating the semigroup of values
    conductor       -- least element from which all integers lie in the semigroup
    genus           -- g
    """

    char_exponents: tuple[int, ...]
    gcd_sequence: tuple[int, ...]
    quotients: tuple[int, ...]
    generators: tuple[int, ...]
    conductor: int
    genus: int

    @classmethod
    def from_char_exponents(cls, beta) -> "CharData":
        """The data of the class K(beta).  Refused in order, InvalidArgument
        unless named: a beta that is not a sequence; fewer than two exponents
        (NotSingular); an exponent that is not an int, a bool included; the
        class's own refusals; last, exponents that do not increase."""
        try:
            beta = tuple(beta)
        except TypeError:
            raise InvalidArgument(f"characteristic exponents {beta!r}: not a sequence") from None
        if len(beta) < 2:
            raise NotSingular("a singular branch needs at least two characteristic exponents")
        if not all(map(_is_int, beta)):
            raise InvalidArgument(f"characteristic exponents {beta!r} are not all integers")
        n = beta[0]
        if n < 2:
            raise NotSingular("multiplicity must be at least 2")
        if beta[1] <= beta[0]:
            raise NotTransversal("first characteristic exponent must exceed the multiplicity")
        e = [n]
        for b in beta[1:]:
            if b % e[-1] == 0:
                raise InvalidArgument(f"{b} is divisible by the running gcd {e[-1]}")
            e.append(gcd(e[-1], b))
        if e[-1] != 1:
            raise NotPrimitive(f"characteristic exponents {beta} have gcd {e[-1]} > 1")
        if any(b <= a for a, b in zip(beta[1:], beta[2:])):
            raise InvalidArgument(f"characteristic exponents {beta} do not increase")
        quots = tuple(e[i - 1] // e[i] for i in range(1, len(e)))
        v = [n, beta[1]]
        for j in range(2, len(beta)):
            v.append(quots[j - 2] * v[j - 1] + beta[j] - beta[j - 1])
        conductor = sum((quots[i] - 1) * v[i + 1] for i in range(len(quots))) - (n - 1)
        return cls(beta, tuple(e), quots, tuple(v), conductor, len(beta) - 1)

    @property
    def mult(self) -> int:
        """Multiplicity of the branch (= beta_0 = v_0)."""
        return self.char_exponents[0]

    @property
    def reduced_mult(self) -> int:
        """n_1 = mult / e_1, the multiplicity of the associated reduced class."""
        return self.quotients[0]

    @property
    def reduced_first(self) -> int:
        """m_1 = beta_1 / e_1."""
        return self.char_exponents[1] // self.gcd_sequence[1]

    def __str__(self) -> str:
        gens = ", ".join(str(v) for v in self.generators)
        return f"K{self.char_exponents} with semigroup <{gens}>, conductor {self.conductor}"


@dataclass(frozen=True)
class StandardRep:
    """Unique writing z = s0 * v_0 + sum(s_i * v_i) with 0 <= s_i < n_i."""

    s0: int
    coords: tuple[int, ...]

    def value(self, cd: CharData) -> int:
        v = cd.generators
        return self.s0 * v[0] + sum(s * v[i + 1] for i, s in enumerate(self.coords))


def char_sequence(phi) -> CharData:
    """Characteristic data of a parametrization (t**n, y(t)).

    Requires a primitive, transversal branch whose y-series is known at
    least up to its last characteristic exponent; raises PrecisionExhausted
    when the truncation is reached before the gcd chain hits 1 on an
    inexact series, NotPrimitive when an exact series genuinely shares a
    divisor with n.
    """
    return CharData.from_char_exponents(_char_exponents(phi))


def _char_exponents(phi) -> list:
    """The characteristic exponents of `char_sequence`, with its refusals."""
    n, y = phi.n, phi.y
    order = y.order()
    if order is None:
        if y.exact:
            raise NotTransversal("y-component is identically zero")
        raise PrecisionExhausted(
            f"y-component vanishes up to truncation {y.trunc}; cannot classify"
        )
    if n == 1:
        raise NotSingular("multiplicity 1: smooth branch, no characteristic sequence")
    if order <= n:
        raise NotTransversal(
            f"ord(y) = {order} must exceed n = {n}; swap the coordinates first"
        )
    exps = sorted(y.num)
    beta = [n]
    e = n
    for i in exps:
        if e == 1:
            break
        if i % e:
            beta.append(i)
            e = gcd(e, i)
    if e != 1:
        if y.exact:
            raise NotPrimitive(
                f"gcd of {n} and the exponents {exps} is {gcd(n, *exps) if exps else n}"
            )
        raise PrecisionExhausted(
            f"gcd chain stuck at {e} with exponents known only below {y.trunc}",
            needed=None,
        )
    return beta


def rep_nm(z: int, n: int, m: int) -> tuple[int, int]:
    """(a, b) with z = a*n + b*m and 0 <= b < n, for coprime n and m; z lies
    in <n, m> exactly when a >= 0."""
    b = (z * pow(m, -1, n)) % n
    return (z - b * m) // n, b


def standard_rep(z: int, cd: CharData) -> StandardRep:
    """Unique representation z = s0*v_0 + sum s_i*v_i with 0 <= s_i < n_i.

    Computed greedily from the top generator down: at level i the remainder
    is divisible by e_i and s_i is a residue modulo n_i.  A z that is not
    an int, a bool included, is refused with InvalidArgument.
    """
    if not _is_int(z):
        raise InvalidArgument(f"semigroup element {z!r} is not an integer")
    v = cd.generators
    e = cd.gcd_sequence
    quots = cd.quotients
    rem = z
    coords = [0] * cd.genus
    for i in range(cd.genus, 0, -1):
        ni = quots[i - 1]
        wi = v[i] // e[i]
        ri = rem // e[i]
        if rem % e[i]:
            raise CrossCheckFailed("remainder not divisible by the gcd level")
        si = rep_nm(ri, ni, wi)[1]
        coords[i - 1] = si
        rem -= si * v[i]
    if rem % v[0]:
        raise CrossCheckFailed("standard representation failed to close")
    return StandardRep(rem // v[0], tuple(coords))


def contains(z: int, cd: CharData) -> bool:
    """Membership of z in the semigroup of values (s0 >= 0 criterion); a z
    that is not an int is refused as standard_rep refuses it."""
    return standard_rep(z, cd).s0 >= 0

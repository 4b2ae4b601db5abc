"""Command-line front end.

Subcommands: invariants, zariski, pair {intersect,contact,infer}, expand,
convert {implicitize,puiseux}.  Branch inputs are JSON files (or built-in
fixtures via --fixture); results print as text or, with --json, as a single
JSON document with every rational serialized as a string.

Exit codes: 0 ok, 2 parse error, 3 violated precondition, 4 precision
exhausted, 5 inference hypothesis not met, 6 internal cross-check failure
or any other unexpected exception.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .branchio import (
    load_branch,
    serialize_branch,
    serialize_parametrization,
    serialize_polynomial,
)
from .errors import (
    BranchesEqual,
    BranchFileError,
    CrossCheckFailed,
    HypothesisNotMet,
    NotTransversal,
    PlaneBranchError,
    PrecisionExhausted,
)
from .expansion import zariski_decomposition
from .fixtures import FIXTURES, fixture_names, load_fixture
from .geometry import (
    Parametrization,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_poly_param,
    puiseux_parametrization,
    swap_parametrization,
)
from .semigroup import char_sequence
from .series import BivarPoly
from .zariski import infer_zariski, zariski_invariant

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_PRECISION = 4
EXIT_HYPOTHESIS = 5
EXIT_INTERNAL = 6


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, BranchFileError):
        return EXIT_PARSE
    if isinstance(exc, PrecisionExhausted):
        return EXIT_PRECISION
    if isinstance(exc, HypothesisNotMet):
        return EXIT_HYPOTHESIS
    if isinstance(exc, CrossCheckFailed):
        return EXIT_INTERNAL
    return EXIT_PRECONDITION


class _Session:
    """Input resolution and shared output state for one command."""

    def __init__(self, args):
        self.args = args
        self.inputs: list = []
        self.checks: dict = {}
        self.precision_used: int | float | None = None
        self._params: dict = {}

    def note_precision(self, trunc) -> None:
        if trunc is None:
            return
        if trunc == float("inf"):
            if self.precision_used is None:
                self.precision_used = "exact"
            return
        if self.precision_used in (None, "exact"):
            self.precision_used = trunc
        else:
            self.precision_used = max(self.precision_used, trunc)

    def resolve(self, count: int):
        """Branch inputs from positional paths and --fixture names, in order."""
        sources = list(self.args.branches or [])
        for name in self.args.fixture or []:
            sources.append(f"fixture:{name}")
        if len(sources) != count:
            raise BranchFileError(
                f"expected {count} branch input(s) "
                f"(files or --fixture), got {len(sources)}"
            )
        out = []
        for src in sources:
            if src.startswith("fixture:"):
                name = src[len("fixture:"):]
                if name not in FIXTURES:
                    raise BranchFileError(
                        f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
                    )
                branch, label = load_fixture(name)
            else:
                branch, label = load_branch(src)
            if self.args.swap_xy:
                branch = _swap(branch, self.args.precision)
            self.inputs.append(serialize_branch(branch, label))
            out.append(branch)
        return out

    def to_param(self, branch) -> Parametrization:
        if isinstance(branch, Parametrization):
            self.note_precision(branch.trunc)
            return branch
        key = id(branch)
        if key not in self._params:
            self._params[key] = puiseux_parametrization(branch, trunc=self.args.precision)
        phi = self._params[key]
        self.note_precision(phi.trunc)
        return phi

    def to_poly(self, branch) -> BivarPoly:
        if isinstance(branch, BivarPoly):
            return branch
        return implicitize(branch)

    def emit(self, command: str, results: dict, text: str) -> None:
        if self.args.json:
            doc = {
                "command": command,
                "inputs": self.inputs,
                "results": results,
                "checks": self.checks,
                "precision_used": self.precision_used or "exact",
            }
            print(json.dumps(doc, indent=2))
        else:
            print(text)


def _swap(branch, precision):
    if isinstance(branch, BivarPoly):
        return branch.swap_xy()
    return swap_parametrization(branch, trunc=precision)


def _mult_of(branch, session) -> int:
    if isinstance(branch, Parametrization):
        return branch.n
    # deg_y equals the multiplicity only in Weierstrass position; the
    # parametrization is authoritative
    return session.to_param(branch).n


def _pair_intersection(session, a, b) -> int:
    both_param = isinstance(a, Parametrization) and isinstance(b, Parametrization)
    if both_param:
        return intersection(a, b)
    if isinstance(a, BivarPoly) and isinstance(b, BivarPoly):
        return intersection_poly_param(a, session.to_param(b))
    poly, param = (a, b) if isinstance(a, BivarPoly) else (b, a)
    return intersection_poly_param(poly, param)


def _fmt_rational(value) -> str:
    return str(Fraction(value))


# -- commands -----------------------------------------------------------------

def cmd_invariants(session) -> None:
    (branch,) = session.resolve(1)
    phi = session.to_param(branch)
    cd = char_sequence(phi)
    results = {
        "multiplicity": cd.mult,
        "char_exponents": list(cd.char_exponents),
        "gcd_sequence": list(cd.gcd_sequence),
        "quotients": list(cd.quotients),
        "generators": list(cd.generators),
        "conductor": cd.conductor,
        "genus": cd.genus,
    }
    lines = [
        f"class: K{cd.char_exponents}",
        f"multiplicity: {cd.mult}",
        f"characteristic exponents: {list(cd.char_exponents)}",
        f"gcd sequence: {list(cd.gcd_sequence)}",
        f"quotients: {list(cd.quotients)}",
        f"semigroup generators: {list(cd.generators)}",
        f"conductor: {cd.conductor}",
        f"genus: {cd.genus}",
    ]
    session.emit("invariants", results, "\n".join(lines))


def cmd_zariski(session) -> None:
    (branch,) = session.resolve(1)
    phi = session.to_param(branch)
    res = zariski_invariant(phi)
    session.checks["witness_in_family"] = True
    moves = [
        {
            "kind": rec.kind,
            "a": rec.a,
            "b": rec.b,
            "c": _fmt_rational(rec.c),
            "target_exponent": rec.target_exponent,
        }
        for rec in res.moves
    ]
    results = {
        "invariant": res.exponent if res.finite else "infinite",
        "coefficient": _fmt_rational(res.coefficient) if res.finite else None,
        "witness": serialize_parametrization(res.witness),
        "normal_form": serialize_parametrization(res.normal_form),
        "leading_scale": _fmt_rational(res.leading_scale),
        "moves": moves,
    }
    lines = [
        f"zariski invariant: {res.exponent if res.finite else 'infinite'}",
    ]
    if res.finite:
        lines.append(f"leading coefficient: {res.coefficient}")
    lines.append(f"witness: {res.witness}")
    lines.append(f"normal form: {res.normal_form}")
    if res.moves:
        lines.append("moves:")
        lines.extend(f"  {rec.describe()}" for rec in res.moves)
    session.emit("zariski", results, "\n".join(lines))


def cmd_pair(session) -> None:
    a, b = session.resolve(2)
    sub = session.args.pair_command
    if sub == "intersect":
        value = _pair_intersection(session, a, b)
        session.emit("pair intersect", {"intersection": value}, f"intersection: {value}")
        return
    if sub == "contact":
        phi_a = session.to_param(a)
        try:
            value = _pair_intersection(session, a, b)
        except BranchesEqual:
            session.emit("pair contact", {"contact": "infinite"}, "contact: infinite")
            return
        theta = contact_from_intersection(char_sequence(phi_a), value, _mult_of(b, session))
        session.checks["intersection"] = value
        session.emit("pair contact", {"contact": str(theta)}, f"contact: {theta}")
        return
    # infer
    phi_a = session.to_param(a)
    cd_a = char_sequence(phi_a)
    if session.args.known_lambda is not None:
        lam_a = session.args.known_lambda
    else:
        res_a = zariski_invariant(phi_a)
        if not res_a.finite:
            raise HypothesisNotMet(
                "first branch has infinite invariant; nothing to transfer"
            )
        lam_a = res_a.exponent
    value = _pair_intersection(session, a, b)
    inferred = infer_zariski(cd_a, lam_a, _mult_of(b, session), intersection_value=value)
    session.checks["intersection"] = value
    session.checks["known_invariant"] = lam_a
    session.emit(
        "pair infer",
        {"inferred_invariant": inferred},
        f"inferred invariant: {inferred} (from invariant {lam_a} and intersection {value})",
    )


def cmd_expand(session) -> None:
    fbranch, hbranch = session.resolve(2)
    f = session.to_poly(fbranch)
    h_phi = session.to_param(hbranch)
    phi_f = session.to_param(fbranch)
    cd_f = char_sequence(phi_f)
    if session.args.known_lambda is not None:
        lam = session.args.known_lambda
    else:
        res_f = zariski_invariant(phi_f)
        if not res_f.finite:
            raise HypothesisNotMet(
                "branch has infinite invariant; the decomposition needs a finite one"
            )
        lam = res_f.exponent
    dec = zariski_decomposition(f, h_phi, cd_f, lam)
    session.checks.update(dec.checks)
    results = {
        "invariant": lam,
        "h": serialize_polynomial(dec.h),
        "blocks": [serialize_polynomial(block) for block in dec.blocks],
        "c": _fmt_rational(dec.c),
        "p": dec.p,
        "q": dec.q,
        "tail": serialize_polynomial(dec.tail),
    }
    lines = [f"h = {dec.h}", f"invariant: {lam}"]
    for k, block in enumerate(dec.blocks):
        lines.append(f"A_{k} = {block}")
    lines.append(f"distinguished monomial: ({dec.c})*x^{dec.p}*y^{dec.q}")
    lines.append(f"tail: {dec.tail}")
    lines.append(
        "checks: "
        + ", ".join(f"{k} = {v}" for k, v in sorted(dec.checks.items()))
    )
    session.emit("expand", results, "\n".join(lines))


def cmd_convert(session) -> None:
    (branch,) = session.resolve(1)
    sub = session.args.convert_command
    if sub == "implicitize":
        phi = branch if isinstance(branch, Parametrization) else None
        if phi is None:
            raise BranchFileError("implicitize expects a parametrization input")
        poly = implicitize(phi)
        session.emit(
            "convert implicitize",
            {"branch": serialize_polynomial(poly)},
            str(poly),
        )
        return
    if not isinstance(branch, BivarPoly):
        raise BranchFileError("puiseux expects a polynomial input")
    phi = puiseux_parametrization(branch, trunc=session.args.precision)
    session.note_precision(phi.trunc)
    # vanishing check: the defining property of the output
    from .series import substitute

    value = substitute(branch, phi.x_series(), phi.y)
    if not value.is_zero_below_trunc():
        raise CrossCheckFailed("computed parametrization does not annihilate f")
    session.checks["vanishes_below"] = (
        "infinity" if value.exact else value.trunc
    )
    session.emit(
        "convert puiseux",
        {"branch": serialize_parametrization(phi)},
        f"{phi}",
    )


# -- argument parsing ------------------------------------------------------------

def _positive_int(text: str) -> int:
    """A working truncation: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(parser) -> None:
    parser.add_argument(
        "branches",
        nargs="*",
        metavar="BRANCH",
        help="branch description file(s) (JSON); use --fixture for built-ins",
    )
    parser.add_argument(
        "--fixture",
        action="append",
        metavar="NAME",
        help="use a built-in branch (repeatable; fills input slots in order)",
    )
    parser.add_argument(
        "--precision",
        type=_positive_int,
        default=None,
        metavar="T",
        help="working truncation for series computations (default: kernel-chosen)",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument(
        "--swap-xy",
        action="store_true",
        help="apply (x, y) -> (y, x) to every input before validation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planebranch",
        description=(
            "Exact invariants of plane branch singularities: characteristic "
            "data, semigroups, intersections, contact orders and the Zariski "
            "invariant."
        ),
        epilog="Built-in fixtures: " + ", ".join(fixture_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="characteristic and semigroup data")
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("zariski", help="Zariski invariant, witness and move log")
    _add_common(p)
    p.set_defaults(func=cmd_zariski)

    p = sub.add_parser("pair", help="two-branch quantities")
    p.add_argument(
        "pair_command",
        choices=("intersect", "contact", "infer"),
        metavar="{intersect,contact,infer}",
    )
    _add_common(p)
    p.add_argument(
        "--known-lambda",
        type=int,
        default=None,
        metavar="L",
        help="invariant of the first branch, if already known (infer only)",
    )
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("expand", help="decompose f along a witness branch")
    _add_common(p)
    p.add_argument(
        "--known-lambda",
        type=int,
        default=None,
        metavar="L",
        help="invariant of f, if already known",
    )
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("convert", help="switch branch representations")
    p.add_argument(
        "convert_command",
        choices=("implicitize", "puiseux"),
        metavar="{implicitize,puiseux}",
    )
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    session = _Session(args)
    try:
        args.func(session)
    except PlaneBranchError as exc:
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotTransversal):
            print(
                "hint: pass --swap-xy to exchange the coordinates first",
                file=sys.stderr,
            )
        return code
    except Exception as exc:
        # a defect, not a domain failure: report it without a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: invariants, zariski, pair {intersect,contact,infer}, expand,
convert {implicitize,puiseux}.  Branch inputs are JSON files (or built-in
fixtures via --fixture); results print as text or, with --json, as a single
JSON document with every rational serialized as a string.

Exit codes: 0 ok (also when the reader of standard output closes it
early), 2 parse error, 3 violated precondition, 4 precision exhausted,
5 inference hypothesis not met, 6 internal cross-check failure or any
other unexpected exception.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    NotAnInvariant,
    NotTransversal,
    PlaneBranchError,
)
from .expansion import zariski_decomposition
from .fixtures import fixture_names, load_fixture
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
from .series import EXACT, BivarPoly, substitute
from .zariski import _refuse_non_invariant, infer_zariski, zariski_invariant

EXIT_OK = 0


class _Session:
    """Input resolution and shared output state for one command."""

    def __init__(self, args):
        self.args = args
        self.inputs: list = []
        self.checks: dict = {}
        self.precision_used: int | None = None
        self._params: dict = {}

    def note_precision(self, trunc) -> None:
        """Keep the largest finite truncation noted."""
        if trunc != EXACT:
            self.precision_used = max(self.precision_used or 0, trunc)

    def resolve(self, count: int):
        """Branch inputs from positional paths, then --fixture names; the
        truncation of each parametrization among them is noted."""
        paths = self.args.branches or []
        names = self.args.fixture or []
        if len(paths) + len(names) != count:
            raise BranchFileError(
                f"expected {count} branch input(s) "
                f"(files or --fixture), got {len(paths) + len(names)}"
            )
        loaded = [load_branch(path) for path in paths]
        loaded += [load_fixture(name) for name in names]
        out = []
        for branch, label in loaded:
            if self.args.swap_xy:
                branch = (
                    branch.swap_xy()
                    if isinstance(branch, BivarPoly)
                    else swap_parametrization(branch, trunc=self.args.precision)
                )
            if isinstance(branch, Parametrization):
                self.note_precision(branch.trunc)
            self.inputs.append(serialize_branch(branch, label))
            out.append(branch)
        return out

    def to_param(self, branch) -> Parametrization:
        if isinstance(branch, BivarPoly):
            if id(branch) not in self._params:
                self._params[id(branch)] = puiseux_parametrization(
                    branch, trunc=self.args.precision
                )
            branch = self._params[id(branch)]
            self.note_precision(branch.trunc)
        return branch

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


def _pair_intersection(session, a, b) -> int:
    if isinstance(a, Parametrization) and isinstance(b, Parametrization):
        return intersection(a, b)
    poly, other = (a, b) if isinstance(a, BivarPoly) else (b, a)
    return intersection_poly_param(poly, session.to_param(other))


def _known_or_computed_lambda(session, phi: Parametrization, infinite: str) -> int:
    """The invariant of phi, computed; a --known-lambda must be possible in
    the class of phi and equal to it (NotAnInvariant).  An infinite one
    raises HypothesisNotMet with the command's message."""
    known = session.args.known_lambda
    if known is not None:
        _refuse_non_invariant(known, char_sequence(phi))
    res = zariski_invariant(phi)
    if known is not None and known != res.exponent:
        computed = res.exponent if res.finite else "infinite"
        raise NotAnInvariant(
            f"--known-lambda {known} differs from the computed invariant {computed}"
        )
    if not res.finite:
        raise HypothesisNotMet(infinite)
    return res.exponent


# -- commands -----------------------------------------------------------------

# JSON key, text label and CharData attribute of each invariant, in print order
_INVARIANTS = (
    ("multiplicity", "multiplicity", "mult"),
    ("char_exponents", "characteristic exponents", "char_exponents"),
    ("gcd_sequence", "gcd sequence", "gcd_sequence"),
    ("quotients", "quotients", "quotients"),
    ("generators", "semigroup generators", "generators"),
    ("conductor", "conductor", "conductor"),
    ("genus", "genus", "genus"),
)


def cmd_invariants(session) -> None:
    (branch,) = session.resolve(1)
    cd = char_sequence(session.to_param(branch))
    results = {}
    lines = [f"class: K{cd.char_exponents}"]
    for key, label, attr in _INVARIANTS:
        value = getattr(cd, attr)
        results[key] = list(value) if isinstance(value, tuple) else value
        lines.append(f"{label}: {results[key]}")
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
            "c": str(rec.c),
            "target_exponent": rec.target_exponent,
        }
        for rec in res.moves
    ]
    results = {
        "invariant": res.exponent if res.finite else "infinite",
        "coefficient": str(res.coefficient) if res.finite else None,
        "witness": serialize_parametrization(res.witness),
        "normal_form": serialize_parametrization(res.normal_form),
        "leading_scale": str(res.leading_scale),
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
    sub = session.args.pair_command
    if sub != "infer" and session.args.known_lambda is not None:
        raise BranchFileError(f"--known-lambda applies to pair infer only, not pair {sub}")
    a, b = session.resolve(2)
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
        theta = contact_from_intersection(char_sequence(phi_a), value, session.to_param(b).n)
        session.checks["intersection"] = value
        session.emit("pair contact", {"contact": str(theta)}, f"contact: {theta}")
        return
    # infer
    phi_a = session.to_param(a)
    cd_a = char_sequence(phi_a)
    lam_a = _known_or_computed_lambda(
        session, phi_a, "first branch has infinite invariant; nothing to transfer"
    )
    value = _pair_intersection(session, a, b)
    inferred = infer_zariski(cd_a, lam_a, session.to_param(b).n, intersection_value=value)
    session.checks["intersection"] = value
    session.checks["known_invariant"] = lam_a
    session.emit(
        "pair infer",
        {"inferred_invariant": inferred},
        f"inferred invariant: {inferred} (from invariant {lam_a} and intersection {value})",
    )


def cmd_expand(session) -> None:
    fbranch, hbranch = session.resolve(2)
    f = fbranch if isinstance(fbranch, BivarPoly) else implicitize(fbranch)
    h_phi = session.to_param(hbranch)
    phi_f = session.to_param(fbranch)
    cd_f = char_sequence(phi_f)
    lam = _known_or_computed_lambda(
        session, phi_f, "branch has infinite invariant; the decomposition needs a finite one"
    )
    dec = zariski_decomposition(f, h_phi, cd_f, lam)
    session.checks.update(dec.checks)
    results = {
        "invariant": lam,
        "h": serialize_polynomial(dec.h),
        "blocks": [serialize_polynomial(block) for block in dec.blocks],
        "c": str(dec.c),
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
        if not isinstance(branch, Parametrization):
            raise BranchFileError("implicitize expects a parametrization input")
        poly = implicitize(branch)
        session.emit("convert implicitize", {"branch": serialize_polynomial(poly)}, str(poly))
        return
    if not isinstance(branch, BivarPoly):
        raise BranchFileError("puiseux expects a polynomial input")
    phi = puiseux_parametrization(branch, trunc=session.args.precision)
    session.note_precision(phi.trunc)
    # vanishing check: the defining property of the output
    value = substitute(branch, phi.n, phi.y)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--fixture",
        action="append",
        metavar="NAME",
        help="use a built-in branch (repeatable; fills input slots in order)",
    )
    common.add_argument(
        "--precision",
        type=_positive_int,
        metavar="T",
        help="working truncation for series computations (default: kernel-chosen)",
    )
    common.add_argument("--json", action="store_true", help="emit one JSON document")
    common.add_argument(
        "--swap-xy",
        action="store_true",
        help="apply (x, y) -> (y, x) to every input before validation",
    )
    # name, handler, help, sub-command choices and --known-lambda help (or
    # None); built per call, so that a handler patched on the module is used
    commands = (
        ("invariants", cmd_invariants, "characteristic and semigroup data", (), None),
        ("zariski", cmd_zariski, "Zariski invariant, witness and move log", (), None),
        ("pair", cmd_pair, "two-branch quantities", ("intersect", "contact", "infer"),
         "invariant of the first branch, if already known (infer only); "
         "checked against the computed one"),
        ("expand", cmd_expand, "decompose f along a witness branch", (),
         "invariant of f, if already known; checked against the computed one"),
        ("convert", cmd_convert, "switch branch representations",
         ("implicitize", "puiseux"), None),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, choices, lambda_help in commands:
        p = sub.add_parser(name, help=help_text, parents=[common])
        if choices:
            p.add_argument(
                f"{name}_command", choices=choices, metavar="{" + ",".join(choices) + "}"
            )
        p.add_argument(
            "branches",
            nargs="*",
            metavar="BRANCH",
            help="branch description file(s) (JSON); use --fixture for built-ins",
        )
        if lambda_help:
            p.add_argument("--known-lambda", type=int, metavar="L", help=lambda_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse fills a sub-command choice and BRANCH in one pass, so a
    # branch file given after an option is left over
    args, extra = parser.parse_known_args(argv)
    if any(token.startswith("-") for token in extra):
        parser.error("unrecognized arguments: " + " ".join(extra))
    args.branches = (args.branches or []) + extra
    session = _Session(args)
    try:
        args.func(session)
        # a closed pipe shows up here rather than at the interpreter's exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of standard output stopped early (`| head`): not a
        # defect; what is still buffered goes to the null device on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except PlaneBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotTransversal):
            print(
                "hint: pass --swap-xy to exchange the coordinates first",
                file=sys.stderr,
            )
        return exc.exit_code
    except Exception as exc:
        # a defect, not a domain failure: report it without a traceback,
        # and exit as an internal cross-check failure does
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return CrossCheckFailed.exit_code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

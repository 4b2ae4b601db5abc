"""Outside-in tracing: wrap the library's public callables from the outside.

Each wrapped call records a span (label, start, end, parent span, op) in
memory.  The tracer's own bookkeeping after a call returns (scanning a
series result for its coefficient heights) is timed as the span's `held`
time and counted as covered by the span, so it is billed to no callable's
self time.  A callable imported into a sibling module by `from .series import
...` is a second reference to the same function, so every module of the
package is searched and each reference replaced; methods are replaced on
their class, which operators look up.  `restore` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
import time
from array import array

import planebranch

# (module, attribute path, label); the label is `<module>.<callable>`
TARGETS = (
    ("series", "TSeries.__mul__", "series.TSeries.mul"),
    ("series", "TSeries.__pow__", "series.TSeries.pow"),
    ("series", "nth_root_unit", "series.nth_root_unit"),
    ("series", "solve_composition", "series.solve_composition"),
    ("series", "inverse_parameter", "series.inverse_parameter"),
    ("series", "substitute", "series.substitute"),
    ("series", "BivarPoly.__mul__", "series.BivarPoly.mul"),
    ("series", "BivarPoly.divexact", "series.BivarPoly.divexact"),
    ("series", "BivarPoly.divmod_monic_y", "series.BivarPoly.divmod_monic_y"),
    ("geometry", "implicitize", "geometry.implicitize"),
    ("geometry", "bareiss_determinant", "geometry.bareiss_determinant"),
    ("geometry", "puiseux_parametrization", "geometry.puiseux_parametrization"),
    ("geometry", "intersection", "geometry.intersection"),
    ("geometry", "intersection_poly_param", "geometry.intersection_poly_param"),
    ("geometry", "contact", "geometry.contact"),
    ("semigroup", "char_sequence", "semigroup.char_sequence"),
    ("semigroup", "contains", "semigroup.contains"),
    ("zariski", "zariski_invariant", "zariski.zariski_invariant"),
    ("zariski", "genus1_reduce", "zariski.genus1_reduce"),
    ("zariski", "eliminate_term", "zariski.eliminate_term"),
    ("zariski", "apply_qmove", "zariski.apply_qmove"),
    ("zariski", "apply_pmove", "zariski.apply_pmove"),
    ("zariski", "is_in_b", "zariski.is_in_b"),
    ("expansion", "zariski_decomposition", "expansion.zariski_decomposition"),
    ("expansion", "h_adic_expansion", "expansion.h_adic_expansion"),
    ("branchio", "parse_branch", "branchio.parse_branch"),
    ("branchio", "serialize_branch", "branchio.serialize_branch"),
    ("cli", "main", "cli.main"),
)

MODULES = ("series", "semigroup", "geometry", "zariski", "expansion", "branchio", "cli")


def _coeff_bits(result) -> int:
    """Largest numerator or denominator bit length in a series-layer result."""
    if isinstance(result, tuple):
        return max((_coeff_bits(r) for r in result), default=0)
    terms = getattr(result, "terms", None)
    if not terms:
        return 0
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values())


class Tracer:
    """Spans at the package's module boundaries, aggregated on demand."""

    def __init__(self):
        self.labels = [label for _, _, label in TARGETS]
        self._patched: list = []
        # one span per wrapped call, in call order: label index and parent
        # span packed into `meta`, start and end times in seconds, and the
        # seconds of bookkeeping after the end
        self.meta = array("q")
        self.start = array("d")
        self.end = array("d")
        self.held = array("d")
        # index of the first span of each op
        self.op_starts = array("q")
        self._stack = [-1]
        self.max_coeff_bits = 0
        self.moves_logged = 0

    def begin_op(self) -> None:
        self.op_starts.append(len(self.start))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [
            importlib.import_module(f"planebranch.{info.name}")
            for info in pkgutil.iter_modules(planebranch.__path__)
        ] + [planebranch]
        for index, (mod_name, path, label) in enumerate(TARGETS):
            owner = sys.modules[f"planebranch.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, index, label)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, index: int, label: str):
        # the wrapper runs on every call of the hottest kernels, so it binds
        # everything it touches to locals
        stack, starts, ends, held = self._stack, self.start, self.end, self.held
        stack_append, stack_pop = stack.append, stack.pop
        meta_append, start_append, end_append, held_append = (
            self.meta.append, self.start.append, self.end.append, self.held.append
        )
        clock = time.perf_counter
        series = label.startswith("series.")
        logs_moves = label == "zariski.zariski_invariant"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            meta_append(index | (stack[-1] + 1) << 8)
            stack_append(span)
            end_append(0.0)
            held_append(0.0)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack_pop()
            if series:
                bits = _coeff_bits(result)
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
                held[span] = clock() - ends[span]
            elif logs_moves:
                self.moves_logged += len(result.moves)
            return result

        return traced

    # -- results -----------------------------------------------------------------------

    def totals(self) -> dict:
        """label -> [calls, self seconds], self time being span time minus
        the time covered by direct child spans and their held time."""
        count = len(self.start)
        child = [0.0] * count
        for span in range(count):
            parent = (self.meta[span] >> 8) - 1
            if parent >= 0:
                child[parent] += self.end[span] - self.start[span] + self.held[span]
        out = {label: [0, 0.0] for label in self.labels}
        for span in range(count):
            row = out[self.labels[self.meta[span] & 0xFF]]
            row[0] += 1
            row[1] += self.end[span] - self.start[span] - child[span]
        return out

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per callable, roll-ups per
        module, and the counters of the zariski layer and series heights."""
        totals = self.totals()
        out: dict = {}
        for label, (calls, self_s) in totals.items():
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.self_s"] = (self_s, "s")
        for module in MODULES:
            out[f"{module}.self_s"] = (
                sum(v[1] for k, v in totals.items() if k.startswith(module + ".")), "s"
            )
        elim = totals["zariski.eliminate_term"][0]
        applies = totals["zariski.apply_qmove"][0] + totals["zariski.apply_pmove"][0]
        out["series.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        out["zariski.moves_logged"] = (self.moves_logged, "count")
        out["zariski.moves_kept_ratio"] = (self.moves_logged / elim if elim else 0.0, "ratio")
        out["zariski.apply_per_eliminate"] = (applies / elim if elim else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """Spans as gzipped CSV: span, label, parent span, op, start, end
        and held time (s)."""
        op = -1
        firsts = list(self.op_starts) + [len(self.start)]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,label,parent,op,start_s,end_s,held_s\n")
            for span in range(len(self.start)):
                while span >= firsts[op + 1]:
                    op += 1
                meta = self.meta[span]
                handle.write(
                    f"{span},{self.labels[meta & 0xFF]},{(meta >> 8) - 1},{op},"
                    f"{self.start[span]:.9f},{self.end[span]:.9f},{self.held[span]:.9f}\n"
                )

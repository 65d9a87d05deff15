"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of every `qsection` module,
plus the class methods in `METHODS`, and rebinds each wrapper wherever the
original is bound: the defining module, every module that did
`from .x import y`, and the package namespace.  Layer names are module
names.

Every wrapped call updates per-name aggregates (calls, inclusive time of
the outermost call, self time).  Calls of the names in `HOT` are only
aggregated; every other call is also kept as a span (name, start, end,
parent span, job id) in memory and written out by `write_spans`.  Self
time is a call's duration minus the time its wrapped children took.

The scalar helpers in `SKIP` run millions of times per job and are not
wrapped; their time counts as the self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from functools import cached_property

MODULES = (
    "cli",
    "jsonio",
    "section_ring",
    "linalg",
    "p1",
    "exact_arith",
    "prime_elements",
    "semigroups",
    "elliptic",
    "divisors",
)

# (module, class, attribute) wrapped in addition to module-level functions.
METHODS = (
    ("section_ring", "Piece", "__init__"),
    ("section_ring", "Piece", "coords"),
    ("section_ring", "SectionRing", "monomial"),
    ("linalg", "SpanBuilder", "add"),
    ("linalg", "SpanBuilder", "reduce"),
    ("p1", "RationalFunctionP1", "__mul__"),
    ("exact_arith", "Poly", "__mul__"),
    ("semigroups", "NumericalSemigroup", "_membership"),
    ("semigroups", "NumericalSemigroup", "minimal_generators"),
    ("elliptic", "WeierstrassCurve", "contains"),
)

# Private functions that a layer metric names.
PRIVATE = (("prime_elements", "_model_for_oracle"),)

SKIP = {
    "exact_arith.rational",
    "exact_arith.scalar_is_zero",
    "exact_arith.scalar_inverse",
    "exact_arith.scalar_div",
    "exact_arith.scalar_sort_key",
    "exact_arith.as_fraction",
    "exact_arith.lcm_of",
    "divisors.point_sort_key",
}

HOT_LAYERS = {"exact_arith", "linalg", "divisors"}
HOT = {
    "section_ring.Piece.__init__",
    "section_ring.Piece.coords",
    "section_ring.SectionRing.monomial",
    "p1.RationalFunctionP1.__mul__",
}

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_TABLE = {
    "cli": {
        "metrics": ["cli.main.calls", "cli.main.self_s"],
        "moves": "job_p50_ref on small-jobs",
    },
    "jsonio": {
        "metrics": ["jsonio.calls", "jsonio.self_s"],
        "moves": "job_p50_ref on small-jobs",
    },
    "section_ring": {
        "metrics": [
            "section_ring.builds_per_job",
            "section_ring.build.self_s",
            "section_ring.pieces",
            "section_ring.piece_init_s",
            "section_ring.monomial_products",
            "section_ring.coords.calls",
            "section_ring.coords_s",
            "section_ring.relations_s",
            "section_ring.hilbert_s",
        ],
        "moves": "wall_ref on ring-ladder; builds and pieces also wall_ref on primes-mix; "
        "nothing on small-jobs",
    },
    "linalg": {
        "metrics": [
            "linalg.span_add.calls",
            "linalg.span_add.useful_ratio",
            "linalg.reduce_s",
            "linalg.kernel.calls",
            "linalg.kernel.columns",
            "linalg.kernel_s",
        ],
        "moves": "wall_ref on ring-ladder; the kernel metrics move nothing else",
    },
    "p1": {
        "metrics": [
            "p1.rf_mul.calls",
            "p1.rf_mul_s",
            "p1.divisor_of.calls",
            "p1.divisor_of_s",
            "p1.principal_function_s",
        ],
        "moves": "wall_ref on ring-ladder and primes-mix; divisor_of on primes-mix only",
    },
    "exact_arith": {
        "metrics": [
            "exact_arith.poly_mul.calls",
            "exact_arith.poly_mul_s",
            "exact_arith.poly_divrem.calls",
            "exact_arith.poly_divrem_s",
            "exact_arith.poly_gcd.calls",
            "exact_arith.poly_gcd_s",
            "exact_arith.max_coeff_bits",
        ],
        "moves": "wall_ref on ring-ladder and primes-mix, growing with point height",
    },
    "prime_elements": {
        "metrics": [
            "prime_elements.oracle.calls",
            "prime_elements.oracle.self_s",
            "prime_elements.oracle.rf_mul",
            "prime_elements.model_for_oracle.calls",
            "prime_elements.enumerate_s",
        ],
        "moves": "wall_ref and job_p50_ref on primes-mix; zero on ring-ladder",
    },
    "semigroups": {
        "metrics": ["semigroups.calls", "semigroups.self_s"],
        "moves": "job_p50_ref on small-jobs",
    },
    "elliptic": {
        "metrics": ["elliptic.calls", "elliptic.self_s"],
        "moves": "job_p50_ref on small-jobs",
    },
    "trace": {"metrics": ["trace.overhead_ratio"], "moves": "none; the cost of tracing"},
}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []  # [start, child_time, span_id]
        self.counts = {
            "monomial_misses": 0,
            "span_add_useful": 0,
            "kernel_columns": 0,
            "max_coeff_bits": 0,
            "oracle_rf_mul": 0,
        }

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        stat = self.stats.setdefault(name, _Stat())
        hot = name in HOT or name.split(".")[0] in HOT_LAYERS
        name_id = len(self.names)
        self.names.append(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            sid = parent[2] if parent else -1
            if not hot:
                sid = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            stat.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.depth -= 1
                dur = end - frame[0]
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stat.depth == 0:
                    stat.incl += dur
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    spans[sid] = (name_id, frame[0], end, parent[2] if parent else -1, self.job)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced callable and rebind it at each binding site."""
        mods = {m: importlib.import_module(f"qsection.{m}") for m in MODULES}
        package = importlib.import_module("qsection")
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or (short, attr) in PRIVATE
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public):
                    continue
                name = f"{short}.{obj.__name__}"
                if name in SKIP or obj in replaced:
                    continue
                replaced[obj] = self._wrap(name, obj, *self._hooks(name))
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{short}.{cls_name}.{attr}"
            raw = cls.__dict__[attr]
            if isinstance(raw, cached_property):
                raw.func = self._wrap(name, raw.func, *self._hooks(name))
            else:
                setattr(cls, attr, self._wrap(name, raw, *self._hooks(name)))

    def _hooks(self, name: str):
        counts = self.counts
        if name == "section_ring.SectionRing.monomial":

            def before(args):
                key = tuple(args[1])
                while key and key[-1] == 0:
                    key = key[:-1]
                if key not in args[0]._mono_memo:
                    counts["monomial_misses"] += 1

            return before, None
        if name == "linalg.SpanBuilder.add":

            def after(args, grew):
                counts["span_add_useful"] += bool(grew)

            return None, after
        if name == "linalg.kernel_basis":

            def before(args):
                counts["kernel_columns"] += len(args[0])

            return before, None
        if name == "exact_arith.Poly.__mul__":

            def after(args, prod):
                bits = counts["max_coeff_bits"]
                for c in getattr(prod, "coeffs", ()):
                    num = getattr(c, "numerator", None)
                    if num is not None:
                        bits = max(bits, abs(num).bit_length(), c.denominator.bit_length())
                counts["max_coeff_bits"] = bits

            return None, after
        if name == "p1.RationalFunctionP1.__mul__":
            oracle = self.stats.setdefault("prime_elements.primality_oracle", _Stat())

            def before(args):
                if oracle.depth:
                    counts["oracle_rf_mul"] += 1

            return before, None
        return None, None

    # -- results -------------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def layer_self_times(self) -> dict:
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + stat.self_s
        return out

    def _layer_sum(self, layer: str, field: str):
        return sum(getattr(s, field) for n, s in self.stats.items() if n.split(".")[0] == layer)

    def metrics(self, jobs: int) -> dict:
        """Every layer metric of LAYER_TABLE except trace.overhead_ratio."""
        st, c = self._stat, self.counts
        adds = st("linalg.SpanBuilder.add").calls
        return {
            "cli.main.calls": st("cli.main").calls,
            "cli.main.self_s": st("cli.main").self_s,
            "jsonio.calls": self._layer_sum("jsonio", "calls"),
            "jsonio.self_s": self._layer_sum("jsonio", "self_s"),
            "section_ring.builds_per_job": st("section_ring.build_section_ring").calls
            / jobs,
            "section_ring.build.self_s": st("section_ring.build_section_ring").self_s,
            "section_ring.pieces": st("section_ring.Piece.__init__").calls,
            "section_ring.piece_init_s": st("section_ring.Piece.__init__").incl,
            "section_ring.monomial_products": c["monomial_misses"],
            "section_ring.coords.calls": st("section_ring.Piece.coords").calls,
            "section_ring.coords_s": st("section_ring.Piece.coords").incl,
            "section_ring.relations_s": st("section_ring.find_relations").incl,
            "section_ring.hilbert_s": st("section_ring.hilbert_series").incl,
            "linalg.span_add.calls": adds,
            "linalg.span_add.useful_ratio": c["span_add_useful"] / adds if adds else 0.0,
            "linalg.reduce_s": st("linalg.SpanBuilder.reduce").incl,
            "linalg.kernel.calls": st("linalg.kernel_basis").calls,
            "linalg.kernel.columns": c["kernel_columns"],
            "linalg.kernel_s": st("linalg.kernel_basis").incl,
            "p1.rf_mul.calls": st("p1.RationalFunctionP1.__mul__").calls,
            "p1.rf_mul_s": st("p1.RationalFunctionP1.__mul__").incl,
            "p1.divisor_of.calls": st("p1.divisor_of").calls,
            "p1.divisor_of_s": st("p1.divisor_of").incl,
            "p1.principal_function_s": st("p1.principal_function").incl,
            "exact_arith.poly_mul.calls": st("exact_arith.Poly.__mul__").calls,
            "exact_arith.poly_mul_s": st("exact_arith.Poly.__mul__").incl,
            "exact_arith.poly_divrem.calls": st("exact_arith.poly_divrem").calls,
            "exact_arith.poly_divrem_s": st("exact_arith.poly_divrem").incl,
            "exact_arith.poly_gcd.calls": st("exact_arith.poly_gcd").calls,
            "exact_arith.poly_gcd_s": st("exact_arith.poly_gcd").incl,
            "exact_arith.max_coeff_bits": c["max_coeff_bits"],
            "prime_elements.oracle.calls": st("prime_elements.primality_oracle").calls,
            "prime_elements.oracle.self_s": st("prime_elements.primality_oracle").self_s,
            "prime_elements.oracle.rf_mul": c["oracle_rf_mul"],
            "prime_elements.model_for_oracle.calls": st("prime_elements._model_for_oracle").calls,
            "prime_elements.enumerate_s": st("prime_elements.enumerate_primes").incl,
            "semigroups.calls": self._layer_sum("semigroups", "calls"),
            "semigroups.self_s": self._layer_sum("semigroups", "self_s"),
            "elliptic.calls": self._layer_sum("elliptic", "calls"),
            "elliptic.self_s": self._layer_sum("elliptic", "self_s"),
        }

    def write_spans(self, path, t0: float):
        """Spans as [name, start_s, end_s, parent_index, job] rows, times from t0."""
        rows = [
            [n, round(s - t0, 7), round(e - t0, 7), p, j]
            for n, s, e, p, j in (sp for sp in self.spans if sp is not None)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))

"""What the tracer wraps in cyclic_pairs, and the per-layer metrics.

Every public function of the eight library modules is wrapped in every
cyclic_pairs module that imported it, plus the hot methods the metrics
need.  Counters are read outside-in from public data only: the
``cache_info()`` of lru-cached functions, ``DistanceReport`` fields and
``SearchResult.skipped_by_cap``.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

LAYERS = ("fields", "cyclotomic", "factorization", "poly", "pairs", "codes",
          "constructions", "tables")


def _mul_lane(args):
    f = args[0]
    if f.m == 1:
        return "fields.mul.prime"
    return "fields.mul.bitpacked" if f.p == 2 else "fields.mul.vector"


def _distance_lane(args):
    return ("codes.min_distance.binary" if args[0].field.q == 2
            else "codes.min_distance.table")


# (module, class, method, span name or a function of the call's args)
METHODS = (
    ("fields", "Field", "mul", _mul_lane),
    ("fields", "Field", "tables", "fields.tables"),
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("poly", "Polynomial", "__divmod__", "poly.divmod"),
    ("codes", "CyclicCode", "min_distance", _distance_lane),
)

# layers reported as a ".calls" count and a ".self_s" time
CALLS_AND_SELF = ("fields.tables", "cyclotomic.coset_partition",
                  "factorization.factor_xn1", "factorization.root_of_unity",
                  "factorization.minimal_poly", "pairs.exists_ell", "poly.mul",
                  "pairs.pair_analyze", "poly.divmod", "poly.gcd", "poly.lcm",
                  "constructions.construct_mds")
# metric prefix -> span name, where they differ
SPAN_OF = {"poly.gcd": "poly.poly_gcd", "poly.lcm": "poly.poly_lcm"}
# the modulus search is lex_least_irreducible plus the Rabin tests it runs
MODULUS_SEARCH = ("fields.lex_least_irreducible", "fields.is_irreducible")


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better), in the order of the report."""
    spec = {
        "fields.modulus_search.calls": ("count", "lower"),
        "fields.modulus_search.self_s": ("s", "lower"),
        "fields.modulus_search.max_degree": ("count", "lower"),
        "fields.mul.calls.prime": ("count", "lower"),
        "fields.mul.calls.bitpacked": ("count", "lower"),
        "fields.mul.calls.vector": ("count", "lower"),
        "fields.mul.self_s": ("s", "lower"),
        "factorization.ext_fields_built": ("count", "lower"),
    }
    for prefix in CALLS_AND_SELF:
        spec[prefix + ".calls"] = ("count", "lower")
        spec[prefix + ".self_s"] = ("s", "lower")
    spec.update({
        "tables.search_pairs.self_s": ("s", "lower"),
        "tables.all_divisors.self_s": ("s", "lower"),
        "tables.divisors": ("count", "lower"),
        "tables.pairs_examined": ("count", "lower"),
        "tables.pairs_matched": ("count", "lower"),
        "tables.cap_skips": ("count", "lower"),
        "codes.min_distance.calls.binary": ("count", "lower"),
        "codes.min_distance.self_s.binary": ("s", "lower"),
        "codes.min_distance.calls.table": ("count", "lower"),
        "codes.min_distance.self_s.table": ("s", "lower"),
        "codes.codewords_scanned": ("count", "lower"),
        "codes.codewords_per_s": ("1/s", "higher"),
        "codes.distance_repeat_frac": ("ratio", "lower"),
        "cap_skip_frac": ("ratio", "lower"),
        "trace.self_s_sum": ("s", "lower"),
        # filled in by run.py from the traced and untraced passes
        "error_frac": ("ratio", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace_overhead_frac": ("ratio", "lower"),
    })
    return spec


class Instrument:
    """Installs the tracer's wrappers on cyclic_pairs and reads the metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.max_modulus_degree = 0
        self.ext_fields: set[tuple[int, int]] = set()
        self.distance_calls = 0
        self.distance_repeats = 0
        self._distance_keys: set = set()
        # codes whose first distance call was seen; holding them keeps ids unique
        self._measured: dict[int, object] = {}
        self._pair_tally: Counter = Counter()  # (ell, both codes nonzero) -> pairs
        self._modulus_misses0 = 0

    def install(self) -> None:
        t = self.tracer
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cyclic_pairs" or name.startswith("cyclic_pairs.")]
        after = {"lex_least_irreducible": self._after_modulus,
                 "root_of_unity": self._after_root,
                 "pair_analyze": self._after_pair,
                 "search_pairs": self._after_search}
        for layer in LAYERS:
            mod = importlib.import_module(f"cyclic_pairs.{layer}")
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                t.patch_everywhere(modules, value,
                                   t.wrap(value, f"{layer}.{attr}", after.get(attr)))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"cyclic_pairs.{layer}"), cls_name)
            hook = self._after_distance if meth == "min_distance" else None
            t.patch(cls, meth, t.wrap(cls.__dict__[meth], name, hook))
        fields = sys.modules["cyclic_pairs.fields"]
        self._modulus_misses0 = fields.lex_least_irreducible.cache_info().misses

    def restore(self) -> None:
        self.tracer.restore()

    # -- hooks (run after the wrapped call's span has closed) -----------------

    def _after_modulus(self, args, kwargs, result):
        self.max_modulus_degree = max(self.max_modulus_degree, len(result) - 1)

    def _after_root(self, args, kwargs, result):
        ext = result[0]
        if ext is not args[0]:
            self.ext_fields.add((ext.p, ext.m))

    def _after_pair(self, args, kwargs, report):
        if self.tracer.parent() == "tables.search_pairs":
            self._pair_tally[(report.ell, report.c1.k > 0 and report.c2.k > 0)] += 1

    def _after_search(self, args, kwargs, result):
        ell = args[2] if len(args) > 2 else kwargs["ell"]
        tally, count = self._pair_tally, self.tracer.count
        count("tables.pairs_examined", sum(tally.values()))
        count("tables.pairs_matched", tally[(ell, True)] + tally[(ell, False)])
        count("tables.pairs_matched_nonzero", tally[(ell, True)])
        count("tables.cap_skips", result.skipped_by_cap)
        tally.clear()

    def _after_distance(self, args, kwargs, report):
        code = args[0]
        key = (code.field.q, code.n, code.g.coeffs)
        self.distance_calls += 1
        if key in self._distance_keys:
            self.distance_repeats += 1
        self._distance_keys.add(key)
        if id(code) not in self._measured:
            # later calls on the same code return its memoized report
            self._measured[id(code)] = code
            self.tracer.count("codes.codewords_scanned", report.codewords_scanned)
            self.tracer.count(f"codes.method.{report.method}")

    # -- metrics -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced pass, without the run-level ones."""
        t, c = self.tracer, self.tracer.counters
        fields = sys.modules["cyclic_pairs.fields"]
        out = {
            "fields.modulus_search.calls":
                fields.lex_least_irreducible.cache_info().misses - self._modulus_misses0,
            "fields.modulus_search.self_s": sum(t.self_s(n) for n in MODULUS_SEARCH),
            "fields.modulus_search.max_degree": self.max_modulus_degree,
        }
        lanes = ("prime", "bitpacked", "vector")
        for lane in lanes:
            out[f"fields.mul.calls.{lane}"] = t.calls(f"fields.mul.{lane}")
        out["fields.mul.self_s"] = sum(t.self_s(f"fields.mul.{lane}") for lane in lanes)
        out["factorization.ext_fields_built"] = len(self.ext_fields)
        for prefix in CALLS_AND_SELF:
            span = SPAN_OF.get(prefix, prefix)
            out[prefix + ".calls"] = t.calls(span)
            out[prefix + ".self_s"] = t.self_s(span)
        out["tables.search_pairs.self_s"] = t.self_s("tables.search_pairs")
        out["tables.all_divisors.self_s"] = t.self_s("tables.all_divisors")
        out["tables.divisors"] = c.get("tables.all_divisors.yielded", 0)
        for key in ("pairs_examined", "pairs_matched", "cap_skips"):
            out[f"tables.{key}"] = c.get(f"tables.{key}", 0)
        distance_s = 0.0
        for lane in ("binary", "table"):
            out[f"codes.min_distance.calls.{lane}"] = t.calls(f"codes.min_distance.{lane}")
            out[f"codes.min_distance.self_s.{lane}"] = t.self_s(f"codes.min_distance.{lane}")
            distance_s += out[f"codes.min_distance.self_s.{lane}"]
        scanned = c.get("codes.codewords_scanned", 0)
        out["codes.codewords_scanned"] = scanned
        out["codes.codewords_per_s"] = scanned / distance_s if distance_s else 0.0
        out["codes.distance_repeat_frac"] = (self.distance_repeats / self.distance_calls
                                             if self.distance_calls else 0.0)
        matched = c.get("tables.pairs_matched_nonzero", 0)
        out["cap_skip_frac"] = c.get("tables.cap_skips", 0) / matched if matched else 0.0
        out["trace.self_s_sum"] = t.self_s_sum()
        return out

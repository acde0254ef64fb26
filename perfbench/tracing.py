"""Spans at conedec's module boundaries, recorded from outside the package.

``Tracer.install`` replaces each boundary function with a timing wrapper
at every module binding of it: ``build_relaxed_polytope`` is imported into
``lpdecode`` and ``build_fundamental_cone`` into ``pcw``, ``cli`` and
``constructions``, and nested calls go through those bindings.  Methods are
wrapped on their class.  Spans (name, start, end, parent, op, phase) stay
in memory; ``layer_metrics`` turns them into self times, where a span's
self time is its duration minus the durations of its child spans.

The simplex is split three ways: ``simplex.setup`` (building the integer
tableau), ``simplex.solve`` (the pivot loop, minus the tie check) and
``simplex.tie_check`` (``_optimum_is_unique``, including the auxiliary LP
it builds and pivots).  Pivots are counted, not spanned.  Private methods
are wrapped only when present, so a renamed method shows up as an absent
metric instead of a crash.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _len_result(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(result)

    return count


def _rows_result(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(result.inequalities)

    return count


def _decode_status(counts, args, kwargs, result):
    counts[f"lpdecode.status.{result.status}"] += 1


def _dd_sizes(counts, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    counts["dd.rows_in"] += len(rows)
    counts["dd.rays_out"] += len(result)


def _iterations(counts, args, kwargs, result):
    counts["qcimprove.iterations"] += len(result.iterations)


def _json_bytes(counts, args, kwargs, result):
    counts["serialize.bytes"] += len(result.encode())


# (module, function, span name, counter); every binding is wrapped.
FUNCTIONS = (
    ("gf2", "enumerate_codewords", "gf2.enumerate_codewords", _len_result("gf2.words")),
    ("gf2", "enumerate_dual_words", "gf2.enumerate_dual_words", _len_result("gf2.words")),
    ("cone", "build_fundamental_cone", "cone.build", _rows_result("cone.rows")),
    ("dd", "extreme_rays_int", "dd.extreme_rays", _dd_sizes),
    ("polytope", "build_relaxed_polytope", "polytope.build", _rows_result("polytope.rows")),
    ("polytope", "enumerate_vertices", "polytope.enumerate_vertices", _len_result("polytope.vertices")),
    ("lpdecode", "lp_decode", "lpdecode.lp_decode", _decode_status),
    ("lpdecode", "rationalize_llr", "lpdecode.rationalize", None),
    ("lpdecode", "ml_decode", "lpdecode.ml_decode", None),
    ("pcw", "is_gc_pseudocodeword", "pcw.certify", None),
    ("pcw", "enumerate_pseudocodewords", "pcw.enumerate", _len_result("pcw.found")),
    ("qcimprove", "improve_representation", "qcimprove.improve", _iterations),
    ("qcimprove", "add_qc_shifts", "qcimprove.add_qc_shifts", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_json", "serialize", _json_bytes),  # JSON text of every CLI output
)

# (module, class, method, span name)
METHODS = (
    ("cone", "ConeSystem", "contains", "cone.contains"),
    ("polytope", "PolytopeSystem", "contains", "polytope.contains"),
    ("simplex", "ExactSimplex", "solve", "simplex.solve"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, phase]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.phase = "setup"
        self.absent: list[str] = []
        self.in_tie_check = 0
        self._undo: list[tuple[object, str, object]] = []

    # Wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, tracer.phase]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, wrapper, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def install(self, M) -> None:
        """Wrap the boundaries of the conedec modules in namespace M."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "conedec" or k.startswith("conedec.")]
        for mod_name, fn_name, span, count in FUNCTIONS:
            orig = getattr(getattr(M, mod_name), fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            self._patch_everywhere(orig, self._wrap(orig, span, count), modules)
        for mod_name, prefix, span in (("constructions", "", "constructions"), ("serialize", "_to_", "serialize")):
            mod = getattr(M, mod_name)
            for attr, val in list(vars(mod).items()):
                if (
                    callable(val) and not isinstance(val, type) and not attr.startswith("_")
                    and getattr(val, "__module__", None) == mod.__name__ and prefix in attr
                ):
                    self._patch_everywhere(val, self._wrap(val, span), modules)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(getattr(M, mod_name), cls_name)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], span))
        self._install_simplex(M.simplex.ExactSimplex)

    def _install_simplex(self, cls) -> None:
        tracer = self
        init = self._wrap(cls.__init__, "simplex.setup")
        orig_init = cls.__init__

        @functools.wraps(orig_init)
        def setup(*args, **kwargs):
            # The tie check's auxiliary LP belongs to the tie check.
            if tracer.in_tie_check:
                return orig_init(*args, **kwargs)
            return init(*args, **kwargs)

        self._set(cls, "__init__", setup)

        tie = cls.__dict__.get("_optimum_is_unique")
        if tie is None:
            self.absent.append("ExactSimplex._optimum_is_unique")
        else:
            traced_tie = self._wrap(tie, "simplex.tie_check")

            @functools.wraps(tie)
            def tie_check(*args, **kwargs):
                tracer.in_tie_check += 1
                try:
                    return traced_tie(*args, **kwargs)
                finally:
                    tracer.in_tie_check -= 1

            self._set(cls, "_optimum_is_unique", tie_check)

        pivot = cls.__dict__.get("_pivot")
        if pivot is None:
            self.absent.append("ExactSimplex._pivot")
        else:

            @functools.wraps(pivot)
            def counted_pivot(*args, **kwargs):
                tracer.counts["simplex.tie_check.pivots" if tracer.in_tie_check else "simplex.pivots"] += 1
                return pivot(*args, **kwargs)

            self._set(cls, "_pivot", counted_pivot)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # Results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per span name: calls and self seconds; plus every counter."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for k, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
        out = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        return out

    def absent_metrics(self) -> set[str]:
        """Metric name prefixes that cannot be measured at this commit."""
        gone = set()
        if "ExactSimplex._pivot" in self.absent:
            gone |= {"simplex.pivots", "simplex.tie_check.pivots"}
        if "ExactSimplex._optimum_is_unique" in self.absent:
            gone.add("simplex.tie_check")
        for fn in self.absent:
            for mod_name, fn_name, span, _ in FUNCTIONS:
                if fn == f"{mod_name}.{fn_name}":
                    gone.add(span)
        return gone

"""Outside-in tracing of chiprank's layers.

The tracer wraps functions of the already imported chiprank modules from
here, without touching chiprank's source, and restores every original on
``uninstall``.  Each wrapper opens a span named after its layer and function;
a span's self time is its duration minus the time covered by its direct
child spans, so self times of all spans add up to the traced wall time
minus the harness's own time (``trace.unattributed_s``).

Spans are aggregated in memory (calls, self seconds, inclusive seconds per
span name) instead of being stored one by one: the rank sweep opens millions
of class-key spans per run.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

# (span name, module, attribute): the wrapper is installed on every binding
# of the same function object across chiprank's modules, so each caller's
# own lookup (``rank.is_effective_class``, ``cli.check_config``, ...) hits it.
# Listed are the functions the workloads call and those a call crosses into
# another layer through; helpers called only from within their own layer
# are left unwrapped, their time counting toward the caller's span.
FUNCTIONS = [
    ("cli.main", "cli", "main"),
    ("graphs.check_config", "graphs", "check_config"),
    ("kernels.stabilize", "_backend", "stabilize"),
    ("kernels.burning", "_backend", "burning_test"),
    ("kernels.parking_reduce", "_backend", "parking_reduce"),
    ("dynamics.stabilize", "dynamics", "stabilize"),
    ("dynamics.is_parking", "dynamics", "is_parking"),
    ("dynamics.parking_representative", "dynamics", "parking_representative"),
    ("dynamics.recurrent_representative", "dynamics", "recurrent_representative"),
    ("dynamics.is_effective_class", "dynamics", "is_effective_class"),
    ("dynamics.effective_class_counts", "dynamics", "effective_class_counts"),
    ("rank.rank_bruteforce", "rank", "rank_bruteforce"),
    ("rank.kappa_dual", "rank", "kappa_dual"),
    ("rank.class_key", "rank", "_residue"),
    ("complete.rank_formula", "complete", "rank_formula"),
    ("complete.decode_word", "complete", "decode_word"),
    ("strip.Ln_direct", "strip", "Ln_direct"),
    ("strip.Ln_via_toxy", "strip", "Ln_via_toxy"),
    ("strip.carlitz_catalan", "strip", "carlitz_catalan"),
    ("strip.identity_check", "strip", "LnC_identity_check"),
    ("strip.bistatistic_check", "strip", "Kn_bistatistic_check"),
    ("dyck.stats", "dyck", "heights"),
    ("dyck.stats", "dyck", "area"),
    ("dyck.stats", "dyck", "prerank"),
    ("dyck.stats", "dyck", "dinv"),
    ("dyck.stats", "dyck", "cdinv"),
    ("dyck.stats", "dyck", "phi_involution"),
    ("dyck.stats", "dyck", "zeta_haglund"),
]

# Generators do their work while being iterated, so each ``next`` is a span.
GENERATORS = [
    ("dyck.words", "dyck", "dyck_words"),
    ("dyck.words", "dyck", "dn_words"),
]

# (span name, class attribute) on graphs.MultiGraph and series.TruncatedSeries.
GRAPH_METHODS = [
    ("graphs.build", "__init__"),
    ("graphs.build", "complete"),
    ("graphs.is_complete", "is_complete"),
    ("graphs.spanning_tree", "spanning_tree_count"),
]
SERIES_METHODS = [
    ("series.mul", "__mul__"),
    ("series.mul", "__rmul__"),
    ("series.inverse", "inverse"),
    ("series.map_exponents", "map_exponents"),
]


class Tracer:
    """Span aggregation plus the wrappers that feed it."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds, inclusive seconds]
        self.counts = {"kernels.fallbacks": 0, "rank.eff_misses": 0}
        self._stack = []  # open spans: [name, start, seconds covered by children]
        self._undo = []  # (owner, attribute, original value)

    # ---------- spans ----------

    def _close(self, frame) -> None:
        dur = perf_counter() - frame[1]
        self._stack.pop()
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - frame[2]
        st[2] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a span re-entered from inside itself (recursion, or one
            # wrapped function calling another under the same name) stays one
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def wrap_generator(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if stack and stack[-1][0] == name:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                else:
                    frame = [name, perf_counter(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame)
                yield item

        return wrapper

    def _count(self, key, fn, on_error=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_error is None:
                counts[key] += 1
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except on_error:
                counts[key] += 1
                raise

        return wrapper

    # ---------- installation ----------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, cr) -> None:
        """Wrap the layer boundaries of the chiprank modules in ``cr``."""
        modules = [m for m in vars(cr).values() if isinstance(m, types.ModuleType)]
        for table, factory in ((FUNCTIONS, self.wrap), (GENERATORS, self.wrap_generator)):
            for name, mod, attr in table:
                original = getattr(getattr(cr, mod), attr)
                wrapped = factory(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapped)
        # cache misses: the effectiveness computations the rank engine asks for
        self._set(cr.rank, "is_effective_class",
                  self._count("rank.eff_misses", cr.rank.is_effective_class))
        for cls, table in ((cr.graphs.MultiGraph, GRAPH_METHODS),
                           (cr.series.TruncatedSeries, SERIES_METHODS)):
            for name, attr in table:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self.wrap(name, raw))
        self.install_fallback_counter(cr)

    def install_fallback_counter(self, cr) -> None:
        backend = cr._backend
        if backend.COMPILED:
            # the dispatcher falls back to the pure kernels when the compiled
            # one raises OverflowError; count those refusals
            impl = backend.impl
            self._set(backend, "impl", types.SimpleNamespace(**{
                k: self._count("kernels.fallbacks", getattr(impl, k), OverflowError)
                for k in ("stabilize", "burning_test", "parking_reduce")
            }))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------- metrics ----------

    def metrics(self, passes: int, wall: float) -> dict:
        """Per-layer metrics per pass of the op list, from ``passes`` traced
        passes that took ``wall`` seconds in all."""
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0] / passes

        def self_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1] / passes

        def incl_s(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2] / passes

        def layer_self(layer, *excluded):
            return sum(
                st[1] for name, st in self.stats.items()
                if name.startswith(layer + ".") and name not in excluded
            ) / passes

        attributed = sum(st[1] for st in self.stats.values()) / passes
        probes = calls("rank.class_key")
        misses = self.counts["rank.eff_misses"] / passes
        out = {
            "cli.self_s": (self_s("cli.main"), "s"),
            "cli.commands": (calls("cli.main"), "count"),
            "graphs.build_s": (self_s("graphs.build"), "s"),
            "graphs.build_calls": (calls("graphs.build"), "count"),
            "graphs.is_complete_s": (self_s("graphs.is_complete"), "s"),
            "graphs.check_config_s": (self_s("graphs.check_config"), "s"),
            "graphs.spanning_tree_s": (self_s("graphs.spanning_tree"), "s"),
            "kernels.stabilize_s": (self_s("kernels.stabilize"), "s"),
            "kernels.stabilize_calls": (calls("kernels.stabilize"), "count"),
            "kernels.burning_s": (self_s("kernels.burning"), "s"),
            "kernels.burning_calls": (calls("kernels.burning"), "count"),
            "kernels.parking_reduce_s": (self_s("kernels.parking_reduce"), "s"),
            "kernels.parking_reduce_calls": (calls("kernels.parking_reduce"), "count"),
            "kernels.fallbacks": (self.counts["kernels.fallbacks"] / passes, "count"),
            "dynamics.self_s": (layer_self("dynamics"), "s"),
            "dynamics.is_parking_s": (incl_s("dynamics.is_parking"), "s"),
            "dynamics.parking_representative_s": (
                incl_s("dynamics.parking_representative"), "s"),
            "dynamics.parking_representative_calls": (
                calls("dynamics.parking_representative"), "count"),
            "dynamics.effective_class_counts_s": (
                incl_s("dynamics.effective_class_counts"), "s"),
            "rank.self_s": (layer_self("rank", "rank.class_key"), "s"),
            "rank.class_key_s": (self_s("rank.class_key"), "s"),
            "rank.class_key_calls": (probes, "count"),
            "rank.eff_misses": (misses, "count"),
            "rank.eff_hit_ratio": (1 - misses / probes if probes else 0.0, "ratio"),
            "complete.self_s": (layer_self("complete", "complete.rank_formula"), "s"),
            "complete.rank_formula_s": (self_s("complete.rank_formula"), "s"),
            "complete.rank_formula_calls": (calls("complete.rank_formula"), "count"),
            "strip.Ln_direct_s": (self_s("strip.Ln_direct"), "s"),
            "strip.Ln_via_toxy_s": (self_s("strip.Ln_via_toxy"), "s"),
            "strip.carlitz_catalan_s": (self_s("strip.carlitz_catalan"), "s"),
            "strip.identity_check_s": (self_s("strip.identity_check"), "s"),
            "strip.bistatistic_check_s": (self_s("strip.bistatistic_check"), "s"),
            "series.mul_s": (self_s("series.mul"), "s"),
            "series.mul_calls": (calls("series.mul"), "count"),
            "series.inverse_s": (self_s("series.inverse"), "s"),
            "series.map_exponents_s": (self_s("series.map_exponents"), "s"),
            "dyck.words_s": (self_s("dyck.words"), "s"),
            "dyck.stats_s": (self_s("dyck.stats"), "s"),
            "trace.wall_s": (wall / passes, "s"),
            "trace.unattributed_s": (wall / passes - attributed, "s"),
        }
        return out

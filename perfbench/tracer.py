"""Per-layer tracer that wraps paradim's functions from outside the package.

Each target is patched by identity in every loaded module of the package,
so a function bound elsewhere with `from .x import f` (compact and
elliptic each hold their own `class_number`) is wrapped wherever it is
called from.  Every original is restored on exit.  A target that no
longer exists is recorded as missing and its metrics are left out.

Self time is a call's duration minus the time of the wrapped calls it
made.  Generator functions (the corpus check groups) are timed over their
whole iteration, and their items are counted.
"""
import functools
import importlib
import inspect
import sys
import time

# (layer, module, function, span).  Layers are named by module.  Functions
# with span=True also record a span with a parent link; the rest only
# aggregate counts and times, because some are called millions of times.
# Each layer lists every function through which other layers enter it,
# so that its self time covers the whole layer.
TARGETS = (
    ("kernels", "paradim.kernels", "kronecker", False),
    ("kernels", "paradim.kernels", "b2_character_sum", False),
    ("kernels", "paradim.kernels", "class_number_from_disc", False),
    ("arith", "paradim.arith", "bernoulli_b2_chi", False),
    ("arith", "paradim.arith", "class_number", False),
    ("arith", "paradim.arith", "split_symbol", False),
    ("arith", "paradim.arith", "a_p", False),
    ("arith", "paradim.arith", "is_prime", False),
    ("arith", "paradim.arith", "primes_up_to", False),
    ("characters", "paradim.characters", "chi_young", False),
    ("compact", "paradim.compact", "dim_M_total", False),
    ("compact", "paradim.compact", "trace_R", False),
    ("compact", "paradim.compact", "dim_M_signed", False),
    ("compact", "paradim.compact", "class_and_type", False),
    ("elliptic", "paradim.elliptic", "dim_cusp_level1", False),
    ("elliptic", "paradim.elliptic", "dim_modular_level1", False),
    ("elliptic", "paradim.elliptic", "dim_new_gamma0", False),
    ("elliptic", "paradim.elliptic", "dim_new_gamma0_signed", False),
    ("siegel1", "paradim.siegel1", "dim_cusp_sp4", False),
    ("paramodular", "paradim.paramodular", "dim_paramodular_signed", False),
    ("paramodular", "paradim.paramodular", "dim_weight3", False),
    ("paramodular", "paradim.paramodular", "dim_A_signed", False),
    ("paramodular", "paradim.paramodular", "bias", False),
    ("paramodular", "paradim.paramodular", "_space_sequence", False),
    ("paramodular", "paradim.paramodular", "printed_series", False),
    ("paramodular", "paradim.paramodular", "hilbert_series", True),
    ("paramodular", "paradim.paramodular", "check_bias_region", True),
    ("paramodular", "paradim.paramodular", "search_weight3_zero", True),
    ("exactmath", "paradim.exactmath", "fit_numerator", False),
    ("exactmath", "paradim.exactmath", "series_coeffs", False),
    ("exactmath", "paradim.exactmath", "is_palindromic", False),
    ("corpus", "paradim.corpus", "table_checks", True),
    ("corpus", "paradim.corpus", "series_checks", True),
    ("corpus", "paradim.corpus", "weight3_checks", True),
    ("corpus", "paradim.corpus", "bias_checks", True),
    ("corpus", "paradim.corpus", "palindromic_checks", True),
    ("quaternion", "paradim.quaternion", "enumerate_pi_gamma", True),
    ("quaternion", "paradim.quaternion", "principal_poly", False),
    ("quaternion", "paradim.quaternion", "principal_tallies", False),
    ("quaternion", "paradim.quaternion", "family_tallies", False),
    ("quaternion", "paradim.quaternion", "verify_trace_p23", True),
    ("cli", "paradim.cli", "main", True),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in TARGETS))
_LOWER, _HIGHER = "lower", "higher"
# Unit of the times the benchmark reports: seconds scaled by a reference
# chunk timed beside them (see run.py), not seconds on the host's clock.
TIME = "ref_s"

# (metric, unit, better, source, kind).  `source` is "layer.function" for
# per-function kinds and the layer name for "layer_self_s".  The host.*
# metrics are the untraced calls' raw wall time and reference chunk, in
# seconds on the host's clock, from which the scaled times are derived.
PER_LAYER = (
    *((f"{layer}.self_s", TIME, _LOWER, layer, "layer_self_s") for layer in LAYERS),
    ("kernels.kronecker.calls", "count", _LOWER, "kernels.kronecker", "calls"),
    ("kernels.kronecker.self_s", TIME, _LOWER, "kernels.kronecker", "self_s"),
    *(
        (f"kernels.{fn}.{kind}", unit, _LOWER, f"kernels.{fn}", kind)
        for fn in ("b2_character_sum", "class_number_from_disc")
        for kind, unit in (("calls", "count"), ("self_s", TIME))
    ),
    *(
        (f"arith.{fn}.{kind}", unit, better, f"arith.{fn}", kind)
        for fn in ("bernoulli_b2_chi", "class_number")
        for kind, unit, better in (("misses", "count", _LOWER),
                                   ("hit_ratio", "ratio", _HIGHER))
    ),
    ("arith.split_symbol.calls", "count", _LOWER, "arith.split_symbol", "calls"),
    ("characters.chi_young.calls", "count", _LOWER, "characters.chi_young", "calls"),
    ("characters.chi_young.self_s", TIME, _LOWER, "characters.chi_young", "self_s"),
    *(
        (f"compact.{fn}.{kind}", unit, _LOWER, f"compact.{fn}", kind)
        for fn in ("dim_M_total", "trace_R")
        for kind, unit in (("calls", "count"), ("self_s", TIME))
    ),
    ("siegel1.dim_cusp_sp4.calls", "count", _LOWER, "siegel1.dim_cusp_sp4", "calls"),
    ("siegel1.dim_cusp_sp4.self_s", TIME, _LOWER, "siegel1.dim_cusp_sp4", "self_s"),
    *(
        (f"paramodular.{fn}.{kind}", unit, _LOWER, f"paramodular.{fn}", kind)
        for fn in ("dim_paramodular_signed", "hilbert_series")
        for kind, unit in (("calls", "count"), ("self_s", TIME))
    ),
    ("exactmath.fit_numerator.attempts", "count", _LOWER,
     "exactmath.fit_numerator", "calls"),
    ("exactmath.fit_numerator.success_ratio", "ratio", _HIGHER,
     "exactmath.fit_numerator", "success_ratio"),
    ("exactmath.fit_numerator.self_s", TIME, _LOWER, "exactmath.fit_numerator", "self_s"),
    ("exactmath.series_coeffs.self_s", TIME, _LOWER, "exactmath.series_coeffs", "self_s"),
    *(
        (f"corpus.{group}.{name}", unit, better, f"corpus.{group}_checks", kind)
        for group in ("table", "series", "weight3", "bias", "palindromic")
        for name, unit, better, kind in (("checks", "count", _HIGHER, "items"),
                                         ("failures", "count", _LOWER, "bad_items"),
                                         ("s", TIME, _LOWER, "total_s"))
    ),
    ("quaternion.enumerate_pi_gamma.self_s", TIME, _LOWER,
     "quaternion.enumerate_pi_gamma", "self_s"),
    ("quaternion.principal_poly.calls", "count", _LOWER, "quaternion.principal_poly", "calls"),
    ("quaternion.principal_poly.self_s", TIME, _LOWER, "quaternion.principal_poly", "self_s"),
    ("quaternion.verify_trace_p23.self_s", TIME, _LOWER,
     "quaternion.verify_trace_p23", "self_s"),
    ("other.self_s", TIME, _LOWER, None, "other_self_s"),
    ("trace_overhead_ratio", "ratio", _LOWER, None, "overhead"),
    ("host.raw_wall_s", "s", _LOWER, None, "raw_wall"),
    ("host.ref_chunk_s", "s", _LOWER, None, "ref_chunk"),
)


class Stat:
    """Aggregate of every call to one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "errors", "items", "bad_items")

    def __init__(self, calls=0, total_s=0.0, self_s=0.0, errors=0, items=0, bad_items=0):
        self.calls = calls
        self.total_s = total_s
        self.self_s = self_s
        self.errors = errors
        self.items = items
        self.bad_items = bad_items

    def as_list(self):
        return [getattr(self, name) for name in self.__slots__]


class Tracer:
    """Context manager: patch the targets on entry, restore them on exit."""

    def __init__(self, targets=TARGETS, package="paradim", clock=time.perf_counter):
        self.targets = targets
        self.package = package
        self.clock = clock
        self.stats = {}       # "layer.function" -> Stat
        self.spans = []       # [id, name, parent id or None, start, end]
        self.missing = []     # "layer.function" keys that could not be found
        self._originals = {}  # "layer.function" -> original function
        self._cache_base = {}
        self._patches = []    # (module, attribute, original)
        self._stack = []      # child time of each open call
        self._open_spans = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self):
        found = []
        for layer, module_name, name, span in self.targets:
            key = f"{layer}.{name}"
            try:
                original = getattr(importlib.import_module(module_name), name)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            found.append((key, original, span))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == self.package or name.startswith(self.package + "."))]
        try:
            for key, original, span in found:
                self._originals[key] = original
                self._cache_base[key] = _cache_counts(original)
                wrapper = self._wrap(key, original, span)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def cache_counts(self):
        """(hits, misses) since install, read through each original that
        has a `cache_info`."""
        out = {}
        for key, original in self._originals.items():
            now, base = _cache_counts(original), self._cache_base[key]
            if now is not None:
                out[key] = [now[0] - base[0], now[1] - base[1]]
        return out

    def _enter(self, key, span):
        self._stack.append(0.0)
        if not span:
            return None
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([sid, key, parent, None, None])
        self._open_spans.append(sid)
        return sid

    def _exit(self, stat, sid, t0):
        dt = self.clock() - t0
        stack = self._stack
        stat.calls += 1
        stat.total_s += dt
        stat.self_s += dt - stack.pop()
        if stack:
            stack[-1] += dt
        if sid is not None:
            self._open_spans.pop()
            self.spans[sid][3:5] = [t0, t0 + dt]

    def _wrap(self, key, fn, span):
        stat = self.stats[key] = Stat()
        clock, enter, leave = self.clock, self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = enter(key, span)
                t0 = clock()
                try:
                    for item in fn(*args, **kwargs):
                        stat.items += 1
                        if getattr(item, "ok", True) is False:
                            stat.bad_items += 1
                        yield item
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    leave(stat, sid, t0)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter(key, span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                leave(stat, sid, t0)
        return wrapper


def _cache_counts(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def layer_metrics(stats, caches, wall_s):
    """Per-layer metrics of one traced call, from `Stat` records keyed by
    "layer.function" and cache (hits, misses).  Metrics whose source is
    missing are left out.  `trace_overhead_ratio` and the host.* metrics
    come from the untraced runs and are added by the caller."""
    out = {}
    for metric, _unit, _better, source, kind in PER_LAYER:
        if kind in ("overhead", "raw_wall", "ref_chunk"):
            continue
        if kind == "other_self_s":
            out[metric] = wall_s - sum(s.self_s for s in stats.values())
        elif kind == "layer_self_s":
            parts = [s.self_s for key, s in stats.items() if key.startswith(source + ".")]
            if parts:
                out[metric] = sum(parts)
        elif kind in ("misses", "hit_ratio"):
            if source in caches:
                hits, misses = caches[source]
                out[metric] = misses if kind == "misses" else _ratio(hits, hits + misses)
        elif source in stats:
            s = stats[source]
            if kind == "success_ratio":
                out[metric] = _ratio(s.calls - s.errors, s.calls)
            else:
                out[metric] = getattr(s, kind)
    return out


def _ratio(num, den):
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0

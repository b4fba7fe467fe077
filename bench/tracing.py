"""Outside-in tracing of hypervec's layers for one in-process run.

The tracer replaces public functions and methods of the `hypervec.*`
modules with timing wrappers, from the benchmark's side only: every
module namespace (and class) that bound the original object gets the
wrapper, and `restore` puts every original back and verifies it did.

Each wrapped function accumulates its call count, inclusive time (the
outermost active call only, so recursion is not counted twice) and self
time (inclusive time minus the time of wrapped callees). The coarse
spans (CLI entry, parsing, one span per suite, rendering and the suite
checks) are also kept whole in memory, with their parent, and written
out when the run ends. The inner functions run hundreds of thousands of
times per file, so for them only the aggregates are kept.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute path, kind) of every wrapped object. "span" keeps
# every span whole, "sum" keeps only the aggregates, and "generator"
# times each resumption and counts the items yielded.
TARGETS = (
    ("cli", "main", "span"),
    ("dsl", "parse_model_file", "span"),
    ("checker", "run_suites", "span"),
    ("checker", "render_json", "span"),
    ("checker", "sample_stream", "generator"),
    ("essential", "check_strong_normal", "span"),
    ("essential", "check_weak_normal", "span"),
    ("essential", "essential_points", "sum"),
    ("inner", "check_hip_axioms", "span"),
    ("inner", "pairing", "sum"),
    ("inner", "norm_sq", "sum"),
    ("inner", "sup_pairing", "sum"),
    ("models", "product", "sum"),
    ("models", "ModelSpec.admit_vector", "sum"),
    ("models", "finite", "sum"),
    ("models", "contains", "sum"),
    ("models", "sumset", "sum"),
    ("models", "intersect_nonempty", "sum"),
    ("models", "enumerate_set", "sum"),
    ("models", "hyperset_eq", "sum"),
    ("vectors", "Vector.scaled", "sum"),
    ("vectors", "Vector.__add__", "sum"),
    ("vectors", "Vector.__neg__", "sum"),
    ("vectors", "vector_key", "sum"),
    ("scalars", "GaussianRational.__mul__", "sum"),
    ("scalars", "GaussianRational.__add__", "sum"),
    ("scalars", "GaussianRational.__eq__", "sum"),
    ("scalars", "invert", "sum"),
    ("scalars", "make_scalar", "sum"),
)


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    raised: Counter = field(default_factory=Counter)


def _scalar_key(a):
    # Real and imaginary parts, so the Q and Q[i] forms of one value agree
    # and no wrapped GaussianRational method runs while keys are hashed.
    if hasattr(a, "im"):
        return (a.re, a.im)
    return (a, 0)


class Tracer:
    """Wrappers, their statistics and the kept spans of one traced run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.essential_keys: set = set()
        self.intersect_misses = 0
        self.tuples = 0
        self.restored = 0
        self._stack = [0.0]  # time spent in wrapped callees, per open call
        self._open: list[int] = []  # indices of the kept spans now running
        self._last_closed = -1
        self._patches: list[tuple[object, str, object]] = []
        self._essential_params: list[tuple[str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool):
        stat = self.stats.setdefault(name, Stat())
        stack, spans, open_ = self._stack, self.spans, self._open
        perf, tracer = time.perf_counter, self
        hook = {
            "checker.run_suites": self._on_run_suites,
            "essential.essential_points": self._on_essential_points,
            "models.intersect_nonempty": self._on_intersect,
        }.get(name)

        def wrapper(*args, **kwargs):
            outer = stat.active == 0
            stat.active += 1
            if keep:
                open_.append(len(spans))
                spans.append(None)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = perf() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stack[-1] += dt
                stat.active -= 1
                if outer:
                    stat.incl_s += dt
                if keep:
                    i = open_.pop()
                    spans[i] = [name, t0, t0 + dt, open_[-1] if open_ else -1]
                    tracer._last_closed = i
            if hook is not None:
                h0 = perf()
                hook(args, kwargs, result, dt)
                stack[-1] += perf() - h0  # not the caller's own work
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack, perf, tracer = self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            stat.calls += 1

            def timed():
                while True:
                    stack.append(0.0)
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf() - t0
                        stat.self_s += dt - stack.pop()
                        stat.incl_s += dt
                        stack[-1] += dt
                    tracer.tuples += 1
                    yield item

            return timed()

        return wrapper

    def _on_run_suites(self, args, kwargs, result, dt):
        # The CLI runs one suite per call: name the span after its suite.
        suites = kwargs["suites"] if "suites" in kwargs else args[3]
        if len(suites) == 1:
            name = f"checker.suite.{suites[0]}"
            stat = self.stats.setdefault(name, Stat())
            stat.calls += 1
            stat.incl_s += dt
            self.spans[self._last_closed][0] = name

    def _on_essential_points(self, args, kwargs, result, dt):
        values = [
            args[i] if i < len(args) else kwargs.get(p, default)
            for i, (p, default) in enumerate(self._essential_params)
        ]
        model, a, x, depth, closed_form = values
        key = (model, _scalar_key(a), tuple(map(_scalar_key, x.coords)), depth, closed_form)
        self.essential_keys.add(key)

    def _on_intersect(self, args, kwargs, result, dt):
        if result is None:
            self.intersect_misses += 1

    # --- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in every `hypervec` module (or class) that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hypervec" or n.startswith("hypervec.")]
        for mod_name, path, kind in TARGETS:
            module = sys.modules[f"hypervec.{mod_name}"]
            name = f"{mod_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owners = [getattr(module, cls_name)]
                original = owners[0].__dict__[attr]
            else:
                owners = modules
                original = getattr(module, path)
            if kind == "generator":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, keep=kind == "span")
            if name == "essential.essential_points":
                self._essential_params = [
                    (p.name, p.default) for p in inspect.signature(original).parameters.values()
                ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back; raise if any binding was not restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if vars(o)[a] is not orig]
        if left:
            raise RuntimeError(f"wrappers still installed: {left}")
        self.restored = len(self._patches)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every exact count of the run; two runs of one input must agree."""
        out = {f"{n}.calls": s.calls for n, s in self.stats.items()}
        out.update(
            {f"{n}.raised.{e}": k for n, s in self.stats.items() for e, k in s.raised.items()}
        )
        out["checker.sample_stream.tuples"] = self.tuples
        out["essential.essential_points.distinct"] = len(self.essential_keys)
        out["models.intersect_nonempty.misses"] = self.intersect_misses
        return out

    def dump(self) -> dict:
        """Kept spans (times from the first span's start) and all aggregates."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "spans": [[n, t0 - origin, t1 - origin, parent] for n, t0, t1, parent in self.spans],
            "stats": {
                n: {"calls": s.calls, "incl_s": s.incl_s, "self_s": s.self_s, "raised": s.raised}
                for n, s in sorted(self.stats.items())
            },
        }


def count_scalar_calls(run):
    """`run()` with `Fraction.__new__` and the builtin `isinstance` counted.

    Both are replaced by counting shims for the call and restored after;
    the counts are exact. (A cProfile pass counts the same calls, but it
    runs four to five times slower than the checks themselves.)
    """
    import builtins
    from fractions import Fraction

    counts = {"fraction_new": 0, "isinstance": 0}
    real_isinstance = builtins.isinstance
    real_new = Fraction.__dict__["__new__"]
    new = real_new.__func__

    def isinstance(obj, classinfo):
        counts["isinstance"] += 1
        return real_isinstance(obj, classinfo)

    def fraction_new(cls, *args, **kwargs):
        counts["fraction_new"] += 1
        return new(cls, *args, **kwargs)

    builtins.isinstance = isinstance
    Fraction.__new__ = staticmethod(fraction_new)
    try:
        result = run()
    finally:
        builtins.isinstance = real_isinstance
        Fraction.__new__ = real_new
    if builtins.isinstance is not real_isinstance or Fraction.__dict__["__new__"] is not real_new:
        raise RuntimeError("counting shims still installed")
    return result, counts

"""Span recorder for the traced benchmark run, installed from outside quadexp.

Each target is a public function (or method) of one quadexp module. Installing
the recorder replaces the function with a timing wrapper in its defining
module and at every module attribute that holds the same object, which covers
every ``from .x import name`` binding. Spans stay in memory, each carrying its
parent span and the case that was running, and are written out at the end.
A span's self time is its duration minus the durations of its child spans;
durations come from a function the caller passes, so they can be normalized
for machine speed (see ``speed.py``).

The traced run must not go blind silently: a target that no longer resolves
in its defining module, or an importer listed in ``TARGETS`` that binds the
target's name to another object, raises ``TracerError`` at install time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass
from inspect import signature


class TracerError(RuntimeError):
    """A trace target could not be bound, so a layer would read zero."""


@dataclass(frozen=True)
class Target:
    name: str                 # metric prefix, "<module>.<function>"
    module: str               # defining module (or package that exports it)
    attr: str                 # attribute path, "func" or "Class.method"
    importers: tuple = ()     # modules that bind it with ``from .x import``


TARGETS = (
    Target("pipeline.run_case", "quadexp.pipeline", "run_case"),
    Target("recognition.evaluate_J", "quadexp.recognition", "evaluate_J",
           ("quadexp.pipeline",)),
    Target("recognition.min_poly", "quadexp.recognition", "min_poly",
           ("quadexp.pipeline",)),
    Target("recognition.member_of_field", "quadexp.recognition",
           "member_of_field", ("quadexp.pipeline",)),
    Target("recognition.lll_reduce", "quadexp.recognition", "lll_reduce"),
    Target("core.lll_reduce_rows", "quadexp._core", "lll_reduce_rows",
           ("quadexp.recognition",)),
    Target("classforms.match_conductor", "quadexp.classforms",
           "match_conductor", ("quadexp.pipeline",)),
    Target("classforms.class_group", "quadexp.classforms", "class_group",
           ("quadexp.pipeline", "quadexp.modular")),
    Target("classforms.pseudo_lattice_reps", "quadexp.classforms",
           "pseudo_lattice_reps", ("quadexp.pipeline",)),
    Target("quadfield.sl2_equivalent", "quadexp.quadfield", "sl2_equivalent",
           ("quadexp.classforms",)),
    Target("quadfield.fundamental_unit", "quadexp.quadfield",
           "fundamental_unit", ("quadexp.pipeline",)),
    Target("modular.hcf_generator", "quadexp.modular", "hcf_generator",
           ("quadexp.pipeline",)),
    Target("modular.ring_class_polynomial_detailed", "quadexp.modular",
           "ring_class_polynomial_detailed"),
    Target("modular.IntegerPolynomial.factor_irreducible", "quadexp.modular",
           "IntegerPolynomial.factor_irreducible"),
    Target("numerics.exp_fixed", "quadexp.numerics", "exp_fixed",
           ("quadexp.recognition", "quadexp.modular")),
    Target("numerics.log_fixed", "quadexp.numerics", "log_fixed",
           ("quadexp.recognition",)),
    Target("numerics.exp_cis", "quadexp.numerics", "exp_cis",
           ("quadexp.recognition", "quadexp.modular")),
    Target("numerics.sqrt_fixed", "quadexp.numerics", "sqrt_fixed",
           ("quadexp.quadfield", "quadexp.modular")),
    Target("sklyanin.check_derivation", "quadexp.sklyanin", "check_derivation",
           ("quadexp.pipeline",)),
    Target("sklyanin.systems_equivalent", "quadexp.sklyanin",
           "systems_equivalent", ("quadexp.pipeline",)),
    Target("sklyanin.complete", "quadexp.sklyanin", "complete"),
)

# span fields
_TARGET, _T0, _T1, _PARENT, _CASE, _INFO = range(6)


def _resolve(target: Target):
    try:
        owner = importlib.import_module(target.module)
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
    except (ImportError, AttributeError) as exc:
        raise TracerError(f"{target.name}: {target.module}.{target.attr} "
                          f"does not resolve ({exc})") from exc
    if not callable(fn):
        raise TracerError(f"{target.name}: {target.module}.{target.attr} "
                          "is not callable")
    return owner, leaf, fn


def _bound_args(fn):
    sig = signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


class Recorder:
    """Times calls into quadexp while installed; see the module docstring."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.case: str | None = None          # id of the running operation
        self.case_precision: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._total: list[float] = []
        self._self: list[float] = []

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        resolved = [_resolve(t) for t in self.targets]
        try:
            for index, (target, (owner, leaf, fn)) in enumerate(
                    zip(self.targets, resolved)):
                self._bind(index, target, owner, leaf, fn)
        except BaseException:
            self.uninstall()
            raise

    def _bind(self, index, target, owner, leaf, fn) -> None:
        wrapper = self._wrap(index, fn, *self._observers(target.name, fn))
        if isinstance(owner, type):
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)
            return
        for name in target.importers:
            held = getattr(sys.modules.get(name), fn.__name__, fn)
            if held is not fn:
                raise TracerError(
                    f"{target.name}: {name}.{fn.__name__} is not the traced "
                    f"function (found {held!r}); its calls would go untimed")
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "")
            if not (mod_name == "quadexp" or mod_name.startswith("quadexp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- per-target observations ---------------------------------------------

    def _observers(self, name, fn):
        """(before, after) hooks that add counts to a span's info dict."""
        if name == "recognition.lll_reduce":
            def before(args, kwargs):
                basis = args[0] if args else kwargs["basis"]
                bits = max((abs(int(v)).bit_length() for row in basis
                            for v in row), default=0)
                return {"rows": len(basis), "bits": bits}
            return before, None
        if name == "recognition.min_poly":
            bind = _bound_args(fn)

            def before(args, kwargs):
                p = bind(args, kwargs)["p"]
                return {"2p": self.case_precision is not None
                        and p == 2 * self.case_precision}

            def after(info, result, exc):
                info["ok"] = exc is None and result.recognized
                return info
            return before, after
        if name == "recognition.member_of_field":
            found_type = importlib.import_module("quadexp.recognition").Membership

            def after(info, result, exc):
                return {"ok": isinstance(result, found_type)}
            return None, after
        if name == "classforms.match_conductor":
            def after(info, result, exc):
                return {"ok": exc is None}
            return None, after
        if name == "modular.ring_class_polynomial_detailed":
            modular = importlib.import_module("quadexp.modular")
            cache_path = getattr(modular, "_cache_path", None)
            if cache_path is None:
                raise TracerError(f"{name}: quadexp.modular._cache_path is "
                                  "gone; cache hits cannot be counted")
            bind = _bound_args(fn)

            def before(args, kwargs):
                a = bind(args, kwargs)
                cache_dir = a.get("cache_dir")
                hit = cache_dir is not None and os.path.exists(
                    cache_path(cache_dir, a["d"], a["f"]))
                return {"hit": hit}
            return before, None
        return None, None

    def _wrap(self, index, fn, before, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            span = [index, 0.0, 0.0, stack[-1] if stack else -1,
                    recorder.case, info]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                span[_T1] = clock()
                stack.pop()
                if after:
                    span[_INFO] = after(info, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- results ---------------------------------------------------------------

    def finish(self, duration) -> None:
        """Compute self times, with ``duration(t0, t1)`` giving seconds."""
        self._total = [duration(s[_T0], s[_T1]) for s in self.spans]
        self._self = list(self._total)
        for span, total in zip(self.spans, self._total):
            if span[_PARENT] >= 0:
                self._self[span[_PARENT]] -= total

    def case_layers(self) -> dict[str, dict[str, float]]:
        """Self time per (case, target name), summed over all spans."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self._self):
            per = out.setdefault(span[_CASE], {})
            name = self.targets[span[_TARGET]].name
            per[name] = per.get(name, 0.0) + own
        return out

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per pass of the workload: name -> (value, unit).

        ``busy_s`` is self time; ``total_s`` includes the child spans.
        """
        names = [t.name for t in self.targets]
        calls = dict.fromkeys(names, 0)
        busy = dict.fromkeys(names, 0.0)
        total = dict.fromkeys(names, 0.0)
        ok = dict.fromkeys(names, 0)
        rows_max = bits_max = hits = misses = 0
        total_2p = 0.0
        per_match = 0
        for span, own, whole in zip(self.spans, self._self, self._total):
            name = names[span[_TARGET]]
            calls[name] += 1
            busy[name] += own
            total[name] += whole
            info = span[_INFO]
            if info is None:
                pass
            elif name == "recognition.lll_reduce":
                rows_max = max(rows_max, info["rows"])
                bits_max = max(bits_max, info["bits"])
            elif name == "modular.ring_class_polynomial_detailed":
                hits += info["hit"]
                misses += not info["hit"]
            else:
                ok[name] += info["ok"]
                if info.get("2p"):
                    total_2p += whole
            if (name == "classforms.class_group" and span[_PARENT] >= 0
                    and names[self.spans[span[_PARENT]][_TARGET]]
                    == "classforms.match_conductor"):
                per_match += 1

        def ratio(num, den):
            return num / den if den else 0.0

        n = max(1, passes)
        out: dict[str, tuple[float, str]] = {}
        for name in names:
            if name == "pipeline.run_case":
                out["pipeline.run_case.self_s"] = (busy[name] / n, "s")
                continue
            out[f"{name}.calls"] = (calls[name] / n, "count")
            out[f"{name}.busy_s"] = (busy[name] / n, "s")
            out[f"{name}.total_s"] = (total[name] / n, "s")
        out["recognition.lll_reduce.rows_max"] = (rows_max, "count")
        out["recognition.lll_reduce.entry_bits_max"] = (bits_max, "bits")
        out["recognition.min_poly.recognized_ratio"] = (
            ratio(ok["recognition.min_poly"], calls["recognition.min_poly"]),
            "ratio")
        out["recognition.min_poly.2p.total_s"] = (total_2p / n, "s")
        out["recognition.member_of_field.found_ratio"] = (
            ratio(ok["recognition.member_of_field"],
                  calls["recognition.member_of_field"]), "ratio")
        out["classforms.match_conductor.hit_ratio"] = (
            ratio(ok["classforms.match_conductor"],
                  calls["classforms.match_conductor"]), "ratio")
        out["classforms.class_group.per_match"] = (
            ratio(per_match, calls["classforms.match_conductor"]), "count")
        out["modular.cache.hits"] = (hits / n, "count")
        out["modular.cache.misses"] = (misses / n, "count")
        return out

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, self time, parent, case."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self._self):
                fh.write(json.dumps({
                    "name": self.targets[span[_TARGET]].name,
                    "t0": span[_T0], "t1": span[_T1], "self_s": own,
                    "parent": span[_PARENT], "case": span[_CASE],
                    "info": span[_INFO]}) + "\n")

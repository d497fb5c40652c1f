"""Spans around calls into koopcascade's public functions, from outside the library.

``Tracer.install`` replaces each function named in ``SPANS`` with a wrapper in
every ``koopcascade`` module that holds it (``cli`` imports names directly, so
the replacement is made there too). Each call records a span: id, name, start,
end, parent span and thread. Each thread keeps its own stack, so the worker
threads of ``repro-paper --trials`` nest their spans correctly. Spans stay in
memory in ``Tracer.spans`` until the caller writes them out.

A layer's self time is the sum over its spans of the duration minus the
durations of their direct children. Time spent in a function that is not
wrapped counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) of every wrapped function. cli.main is the root span of
# a CLI process; validate_conditions and check_error_bounds are wrapped so
# their time is charged to their own module, not to the caller's.
SPANS = (
    ("cli", "main"),
    ("cli", "cmd_repro"),
    ("cli", "run_checks"),
    ("cli", "cmd_eigs"),
    ("cli", "write_manifest"),
    ("cascade", "random_chained_cascade"),
    ("cascade", "CascadeSystem.build"),
    ("cascade", "load_cascade"),
    ("cascade", "validate_conditions"),
    ("linalg", "eig_decompose"),
    ("perturbation", "compute_perturbation"),
    ("perturbation", "apply_perturbation"),
    ("perturbation", "ClosedFormSolution.trace"),
    ("orbits", "iterate_lin"),
    ("orbits", "iterate_nom"),
    ("orbits", "lin_step"),
    ("orbits", "compute_error_series"),
    ("orbits", "check_error_bounds"),
    ("orbits", "check_asymptotic_equivalence"),
    ("orbits", "error_series_to_csv"),
    ("observables", "laplace_average"),
    ("observables", "eigenfunction_residuals"),
    ("observables", "check_eigenfunction_bounds"),
    ("conjugacy", "check_nonlinear_equivalence"),
    ("conjugacy", "check_nonlinear_eigenfunction_decay"),
)
MODULES = ("cli", "cascade", "linalg", "perturbation", "orbits", "observables", "conjugacy")


def _os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.peak_threads = _os_threads()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack or name.startswith("cli."):
                tracer.peak_threads = max(tracer.peak_threads, _os_threads())
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, threading.get_ident(), error)
                )

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "koopcascade" and not mod_name.startswith("koopcascade."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every function in SPANS, and the inverse of each conjugacy
        that ``conjugacy_from_json`` returns (span ``conjugacy.inverse``)."""
        import importlib

        for module, attr in SPANS:
            mod = importlib.import_module(f"koopcascade.{module}")
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self.wrap(name, original))

        conjugacy = importlib.import_module("koopcascade.conjugacy")
        from_json = conjugacy.conjugacy_from_json

        def traced_from_json(obj):
            conj = from_json(obj)
            return dataclasses.replace(
                conj, inverse=self.wrap("conjugacy.inverse", conj.inverse)
            )

        self._replace_everywhere(from_json, traced_from_json)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, self seconds, and calls that raised, by exception."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "raised": {}})
    for span_id, name, start, end, _, _, error in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[span_id]
        if error is not None:
            entry["raised"][error] = entry["raised"].get(error, 0) + 1
    return dict(out)

"""Per-layer spans around the public functions of ``bose_eos``.

Each traced function is replaced by a wrapper in its defining module and at
every alias of it in other ``bose_eos`` modules (``from .special import
bose_g`` binds a second name that must be wrapped too). A wrapper records a
span only while ``Tracer.active`` is set, so untimed checks between ops are
not counted.

Spans are folded into counters as they close: calls, self time (the span's
duration minus the time its child spans cover), errors raised through it,
and for ``bose_g`` the summed ``terms_used`` split by input class. A span
that opens on a thread with no open span of its own (a sweep pool thread)
is a child of the open ``run_sweep`` span; those children may overlap, so
``run_sweep`` subtracts the union of their intervals.

A target missing from the package (renamed or removed by a refactor) is
listed in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, public name) pairs to wrap; the metric prefix is "module.name".
TARGETS = (
    ("special", "bose_g"),
    ("special", "zeta"),
    ("special", "gamma"),
    ("gas", "as_natural"),
    ("gas", "prefactor_A"),
    ("isochore", "critical_temperature_density"),
    ("isobar", "critical_temperature_pressure"),
    ("rootfind", "solve_bose_equation"),
    ("isochore", "solve_gap_isochore"),
    ("isochore", "pressure_at"),
    ("isobar", "solve_gap_isobar"),
    ("sweep", "run_sweep"),
    ("criticality", "extract_exponents"),
    ("criticality", "landau_model"),
)

BOSE_G = "special.bose_g"
SOLVE = "rootfind.solve_bose_equation"
SWEEP = "sweep.run_sweep"

# Input classes of bose_g(nu, y); "int" means nu within 1e-6 of an integer.
SMALL_Y = 1e-3
MID_Y = 0.05
INTEGER_TOL = 1e-6


def bose_g_class(args: tuple, kwargs: dict) -> str:
    """Input class of a bose_g(nu, y) call, "other" if the arguments are not scalars."""
    try:
        nu = float(args[0] if args else kwargs["nu"])
        y = float(args[1] if len(args) > 1 else kwargs["y"])
    except (IndexError, KeyError, TypeError, ValueError):
        return "other"
    if y <= 0.0:
        return "zero"
    if y < SMALL_Y:
        return "small_int" if abs(nu - round(nu)) < INTEGER_TOL else "small_nonint"
    return "mid" if y < MID_Y else "large"


class _Frame:
    __slots__ = ("child", "intervals")

    def __init__(self):
        self.child = 0.0  # summed durations of same-thread children
        self.intervals = None  # (start, end) of pool-thread children, run_sweep only


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: _Frame | None = None  # the open top-level run_sweep span

    def install(self, package: str = "bose_eos") -> None:
        """Wrap every target in the package's modules, recording absent ones."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            try:
                fn = getattr(importlib.import_module(f"{package}.{mod_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.solve_depth = 0
        return local

    def _wrap(self, name: str, fn):
        tracer = self
        is_bose_g, is_solve, is_sweep = name == BOSE_G, name == SOLVE, name == SWEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._state()
            stack = local.stack
            frame = _Frame()
            if is_sweep and not stack:
                frame.intervals = []
                tracer._root = frame
            if is_solve:
                local.solve_depth += 1
            in_solve = is_bose_g and local.solve_depth > 0
            stack.append(frame)
            failed = False
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_solve:
                    local.solve_depth -= 1
                duration = t1 - t0
                own = duration - frame.child
                if frame.intervals is not None:
                    tracer._root = None
                    own -= _covered(frame.intervals)
                if stack:
                    stack[-1].child += duration
                    root = None
                else:
                    root = tracer._root
                extra = None
                if is_bose_g:
                    terms = getattr(result, "terms_used", 0) or 0
                    extra = (bose_g_class(args, kwargs), terms)
                with tracer._lock:
                    if root is not None:
                        root.intervals.append((t0, t1))
                    tracer._record(name, own, failed, extra, in_solve)

        return traced

    def _record(self, name, own, failed, extra, in_solve) -> None:
        s = self.stats
        s[name + ".calls"] += 1
        s[name + ".self_ms"] += own * 1e3
        if failed:
            s[name + ".errors"] += 1
        if extra is not None:
            cls, terms = extra
            s[name + ".terms"] += terms
            s[f"{name}.{cls}.calls"] += 1
            s[f"{name}.{cls}.self_ms"] += own * 1e3
            s[f"{name}.{cls}.terms"] += terms
            if failed:
                s[f"{name}.{cls}.errors"] += 1
        if in_solve:
            s[SOLVE + ".g_evals"] += 1

"""Layer tracing from outside the package.

``Tracer.install`` wraps the public functions of the ``deltasubh`` modules by
rebinding each one in every module that holds it (names are imported by
value, so ``lab`` holds its own ``dini_integral_result``, ``measures`` its own
``integrate_interval``, and so on), wraps two class methods, and wraps every
integrand handed to a quadrature engine.  ``uninstall`` puts the originals
back, so untraced timings run the unmodified code.

Each call is a span: name, start, end, parent span and scenario index, kept
in flat arrays and written out by ``save``.  Self time is a span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import logging
import math
import sys
import time
from array import array

import numpy as np

from deltasubh import potentials
from deltasubh.quadrature import QuadratureBudgetError


# Node counters take (call arguments, result).

def _nodes_used(args, result) -> int:
    return result.nodes_used


def _point_rows(args, result) -> int:
    return int(np.shape(np.atleast_2d(args[1]))[0])


def _z_size(args, result) -> int:
    return int(np.size(args[1]))


def _integrand_nodes(args, result) -> int:
    return int(np.size(args[0]))


# (module, function, node counter or None); each is rebound in
# every deltasubh module that holds it.  geometry, scenario_io and cli do
# negligible work in the workloads, so they get no spans.
FUNCTIONS = (
    ("lab", "generate_scenario", None),
    ("lab", "run_checks", None),
    ("lab", "positive_part_integral", _nodes_used),
    ("lab", "verify_poisson_jensen", None),
    ("lab", "verify_pointwise_bound", None),
    ("characteristics", "spherical_mean", None),
    ("characteristics", "nevanlinna_m", None),
    ("characteristics", "nevanlinna_T", None),
    ("characteristics", "difference_characteristic", None),
    ("characteristics", "difference_characteristic_canonical", None),
    ("measures", "dini_integral_result", _nodes_used),
    ("measures", "integrated_counting_result", _nodes_used),
    ("measures", "modulus_profile", None),
    ("potentials", "canonical_representation", None),
    ("potentials", "jordan_decomposition", None),
)
# The engines also wrap the integrand they are given (first argument).
ENGINES = ("integrate_interval", "circle_mean", "sphere_mean_3d")
# (class, method, point counter)
METHODS = (
    (potentials.DeltaSubharmonicFn, "values_with_polar", _point_rows),
    (potentials.MeromorphicFn, "log_abs", _z_size),
)
# potential_values is wrapped only where lab calls it (the reflected and
# direct potentials of Ux and U+B); its calls from SubharmonicFn.values are
# already inside values_with_polar spans.
LAB_ONLY = ("potential_values",)

INTEGRAND = "quadrature.integrand"


class _Stat:
    __slots__ = ("calls", "total", "self_time", "nodes")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.nodes = 0


class _NudgeCounter(logging.Handler):
    """Counts records on the quadrature logger: one per nudge event."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_scenario = array("i")
        self.stats: dict = {}
        self.scenario = -1
        self.budget_errors = 0
        self._stack: list = []  # [span index, time covered by direct children]
        self._nudges = _NudgeCounter()
        self._rebinds: list = []  # (namespace, attribute, original)
        self._wrappers = self._build_wrappers()
        self._stat(INTEGRAND)

    # -- spans ------------------------------------------------------------

    def _stat(self, name: str) -> tuple:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = _Stat()
        return self._ids[name], self.stats[name]

    def _span(self, name: str, fn, count=None, engine=False):
        """Wrap fn in a span; count(args, result) adds to the node tally."""
        name_id, stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if engine and not getattr(args[0], "_bench_integrand", False):
                args = (self._integrand(args[0]),) + args[1:]
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_scenario.append(self.scenario)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(math.nan)
            try:
                result = fn(*args, **kwargs)
            except QuadratureBudgetError as exc:
                if engine and not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.budget_errors += 1
                raise
            finally:
                end = clock()
                self.span_end[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
            if count is not None:
                stat.nodes += count(args, result)
            return result

        return wrapper

    def _integrand(self, f):
        wrapped = self._span(INTEGRAND, f, _integrand_nodes)
        wrapped._bench_integrand = True
        return wrapped

    # -- installation -----------------------------------------------------

    def _build_wrappers(self) -> list:
        """[(namespaces to rebind in or None for all, original, wrapper)]."""
        mods = _deltasubh_modules()
        out = []
        for module, name, nodes in FUNCTIONS:
            fn = getattr(mods[f"deltasubh.{module}"], name)
            out.append((None, fn, self._span(f"{module}.{name}", fn, nodes)))
        for name in ENGINES:
            fn = getattr(mods["deltasubh.quadrature"], name)
            out.append((None, fn, self._span(f"quadrature.{name}", fn, _nodes_used,
                                             engine=True)))
        lab = mods["deltasubh.lab"]
        for name in LAB_ONLY:
            fn = getattr(lab, name)
            out.append(([lab], fn, self._span(f"potentials.{name}", fn, _point_rows)))
        for cls, name, count in METHODS:
            fn = vars(cls)[name]
            out.append(([cls], fn, self._span(f"potentials.{name}", fn, count)))
        return out

    def install(self):
        """Rebind every target in every namespace that holds it."""
        if self._rebinds:
            raise RuntimeError("tracer already installed")
        modules = list(_deltasubh_modules().values())
        for namespaces, original, wrapper in self._wrappers:
            for target in namespaces or modules:
                for attr, value in list(vars(target).items()):
                    if value is original:
                        self._rebinds.append((target, attr, original))
                        setattr(target, attr, wrapper)
        logger = logging.getLogger("deltasubh.quadrature")
        self._old_level = logger.level
        logger.setLevel(logging.DEBUG)
        logger.addHandler(self._nudges)

    def uninstall(self):
        for target, attr, original in reversed(self._rebinds):
            setattr(target, attr, original)
        self._rebinds.clear()
        logger = logging.getLogger("deltasubh.quadrature")
        logger.removeHandler(self._nudges)
        logger.setLevel(self._old_level)

    @property
    def nudge_events(self) -> int:
        return self._nudges.count

    # -- output -----------------------------------------------------------

    def save(self, path):
        """Write every span as flat arrays (start/end in perf_counter seconds)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            scenario=np.frombuffer(self.span_scenario, dtype=np.int32),
        )


def _deltasubh_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "deltasubh" or name.startswith("deltasubh."))}

"""Spans around the public functions of each csfq3d module.

``Tracer.installed()`` replaces every binding of a wrapped function in the
csfq3d namespaces -- the defining module and every module that took the name
with ``from .x import y`` -- plus ``HamiltonianOperator.matvec`` on its class,
and restores every original on exit.  Only the benchmark's own files change;
nothing under ``src/`` is touched.

Spans nest.  A span's self time is its duration minus its child spans, and a
layer's time counts a span nested inside another span of the same layer once.
Spans are aggregated as they close (calls and time per function; calls,
time and self time per layer) instead of being kept, so a traced pass of a few
hundred thousand calls costs a few dictionaries of memory.

Work the benchmark does for itself while spans are open (the residual
recomputation, the bookkeeping hooks) runs under ``suspended()``: wrapped
functions then call straight through, and the suspended time is subtracted
from every open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
import weakref
from contextlib import contextmanager

import numpy as np

LAYERS = ("core", "analytic", "numeric", "cqed", "decoherence", "filters", "fit", "cli")
# Methods wrapped on classes; every public module-level function of a layer
# is wrapped.  core is not wrapped: its functions sit under every property
# access (QubitParams.E_CS) and would cost more to trace than they take; the
# core layer is measured by its import time.
METHODS = {"numeric": {"HamiltonianOperator": ("matvec",)}}
SKIPPED_LAYERS = ("core",)

GRID_SIZES = (64, 80, 128)
FLUX_POINTS = (0.5, 0.49)
DECOHERENCE_TIMED = ("qp_relaxation_rate", "flux_dephasing_rates",
                     "effective_temperature", "decay_envelope")
MODEL_LAYERS = ("analytic", "decoherence")
# numeric metrics per 2D grid size, taken from the basis-convergence study
PER_GRID_SIZE = (
    *(f"numeric.{kind}.n{n}" for kind in ("matvec_us", "solve_s") for n in GRID_SIZES),
    *(f"numeric.lanczos_vectors.n{n}_f{f:g}" for n in GRID_SIZES for f in FLUX_POINTS),
)

# Counts that repeat bit for bit for the same inputs.
EXACT = (
    "numeric.solves", "numeric.unique_solve_ratio", "numeric.lanczos_vectors",
    "numeric.matvec_calls",
    *(f"numeric.lanczos_vectors.n{n}_f{f:g}" for n in GRID_SIZES for f in FLUX_POINTS),
    "fit.fits", "fit.lm_iterations", "fit.model_evals", "decoherence.calls",
    "analytic.calls", "filters.calls", "filters.points", "cqed.calls", "trace.spans",
)

_clock = time.perf_counter_ns
_SOLVE = "numeric.lowest_eigenpairs"


def residual_rel(op, result) -> float:
    """max_i ||H v_i - E_i v_i|| / energy_scale, recomputed with op.matvec."""
    worst = 0.0
    for i, energy in enumerate(result.eigenvalues):
        vector = result.eigenvectors[:, i]
        norm = float(np.linalg.norm(op.matvec(vector) - energy * vector))
        worst = max(worst, norm / op.energy_scale)
    return worst


class Tracer:
    """Aggregated spans of one traced pass.  ``export()`` gives plain JSON
    counters that ``merge`` adds across processes and ``layer_metrics`` turns
    into the per-layer metrics."""

    def __init__(self):
        self.stack: list[list] = []
        self.excluded_ns = 0
        self.suspend_level = 0
        self.functions: dict[str, list[int]] = {}   # key -> [calls, total ns]
        self.layers = {layer: [0, 0, 0, 0] for layer in LAYERS}
        self.solve_children: dict[str, int] = {}   # ns of direct children of solves
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.solve_keys: list[list] = []
        self.model_evals = 0
        self._patched: list[tuple[object, str, object]] = []
        self.op_flux = weakref.WeakKeyDictionary()   # operator -> flux it was built at

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        importlib.import_module("csfq3d.cli")  # loads every layer
        wrappers = {}
        for layer in LAYERS:
            if layer in SKIPPED_LAYERS:
                continue
            module = sys.modules[f"csfq3d.{layer}"]
            for name, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(layer, f"{layer}.{name}", value))
            for class_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, class_name)
                for method in methods:
                    original = cls.__dict__[method]
                    key = f"{layer}.{class_name}.{method}"
                    self._patch(cls, method, original, self._wrap(layer, key, original))
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "csfq3d" or module_name.startswith("csfq3d.")):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, value, entry[1])

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- spans --------------------------------------------------------------

    @contextmanager
    def suspended(self):
        self.suspend_level += 1
        start = _clock()
        try:
            yield
        finally:
            self.excluded_ns += _clock() - start
            self.suspend_level -= 1

    def _wrap(self, layer, key, fn):
        # The body is inlined and keeps its counters in closure lists: it runs
        # on every wrapped call, e.g. ~7,500 matvecs per sweep and every model
        # evaluation inside a fit.
        hook = _HOOKS.get(key)
        if hook is None and layer == "fit" and fn.__name__.startswith("fit_"):
            hook = _fit_hook
        signature = inspect.signature(fn)
        stats = self.functions.setdefault(key, [0, 0])      # calls, total ns
        totals = self.layers[layer]                          # calls, ns, self ns, open spans
        model = layer in MODEL_LAYERS
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.suspend_level:
                return fn(*args, **kwargs)
            frame = [0, tracer.excluded_ns, layer, key]    # child ns, excluded ns at start
            stack.append(frame)
            totals[3] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                totals[3] -= 1
                duration = end - start - (tracer.excluded_ns - frame[1])
                stats[0] += 1
                stats[1] += duration
                totals[0] += 1
                totals[2] += duration - frame[0]
                if not totals[3]:
                    totals[1] += duration
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    if model and parent[2] == "fit":
                        tracer.model_evals += 1
                    elif parent[3] == _SOLVE:
                        tracer.solve_children[key] = tracer.solve_children.get(key, 0) + duration
            if hook is not None:
                with tracer.suspended():
                    hook(tracer, signature, args, kwargs, result, duration)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- results ------------------------------------------------------------

    def export(self) -> dict:
        """Plain JSON counters of everything recorded so far."""
        counters = dict(self.counters)
        for key, (calls, total) in self.functions.items():
            counters[f"fn.{key}.calls"] = calls
            counters[f"fn.{key}.s"] = total / 1e9
        for layer, (calls, total, own, _) in self.layers.items():
            counters[f"layer.{layer}.calls"] = calls
            counters[f"layer.{layer}.s"] = total / 1e9
            counters[f"layer.{layer}.self_s"] = own / 1e9
        for child, total in self.solve_children.items():
            counters[f"solve_child.{child}.s"] = total / 1e9
        counters["fit.model_evals"] = self.model_evals
        return {"counters": counters, "maxima": dict(self.maxima),
                "solve_keys": list(self.solve_keys)}


def span_cost_us(calls: int = 100_000) -> float:
    """Cost of one span in microseconds: a wrapped no-op minus the bare no-op,
    best of three loops each.  trace.spans x this estimates the tracing
    overhead where run-to-run noise hides the measured difference."""

    def noop():
        return None

    wrapped = Tracer()._wrap("analytic", "calibration.noop", noop)

    def loop(fn) -> int:
        start = _clock()
        for _ in range(calls):
            fn()
        return _clock() - start

    bare = min(loop(noop) for _ in range(3))
    traced = min(loop(wrapped) for _ in range(3))
    return (traced - bare) / calls / 1e3


def merge(exports) -> dict:
    """Sum counters, take maxima, and concatenate solve keys across exports."""
    merged = {"counters": {}, "maxima": {}, "solve_keys": []}
    for item in exports:
        for name, value in item["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in item["maxima"].items():
            merged["maxima"][name] = max(merged["maxima"].get(name, value), value)
        merged["solve_keys"].extend(item["solve_keys"])
    return merged


def layer_metrics(exported: dict) -> dict[str, float]:
    """Per-layer metrics from merged exports; zero where nothing was called."""
    c = exported["counters"]
    m = exported["maxima"]

    def get(name):
        return c.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    matvec = "numeric.HamiltonianOperator.matvec"
    solve = "numeric.lowest_eigenpairs"
    solves = get(f"fn.{solve}.calls")
    out = {
        "numeric.solves": solves,
        "numeric.unique_solve_ratio": ratio(len({tuple(k) for k in exported["solve_keys"]}), solves),
        "numeric.lanczos_vectors": get("numeric.lanczos_vectors"),
        "numeric.matvec_calls": get(f"fn.{matvec}.calls"),
        "numeric.solve_s": get(f"fn.{solve}.s"),
        "numeric.solve_self_s": get(f"fn.{solve}.s") - get(f"solve_child.{matvec}.s"),
        "numeric.matvec_s": get(f"fn.{matvec}.s"),
        "numeric.build_s": get("fn.numeric.build_hamiltonian_2d.s")
        + get("fn.numeric.build_hamiltonian_1d.s"),
        "numeric.basis_mb": m.get("numeric.basis_mb", 0.0),
        "numeric.max_residual_rel": m.get("numeric.max_residual_rel", 0.0),
    }
    for n in GRID_SIZES:
        out[f"numeric.matvec_us.n{n}"] = 1e6 * ratio(get(f"numeric.matvec_s.n{n}"),
                                                     get(f"numeric.matvec_calls.n{n}"))
        out[f"numeric.solve_s.n{n}"] = get(f"numeric.solve_s.n{n}")
        for f in FLUX_POINTS:
            name = f"numeric.lanczos_vectors.n{n}_f{f:g}"
            out[name] = m.get(name, 0)
    fits = get("fit.fits")
    out.update({
        "fit.fits": fits,
        "fit.lm_iterations": get("fit.lm_iterations"),
        "fit.model_evals": get("fit.model_evals"),
        "fit.converged_ratio": ratio(get("fit.converged"), fits),
        "fit.s": get("layer.fit.s"),
        "fit.self_s": get("layer.fit.self_s"),
        "decoherence.calls": get("layer.decoherence.calls"),
        "decoherence.s": get("layer.decoherence.s"),
        "analytic.calls": get("layer.analytic.calls"),
        "analytic.s": get("layer.analytic.s"),
        "filters.calls": get("layer.filters.calls"),
        "filters.points": get("filters.points"),
        "filters.s": get("layer.filters.s"),
        "cqed.calls": get("layer.cqed.calls"),
        "cqed.s": get("layer.cqed.s"),
        "cli.self_s": get("layer.cli.self_s"),
        "trace.spans": sum(get(f"layer.{layer}.calls") for layer in LAYERS),
    })
    for name in DECOHERENCE_TIMED:
        out[f"decoherence.s.{name}"] = get(f"fn.decoherence.{name}.s")
    return out


# -- hooks: run after a wrapped call returns, with tracing suspended ----------


def _solve_hook(tracer, signature, args, kwargs, result, duration):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    op = bound.arguments["op"]
    n = op.grid.n
    flux = tracer.op_flux.get(op)
    tracer.solve_keys.append([op.ndim, n, bound.arguments["k"], flux])
    tracer.add("numeric.lanczos_vectors", result.iterations)
    tracer.peak("numeric.basis_mb", op.dim * result.iterations * 8 / 1e6)
    tracer.peak("numeric.max_residual_rel", residual_rel(op, result))
    if op.ndim == 2:
        tracer.add(f"numeric.solve_s.n{n}", duration / 1e9)
        if flux is not None:
            tracer.peak(f"numeric.lanczos_vectors.n{n}_f{flux:g}", result.iterations)


def _matvec_hook(tracer, signature, args, kwargs, result, duration):
    op = args[0]
    if op.ndim == 2:
        n = op.grid.n
        tracer.add(f"numeric.matvec_calls.n{n}", 1)
        tracer.add(f"numeric.matvec_s.n{n}", duration / 1e9)


def _build_2d_hook(tracer, signature, args, kwargs, result, duration):
    from csfq3d.core import normalized_flux

    flux = signature.bind(*args, **kwargs).arguments["f"]
    tracer.op_flux[result] = round(normalized_flux(flux), 12)


def _filter_hook(tracer, signature, args, kwargs, result, duration):
    omega = signature.bind(*args, **kwargs).arguments["omega"]
    tracer.add("filters.points", int(np.size(omega)))


def _fit_hook(tracer, signature, args, kwargs, result, duration):
    tracer.add("fit.fits", 1)
    tracer.add("fit.lm_iterations", result.iterations)
    tracer.add("fit.converged", int(bool(result.converged)))


_HOOKS = {
    "numeric.lowest_eigenpairs": _solve_hook,
    "numeric.HamiltonianOperator.matvec": _matvec_hook,
    "numeric.build_hamiltonian_2d": _build_2d_hook,
    "filters.filter_function": _filter_hook,
}

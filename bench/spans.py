"""Span tracer for the traced pass.

The tracer wraps public functions of the ``beckner`` modules from outside the
package; nothing in ``src/beckner`` knows about it.  Each wrapped function
belongs to a layer (a span name such as ``numerics.quad``).  A call opens a
span unless the innermost open span is of the same layer, in which case it
runs as part of that span.  Spans are aggregated as they close, per layer:
the number of spans, their total time and their self time (duration minus
the time covered by child spans).  Per function, the tracer also counts calls
and the exceptions that propagate out of it, and hooks add work counts from
return values (points evaluated, quadrature evaluations, paths simulated).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.layers = {}          # layer -> [spans, total_s, self_s]
        self.calls = Counter()    # function key -> calls
        self.errors = Counter()   # "key:ExceptionType" -> calls that raised
        self.counts = Counter()   # work counters filled by hooks
        self._stack = []          # open spans: [layer, child_s]

    def wrap(self, fn, layer, key, on_enter=None, on_return=None):
        """A traced stand-in for ``fn``.

        ``on_enter(tracer, args)`` runs when the call opens a span;
        ``on_return(tracer, result, opened)`` runs on every normal return.
        """
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            opened = not (stack and stack[-1][0] == layer)
            if opened:
                if on_enter is not None:
                    on_enter(self, args)
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[f"{key}:{type(exc).__name__}"] += 1
                raise
            finally:
                if opened:
                    dt = perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    agg = self.layers.setdefault(layer, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - frame[1]
            if on_return is not None:
                on_return(self, out, opened)
            return out

        return traced

    def summary(self) -> dict:
        return {"layers": self.layers, "calls": dict(self.calls),
                "errors": dict(self.errors), "counts": dict(self.counts)}


def _rebind(original, replacement):
    """Point every name bound to ``original`` in the beckner modules and
    their classes at ``replacement``.

    ``from .qtm import qtm_quadrature``-style imports give one function
    several module-level names, and class attributes can alias a method
    (``__rmul__ = __mul__``), so every binding is rebound, not just the
    defining one.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "beckner" or name.startswith("beckner.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)
                              and v.__module__.startswith("beckner")]:
            for attr, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, attr, replacement)


class _SympyView:
    """The sympy module as ``beckner.fields`` sees it, with ``diff`` and
    ``lambdify`` traced; every other attribute is sympy's own."""

    def __init__(self, sympy, **traced):
        self._sympy = sympy
        self.__dict__.update(traced)

    def __getattr__(self, name):
        return getattr(self._sympy, name)


def _points(tracer, args):
    # args = (field, points[, ...]) or (field, alpha, points) for `partial`
    pts = args[-1]
    shape = getattr(pts, "shape", None)
    if shape is None:
        shape = np.shape(pts)
    tracer.counts["fields.eval_points"] += shape[0] if len(shape) == 2 else 1


def _quad_evals(tracer, est, opened):
    if opened:
        tracer.counts["numerics.n_evals"] += est.n_evals


def _panels(tracer, est, opened):
    tracer.counts["numerics.panels"] += est.n_evals // 15


def _mc_samples(tracer, est, opened):
    if opened:
        tracer.counts["numerics.mc_samples"] += est.n_evals


def _samples(tracer, out, opened):
    if opened:
        first = out[0] if isinstance(out, tuple) else out
        tracer.counts["measures.samples"] += len(first)


def _paths(tracer, out, opened):
    times, hit = out[-2], out[-1]
    tracer.counts["bessel.paths"] += len(times)
    tracer.counts["bessel.hits"] += int(np.count_nonzero(hit))


# layer -> [(module, attribute path, on_enter, on_return)]
_TARGETS = {
    "fields.build": [("beckner.fields", a, None, None) for a in (
        "DifferentiableField.__init__", "DifferentiableField.power",
        "DifferentiableField.grad_norm_squared",
        "DifferentiableField.compose_scalar", "DifferentiableField.__add__",
        "DifferentiableField.__mul__", "affine_precompose", "constant",
        "coordinate", "quadratic", "trig", "gaussian_bump", "positive_bump",
        "make_power_of_rho", "standard_library")],
    "fields.eval": [("beckner.fields", "DifferentiableField." + a, _points, None)
                    for a in ("value", "__call__", "partial", "gradient",
                              "laplacian")],
    "numerics.quad": [("beckner.numerics", "integrate_rd", None, _quad_evals),
                      ("beckner.numerics", "integrate_radial", None, _quad_evals),
                      ("beckner.numerics", "integrate_interval", None, _panels)],
    "numerics.angular_rule": [("beckner.numerics", "angular_rule", None, None)],
    "numerics.fd": [("beckner.numerics", "fd_derivative", None, None)],
    "numerics.mc": [("beckner.numerics", "mc_estimate", None, _mc_samples)],
    "qtm.quadrature": [("beckner.qtm", "qtm_quadrature", None, None)],
    "qtm.subordinated": [("beckner.qtm", "qtm_subordinated", None, None)],
    "qtm.mc": [("beckner.qtm", "qtm_mc", None, None)],
    "qtm.harmonicity": [("beckner.qtm", "harmonicity_residual", None, None)],
    "measures.integrate": [("beckner.measures", "CauchyMeasure.integrate",
                            None, None)],
    "measures.sample": [("beckner.measures", a, None, _samples) for a in (
        "sample_hitting", "sample_tkernel", "sample_coupled", "sample_gamma")],
    "bessel.simulate": [("beckner.bessel", a, None, _paths) for a in (
        "simulate_joint_paths", "simulate_hitting_paths")],
    "bessel.dynkin": [("beckner.bessel", "dynkin_check", None, None)],
    "gamma2.operator": [("beckner.gamma2", a, None, None) for a in (
        "euclidean", "halfspace_m", "sphere_stereo")],
    "gamma2.pointwise": [("beckner.gamma2", a, None, None) for a in (
        "op_L", "gamma", "gamma2", "cd_residual", "qm_residual",
        "cd1_residual", "reinforced_cd_residual", "phi_conditions")],
    "sphere.identities": [("beckner.sphere", a, None, None) for a in (
        "eigenfunction_residuals", "log_rho_identities")],
    "sphere.constant_R": [("beckner.sphere", "constant_R", None, None)],
    "sphere.integrate": [("beckner.sphere", "SphereGeometry." + a, None, None)
                         for a in ("integrate", "dirichlet_energy")],
    "sphere.deficit": [("beckner.sphere", a, None, None) for a in (
        "sphere_beckner_deficit", "classical_beckner_deficit")],
    "inequalities.deficit": [("beckner.inequalities", a, None, None) for a in (
        "beckner_cauchy_deficit", "poincare_cauchy_deficit",
        "beckner_qt_deficit", "phi_entropy_deficit",
        "gaussian_beckner_deficit")],
    "inequalities.rayleigh": [("beckner.inequalities",
                               "optimal_constant_rayleigh", None, None)],
    "cli.main": [("beckner.cli", "main", None, None)],
    "cli.run_suite": [("beckner.cli", "run_suite", None, None)],
}


def install(tracer: Tracer) -> list:
    """Wrap every target that exists; returns the targets that do not.

    A target missing from a later version of the package is skipped, so its
    metrics read 0 instead of breaking the benchmark.
    """
    missing = []
    for layer, targets in _TARGETS.items():
        for module, path, on_enter, on_return in targets:
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            # __init__ and friends must be the class's own, not object's
            if original is None or (outer and attr not in vars(owner)):
                missing.append(f"{module}.{path}")
                continue
            key = f"{module.split('.')[-1]}.{path}"
            _rebind(original, tracer.wrap(original, layer, key, on_enter, on_return))
    fields = sys.modules["beckner.fields"]
    sympy = getattr(fields, "sp", None)
    if sympy is None:
        missing.append("beckner.fields.sp")
    else:
        fields.sp = _SympyView(sympy, **{
            name: tracer.wrap(getattr(sympy, name), "fields.compile",
                              f"sympy.{name}")
            for name in ("diff", "lambdify")})
    return missing

"""Spherical analysis in the stereographic chart (d >= 2).

The sphere never appears as a mesh: all integrals run in the chart against
the conformal weight, the missing antipode being a null set.  The module
carries the chart identities (eigenfunction, log-conformal-factor
formulas, the constant arising in the non-tight Beckner family) and the
deficit computations for the sphere inequalities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fields import (DifferentiableField, grad_norm_squared, log,
                     make_power_of_rho, quadratic)
from .gamma2 import sphere_stereo, value_L_gamma
from .inequalities import DeficitReport
from .measures import log_norm_const
from .numerics import Estimate, QuadratureConfig, integrate_rd


@dataclass(frozen=True)
class SphereGeometry:
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("spherical analysis needs d >= 2")

    @property
    def log_norm(self) -> float:
        return log_norm_const(self.d, self.d)

    def integrate(self, f, config: QuadratureConfig | None = None) -> Estimate:
        """Integral of a vectorized f against the uniform sphere measure."""
        config = config or QuadratureConfig()
        d, log_c = self.d, self.log_norm

        def g(pts):
            r2 = np.sum(pts * pts, axis=1)
            return np.asarray(f(pts), dtype=float) * np.exp(-d * np.log1p(r2) - log_c)

        # weight decays like r^{-2d}: tail beyond R is ~ R^{-d}/(d c)
        cutoff = max((10.0 / (config.abs_tol * d)) ** (1.0 / d), 50.0)
        return integrate_rd(g, d, config, cutoff=cutoff)

    def dirichlet_energy(self, f: DifferentiableField,
                         config: QuadratureConfig | None = None) -> Estimate:
        """Integral of the spherical energy density (rho^4/4)|grad f|^2."""
        return self.integrate(sphere_stereo(self.d).a * grad_norm_squared(f), config)


@lru_cache(maxsize=None)
def eigenfunction_u(d: int) -> DifferentiableField:
    """u(x) = (1-|x|^2)/(1+|x|^2), the chart form of the degree-1 eigenfunction."""
    return (1.0 - quadratic(d)) * make_power_of_rho(-2.0, d)


@lru_cache(maxsize=None)
def _log_rho(d: int) -> DifferentiableField:
    """log rho = log(1+|x|^2)/2, the log of the chart's conformal factor."""
    return 0.5 * log(quadratic(d) + 1.0)


def _log_rho_terms(d: int, x):
    """(u(x), Delta_S log rho, Gamma_S log rho) at a chart point."""
    _, lap, gam = value_L_gamma(sphere_stereo(d), _log_rho(d), x)
    return float(eigenfunction_u(d).value(x)), lap, gam


def eigenfunction_residuals(d: int, x):
    """(u(x), |Delta_S u + d u|, |Gamma_S(u) - (1 - u^2)|) at a chart point."""
    uv, lap, gam = value_L_gamma(sphere_stereo(d), eigenfunction_u(d), x)
    return uv, abs(lap + d * uv), abs(gam - (1.0 - uv ** 2))


def log_rho_identities(d: int, x):
    """Residuals of the closed forms for Delta_S log rho and Gamma_S log rho."""
    uv, lap, gam = _log_rho_terms(d, x)
    lap_res = abs(lap - (1.0 + uv * (d - 1.0)) / (2.0 * (1.0 + uv)))
    gam_res = abs(gam - (1.0 - uv) / (4.0 * (1.0 + uv)))
    return lap_res, gam_res


def constant_R(m: float, d: int, x) -> float:
    """Pointwise value of the chart function that collapses to a constant.

    K = (m-d)^2 (2 Delta_S log rho / (d-m-2) + Gamma_S log rho);
    R = (c(d,d)/c(m,d)) (2/(1+u) - 4 (m-d+2)/(m-d)^2 K/(m-2+d)).

    The coefficient 4 comes from expanding 2(beta+1)(beta+2)/(m-2) times
    the norm-constant ratio at index m-2; it is what makes R constant.
    """
    if m <= d:
        raise DomainError("need m > d")
    uv, lap, gam = _log_rho_terms(d, x)
    K = (m - d) ** 2 * (2.0 * lap / (d - m - 2.0) + gam)
    ratio = math.exp(log_norm_const(d, d) - log_norm_const(m, d))
    return ratio * (2.0 / (1.0 + uv)
                    - 4.0 * (m - d + 2.0) / (m - d) ** 2 * K / (m - 2.0 + d))


def constant_R_closed_form(m: float, d: int) -> float:
    return math.exp(log_norm_const(d, d) - log_norm_const(m, d)) \
        * (3.0 * d + m - 2.0) / (d + m - 2.0)


@dataclass(frozen=True)
class SphereBecknerParams:
    m: float
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("need d >= 2")
        if self.m < self.d + 2:
            raise DomainError("the sphere family needs m >= d + 2")

    @property
    def p(self) -> float:
        return 1.0 + 2.0 / (self.m - self.d)

    @property
    def A(self) -> float:
        ratio = math.exp(log_norm_const(self.d, self.d)
                         - log_norm_const(self.m, self.d))
        return ratio ** (2.0 / (self.m - self.d)) \
            * (self.m + self.d - 2.0) / (self.m + 3.0 * self.d - 2.0)

    @property
    def gradient_constant(self) -> float:
        return 16.0 / ((self.m + 2.0 - self.d) * (3.0 * self.d - 2.0 + self.m))


def sphere_beckner_deficit(f: DifferentiableField, params: SphereBecknerParams,
                           cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the non-tight sphere inequality for a positive field."""
    if not f.positive:
        raise DomainError("the sphere family is stated for positive fields")
    cfg = cfg or QuadratureConfig()
    geo = SphereGeometry(params.d)
    p = params.p
    sq = geo.integrate(f.power(2).value, cfg)
    frac = geo.integrate(f.power(2.0 / p).value, cfg)
    energy = geo.dirichlet_energy(f, cfg)
    lhs_val = sq.value
    rhs_val = params.A * frac.value ** p + params.gradient_constant * energy.value
    frac_err = p * max(frac.value, 0.0) ** (p - 1.0) * frac.error_bound
    rhs_err = params.A * frac_err + params.gradient_constant * energy.error_bound
    return DeficitReport(
        lhs=Estimate(lhs_val, sq.error_bound, sq.n_evals),
        rhs=Estimate(rhs_val, rhs_err, frac.n_evals + energy.n_evals),
        params={"check": "sphere-beckner", "d": params.d, "m": params.m, "p": p},
    )


def classical_beckner_deficit(f: DifferentiableField, p: float, d: int,
                              cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the tight sphere interpolation inequality.

    The energy constant is 2(p-1)/(pd): this is the classical (2-q)/d with
    q = 2/p, reduces to 1/d at p=2 (the spectral-gap constant) and to the
    2/d logarithmic Sobolev constant as p -> 1; second-order perturbations
    of a constant function saturate it exactly.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError("p must lie in (1, 2]")
    cfg = cfg or QuadratureConfig()
    geo = SphereGeometry(d)
    c_energy = 2.0 * (p - 1.0) / (p * d)
    sq = geo.integrate(lambda pts: np.asarray(f.value(pts)) ** 2, cfg)
    frac = geo.integrate(lambda pts: np.abs(np.asarray(f.value(pts))) ** (2.0 / p), cfg)
    energy = geo.dirichlet_energy(f, cfg)
    rhs_val = frac.value ** p + c_energy * energy.value
    frac_err = p * max(frac.value, 0.0) ** (p - 1.0) * frac.error_bound
    rhs_err = frac_err + c_energy * energy.error_bound
    return DeficitReport(
        lhs=Estimate(sq.value, sq.error_bound, sq.n_evals),
        rhs=Estimate(rhs_val, rhs_err, frac.n_evals + energy.n_evals),
        params={"check": "sphere-classical-beckner", "d": d, "p": p},
    )


def nash_sobolev_probe(family, d: int, cfg: QuadratureConfig | None = None):
    """Smallest C making the spherical Sobolev display hold over the family.

    Returns (C, per-field records).  Only existence/finiteness of C is a
    claim; its value is a probe, not an optimal constant.
    """
    if d < 3:
        raise DomainError("the Sobolev exponent needs d >= 3")
    cfg = cfg or QuadratureConfig()
    geo = SphereGeometry(d)
    expo = 2.0 * d / (d - 2.0)
    records = []
    c_needed = 0.0
    for name, f in family:
        high = geo.integrate(lambda pts: np.abs(np.asarray(f.value(pts))) ** expo, cfg)
        sq = geo.integrate(lambda pts: np.asarray(f.value(pts)) ** 2, cfg)
        energy = geo.dirichlet_energy(f, cfg)
        lhs = high.value ** ((d - 2.0) / d)
        if energy.value > 1e-12:
            c_f = (lhs - sq.value) / energy.value
        else:
            c_f = 0.0
        c_needed = max(c_needed, c_f)
        records.append({"field": name, "lhs": lhs, "l2": sq.value,
                        "energy": energy.value, "c_needed": c_f})
    return c_needed, records

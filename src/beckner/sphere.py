"""Spherical analysis in the stereographic chart (d >= 2).

The sphere never appears as a mesh: all integrals run in the chart against
``measures.SphereMeasure``, which is ``CauchyMeasure(d, d)``.  The module
carries the chart identities (eigenfunction, log-conformal-factor
formulas, the constant arising in the non-tight Beckner family) and the
sphere inequalities, each one ``inequalities.BecknerRow``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .fields import (DifferentiableField, abs_power, grad_norm_squared,
                     growth_degree, log, make_power_of_rho, quadratic)
from .gamma2 import sphere_stereo, value_L_gamma
from .inequalities import BecknerRow, DeficitReport, beckner_deficit
from .measures import SphereMeasure, log_norm_const
from .numerics import QuadratureConfig


@lru_cache(maxsize=None)
def eigenfunction_u(d: int) -> DifferentiableField:
    """u(x) = (1-|x|^2)/(1+|x|^2), the chart form of the degree-1 eigenfunction."""
    return (1.0 - quadratic(d)) * make_power_of_rho(-2.0, d)


@lru_cache(maxsize=None)
def _log_rho(d: int) -> DifferentiableField:
    """log rho = log(1+|x|^2)/2, the log of the chart's conformal factor."""
    return 0.5 * log(quadratic(d) + 1.0)


def _log_rho_terms(d: int, x):
    """(u(x), Delta_S log rho, Gamma_S log rho) at a chart point or batch."""
    _, lap, gam = value_L_gamma(sphere_stereo(d), _log_rho(d), x)
    return eigenfunction_u(d).value(x), lap, gam


def eigenfunction_residuals(d: int, x):
    """(u(x), |Delta_S u + d u|, |Gamma_S(u) - (1 - u^2)|) at a chart point or
    batch."""
    uv, lap, gam = value_L_gamma(sphere_stereo(d), eigenfunction_u(d), x)
    return uv, abs(lap + d * uv), abs(gam - (1.0 - uv ** 2))


def log_rho_identities(d: int, x):
    """Residuals of the closed forms for Delta_S log rho and Gamma_S log rho."""
    uv, lap, gam = _log_rho_terms(d, x)
    lap_res = abs(lap - (1.0 + uv * (d - 1.0)) / (2.0 * (1.0 + uv)))
    gam_res = abs(gam - (1.0 - uv) / (4.0 * (1.0 + uv)))
    return lap_res, gam_res


def constant_R(m: float, d: int, x):
    """Pointwise value (at a chart point or batch) of the chart function that
    collapses to a constant.

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


def _sphere_energy(f: DifferentiableField) -> DifferentiableField:
    """The spherical energy density Gamma_S(f) = (rho^4/4)|grad f|^2 in the chart."""
    return sphere_stereo(f.dim).a * grad_norm_squared(f)


def sphere_beckner_deficit(f: DifferentiableField, params: SphereBecknerParams,
                           cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the non-tight sphere inequality for a positive field."""
    if not f.positive:
        raise DomainError("the sphere family is stated for positive fields")
    p = params.p
    return beckner_deficit([BecknerRow(
        SphereMeasure(params.d), f.power(2), f.power(2.0 / p), _sphere_energy(f),
        1.0, params.A, params.gradient_constant, p, False,
        {"check": "sphere-beckner", "d": params.d, "m": params.m, "p": p})], cfg)[0]


def classical_beckner_deficit(f: DifferentiableField, p: float, d: int,
                              cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the tight sphere interpolation inequality, with |f|^{2/p}.

    The energy constant is 2(p-1)/(pd): this is the classical (2-q)/d with
    q = 2/p, reduces to 1/d at p=2 (the spectral-gap constant) and to the
    2/d logarithmic Sobolev constant as p -> 1; second-order perturbations
    of a constant function saturate it exactly.
    """
    if not 1.0 < p <= 2.0:
        raise DomainError("p must lie in (1, 2]")
    return beckner_deficit([BecknerRow(
        SphereMeasure(d), f.power(2), abs_power(f, 2.0 / p), _sphere_energy(f),
        1.0, 1.0, 2.0 * (p - 1.0) / (p * d), p, False,
        {"check": "sphere-classical-beckner", "d": d, "p": p})], cfg)[0]


def nash_sobolev_probe(family, d: int, cfg: QuadratureConfig | None = None):
    """Smallest C making the spherical Sobolev display hold over the family.

    Returns (C, per-field records).  Only existence/finiteness of C is a
    claim; its value is a probe, not an optimal constant.
    """
    if d < 3:
        raise DomainError("the Sobolev exponent needs d >= 3")
    cfg = cfg or QuadratureConfig()
    mu = SphereMeasure(d)
    expo = 2.0 * d / (d - 2.0)
    records = []
    for name, f in family:
        high, sq, energy = (mu.integrate(g, cfg, growth=growth_degree(g)) for g in (
            abs_power(f, expo), f.power(2), _sphere_energy(f)))
        lhs = high.value ** ((d - 2.0) / d)
        c_f = (lhs - sq.value) / energy.value if energy.value > 1e-12 else 0.0
        records.append({"field": name, "lhs": lhs, "l2": sq.value,
                        "energy": energy.value, "c_needed": c_f})
    return max([0.0] + [r["c_needed"] for r in records]), records

"""Deficit engine for the Cauchy-side functional inequalities.

Every inequality instance is reduced to a DeficitReport: left and right
hand sides as error-bounded estimates, with a certification policy that
turns analysis claims into crisp verdicts (certified iff the deficit is
no more negative than the summed error bounds; saturated iff additionally
the deficit is within ten error bounds of zero).  Every Beckner and Poincare
inequality, on the Cauchy measures, the Gaussian or the sphere, is one
``BecknerRow`` on one measure, evaluated by the single ``beckner_deficit``;
an extension row is the Cauchy row of f(x + t .) on nu_{(m+d)/2}.  The rows
handed to it together that live on one measure share one quadrature pass,
whose columns are their distinct integrands; a public deficit function
builds its row and evaluates a list of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (AdmissibilityError, DomainError, IllConditioned,
                     ParamError)
from .fields import (DifferentiableField, affine_precompose, falling_factorial,
                     grad_norm_squared, growth_degree, make_power_of_rho, stacked)
from .measures import CauchyMeasure, GaussianMeasure, integrate_stack, log_norm_const
from .numerics import CALL_POINTS, Estimate, QuadratureConfig


@dataclass(frozen=True)
class DeficitReport:
    lhs: Estimate
    rhs: Estimate
    params: dict = field(default_factory=dict)

    @property
    def deficit(self) -> float:
        return self.rhs.value - self.lhs.value

    @property
    def error_budget(self) -> float:
        return self.lhs.error_bound + self.rhs.error_bound

    @property
    def certified(self) -> bool:
        return self.deficit >= -self.error_budget

    @property
    def saturated(self) -> bool:
        return self.certified and abs(self.deficit) <= 10.0 * self.error_budget

    @property
    def verdict(self) -> str:
        if not self.certified:
            return "fail"
        return "saturated" if self.saturated else "pass"


@dataclass(frozen=True)
class BecknerRow:
    """One Beckner-type inequality: f^2 (``sq``), ``mid`` and ``energy``, all
    against the one ``measure`` mu.  With ``mid_on_lhs`` the report is
    a [mu(sq) - A mu(mid)^p] <= c mu(energy), else mu(sq) <= A mu(mid)^p + c mu(energy).
    Rows on one measure are integrated in one pass (``row_integrals``), and
    an integrand that several rows hold as one object, such as the f^2 and
    the energy of the rows of one f at several p, is one column of it.
    """
    measure: object
    sq: DifferentiableField
    mid: DifferentiableField
    energy: DifferentiableField
    a: float
    A: float
    c: float
    p: float
    mid_on_lhs: bool
    params: dict


def row_integrals(rows, cfg: QuadratureConfig | None = None):
    """(mu(sq), mu(mid), mu(energy)) of each row, in order.  The rows of one
    measure make one ``integrate_stack`` pass whose columns are their distinct
    integrands, each at its own growth degree, tail and tolerance, evaluated
    together (``fields.stacked``: f's jet is built once per block).  A call
    of the pass takes 1/k of ``integrate_rd``'s points for k columns, so its
    stack keeps the size of one column's."""
    cfg = cfg or QuadratureConfig()
    passes = {}
    for i, row in enumerate(rows):
        passes.setdefault(row.measure, []).append(i)
    out = [None] * len(rows)
    for mu, group in passes.items():
        # an integrand held by rows on two measures is a column of each pass,
        # so the lookup of its estimate is local to the pass
        terms = [(rows[i].sq, rows[i].mid, rows[i].energy) for i in group]
        columns = {id(g): g for row in terms for g in row}
        k = len(columns)
        ests = integrate_stack(stacked(list(columns.values())), [mu] * k, cfg,
                               [growth_degree(g) for g in columns.values()], [1.0] * k,
                               batch=CALL_POINTS // k)
        found = dict(zip(columns, ests))
        for i, row in zip(group, terms):
            out[i] = tuple(found[id(g)] for g in row)
    return out


def power_error(base: float, err: float, p: float) -> float:
    """The largest |x^p - base^p| over x >= 0 within err of base >= 0, for
    p >= 1 as in every row (x^p is convex): the upward end
    (base + err)^p - base^p, as base^p expm1(p log1p(err/base)), and err^p
    at base = 0."""
    if base == 0.0:
        return err ** p
    return base ** p * math.expm1(p * math.log1p(err / base))


def beckner_deficit(rows, cfg: QuadratureConfig | None = None) -> list[DeficitReport]:
    """The report of each row, from ``row_integrals``; the middle term enters
    through base = |mu(mid)| with the bar A ``power_error``(base, err(mid), p),
    the exact worst case of A base^p."""
    reports = []
    for row, (sq, mid, energy) in zip(rows, row_integrals(rows, cfg)):
        base = abs(mid.value)
        mid_val = row.A * base ** row.p
        mid_err = row.A * power_error(base, mid.error_bound, row.p)
        grad = Estimate(row.c * energy.value, row.c * energy.error_bound, energy.n_evals)
        if row.mid_on_lhs:
            lhs = Estimate(row.a * (sq.value - mid_val), row.a * (sq.error_bound + mid_err),
                           sq.n_evals)
            reports.append(DeficitReport(lhs, grad, row.params))
        else:
            reports.append(DeficitReport(sq, Estimate(mid_val + grad.value,
                                                      mid_err + grad.error_bound,
                                                      energy.n_evals), row.params))
    return reports


def beckner_qt_deficit(f: DifferentiableField, m: float, p: float, t: float,
                       x, cfg: QuadratureConfig | None = None,
                       probe: bool = False) -> DeficitReport:
    """Deficit of the extension-operator interpolation inequality.

    (p/(p-1))(Q_t^m(f^2) - Q_t^m(f^{2/p})^p) <= (2t^2/(m-2)) Q_t^{m-2}(|grad f|^2),

    the Cauchy row of g = f(x + t .) at b = (m+d)/2 (same p range), since
    Q_t^{m-2}(h) = (Z_b/Z_{b-1}) nu_b(h(x + t .)(1+|y|^2)), Z_b/Z_{b-1} = (m-2)/(2(b-1)).
    """
    d = f.dim
    if m < d + 2:
        raise ParamError("need m >= d + 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rep = beckner_cauchy_deficit(affine_precompose(f, t, x), (m + d) / 2.0, p, d, cfg, probe)
    return replace(rep, params={"check": "beckner-qt", "d": d, "m": m, "p": p, "t": t,
                                "x": x.tolist(), "probe": probe})


def beckner_cauchy_rows(f: DifferentiableField, b: float, ps, d: int,
                        probe: bool = False) -> list[BecknerRow]:
    """The rows of the Cauchy-measure interpolation inequality at each p of ``ps``,

    (p/(p-1))[nu(f^2) - nu(f^{2/p})^p] <= (1/(b-1)) nu(|grad f|^2 (1+|y|^2)),

    sharing one f^2 and one energy, so that they make one pass of 2 + len(ps)
    columns."""
    if b < d + 1:
        raise ParamError("need b >= d + 1")
    p_lo = 1.0 + 1.0 / (b - d)
    if not probe and any(not (p_lo <= p <= 2.0) for p in ps):
        raise ParamError(f"p must lie in [{p_lo}, 2]; pass probe=True to record anyway")
    if not f.positive:
        raise DomainError("f must be a positive field")
    mu, sq = CauchyMeasure(d, b), f.power(2)
    energy = grad_norm_squared(f) * make_power_of_rho(2.0, d)
    return [BecknerRow(mu, sq, f.power(2.0 / p), energy, p / (p - 1.0), 1.0, 1.0 / (b - 1.0),
                       p, True, {"check": "beckner-cauchy", "d": d, "b": b, "p": p,
                                 "probe": probe}) for p in ps]


def beckner_cauchy_deficit(f: DifferentiableField, b: float, p: float, d: int,
                           cfg: QuadratureConfig | None = None,
                           probe: bool = False) -> DeficitReport:
    """Deficit of the Cauchy-measure interpolation inequality at one p: the
    one row of ``beckner_cauchy_rows``."""
    return beckner_deficit(beckner_cauchy_rows(f, b, [p], d, probe), cfg)[0]


def poincare_cauchy_row(f: DifferentiableField, b: float, d: int) -> BecknerRow:
    """The row of the variance bound Var(f) <= (1/(2(b-1))) nu(|grad f|^2 (1+|y|^2)):
    the p = 2 row whose middle term is f itself, so nu(f) is the signed mean."""
    if b < d + 1:
        raise ParamError("need b >= d + 1")
    return BecknerRow(
        CauchyMeasure(d, b), f.power(2), f, grad_norm_squared(f) * make_power_of_rho(2.0, d),
        1.0, 1.0, 1.0 / (2.0 * (b - 1.0)), 2.0, True,
        {"check": "poincare-cauchy", "d": d, "b": b})


def poincare_cauchy_deficit(f: DifferentiableField, b: float, d: int,
                            cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the variance bound: the report of ``poincare_cauchy_row``."""
    return beckner_deficit([poincare_cauchy_row(f, b, d)], cfg)[0]


@dataclass(frozen=True)
class PhiEntropySpec:
    """The power profile Phi(v) = v^q for the entropy inequality, judged
    admissible against the (negative) effective dimension ``n``."""
    q: float
    n: float

    def __post_init__(self):
        if self.n >= 0:
            raise DomainError("the entropy family runs at negative n")

    def derivative(self, order: int):
        """Phi^(order)(v) = q (q-1) ... (q-order+1) v^(q-order); exactly 0
        where that factor vanishes."""
        c = falling_factorial(self.q, order)
        return lambda v: (c * np.asarray(v, dtype=float) ** (self.q - order) if c
                          else np.zeros(np.shape(v)))


def admissibility_check(spec: PhiEntropySpec, grid):
    """Pointwise admissibility verdicts and the worst margin.

    Conditions: Phi'' > 0 and 2((n-1)/n)(Phi''')^2 <= Phi'' Phi''''.
    Returns (all_pass, worst_margin, per-point margins); the margin is the
    slack of the second condition where the first holds, else -inf.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    d2 = spec.derivative(2)(grid)
    d3 = spec.derivative(3)(grid)
    d4 = spec.derivative(4)(grid)
    margins = d2 * d4 - 2.0 * (spec.n - 1.0) / spec.n * d3 ** 2
    scale = np.abs(d2 * d4) + np.abs(d3) ** 2 + 1e-30
    margins = np.where(d2 > 0, margins, -np.inf)
    ok = bool(np.all(d2 > 0) and np.all(margins >= -1e-11 * scale))
    return ok, float(np.min(margins)), margins


def phi_entropy_deficit(f: DifferentiableField, spec: PhiEntropySpec,
                        m: float, t: float, x,
                        cfg: QuadratureConfig | None = None) -> DeficitReport:
    """Deficit of the entropy inequality for the extension operator once
    Phi = v^q is admissible, Q_t^m(Phi(f)) - Phi(Q_t^m f) <= (t^2/(2(m-2)))
    Q_t^{m-2}(Phi''(f) |grad f|^2): as in ``beckner_qt_deficit``, the row on
    nu_b of g = f(x + t .) with sq = g^q, mid = g, p = q and c = 1/(4(b-1)).
    """
    d = f.dim
    if m < d + 2:
        raise ParamError("need m >= d + 2")
    if abs(spec.n - (d - m + 2.0)) > 1e-12:
        raise ParamError("spec.n must equal d - m + 2 for these indices")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = affine_precompose(f, t, x)
    # admissibility over the observed range of f near the evaluation point
    rng_pts = x + np.linspace(-6, 6, 41)[:, None] * np.ones(d)
    vals = f.value(rng_pts)
    lo, hi = float(vals.min()), float(vals.max())
    pad = 0.05 * (hi - lo) + 1e-9
    grid = np.linspace(lo - pad, hi + pad, 101)
    ok, worst, _ = admissibility_check(spec, grid)
    if not ok:
        raise AdmissibilityError(
            f"profile fails admissibility on [{lo:.3g}, {hi:.3g}] (margin {worst:.3g})")
    q, b = spec.q, (m + d) / 2.0
    return beckner_deficit([BecknerRow(
        CauchyMeasure(d, b), g.power(q), g,
        q * (q - 1.0) * g.power(q - 2.0) * grad_norm_squared(g) * make_power_of_rho(2.0, d),
        1.0, 1.0, 1.0 / (4.0 * (b - 1.0)), q, True,
        {"check": "phi-entropy", "d": d, "m": m, "t": t, "x": x.tolist(), "n": spec.n})],
        cfg)[0]


RAYLEIGH_BASIS_SIZE = 9    # trial fields in the Rayleigh-quotient span
RAYLEIGH_DROP_TOL = 1e-10  # relative eigenvalue size of a null energy direction


def rayleigh_basis_tags(b: float, d: int, basis_size: int):
    """Trial-field tags: coordinates (when square-integrable) plus radial
    powers (1+|y|^2)^{s/2} with s increasing toward the critical decay,
    which approximate the slow-decay extremals of the low-b regime.
    """
    tags = []
    if 2.0 * b - d > 2.0:
        tags.extend(("coord", i) for i in range(d))
    k = 1
    while len(tags) < basis_size:
        tags.append(("radial", 0.5 - 2.0 ** (-k)))
        k += 1
    return tags[:basis_size]


def radial_moment(b: float, d: int, sigma: float) -> float:
    """nu_b-average of (1+|y|^2)^{sigma/2}, as a norm-constant ratio."""
    if 2.0 * b - sigma - d <= 0:
        raise DomainError("radial moment diverges")
    return math.exp(log_norm_const(2.0 * b - sigma - d, d)
                    - log_norm_const(2.0 * b - d, d))


def optimal_constant_rayleigh(b: float, d: int) -> float:
    """Best constant C in Var(f) <= C nu(|grad f|^2 (1+|y|^2)) over a span.

    The variance and energy Gram matrices for this basis reduce to
    norm-constant ratios (Beta integrals), evaluated in closed form --
    quadrature cannot resolve the near-critical radial tails at small b.
    The energy form is eigendecomposed, the numerically null directions
    dropped, and the largest generalized eigenvalue returned; this is a
    variational lower bound on the true constant.
    """
    if 2.0 * b - d < 1.0:
        raise DomainError("need 2b - d >= 1 so the trial fields have finite variance")
    tags = rayleigh_basis_tags(b, d, RAYLEIGH_BASIS_SIZE)
    nb = len(tags)
    B = np.zeros((nb, nb))
    E = np.zeros((nb, nb))
    for i, (kind_i, a_i) in enumerate(tags):
        for j in range(i, nb):
            kind_j, a_j = tags[j]
            if kind_i == "coord" and kind_j == "coord":
                if a_i == a_j:
                    B[i, j] = 1.0 / (2.0 * b - 2.0 - d)
                    E[i, j] = radial_moment(b, d, 2.0)
            elif kind_i == "radial" and kind_j == "radial":
                sig = a_i + a_j
                B[i, j] = radial_moment(b, d, sig) \
                    - radial_moment(b, d, a_i) * radial_moment(b, d, a_j)
                E[i, j] = a_i * a_j * (radial_moment(b, d, sig)
                                       - radial_moment(b, d, sig - 2.0))
            # coordinate x radial entries vanish by parity
            B[j, i] = B[i, j]
            E[j, i] = E[i, j]
    ev, U = np.linalg.eigh(E)
    keep = ev > RAYLEIGH_DROP_TOL * ev.max()
    if not np.any(keep):
        raise IllConditioned("energy Gram matrix numerically rank zero")
    P = U[:, keep] / np.sqrt(ev[keep])
    return float(np.max(np.linalg.eigvalsh(P.T @ B @ P)))


def gaussian_beckner_deficit(f: DifferentiableField, p: float,
                             cfg: QuadratureConfig | None = None) -> DeficitReport:
    """(p/(p-1))[gamma(f^2) - gamma(f^{2/p})^p] <= 2 gamma(|grad f|^2)."""
    if not 1.0 < p <= 2.0:
        raise ParamError("p must lie in (1, 2]")
    return beckner_deficit([BecknerRow(
        GaussianMeasure(f.dim), f.power(2), f.power(2.0 / p), grad_norm_squared(f),
        p / (p - 1.0), 1.0, 2.0, p, True,
        {"check": "beckner-gaussian", "d": f.dim, "p": p})], cfg)[0]


def gaussian_limit_probe(f: DifferentiableField, b_list, p: float, d: int,
                         cfg: QuadratureConfig | None = None):
    """Rescaled Cauchy inequality terms against their Gaussian limit.

    For each b the field x -> f(sqrt(2b) x) is fed to the Cauchy inequality;
    as b grows both sides converge to the Gaussian interpolation inequality.
    Returns (per-b reports, gaussian report, gap records).
    """
    b_list = list(b_list)
    if any(b2 <= b1 for b1, b2 in zip(b_list, b_list[1:])):
        raise ParamError("b_list must be increasing")
    gauss = gaussian_beckner_deficit(f, p, cfg)
    reports, gaps = [], []
    for b in b_list:
        if b < d + 1:
            raise ParamError("each b must be >= d + 1")
        g = affine_precompose(f, math.sqrt(2.0 * b), np.zeros(d))
        rep = beckner_cauchy_deficit(g, b, p, d, cfg, probe=True)
        reports.append(rep)
        gaps.append({"b": b,
                     "lhs_gap": abs(rep.lhs.value - gauss.lhs.value),
                     "rhs_gap": abs(rep.rhs.value - gauss.rhs.value)})
    return reports, gauss, gaps


def limit_rate(gaps, key: str = "rhs_gap") -> float:
    """Empirical convergence exponent: slope of log(gap) against log(1/b)."""
    bs = np.array([g["b"] for g in gaps], dtype=float)
    vals = np.array([g[key] for g in gaps], dtype=float)
    if np.any(vals <= 0):
        raise DomainError("gaps must be positive to fit a rate")
    return float(np.polyfit(np.log(1.0 / bs), np.log(vals), 1)[0])


def p_grid(b: float, d: int, n_points: int = 9):
    """Evenly spaced admissible exponents from the left endpoint to 2."""
    return np.linspace(1.0 + 1.0 / (b - d), 2.0, n_points)

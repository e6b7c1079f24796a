import functools
import math

import mpmath as mp
import numpy as np
import pytest

from beckner.errors import (AdmissibilityError, DomainError, ParamError)
from beckner import inequalities
from beckner.fields import (constant, coordinate, grad_norm_squared,
                            make_power_of_rho, positive_bump, quadratic, stacked,
                            standard_library)
from beckner.inequalities import (BecknerRow, DeficitReport, PhiEntropySpec,
                                  admissibility_check, beckner_cauchy_deficit,
                                  beckner_cauchy_rows, beckner_deficit,
                                  beckner_qt_deficit, gaussian_beckner_deficit,
                                  gaussian_limit_probe, growth_degree,
                                  limit_rate, optimal_constant_rayleigh,
                                  p_grid, phi_entropy_deficit,
                                  poincare_cauchy_deficit, poincare_cauchy_row, power_error,
                                  radial_moment, row_integrals)
from beckner.measures import CauchyMeasure, SphereMeasure, TKernel
from beckner.numerics import CALL_POINTS, Estimate, QuadratureConfig, integrate_rd
from beckner.qtm import qtm_subordinated
from beckner.sphere import _sphere_energy
from oracles import cauchy_mean_mp


def test_report_verdicts():
    ok = DeficitReport(Estimate(1.0, 1e-10, 1), Estimate(1.5, 1e-10, 1))
    assert ok.verdict == "pass" and ok.certified and not ok.saturated
    tight = DeficitReport(Estimate(1.0, 1e-10, 1), Estimate(1.0 + 5e-10, 1e-10, 1))
    assert tight.verdict == "saturated"
    bad = DeficitReport(Estimate(1.0, 1e-10, 1), Estimate(0.9, 1e-10, 1))
    assert bad.verdict == "fail" and not bad.certified


def test_growth_degree():
    assert growth_degree(quadratic(2)) == 2.0
    assert growth_degree(coordinate(0, 3)) == 1.0
    assert growth_degree(positive_bump(1.0, [0.3], 1)) == 0.0
    slow = make_power_of_rho(1.0, 1)  # sqrt(1 + y^2)
    assert growth_degree(slow) == 1.0


@pytest.mark.parametrize("b,d,sigma", [(4.0, 2, 2.0), (4.0, 2, -1.0),
                                       (3.0, 1, 1.5)])
def test_radial_moment_matches_quadrature(b, d, sigma):
    nu = CauchyMeasure(d, b)

    def g(pts):
        r2 = np.sum(pts * pts, axis=1)
        return (1.0 + r2) ** (sigma / 2.0)

    est = nu.integrate(g, QuadratureConfig(), growth=max(sigma, 0.0))
    assert est.value == pytest.approx(radial_moment(b, d, sigma), abs=1e-8)
    with pytest.raises(DomainError):
        radial_moment(2.0, 1, 3.0)


@pytest.mark.parametrize("b,d", [(2.0, 1), (4.0, 2)])
def test_poincare_saturated_by_coordinate(b, d):
    rep = poincare_cauchy_deficit(coordinate(0, d), b, d)
    assert rep.lhs.value == pytest.approx(1.0 / (2.0 * b - 2.0 - d), abs=1e-8)
    assert rep.saturated, (rep.deficit, rep.error_budget)


@pytest.mark.parametrize("b,d", [(2.0, 1), (4.0, 2)])
def test_poincare_row_uses_the_signed_mean(b, d):
    # the middle term of the Poincare row is f itself: the lhs is
    # nu(f^2) - nu(f)^2 for a sign-changing f, whatever the sign of its mean,
    # with the integrals of the row's one pass
    for f in (coordinate(0, d), coordinate(0, d) - 0.5):
        rep = poincare_cauchy_deficit(f, b, d)
        sq, mean, _ = row_integrals([poincare_cauchy_row(f, b, d)])[0]
        assert rep.lhs.value == sq.value - mean.value ** 2
        assert rep.lhs.value == pytest.approx(1.0 / (2.0 * b - 2.0 - d), abs=1e-8)
    assert mean.value == pytest.approx(-0.5, abs=1e-9)
    with pytest.raises(DomainError):
        beckner_cauchy_deficit(coordinate(0, d), b, 2.0, d)


def test_poincare_parameter_guard():
    with pytest.raises(ParamError):
        poincare_cauchy_deficit(coordinate(0, 2), 2.5, 2)


def test_beckner_p2_is_twice_poincare():
    f = positive_bump(1.0, [0.3], 1)
    b, d = 3.0, 1
    beck = beckner_cauchy_deficit(f, b, 2.0, d)
    poin = poincare_cauchy_deficit(f, b, d)
    assert beck.lhs.value == pytest.approx(2.0 * poin.lhs.value, rel=1e-8)
    assert beck.rhs.value == pytest.approx(2.0 * poin.rhs.value, rel=1e-10)


def _subordinated(f, m, t, x):
    """Q_t^m f(x) by path 2 of the extension (heat semigroup over the
    hitting-time law), an evaluation that shares no quadrature with nu_b."""
    (est,) = qtm_subordinated(f, [TKernel(f.dim, m, t, tuple(x))])
    return est


def _assert_sides_match(rep, lhs, lhs_err, rhs, rhs_err):
    """Both sides of ``rep`` within the summed bars of another evaluation."""
    assert abs(rep.lhs.value - lhs) <= rep.lhs.error_bound + lhs_err, (rep.lhs, lhs, lhs_err)
    assert abs(rep.rhs.value - rhs) <= rep.rhs.error_bound + rhs_err, (rep.rhs, rhs, rhs_err)


# (d, m, p or q, t, x): off-centre x and t != 1; d = 3 is left out because its
# Hermite rule is loose at these t (ROADMAP item 13)
_EXTENSION_CASES = [(1, 5.0, 1.5, 0.7, (0.4,)), (1, 6.0, 2.0, 1.6, (-0.3,)),
                    (2, 6.0, 1.8, 1.3, (0.3, -0.2)), (2, 7.0, 1.6, 0.6, (-0.2, 0.5))]


def test_beckner_cauchy_qt_equivalence():
    # the extension row is the Cauchy row of f(x + t .) on nu_{(m+d)/2}; both
    # of its sides must match f^2, f^{2/p} at kernel m and |grad f|^2 at
    # kernel m - 2 taken by subordination, within the summed bars
    for d, m, p, t, x in _EXTENSION_CASES:
        f = positive_bump(1.0, [0.3] * d, d)
        rep = beckner_qt_deficit(f, m, p, t, x)
        sq, mid, energy = (_subordinated(g, mm, t, x) for g, mm in (
            (f.power(2), m), (f.power(2.0 / p), m), (grad_norm_squared(f), m - 2.0)))
        a, c = p / (p - 1.0), 2.0 * t ** 2 / (m - 2.0)
        _assert_sides_match(
            rep, a * (sq.value - mid.value ** p),
            a * (sq.error_bound + p * mid.value ** (p - 1.0) * mid.error_bound),
            c * energy.value, c * energy.error_bound)
        assert rep.params == {"check": "beckner-qt", "d": d, "m": m, "p": p, "t": t,
                              "x": list(x), "probe": False}


def _assert_entropy_row_matches(f, q, m, t, x):
    """The entropy row at Phi = v^q against its three integrals by
    subordination; its energy Phi''(f)|grad f|^2 carries the factor f^{q-2}."""
    rep = phi_entropy_deficit(f, PhiEntropySpec(q, f.dim - m + 2.0), m, t, x)
    sq, mean, energy = (_subordinated(g, mm, t, x) for g, mm in (
        (f.power(q), m), (f, m),
        (q * (q - 1.0) * f.power(q - 2.0) * grad_norm_squared(f), m - 2.0)))
    c = t ** 2 / (2.0 * (m - 2.0))
    _assert_sides_match(
        rep, sq.value - mean.value ** q,
        sq.error_bound + q * mean.value ** (q - 1.0) * mean.error_bound,
        c * energy.value, c * energy.error_bound)
    return rep


def test_phi_entropy_matches_the_subordination_path():
    # the same check for the entropy row at q off 2
    for d, m, _, t, x in _EXTENSION_CASES:
        n = d - m + 2.0
        q = (4.0 - n) / (2.0 - n) + 0.05   # inside the admissible [(4-n)/(2-n), 2]
        _assert_entropy_row_matches(positive_bump(1.0, [0.3] * d, d), q, m, t, x)


def test_p_grid_certified_sweep():
    f = positive_bump(1.0, [0.2], 1)
    b, d = 3.0, 1
    grid = p_grid(b, d, 5)
    assert grid[0] == pytest.approx(1.0 + 1.0 / (b - d))
    assert grid[-1] == 2.0
    for p in grid:
        rep = beckner_cauchy_deficit(f, b, float(p), d)
        assert rep.certified, (p, rep.deficit, rep.error_budget)


def test_deficit_scales_quadratically():
    f = positive_bump(1.0, [0.3], 1)
    one = beckner_cauchy_deficit(f, 3.0, 1.5, 1)
    two = beckner_cauchy_deficit(f * 2.0, 3.0, 1.5, 1)
    assert two.deficit == pytest.approx(4.0 * one.deficit, rel=1e-6)
    assert two.certified == one.certified


def test_exponent_guards_and_probe():
    f = positive_bump(1.0, [0.0], 1)
    with pytest.raises(ParamError):
        beckner_cauchy_deficit(f, 3.0, 1.2, 1)  # below 1 + 1/(b-d)
    with pytest.raises(ParamError):
        beckner_cauchy_deficit(f, 1.5, 1.5, 1)  # b < d + 1
    rep = beckner_cauchy_deficit(f, 3.0, 1.2, 1, probe=True)
    assert rep.params["probe"]
    with pytest.raises(ParamError):
        beckner_qt_deficit(f, 2.5, 2.0, 1.0, [0.0])  # m < d + 2
    with pytest.raises(ParamError):
        beckner_qt_deficit(f, 5.0, 1.2, 0.7, [0.4])  # below 1 + 2/(m-d)
    assert beckner_qt_deficit(f, 5.0, 1.2, 0.7, [0.4], probe=True).params["probe"]
    with pytest.raises(DomainError):
        beckner_qt_deficit(coordinate(0, 1), 5.0, 2.0, 0.7, [0.4])  # not positive
    with pytest.raises(DomainError):
        beckner_cauchy_deficit(coordinate(0, 1), 3.0, 2.0, 1)  # not positive


def test_rayleigh_two_regimes():
    # above the coordinate threshold the coordinate quotient 1/(2(b-1)) is
    # attained; near the integrability edge slow radial powers dominate
    assert optimal_constant_rayleigh(2.0, 1) == pytest.approx(0.5, abs=1e-10)
    assert optimal_constant_rayleigh(4.0, 2) == pytest.approx(1.0 / 6.0, abs=1e-10)
    low = optimal_constant_rayleigh(1.0, 1)
    assert low == pytest.approx(4.0, abs=5e-4)
    assert low > 1.0 / (2.0 * (1.0 - 1.0) + 4.0)  # strictly beats coordinates
    with pytest.raises(DomainError):
        optimal_constant_rayleigh(0.9, 1)


def test_rayleigh_estimate_dominates_coordinate_quotient():
    for b, d in [(2.0, 1), (3.0, 1), (4.0, 2)]:
        est = optimal_constant_rayleigh(b, d)
        assert est >= 1.0 / (2.0 * (b - 1.0)) - 1e-12


def test_phi_entropy_quadratic_profile_matches_variance():
    # Phi(v) = v^2 turns the entropy row into the variance form, matched by
    # the subordination path off centre
    for d, m, _, t, x in _EXTENSION_CASES:
        rep = _assert_entropy_row_matches(positive_bump(1.0, [0.3] * d, d), 2.0, m, t, x)
        assert rep.certified


def test_admissible_power_range():
    # Phi = v^q at n = -2: the fourth-order condition reduces to
    # (q-2)(3-2q) >= 0, i.e. q in [3/2, 2]
    grid = np.linspace(0.5, 3.0, 40)
    for q, expected in [(2.0, True), (1.8, True), (1.5, True),
                        (1.2, False), (3.0, False)]:
        ok, worst, _ = admissibility_check(PhiEntropySpec(q, -2.0), grid)
        assert ok == expected, (q, worst)
        if not expected:
            assert worst < 0


def test_phi_entropy_rejects_inadmissible_profile():
    f = positive_bump(1.0, [0.3], 1)
    with pytest.raises(AdmissibilityError):
        phi_entropy_deficit(f, PhiEntropySpec(3.0, -4.0), 7.0, 1.0, [0.0])
    with pytest.raises(ParamError):
        phi_entropy_deficit(f, PhiEntropySpec(2.0, -2.0), 7.0, 1.0, [0.0])
    with pytest.raises(DomainError):
        PhiEntropySpec(2.0, 1.0)


def test_power_profile_derivatives():
    # Phi = v^q: q(q-1)...(q-k+1) v^(q-k), exactly 0 where the factor vanishes
    v = np.array([0.0, 0.5, 2.0])
    spec = PhiEntropySpec(2.0, -2.0)
    assert np.array_equal(spec.derivative(0)(v), v ** 2)
    assert np.array_equal(spec.derivative(1)(v), 2.0 * v)
    assert np.array_equal(spec.derivative(2)(v), [2.0, 2.0, 2.0])
    for k in (3, 4):
        assert np.array_equal(spec.derivative(k)(v), np.zeros(3))
    spec = PhiEntropySpec(1.5, -2.0)
    assert spec.derivative(3)(4.0) == pytest.approx(1.5 * 0.5 * -0.5 * 4.0 ** -1.5)


def test_gaussian_beckner_constant_field():
    rep = gaussian_beckner_deficit(constant(1.0, 1), 1.5)
    assert abs(rep.lhs.value) < 1e-9 and abs(rep.rhs.value) < 1e-12


def _gaussian_integrals_before_the_measure(fields, d):
    """The Gaussian integrals as computed before GaussianMeasure, in the one
    pass of a row: the same stacked integrand, density (applied once per
    radius), call batch and radius 12, without a tail term."""
    return integrate_rd(stacked(fields), lambda r2: -0.5 * r2 - 0.5 * d * math.log(2.0 * math.pi),
                        d, QuadratureConfig(), cutoff=12.0, batch=CALL_POINTS // len(fields))


@pytest.mark.parametrize("d,p", [(1, 1.5), (2, 1.8)])
def test_gaussian_row_values_are_unchanged(d, p):
    f = positive_bump(1.0, [0.3] * d, d)
    sq, frac, energy = _gaussian_integrals_before_the_measure(
        [f.power(2), f.power(2.0 / p), grad_norm_squared(f)], d)
    c = p / (p - 1.0)
    lhs = c * (sq.value - frac.value ** p)
    mid_err = frac.value ** p * math.expm1(p * math.log1p(frac.error_bound / frac.value))
    lhs_err = c * (sq.error_bound + mid_err)
    reps = [gaussian_beckner_deficit(f, p),
            gaussian_limit_probe(f, [10.0, 100.0], p, d)[1]]
    for rep in reps:
        assert rep.lhs.value == lhs and rep.rhs.value == 2.0 * energy.value
        # the bounds only gain the Gaussian tail beyond radius 12
        assert lhs_err <= rep.lhs.error_bound <= lhs_err + 1e-25
        assert 0.0 <= rep.rhs.error_bound - 2.0 * energy.error_bound <= 1e-25


def test_gaussian_limit_rate():
    f = positive_bump(1.0, [0.3], 1)
    _, gauss, gaps = gaussian_limit_probe(f, [10.0, 100.0, 1000.0], 1.5, 1)
    assert gauss.certified
    for key in ("lhs_gap", "rhs_gap"):
        rate = limit_rate(gaps, key)
        assert 0.7 < rate < 1.3, (key, rate)
    with pytest.raises(ParamError):
        gaussian_limit_probe(f, [100.0, 10.0], 1.5, 1)


def test_gaussian_limit_rejects_a_non_finite_b():
    f = positive_bump(1.0, [0.3], 1)
    with pytest.raises(DomainError):
        gaussian_limit_probe(f, [math.nan], 1.5, 1)


def _bump_mp(y):
    """positive_bump(1, [0.3], 1) and its derivative, in mpmath."""
    c = mp.mpf(0.3)   # the double nearest 0.3, as in the library field
    e = mp.exp(-(y - c) ** 2)
    return 1 + e, -2 * (y - c) * e


# The d = 1 integrands of the cauchy suite's default grid (b in {3, 4},
# p in {1.5, 2}): the library field and the same function in mpmath.
_D1_CASES = [("beckner-cauchy", b, p, name) for b in (3.0, 4.0) for p in (1.5, 2.0)
             for name in ("sq", "mid", "energy")]
_D1_CASES += [("poincare-cauchy", b, None, name) for b in (3.0, 4.0)
              for name in ("sq", "mid", "energy")]


def _d1_oracle(check, p, name):
    """The mpmath function of one integrand of the d = 1 cauchy-suite rows."""
    if check == "poincare-cauchy":
        return {"sq": lambda y: y * y, "mid": lambda y: y, "energy": lambda y: 1 + y * y}[name]
    return {"sq": lambda y: _bump_mp(y)[0] ** 2,
            "mid": lambda y: _bump_mp(y)[0] ** (2 / mp.mpf(p)),
            "energy": lambda y: _bump_mp(y)[1] ** 2 * (1 + y * y)}[name]


@functools.lru_cache(maxsize=None)
def _d1_pass(check, b):
    """{p: (sq, mid, energy)} of the d = 1 cauchy-suite rows of one (check, b),
    from the one pass that ``beckner_deficit`` makes of them, as the suite
    hands them over: every beckner-cauchy p of the default grid together,
    the poincare-cauchy row (p None) on its own."""
    if check == "poincare-cauchy":
        return {None: row_integrals([poincare_cauchy_row(coordinate(0, 1), b, 1)])[0]}
    ps = (1.5, 2.0)
    rows = beckner_cauchy_rows(positive_bump(1.0, [0.3], 1), b, ps, 1)
    return dict(zip(ps, row_integrals(rows)))


def _d1_case(case):
    if case == ("poincare-cauchy", 3.0, None, "energy"):
        # the tail takes all but 3.2e-15 of the bound, and the G7/K15 estimate
        # (ROADMAP item 1) has no roundoff floor: the value misses 4/3 by
        # 1.0005e-11 against a bound of 1.0003e-11
        return pytest.param(*case, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: G7/K15 error estimate has no roundoff floor"))
    return case


@pytest.mark.parametrize("check,b,p,name", [_d1_case(c) for c in _D1_CASES])
def test_cauchy_d1_integrals_within_bound_of_mpmath(check, b, p, name):
    # each integral of the d = 1 cauchy-suite rows, as the stacked pass of
    # beckner_deficit takes it, against mpmath at 30 digits: the error bound
    # must hold
    est = _d1_pass(check, b)[p][("sq", "mid", "energy").index(name)]
    oracle = cauchy_mean_mp(_d1_oracle(check, p, name), b, breaks=(-10.0, 0.3, 10.0))
    assert abs(est.value - oracle) <= est.error_bound, (est, oracle)


# -- one pass per measure -----------------------------------------------------

# the fields whose three integrals are finite against the sphere's nu_d: the
# squares and energies of the others grow too fast for its |y|^{-2d} density
_SPHERE_FIELDS = ("one", "gaussian_bump", "positive_bump", "power_of_rho")


@pytest.mark.parametrize("mu", [CauchyMeasure(d, d + 3.0) for d in (1, 2, 3)]
                         + [SphereMeasure(2), SphereMeasure(3)], ids=repr)
def test_stacked_rows_are_their_separate_integrals(mu):
    # the rows of one f at p = 1.5 and 2 (or its Poincare row, if f may
    # change sign) make one pass; each of its integrals agrees with that
    # integrand's own pass within the summed bars
    d, cfg = mu.d, QuadratureConfig()
    sphere = isinstance(mu, SphereMeasure)
    for name, f in standard_library(d).items():
        if sphere and name not in _SPHERE_FIELDS:
            continue
        sq = f.power(2)
        energy = (_sphere_energy(f) if sphere
                  else grad_norm_squared(f) * make_power_of_rho(2.0, d))
        mids = [(p, f.power(2.0 / p)) for p in (1.5, 2.0)] if f.positive else [(2.0, f)]
        rows = [BecknerRow(mu, sq, mid, energy, 1.0, 1.0, 1.0, p, True, {}) for p, mid in mids]
        for row, ests in zip(rows, row_integrals(rows)):
            assert len({e.n_evals for e in ests}) == 1   # one pass
            for g, est in zip((row.sq, row.mid, row.energy), ests):
                alone = mu.integrate(g, cfg, growth=growth_degree(g))
                assert abs(est.value - alone.value) <= est.error_bound + alone.error_bound, \
                    (name, est, alone)


def test_rows_on_two_measures_make_two_passes(monkeypatch):
    f = positive_bump(1.0, [0.3], 1)
    passes = []
    original = inequalities.integrate_stack

    def counting(g, measures, *args, **kwargs):
        passes.append(len(measures))
        return original(g, measures, *args, **kwargs)

    monkeypatch.setattr(inequalities, "integrate_stack", counting)
    rows = (beckner_cauchy_rows(f, 3.0, [1.5, 2.0], 1) + [poincare_cauchy_row(f, 3.0, 1)]
            + beckner_cauchy_rows(f, 4.0, [1.5], 1))
    reports = beckner_deficit(rows)
    # b = 3: the beckner rows' f^2, energy, f^{4/3} and f^1 (their f^2 and
    # energy once), and the Poincare row's own three; then b = 4: three
    assert passes == [7, 3]
    for rep, row in zip(reports, rows):
        assert rep.params == row.params
        if row.params["check"] == "beckner-cauchy":
            one = beckner_cauchy_deficit(f, row.params["b"], row.p, 1)
            assert abs(rep.lhs.value - one.lhs.value) <= rep.error_budget + one.error_budget


def test_one_integrand_on_two_measures_is_integrated_on_each():
    # poincare_cauchy_row holds f itself as its middle term, so the rows of one
    # f at b = 3 and b = 4 share that object across two passes
    f = positive_bump(1.0, [0.3], 1)
    rows = [poincare_cauchy_row(f, 3.0, 1), poincare_cauchy_row(f, 4.0, 1)]
    assert rows[0].mid is rows[1].mid
    for row, terms in zip(rows, row_integrals(rows)):
        alone = row_integrals([row])[0]
        assert [t.value for t in terms] == [t.value for t in alone]
    means = [terms[1].value for terms in row_integrals(rows)]
    assert means[0] != means[1]


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("base,err", [(0.7, 1e-11), (0.7, 0.3), (0.7, 2.0), (2.0, 1e-3),
                                      (1e-8, 1e-10)])
def test_power_error_is_the_worst_case(base, err, p):
    # the largest |x^p - base^p| over x >= 0 with |x - base| <= err, in mpmath
    b, e = mp.mpf(base), mp.mpf(err)
    want = max((b + e) ** p - b ** p, b ** p - max(b - e, 0) ** p)
    assert power_error(base, err, p) == pytest.approx(float(want), rel=1e-13)
    assert power_error(0.0, err, p) == pytest.approx(err ** p, rel=1e-15)


def test_middle_bar_is_exact():
    # the lhs bar of a row is a (err(sq) + A power_error(|mu(mid)|, err(mid), p))
    f = positive_bump(1.0, [0.3], 2)
    row = beckner_cauchy_rows(f, 4.0, [1.5], 2)[0]
    (sq, mid, _), = row_integrals([row])
    rep, = beckner_deficit([row])
    want = row.a * (sq.error_bound + row.A * power_error(abs(mid.value), mid.error_bound, row.p))
    assert rep.lhs.error_bound == want
    first_order = row.a * (sq.error_bound + row.p * mid.value ** (row.p - 1) * mid.error_bound)
    assert want >= first_order

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beckner.errors import DomainError
from beckner.fields import (_BLOCK, affine_precompose, constant, coordinate, coords,
                            cos, exp, gaussian_bump, grad_norm_squared, growth_degree,
                            laplacian, make_power_of_rho, multi_indices, positive_bump,
                            quadratic, stacked, standard_library, trig)
from beckner.gamma2 import euclidean, halfspace_m, sphere_stereo
from beckner.measures import CauchyMeasure
from beckner.numerics import QuadratureConfig
from beckner.sphere import _log_rho, eigenfunction_u
from oracles import fd_derivative


def test_value_and_partials_quadratic():
    f = quadratic(2)
    pts = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.allclose(f.value(pts), [5.0, 1.0])
    assert f.partial((1, 0), [1.0, 2.0]) == pytest.approx(2.0)
    assert f.partial((0, 2), [1.0, 2.0]) == pytest.approx(2.0)
    assert laplacian(f).value([3.0, -1.0]) == pytest.approx(4.0)


def test_partials_match_finite_differences():
    f = gaussian_bump(0.7, [0.2, -0.1], 2)
    x = np.array([0.5, 0.3])
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1)]:
        fd = fd_derivative(lambda p: float(f.value(p)), x, alpha, step=1e-3)
        assert f.partial(alpha, x) == pytest.approx(fd, abs=5e-6)


def test_partial_order_cap():
    f = quadratic(1)
    with pytest.raises(DomainError):
        f.partial((5,), [0.0])


def test_dimension_guard():
    f = quadratic(2)
    with pytest.raises(DomainError):
        f.value([1.0, 2.0, 3.0])


def test_power_requires_positivity():
    with pytest.raises(DomainError):
        trig([1.0], 1).power(0.5)
    g = positive_bump(1.0, [0.0], 1).power(-0.5)
    assert g.value([0.0]) == pytest.approx(2.0 ** -0.5)


def test_power_domain():
    f = positive_bump(1.0, [0.3, 0.0], 2)
    pts = np.array([[0.0, 0.0], [0.5, -1.0], [2.0, 0.3]])
    assert np.allclose(f.power(-0.5).value(pts), f.value(pts) ** -0.5, rtol=1e-15)
    with pytest.raises(DomainError):
        trig([1.0, 0.0], 2).power(0.5)
    with pytest.raises(DomainError):
        (f * -1.0).power(0.5)


# Each field in d variables with the sympy expression it stands for (the
# half-space operator of base dimension d - 1); the oracle shares no code with
# the library.
def _oracle_fields(d):
    sp = pytest.importorskip("sympy")
    y = sp.symbols(f"y0:{d}", real=True)
    r2 = sum(s ** 2 for s in y)
    bump = sp.exp(-sum((s - sp.Float(0.3)) ** 2 for s in y))
    lib = standard_library(d)
    out = [(lib["one"], sp.Integer(1)), (lib["coordinate"], y[0]),
           (lib["quadratic"], r2), (lib["trig"], sp.cos(sum(y))),
           (lib["gaussian_bump"], bump), (lib["positive_bump"], 1 + bump),
           (lib["power_of_rho"], 1 / (1 + r2)),
           (lib["positive_bump"].power(2.0 / 3.0), (1 + bump) ** sp.Rational(2, 3)),
           (eigenfunction_u(d), (1 - r2) / (1 + r2)),
           (_log_rho(d), sp.log(1 + r2) / 2)]
    op = euclidean(d)
    out += [(op.a, sp.Integer(1))] + [(X, sp.Integer(0)) for X in op.X]
    if d >= 2:
        op = halfspace_m(d - 1, 6.0)
        out += [(op.a, sp.Integer(1)), (op.X[-1], -5 / y[-1])]
        out += [(X, sp.Integer(0)) for X in op.X[:-1]]
        op = sphere_stereo(d)
        out += [(op.a, (1 + r2) ** 2 / 4)]
        out += [(X, -sp.Rational(d - 2, 2) * (1 + r2) * s) for X, s in zip(op.X, y)]
    return sp, y, out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partials_match_sympy(d):
    """Every partial of order <= 4 against sp.diff, to 1e-12 of the largest
    partial of the same order at the point."""
    sp, y, cases = _oracle_fields(d)
    rng = np.random.default_rng(d)
    pts = np.column_stack([rng.uniform(-1.5, 1.5, (4, d - 1)),
                           rng.uniform(0.3, 2.0, 4)])  # the last axis is t > 0
    for f, expr in cases:
        alphas = multi_indices(d, 4)
        exprs = {alphas[0]: expr}
        for alpha in alphas[1:]:
            i = next(i for i, a in enumerate(alpha) if a)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            exprs[alpha] = sp.diff(exprs[lower], y[i])
        ref = sp.lambdify(y, [exprs[a] for a in alphas], modules="numpy")(*pts.T)
        ref = np.array([np.broadcast_to(np.asarray(r, dtype=float), len(pts)) for r in ref])
        jet = f.partials(pts, 4)
        got = np.array([jet[a] for a in alphas])
        order = np.array([sum(a) for a in alphas])
        for k in range(5):
            scale = np.max(np.abs(ref[order == k]), axis=0)
            err = np.abs(got[order == k] - ref[order == k])
            assert np.all(err <= 1e-12 * scale), (f.op, k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_library_growth_degrees(d):
    degrees = {name: growth_degree(f) for name, f in standard_library(d).items()}
    assert degrees == {"one": 0.0, "coordinate": 1.0, "quadratic": 2.0, "trig": 0.0,
                       "gaussian_bump": 0.0, "positive_bump": 0.0, "power_of_rho": 0.0}


def test_cosine_growth_is_structural():
    x, y = coords(2)
    assert trig([math.pi / 2000, 0.0], 2).growth == 0
    assert (cos(x * y) * quadratic(2) + x).growth == 2
    assert growth_degree(cos(x).power(2) * 3.0) == 0.0
    # the partials of cos(x y) grow with |(x, y)|: no structural bound, so sampled
    g = laplacian(cos(x * y))
    assert g.degree is None and g.growth is None
    assert growth_degree(cos(x * y) * 0.0 + x) == 1.0


def test_growth_degree_probes_off_the_diagonal():
    # decays along the diagonal (1, 1) but grows like r^2 along x = -y
    x, y = coords(2)
    f = exp((x + y) ** 2 * -1.0) * quadratic(2)
    assert growth_degree(f) == 2.0
    nu = CauchyMeasure(2, 3)
    est = nu.integrate(f.value, QuadratureConfig(), growth=growth_degree(f))
    ref = nu.integrate(f.value, QuadratureConfig(1e-13, 1e-13), growth=2.0)
    assert abs(est.value - ref.value) <= est.error_bound


def test_growth_degree_rejects_exponential_growth():
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        growth_degree(exp(coordinate(0, 1) * -1.0))


def test_grad_norm_squared_is_a_shift_of_the_jet():
    f = positive_bump(1.0, [0.3, -0.2], 2)
    pts = np.array([[0.1, 0.4], [-0.7, 1.2]])
    jet = f.partials(pts, 3)
    g = grad_norm_squared(f).partials(pts, 2)
    assert np.allclose(g[(0, 0)], jet[(1, 0)] ** 2 + jet[(0, 1)] ** 2, rtol=1e-14)
    d1 = 2.0 * (jet[(1, 0)] * jet[(2, 0)] + jet[(0, 1)] * jet[(1, 1)])
    assert np.allclose(g[(1, 0)], d1, rtol=1e-13)


def test_combinators_track_positivity():
    f = positive_bump(1.0, [0.0], 1)
    assert (f + f).positive
    assert (f * f).positive
    assert (f * 2.0).positive
    assert not (f * -1.0).positive
    assert not (f + 1.0).positive  # conservative: shifts drop the flag


def test_compose_scalar():
    f = exp(quadratic(1))
    assert f.value([1.5]) == pytest.approx(math.exp(2.25))
    assert f.partial((1,), [1.5]) == pytest.approx(3.0 * math.exp(2.25))


def test_grad_norm_squared():
    f = quadratic(2)
    g = grad_norm_squared(f)
    assert g.value([1.0, 2.0]) == pytest.approx(4.0 + 16.0)


def test_affine_precompose():
    f = quadratic(2)
    g = affine_precompose(f, 2.0, [1.0, -1.0])
    y = np.array([0.5, 0.25])
    assert g.value(y) == pytest.approx(f.value(2.0 * y + np.array([1.0, -1.0])))
    with pytest.raises(DomainError):
        affine_precompose(f, -1.0, [0.0, 0.0])
    for t, x in [(math.nan, [0.0, 0.0]), (math.inf, [0.0, 0.0]),
                 (1.0, [math.nan, 0.0]), (1.0, [0.0, -math.inf])]:
        with pytest.raises(DomainError):
            affine_precompose(f, t, x)


def test_coordinate_bounds():
    with pytest.raises(DomainError):
        coordinate(2, 2)
    assert coordinate(1, 2).value([3.0, 7.0]) == pytest.approx(7.0)


def test_power_of_rho():
    f = make_power_of_rho(-3.0, 2)
    assert f.positive
    assert f.value([1.0, 1.0]) == pytest.approx(3.0 ** -1.5)


def test_multi_indices_count():
    # number of multi-indices of order <= k in d variables is C(d+k, k)
    assert len(multi_indices(2, 3)) == math.comb(5, 3)
    assert len(multi_indices(3, 2)) == math.comb(5, 2)


def test_standard_library_keys():
    lib = standard_library(2)
    assert {"one", "coordinate", "quadratic", "trig", "gaussian_bump",
            "positive_bump", "power_of_rho"} <= set(lib)
    assert lib["one"].value([5.0, 5.0]) == pytest.approx(1.0)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_trig_bounded(x, y):
    f = trig([1.0, 2.0], 2)
    assert abs(f.value([x, y])) <= 1.0 + 1e-12


@given(st.floats(0.1, 2.0), st.floats(-2, 2))
@settings(max_examples=40, deadline=None)
def test_positive_bump_positive(a, x):
    f = positive_bump(a, [0.0], 1)
    assert f.value([x]) > 1.0


# -- blockwise jets and constant jets -----------------------------------------

_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _pts(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, (n, d))


def _assert_same_jets(got, want, order):
    """Bitwise at orders <= 1.  Above, a jet product sums its pairs through one
    matrix product (BLAS), whose rounding may depend on a column's place in the
    block: to 1e-15 of the largest entry, where a sum cancels."""
    for alpha in want:
        tol = 1e-15 * np.max(np.abs(want[alpha]), initial=0.0) if order > 1 else 0.0
        np.testing.assert_allclose(got[alpha], want[alpha], rtol=0, atol=tol,
                                   err_msg=str(alpha))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_jets_do_not_depend_on_block_boundaries(d):
    """A batch that spans blocks gives the jets of its slices, cut off the
    block boundaries, side by side; grad_norm_squared, whose values pull a jet
    under d_i, gives the values of its rows."""
    for n in _SIZES:
        pts = _pts(n, d)
        cuts = [0, 7, _BLOCK // 2 + 1, n - 2, n]
        for name, f in standard_library(d).items():
            for order in range(5):
                whole = f.partials(pts, order)
                parts = [f.partials(pts[a:b], order) for a, b in zip(cuts, cuts[1:])]
                _assert_same_jets(whole, {a: np.concatenate([p[a] for p in parts])
                                          for a in whole}, order)
            g = grad_norm_squared(f)
            vals = g.value(pts)
            rows = [0, _BLOCK - 2, n - 1] + [i for i in (_BLOCK - 1, _BLOCK) if i < n]
            np.testing.assert_array_equal(vals[rows], [g.value(pts[i]) for i in rows],
                                          err_msg=name)
            np.testing.assert_array_equal(
                vals, np.concatenate([g.value(pts[a:b]) for a, b in zip(cuts, cuts[1:])]))


@given(st.integers(1, 3 * _BLOCK), st.integers(0, 3 * _BLOCK))
@settings(max_examples=15, deadline=None)
def test_jet_of_a_batch_is_the_jets_of_its_halves(n, cut):
    f = standard_library(3)["positive_bump"].power(-0.5)
    pts, cut = _pts(n, 3, seed=n), min(cut, n)
    whole, a, b = f.partials(pts, 2), f.partials(pts[:cut], 2), f.partials(pts[cut:], 2)
    _assert_same_jets(whole, {k: np.concatenate([a[k], b[k]]) for k in whole}, 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_jets(d):
    pts, c = _pts(5, d), 2.5
    f = standard_library(d)["positive_bump"]
    for order in range(5):
        jet = constant(c, d).partials(pts, order)
        for alpha, v in jet.items():
            assert v.shape == (5,)
            np.testing.assert_array_equal(v, c if sum(alpha) == 0 else 0.0)
        df = f.partials(pts, order)
        scaled, shifted = (3.0 * f).partials(pts, order), (f + 2.0).partials(pts, order)
        for alpha in df:
            np.testing.assert_array_equal(scaled[alpha], 3.0 * df[alpha])
            np.testing.assert_array_equal(shifted[alpha],
                                          df[alpha] + (2.0 if sum(alpha) == 0 else 0.0))
    np.testing.assert_array_equal(laplacian(constant(c, d)).value(pts), np.zeros(5))
    np.testing.assert_array_equal(grad_norm_squared(constant(c, d)).value(pts), np.zeros(5))


@pytest.mark.parametrize("call", [
    lambda f, pts: (grad_norm_squared(f) * make_power_of_rho(2.0, 3)).value(pts),
    lambda f, pts: f.partials(pts, 1),
], ids=["energy_density", "partials_1"])
def test_jet_memory_is_bounded(call):
    """The energy density and the order-1 jet of positive_bump on 17 280 points
    in d = 3, the batch of one integrate_rd panel.  With a memo of every node's jet on the whole
    batch they peaked at 13.3 and 12.7 MB of traced memory; with a memo of the
    shared jets only, at 2.1 and 2.5 MB; block by block, at 0.7 and 1.2 MB (the
    order-1 jet itself is 0.55 MB)."""
    f, pts = standard_library(3)["positive_bump"], _pts(17280, 3)
    call(f, pts)   # bases and memo plans are built once
    tracemalloc.start()
    try:
        call(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8e6


# -- one walk for several roots -----------------------------------------------

def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_0_of_a_jet_is_the_values_bit_for_bit(d):
    # a walk serves a node's values from row 0 of its order-1 jet, when it
    # builds that jet anyway; it holds at every order
    pts = _pts(2 * _BLOCK + 3, d)
    for name, f in standard_library(d).items():
        vals = f.value(pts)
        for order in range(1, 5):
            np.testing.assert_array_equal(_bits(f._eval(pts, order)[0]), _bits(vals),
                                          err_msg=f"{name}, order {order}")


def _row_columns(f, d):
    """The integrands of the rows of f at p = 1.5 and 2 on a Cauchy measure:
    f^2, f^{2/p} (f itself where f may change sign) and |grad f|^2 (1+|y|^2)."""
    mids = [f.power(2.0 / p) for p in (1.5, 2.0)] if f.positive else [f]
    return [f.power(2), *mids, grad_norm_squared(f) * make_power_of_rho(2.0, d)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_columns_are_the_values_of_each_field(d):
    pts = _pts(2 * _BLOCK + 3, d)
    for name, f in standard_library(d).items():
        columns = _row_columns(f, d)
        stack = stacked(columns)(pts)
        assert stack.shape == (len(pts), len(columns))
        for j, g in enumerate(columns):
            np.testing.assert_array_equal(_bits(stack[:, j]), _bits(g.value(pts)),
                                          err_msg=f"{name}, column {j}")
    with pytest.raises(DomainError):
        stacked([coordinate(0, 1), coordinate(0, 2)])


def test_stacked_walk_builds_the_jet_of_f_once_per_block():
    f = standard_library(3)["positive_bump"]
    columns, seen = _row_columns(f, 3), []
    original = f._node

    def counting(pts, k, memo):
        seen.append(k)
        return original(pts, k, memo)

    f._node = counting
    try:
        stacked(columns)(_pts(2 * _BLOCK + 3, 3))
    finally:
        del f._node
    assert seen == [1, 1, 1]   # one order-1 jet per block, no values walk


def test_stacked_row_memory_is_bounded():
    """The four columns of the rows of positive_bump at p = 1.5 and 2 in d = 3
    on 17 280 points, the batch of one integrate_rd panel.  The stack itself
    is 0.55 MB; with one walk per block it peaked at 1.08 MB.  One column at
    a time, the powers peak at 0.42 MB each (a whole-batch walk) and the
    energy density at 0.70 MB."""
    values, pts = stacked(_row_columns(standard_library(3)["positive_bump"], 3)), _pts(17280, 3)
    values(pts)   # bases and the memo plan are built once
    tracemalloc.start()
    try:
        values(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3e6


def test_plain_values_do_not_alias_the_points():
    pts = _pts(5, 2)
    for f in (coordinate(1, 2), constant(2.0, 2), affine_precompose(coordinate(0, 2), 2.0, [1.0, 0.0])):
        vals = f.value(pts)
        assert vals.shape == (5,) and not np.may_share_memory(vals, pts)
    np.testing.assert_array_equal(coordinate(1, 2).value(pts), pts[:, 1])

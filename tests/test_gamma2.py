from collections import Counter

import numpy as np
import pytest

from beckner.errors import DomainError
from beckner.fields import (DifferentiableField, coords, gaussian_bump,
                            make_power_of_rho, positive_bump, quadratic,
                            standard_library)
from beckner.gamma2 import (cd1_residual, cd_residual, euclidean, gamma2,
                            halfspace_m, phi_conditions, qm_residual,
                            reinforced_cd_residual, sphere_stereo,
                            subharmonic_residual, value_L_gamma)
from beckner.qtm import QtmField
from oracles import phi_conditions_on_grid, power_surface


def cubic_1d():
    return coords(1)[0] ** 3


def _cross_gamma(op, f, g, x):
    """Gamma(f, g) by polarization, (Gamma(f + g) - Gamma(f - g)) / 4."""
    return (value_L_gamma(op, f + g, x)[2] - value_L_gamma(op, f - g, x)[2]) / 4.0


def gamma2_bochner(f, x, m=None):
    """Gamma_2(f) = |Hess f|^2 + Ric(L)(grad f, grad f) for an operator with
    a == 1: Ric(L) = -grad X is 0 on euclidean(d) and, on halfspace_m(d, m),
    (1 - m)/t^2 in its (t, t) entry alone."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = x.shape[-1]
    jet = f.partials(x, 2)

    def d(*axes):
        return jet[tuple(axes.count(i) for i in range(dim))]

    hess = np.array([[d(i, j) for j in range(dim)] for i in range(dim)])
    out = np.sum(hess * hess, axis=(0, 1))
    if m is not None:
        out = out + (1.0 - m) / x[..., -1] ** 2 * d(dim - 1) ** 2
    return out


def test_gamma_is_squared_gradient():
    op = euclidean(2)
    f = quadratic(2)
    x = np.array([1.0, -2.0])
    assert value_L_gamma(op, f, x)[2] == pytest.approx(4.0 + 16.0)
    g = gaussian_bump(1.0, [0.0, 0.0], 2)
    assert _cross_gamma(op, f, g, x) == pytest.approx(
        float(np.dot([2.0, -4.0], [g.partial((1, 0), x), g.partial((0, 1), x)])))


def test_gamma2_cubic():
    # f = y^3: Gamma_2(f) = |f''|^2 = 36 y^2 at y = 1
    op = euclidean(1)
    assert gamma2(op, cubic_1d(), [1.0]) == pytest.approx(36.0, rel=1e-9)


@pytest.mark.parametrize("name", ["quadratic", "trig", "gaussian_bump"])
@pytest.mark.parametrize("d", [1, 2])
def test_bochner_consistency_euclidean(name, d):
    op = euclidean(d)
    f = standard_library(d)[name]
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, d)
        a = gamma2(op, f, x)
        b = gamma2_bochner(f, x)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_bochner_consistency_halfspace():
    op = halfspace_m(2, 6.0)
    f = QtmField(positive_bump(1.0, [0.3, 0.3], 2), 6.0, 2)
    x = np.array([0.2, -0.4, 0.9])
    a = gamma2(op, f, x)
    b = gamma2_bochner(f, x, m=6.0)
    assert a == pytest.approx(b, rel=1e-6, abs=1e-8)


def test_halfspace_operator_built_once_per_d_m():
    assert halfspace_m(2, 6.0) is halfspace_m(2, 6.0)
    assert halfspace_m(2, 6.0) is not halfspace_m(2, 7.0)


def test_halfspace_operator_drift():
    op = halfspace_m(1, 6.0)
    f = coords(2)[1] ** 2  # t^2 in the extension variable
    # L t^2 = 2 + 2t (1-m)/t = 2(2 - m)
    assert value_L_gamma(op, f, [0.0, 0.7])[1] == pytest.approx(2.0 * (2.0 - 6.0))


def test_qm_identity_grid():
    rng = np.random.default_rng(2)
    for d in (1, 2):
        for m in (d + 2.0, d + 4.0, 9.5):
            for _ in range(8):
                x = np.append(rng.uniform(-3, 3, d), rng.uniform(0.05, 3.0))
                assert qm_residual(d, m, x) < 1e-12


def test_cd_residual_gaussian_model():
    # Euclidean space satisfies CD(0, d): Gamma_2 >= (Lf)^2/d
    op = euclidean(2)
    f = gaussian_bump(0.8, [0.1, -0.2], 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2)
        assert cd_residual(op, f, x, 0.0, 2.0) >= -1e-10


def _grid(k):
    return [(y, z) for y in np.linspace(0.5, 3.0, k) for z in np.linspace(0.1, 2.0, k)]


def test_phi_conditions_extremal_and_monotone_failure():
    d, m = 2, 6.0
    n = d - m + 2.0  # -2
    beta_star = n / (2.0 - n)  # -1/2
    assert phi_conditions(beta_star, n, d)
    assert phi_conditions(0.0, n, d)
    margins = []
    for delta in (0.05, 0.1, 0.2):
        assert not phi_conditions(beta_star - delta, n, d)
        bad, nums = phi_conditions_on_grid(power_surface(beta_star - delta), n, d, _grid(6))
        assert not bad
        margins.append(min(r["c4"] for r in nums))
    assert margins[0] > margins[1] > margins[2]  # failure deepens with distance


def test_phi_conditions_need_a_nonzero_dimension():
    # at m = d + 2 (n = 0) the conditions would divide 0 by 0
    with pytest.raises(DomainError, match="n != 0"):
        phi_conditions(0.0, 0.0, 1)


def test_phi_conditions_closed_form_matches_the_grid_oracle():
    # the closed form against the branch-by-branch oracle on the CLI's 8 x 8
    # grid: d = 1-3, m on both sides of d + 2 (so n > 0 too), beta at, near
    # and far from beta* = n/(2 - n)
    cases = verdicts = 0
    for d in (1, 2, 3):
        for m in np.linspace(0.5, 20.0, 79):
            n = d - m + 2.0
            if n in (0.0, 2.0, d):   # no conditions, no beta*, c2 divides by 0
                continue
            beta_star = n / (2.0 - n)
            for beta in (beta_star, beta_star - 1e-6, beta_star + 1e-6, beta_star - 0.1,
                         beta_star + 0.05, beta_star - 1.0, beta_star + 1.0, 0.0):
                want, _ = phi_conditions_on_grid(power_surface(beta), n, d, _grid(8))
                assert phi_conditions(beta, n, d) == want, (d, m, beta)
                cases, verdicts = cases + 1, verdicts + want
    assert cases >= 1000 and 0 < verdicts < cases


def test_subharmonic_residual_extension_field():
    d, m = 1, 5.0
    n = d - m + 2.0
    beta = n / (2.0 - n)
    op = halfspace_m(d, m)
    F = QtmField(positive_bump(1.0, [0.3], d), m, d)
    for pt in ([0.0, 0.5], [0.4, 1.0], [-0.6, 0.8]):
        assert subharmonic_residual(op, F, beta, np.array(pt)) >= -1e-8


def test_cd1_equality_cases():
    # f = |x|^2 at beta = 0 is the equality case; linear f gives 0 = 0
    assert abs(cd1_residual(quadratic(2), 0.0, 2, [0.4, 0.7])) < 1e-10
    with pytest.raises(DomainError):
        cd1_residual(quadratic(2), -1.5, 2, [0.4, 0.7])


def test_cd1_bump_nonnegative():
    f = positive_bump(1.0, [0.3, 0.3, 0.3], 3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 3)
        assert cd1_residual(f, -0.5, 3, x) >= -1e-9


def test_reinforced_cd():
    # Hessian 2*Id makes the reinforced bound an equality for |x|^2
    assert abs(reinforced_cd_residual(quadratic(2), 2, [0.5, -0.3])) < 1e-10
    f = positive_bump(1.0, [0.2, 0.1], 2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, 2)
        assert reinforced_cd_residual(f, 2, x) >= -1e-9
    with pytest.raises(DomainError):
        reinforced_cd_residual(quadratic(2), 2, [0.0, 0.0])


def test_sphere_operator_eigenfunction():
    # u = (1-|x|^2)/(1+|x|^2) satisfies L u = -d u in the stereographic chart
    d = 2
    op = sphere_stereo(d)
    u = (1.0 - quadratic(d)) * make_power_of_rho(-2.0, d)
    for x in ([0.3, -0.7], [1.5, 0.2]):
        uv = float(u.value(x))
        assert value_L_gamma(op, u, x)[1] == pytest.approx(-d * uv, abs=1e-12)


# one jet each of f (order 3), of a (order 2) and of the three drift
# components, so every partial is evaluated once
@pytest.mark.parametrize("call", [
    lambda f, x: cd1_residual(f, -0.5, 3, x),
    lambda f, x: reinforced_cd_residual(f, 3, x),
    lambda f, x: gamma2(euclidean(3), f, x),
], ids=["cd1_residual", "reinforced_cd_residual", "gamma2"])
def test_each_partial_evaluated_once_per_point(call, monkeypatch):
    f = positive_bump(1.0, [0.3] * 3, 3)
    op = euclidean(3)
    seen = Counter()
    original = DifferentiableField._eval

    def counting(self, points, order):
        seen[id(self)] += 1
        return original(self, points, order)

    monkeypatch.setattr(DifferentiableField, "_eval", counting)
    call(f, np.array([0.4, -0.2, 0.7]))
    assert seen == Counter(id(g) for g in [f, op.a, *op.X])


# -- point batches ----------------------------------------------------------

# the half-space operators of the batch tests, with their m
_M = {halfspace_m(d, d + 4.0): d + 4.0 for d in (1, 2, 3)}


def _batch(op, n=6, seed=0):
    """n points of op's domain: the box [-1.5, 1.5]^dim, with t in [0.2, 2]
    on the half-space."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, (n, op.dim))
    if op in _M:
        x[:, -1] = rng.uniform(0.2, 2.0, n)
    return x


def _assert_batch_is_loop(call, x, rtol=0.0):
    """One call on the batch x equals the per-point loop (to the last bit
    unless ``rtol`` says otherwise)."""
    loop = np.stack([np.array(call(xi)) for xi in x], axis=-1)
    np.testing.assert_allclose(np.array(call(x)), loop, rtol=rtol, atol=0.0)


_RIC_OPS = [euclidean(d) for d in (1, 2, 3)] + list(_M)   # a == 1
_OPS = _RIC_OPS + [sphere_stereo(d) for d in (2, 3)]


def _fields(op):
    dim = op.dim
    return positive_bump(1.0, [0.3] * dim, dim), gaussian_bump(0.7, [-0.2] * dim, dim)


# L f (op_L), Gamma(f) (gamma) and Gamma(f, g) (carre_du_champ) each read
# from value_L_gamma, the last by polarization
@pytest.mark.parametrize("op", _OPS, ids=lambda op: op.tag)
@pytest.mark.parametrize("call,rtol", [
    (lambda op, f, g, x: value_L_gamma(op, f, x)[1], 0.0),
    (lambda op, f, g, x: value_L_gamma(op, f, x), 0.0),
    (lambda op, f, g, x: value_L_gamma(op, f, x)[2], 0.0),
    (lambda op, f, g, x: _cross_gamma(op, f, g, x), 0.0),
    (lambda op, f, g, x: gamma2(op, f, x), 0.0),
    (lambda op, f, g, x: cd_residual(op, f, x, 0.5, -2.0), 0.0),
    # y^beta at beta = -1/2 is numpy's vectorised pow on a batch and the C
    # library's pow at a point: the two may differ in the last bit
    (lambda op, f, g, x: subharmonic_residual(op, f, -0.5, x), 1e-15),
], ids=["op_L", "value_L_gamma", "gamma", "carre_du_champ", "gamma2", "cd_residual",
        "subharmonic_residual"])
def test_batch_matches_points(op, call, rtol):
    f, g = _fields(op)
    _assert_batch_is_loop(lambda x: call(op, f, g, x), _batch(op), rtol)


@pytest.mark.parametrize("op", _RIC_OPS, ids=lambda op: op.tag)
def test_bochner_batch_matches_points(op):
    f, _ = _fields(op)
    # np.sum and einsum reduce a (dim, dim) block and a batch in different orders
    _assert_batch_is_loop(lambda x: gamma2_bochner(f, x, _M.get(op)), _batch(op), 1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euclidean_residuals_batch_matches_points(d):
    f, _ = _fields(euclidean(d))
    x = _batch(euclidean(d))
    _assert_batch_is_loop(lambda p: cd1_residual(f, -0.5, d, p), x)
    if d >= 2:
        _assert_batch_is_loop(lambda p: reinforced_cd_residual(f, d, p), x)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_qm_residual_of_a_batch_is_its_worst_point(d):
    x = _batch(halfspace_m(d, d + 4.0))
    assert qm_residual(d, d + 4.0, x) == max(qm_residual(d, d + 4.0, xi) for xi in x)


def test_batch_guards_catch_one_bad_point():
    op = halfspace_m(2, 6.0)
    f, _ = _fields(op)
    x = _batch(op)
    x[3, -1] = -0.1
    with pytest.raises(DomainError):
        value_L_gamma(op, f, x)
    with pytest.raises(DomainError):
        qm_residual(2, 6.0, x)
    x = _batch(euclidean(2))
    x[2] = 0.0
    with pytest.raises(DomainError):   # f = |y|^2 - 1/2 is negative at y = 0
        cd1_residual(quadratic(2) - 0.5, -0.5, 2, x)
    with pytest.raises(DomainError):   # Gamma(|y|^2) vanishes at y = 0
        reinforced_cd_residual(quadratic(2), 2, x)

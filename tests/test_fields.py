import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from beckner import fields
from beckner.errors import DomainError
from beckner.fields import (DifferentiableField, affine_precompose, constant,
                            coordinate, coords, gaussian_bump,
                            make_power_of_rho, multi_indices, positive_bump,
                            quadratic, standard_library, trig)
from beckner.numerics import fd_derivative


def test_value_and_partials_quadratic():
    f = quadratic(2)
    pts = np.array([[1.0, 2.0], [0.0, -1.0]])
    assert np.allclose(f.value(pts), [5.0, 1.0])
    assert f.partial((1, 0), [1.0, 2.0]) == pytest.approx(2.0)
    assert f.partial((0, 2), [1.0, 2.0]) == pytest.approx(2.0)
    assert f.laplacian([3.0, -1.0]) == pytest.approx(4.0)


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


def test_power_is_built_once_per_beta():
    f = positive_bump(1.0, [0.3, 0.0], 2)
    pts = np.array([[0.0, 0.0], [0.5, -1.0], [2.0, 0.3]])
    for beta in (2, 2.0 / 3.0, -0.5):
        g = f.power(beta)
        assert f.power(beta) is g
        fresh = DifferentiableField(f.expr ** sp.nsimplify(beta), f.syms,
                                    positive=True)
        assert np.array_equal(g.value(pts), fresh.value(pts))
        assert np.array_equal(g.partial((1, 1), pts), fresh.partial((1, 1), pts))
    with pytest.raises(DomainError):
        trig([1.0, 0.0], 2).power(0.5)
    with pytest.raises(DomainError):
        (f * -1.0).power(0.5)


def test_equal_fields_share_one_compile_per_partial(monkeypatch):
    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counting)
    y = coords(2)
    # an expression no other test builds, so the process-wide cache is cold
    expr = sp.exp(-sp.Float(0.7182818) * (y[0] ** 2 + y[1] ** 2))
    pts = np.array([[0.1, 0.2], [-0.4, 0.9]])
    first = DifferentiableField(expr, y)
    second = DifferentiableField(expr, y, positive=True)
    assert np.array_equal(first.partial((1, 0), pts), second.partial((1, 0), pts))
    assert len(calls) == 1
    second.partial((0, 1), pts)
    assert len(calls) == 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compiled_partials_match_numpy_lambdify(d):
    pts = np.random.default_rng(d).normal(size=(20, d))
    for f in standard_library(d).values():
        for alpha in multi_indices(d, 2):
            e = f.expr
            for s, k in zip(f.syms, alpha):
                e = sp.diff(e, s, k)
            ref = sp.lambdify(f.syms, e, modules="numpy")
            assert inspect.getsource(f._fn(alpha)) == inspect.getsource(ref)
            assert np.array_equal(f.partial(alpha, pts),
                                  np.broadcast_to(ref(*pts.T), (len(pts),)))


def test_compiling_loads_no_lazy_numpy_submodules():
    src = os.path.dirname(os.path.dirname(fields.__file__))
    script = ("import sys\n"
              "from beckner.fields import positive_bump\n"
              "positive_bump(1.0, [0.3], 1).partial((2,), [0.1])\n"
              "assert 'numpy.f2py' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.returncode == 0, out.stderr


def test_combinators_track_positivity():
    f = positive_bump(1.0, [0.0], 1)
    assert (f + f).positive
    assert (f * f).positive
    assert (f * 2.0).positive
    assert not (f * -1.0).positive
    assert not (f + 1.0).positive  # conservative: shifts drop the flag


def test_compose_scalar():
    v = sp.Symbol("v")
    f = quadratic(1).compose_scalar(sp.exp(v), v)
    assert f.value([1.5]) == pytest.approx(math.exp(2.25))


def test_grad_norm_squared():
    f = quadratic(2)
    g = f.grad_norm_squared()
    assert g.value([1.0, 2.0]) == pytest.approx(4.0 + 16.0)


def test_affine_precompose():
    f = quadratic(2)
    g = affine_precompose(f, 2.0, [1.0, -1.0])
    y = np.array([0.5, 0.25])
    assert g.value(y) == pytest.approx(f.value(2.0 * y + np.array([1.0, -1.0])))
    with pytest.raises(DomainError):
        affine_precompose(f, -1.0, [0.0, 0.0])


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

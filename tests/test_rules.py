"""The in-repo Gauss rules and log-Gamma, without scipy and against it.

The exactness tests need no oracle and always run.  The oracle tests compare
with scipy's rules when scipy is importable (it is only a test extra).
"""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import beckner
from beckner import qtm

_ALPHAS = [-0.5, 0.0, 1.0, 2.0, 3.5]


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_laguerre_rule_integrates_powers_exactly(alpha):
    u, w = qtm._laguerre_rule(64, alpha)
    for k in range(12):
        exact = math.exp(math.lgamma(k + alpha + 1.0))
        assert math.fsum(w * u ** k) == pytest.approx(exact, rel=1e-13)
    assert qtm._laguerre_rule(64, alpha) is qtm._laguerre_rule(64, alpha)
    assert not u.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
def test_heat_rule_has_unit_mass_and_half_variance(d):
    for order in (qtm._HERMITE_ORDER[d], qtm._HERMITE_ORDER_LO[d]):
        nodes, weights = qtm._heat_rule(d, order)
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-13)
        for i in range(d):
            assert math.fsum(weights * nodes[:, i] ** 2) == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("order", [12, 18, 22, 32, 48])
def test_hermite_rule_matches_scipy(order):
    special = pytest.importorskip("scipy.special")
    h, w = special.roots_hermite(order)
    nodes, weights = qtm._heat_rule(1, order)
    np.testing.assert_allclose(nodes[:, 0], h, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(weights, w / math.sqrt(math.pi), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_laguerre_rule_matches_scipy(alpha):
    special = pytest.importorskip("scipy.special")
    u_ref, w_ref = special.roots_genlaguerre(64, alpha)
    u, w = qtm._laguerre_rule(64, alpha)
    np.testing.assert_allclose(u, u_ref, rtol=1e-12, atol=0.0)
    # the smallest weights (~1e-90) carry no relative accuracy: compare
    # against the total mass
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * w_ref.sum()


def test_lgamma_matches_scipy_at_suite_arguments():
    special = pytest.importorskip("scipy.special")
    # m/2 and (m+d)/2 over the indices the suites build: m = 2b - d for
    # b in 3..5, the extension indices 6, 8, 9 and their m - 2p shifts
    args = {m / 2.0 for m in range(1, 11)} | {(m + d) / 2.0 for m in range(1, 11)
                                              for d in (1, 2, 3)}
    for a in sorted(args):
        assert math.lgamma(a) == pytest.approx(float(special.gammaln(a)),
                                               rel=1e-14, abs=1e-14)


def test_cli_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(beckner.__file__))
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "from beckner.cli import main\n"
              "sys.exit(main(['run', '--suite', 'measures', '--d', '1', '--b', '3']))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    checks = json.loads(out.stdout)["checks"]
    assert checks
    assert {r["verdict"] for r in checks} <= {"pass", "saturated"}

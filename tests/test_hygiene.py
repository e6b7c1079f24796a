"""Source hygiene checks that need no linter."""
import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from beckner import gamma2, inequalities, measures, numerics, qtm, sphere

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "beckner"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_top_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_top_level(path):
    tree = ast.parse(path.read_text())
    nested = [f"line {node.lineno}" for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and node not in tree.body]
    assert not nested, f"imports below module level: {nested}"


def test_cli_import_leaves_sympy_out():
    script = "import sys, beckner.cli; assert 'sympy' not in sys.modules"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert out.returncode == 0, out.stderr


def _callers(name):
    """The modules under src/beckner that call ``name``."""
    def calls(path):
        return any(isinstance(n, ast.Call) and name in (
            getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(ast.parse(path.read_text())))
    return [p.name for p in MODULES if calls(p)]


def test_only_measures_calls_integrate_rd():
    # every full-space integral goes through a Measure, which carries its tail
    assert _callers("integrate_rd") == ["measures.py"]


def test_no_library_module_calls_fd_derivative():
    # derivatives come from jets; finite differences are the tests' reference,
    # kept in tests/oracles.py so that the oracles share no code with the library
    assert not hasattr(numerics, "fd_derivative")
    assert _callers("fd_derivative") == []


def test_gamma_calculus_reads_partials_through_the_batch_protocol():
    # only the fields themselves call ``partial``; gamma2 and sphere read
    # every partial from one ``partials(points, order)`` call per field
    assert set(_callers("partial")) <= {"fields.py", "qtm.py"}


def test_tailless_integrators_are_gone():
    assert not hasattr(sphere, "SphereGeometry")
    assert not hasattr(inequalities, "_gaussian_integrate")
    assert not hasattr(inequalities, "_weighted_energy")


def test_loose_kernel_signatures_are_gone():
    # the kernel is one TKernel(d, m, t, x); its draws are its methods
    assert not hasattr(qtm, "QtmParams")
    for name in ("sample_gamma", "draw_tkernel", "draw_coupled", "sample_tkernel",
                 "sample_coupled", "sample_hitting"):
        assert not hasattr(measures, name), name


def test_tkernel_is_the_only_class_holding_d_m_t_x():
    holders = [node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and {"d", "m", "t", "x"} <= {
                   n.target.id for n in node.body if isinstance(n, ast.AnnAssign)}]
    assert holders == ["TKernel"]


def test_every_row_lives_on_one_measure():
    # an extension row is the Cauchy row of f(x + t .), so the kernel is no
    # measure of its own and no row carries a second one
    assert not hasattr(measures.TKernel, "integrate")
    assert [f.name for f in dataclasses.fields(inequalities.BecknerRow)
            if "measure" in f.name] == ["measure"]
    for name in ("inequalities.py", "sphere.py"):
        assert "TKernel" not in (SRC / name).read_text(), name


def test_gamma2_keeps_the_calculus_and_the_closed_forms():
    # the Phi-surface grid is the tests' oracle, the Bochner form a test
    # reference, and L f and Gamma(f) are read from value_L_gamma
    for name in ("PhiSurface", "power_surface", "phi_condition_report", "gamma2_bochner",
                 "op_L", "gamma", "carre_du_champ"):
        assert not hasattr(gamma2, name), name
    for op in (gamma2.euclidean(2), gamma2.halfspace_m(2, 6.0), gamma2.sphere_stereo(2)):
        assert not hasattr(op, "ric") and not hasattr(op, "xx"), op.tag


def test_substreams_are_looped_over_in_numerics_only():
    # ``pooled`` and ``mc_estimate`` are the two loops over the substreams
    assert _callers("substreams") == ["numerics.py"]


def test_suite_runners_decide_no_verdict():
    # a verdict is decided in cli._record only, from the CHECKS table
    tree = ast.parse((SRC / "cli.py").read_text())
    runners = [f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name.startswith("_suite_")]
    assert len(runners) == 6
    verdicts = {"pass", "fail", "inconclusive", "saturated"}
    found = [(f.name, n.value) for f in runners for n in ast.walk(f)
             if isinstance(n, ast.Constant) and n.value in verdicts]
    assert not found, found

import json
import time

import pytest

from beckner.cli import (CHECKS, SUITES, SuiteConfig, build_parser,
                         explain_check, load_config_file, main, render_csv,
                         run_suite)
from beckner.errors import ConfigError, UnknownCheck
from beckner.measures import HittingTimeLaw
from beckner.numerics import MonteCarloConfig, pooled


def small_cfg(**kw):
    base = dict(suite="measures", d=[1], b=[3.0], m=[6.0], p=[2.0], t=[1.0],
                deterministic_timestamps=True)
    base.update(kw)
    return SuiteConfig(**base)


def test_run_suite_measures():
    report = run_suite(small_cfg())
    assert report["summary"]["fail"] == 0
    ids = {r["check_id"] for r in report["checks"]}
    assert ids == {"measure-mass", "measure-second-moment", "norm-const-ratio"}
    for r in report["checks"]:
        assert r["verdict"] in ("pass", "fail", "saturated", "inconclusive")
        assert r["deficit"] == r["rhs"] - r["lhs"]


def test_run_suite_bessel():
    report = run_suite(small_cfg(suite="bessel", d=[1], m=[8.0], seed=0))
    verdicts = {r["check_id"]: r["verdict"] for r in report["checks"]}
    assert verdicts == {"hitting-law-ks": "pass", "bessel-dynkin": "pass"}


def test_hitting_law_ks_is_the_statistic_of_every_draw():
    # the lhs is the two-sided KS statistic of the suite's pooled draws, as
    # scipy computes it
    stats = pytest.importorskip("scipy.stats")
    report = run_suite(small_cfg(suite="bessel", d=[1], m=[3.0, 8.0], seed=2))
    ks = [r for r in report["checks"] if r["check_id"] == "hitting-law-ks"]
    assert len(ks) == 2
    for rec in ks:
        law = HittingTimeLaw(rec["params"]["m"], rec["params"]["t"])
        samples = pooled(law.draw, MonteCarloConfig(rec["params"]["n"], 2))
        assert abs(rec["lhs"] - stats.kstest(samples, law.cdf).statistic) <= 1e-12


def test_deterministic_reports_are_identical():
    a = json.dumps(run_suite(small_cfg()), sort_keys=True)
    b = json.dumps(run_suite(small_cfg()), sort_keys=True)
    assert a == b


def test_checks_sorted():
    report = run_suite(small_cfg(d=[1, 2], b=[3.0, 4.0]))
    keys = [(r["check_id"], json.dumps(r["params"], sort_keys=True))
            for r in report["checks"]]
    assert keys == sorted(keys)


def test_csv_round_trip_precision():
    report = run_suite(small_cfg())
    text = render_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("check_id,")
    assert len(lines) == 1 + len(report["checks"])
    import csv as _csv
    import io
    rows = list(_csv.reader(io.StringIO(text)))
    for row, rec in zip(rows[1:], report["checks"]):
        assert float(row[2]) == rec["lhs"]  # .17g round-trips doubles
        assert float(row[6]) == rec["deficit"]
        assert json.loads(row[1]) == rec["params"]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="nope"))
    for bad_d in (4, 1.5, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            run_suite(small_cfg(d=[bad_d]))
    for grid in ("b", "m", "p", "t"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=f"{grid} grid must be finite"):
                run_suite(small_cfg(**{grid: [bad]}))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="cauchy", d=[2], b=[2.5]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="qtm", d=[2], m=[3.0]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="gamma2", d=[3], m=[4.0]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(format="xml"))


def test_explain_known_and_unknown():
    for check_id in CHECKS:
        text = explain_check(check_id)
        assert isinstance(text, str) and len(text) > 20
    with pytest.raises(UnknownCheck):
        explain_check("no-such-check")


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--suite", "measures", "--d", "1", "--b", "3",
               "--out", str(out), "--deterministic-timestamps"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["timestamp"] == "1970-01-01T00:00:00Z"
    assert all(r["seconds"] == 0.0 for r in report["checks"])

    rc = main(["run", "--suite", "bogus"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    rc = main(["run", "--suite", "measures", "--d", "1", "--b", "nan"])
    assert rc == 2
    assert "b grid must be finite" in capsys.readouterr().err

    rc = main(["explain", "measure-mass"])
    assert rc == 0
    assert "integrate to 1" in capsys.readouterr().out
    rc = main(["explain", "no-such-check"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("no check named 'no-such-check'")


def test_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "suite.cfg"
    cfgfile.write_text(
        "# comment\n"
        "suite = measures\n"
        "d = 1, 2\n"
        "b = 3.0\n"
        "seed = 7\n"
        "deterministic_timestamps = true\n")
    opts = load_config_file(str(cfgfile))
    assert opts == {"suite": "measures", "d": [1.0, 2.0], "b": [3.0],
                    "seed": 7, "deterministic_timestamps": True}

    out = tmp_path / "r.json"
    rc = main(["run", "--config", str(cfgfile), "--d", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["config"]["suite"] == "measures"  # from file
    assert report["config"]["d"] == [1]             # CLI overrides file
    assert report["config"]["seed"] == 7

    bad = tmp_path / "bad.cfg"
    bad.write_text("what even is this\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def test_config_file_bad_values(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("d = x\n", "d = 1, two\n", "seed = 1.5\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config_file(str(bad))
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config_file(str(missing))
    assert main(["run", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err


def test_registry_matches_emitted_checks():
    """Each suite emits exactly the checks the table files under it, and a
    residual check is judged against the table's tolerance."""
    grid = dict(d=[1, 2], b=[3.0], m=[6.0], p=[2.0], t=[1.0])
    for suite in SUITES:
        if suite == "all":
            continue
        report = run_suite(small_cfg(suite=suite, **grid))
        emitted = {r["check_id"] for r in report["checks"]}
        assert emitted == {cid for cid, c in CHECKS.items() if c.suite == suite}
        for r in report["checks"]:
            if CHECKS[r["check_id"]].tol is not None:
                assert r["rhs"] == CHECKS[r["check_id"]].tol
    for orphan in ("beckner-qt", "phi-entropy", "sphere-classical-beckner"):
        with pytest.raises(UnknownCheck):
            explain_check(orphan)


def test_record_seconds_partition_the_suite_time():
    t0 = time.perf_counter()
    report = run_suite(small_cfg(deterministic_timestamps=False))
    elapsed = time.perf_counter() - t0
    seconds = [r["seconds"] for r in report["checks"]]
    assert all(s > 0.0 for s in seconds)
    assert sum(seconds) <= elapsed


def test_parser_defaults_do_not_mask_config():
    args = build_parser().parse_args(["run"])
    for key in ("suite", "d", "b", "m", "p", "t", "seed", "out", "format"):
        assert getattr(args, key) is None


def test_csv_format_via_main(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["run", "--suite", "measures", "--d", "1", "--b", "3",
               "--format", "csv", "--out", str(out),
               "--deterministic-timestamps"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("check_id,")
    assert "measure-mass" in text


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # numpy's SeedSequence rejects it mid-run with a bare ValueError
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        run_suite(small_cfg(suite="qtm", seed=-1))
    assert main(["run", "--suite", "bessel", "--d", "1", "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    cfgfile = tmp_path / "neg.cfg"
    cfgfile.write_text("suite = sphere\nd = 2\nseed = -1\n")
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["0", "-1"])
def test_non_positive_t_is_a_config_error(t, capsys):
    with pytest.raises(ConfigError, match="t grid must be positive"):
        run_suite(small_cfg(suite="qtm", t=[float(t)]))
    assert main(["run", "--suite", "qtm", "--d", "1", "--t", t]) == 2
    assert "t grid must be positive" in capsys.readouterr().err

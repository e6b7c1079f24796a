import json
import time
import warnings

import pytest

from beckner.cli import (CHECKS, SUITES, SuiteConfig, _record, build_parser,
                         explain_check, load_config_file, main, render_csv,
                         run_suite)
from beckner.errors import ConfigError, UnknownCheck
from beckner.inequalities import DeficitReport
from beckner.measures import HittingTimeLaw
from beckner.numerics import Estimate, MonteCarloConfig, pooled


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


@pytest.mark.parametrize("d", [1, 3])
def test_gamma2_at_m_equal_d_plus_2(d, capsys):
    # n = d - m + 2 = 0: no phi-conditions record (its family needs n < 0),
    # and no 0/0 on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--suite", "gamma2", "--d", str(d), "--m", str(d + 2),
                     "--deterministic-timestamps"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [r["verdict"] for r in checks if r["check_id"] == "qm-halfspace"] == ["pass"]
    assert not [r for r in checks if r["check_id"] == "phi-conditions"]


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
    # the file's deterministic_timestamps holds without the flag
    assert report["timestamp"] == "1970-01-01T00:00:00Z"
    assert all(r["seconds"] == 0.0 for r in report["checks"])

    # a flag of 0 still overrides the file's seed
    rc = main(["run", "--config", str(cfgfile), "--d", "1", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["seed"] == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("what even is this\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("frobnicate = 3\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def test_config_file_bad_values(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text in ("d = x\n", "d = 1, two\n", "seed = 1.5\n",
                 "deterministic_timestamps = ture\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config_file(str(bad))
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
    # a key with no values is an empty grid, which no flag can give
    for text, key in (("suite = bessel\nd =\n", "d"), ("suite = measures\nb =\n", "b")):
        bad.write_text(text)
        assert main(["run", "--config", str(bad)]) == 2
        assert f"config error: {key} grid is empty" in capsys.readouterr().err
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config_file(str(missing))
    assert main(["run", "--config", str(missing)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text,value", [("true", True), ("YES", True), ("1", True),
                                        ("False", False), ("no", False), ("0", False)])
def test_config_file_booleans(tmp_path, text, value):
    cfgfile = tmp_path / "b.cfg"
    cfgfile.write_text(f"deterministic_timestamps = {text}\n")
    assert load_config_file(str(cfgfile)) == {"deterministic_timestamps": value}


def test_config_file_report_is_the_flags_report(tmp_path, capsys):
    # a config file and the same flags give one SuiteConfig, so one report
    cfgfile = tmp_path / "suite.cfg"
    cfgfile.write_text("suite = measures\nd = 1\nb = 3\n")
    assert main(["run", "--config", str(cfgfile), "--deterministic-timestamps"]) == 0
    from_file = capsys.readouterr().out
    assert main(["run", "--suite", "measures", "--d", "1", "--b", "3",
                 "--deterministic-timestamps"]) == 0
    assert capsys.readouterr().out == from_file
    assert json.loads(from_file)["config"]["d"] == [1]


@pytest.mark.parametrize("seed", [0, 3])
def test_every_verdict_follows_the_table(seed):
    """The policy judges a Beckner row; every other record passes iff
    lhs < rhs and gets its check's miss otherwise; a tol is the rhs."""
    policy = {cid for cid, c in CHECKS.items() if c.policy}
    assert policy == {"poincare-cauchy", "beckner-cauchy", "sphere-beckner"}
    report = run_suite(SuiteConfig(seed=seed, deterministic_timestamps=True))
    assert {r["check_id"] for r in report["checks"]} == set(CHECKS)
    for r in report["checks"]:
        check = CHECKS[r["check_id"]]
        if check.policy:
            expected = DeficitReport(Estimate(r["lhs"], r["lhs_err"], 0),
                                     Estimate(r["rhs"], r["rhs_err"], 0)).verdict
        else:
            expected = "pass" if r["lhs"] < r["rhs"] else check.miss
        assert r["verdict"] == expected, r
        if check.tol is not None:
            assert r["rhs"] == check.tol, r


def test_a_miss_gets_its_checks_verdict():
    # lhs equal to rhs is a miss; a tol stands in for a missing rhs
    assert _record("measure-mass", {}, 1e-9)["verdict"] == "fail"
    assert _record("qtm-crosspath", {}, 0.5, 0.5)["verdict"] == "fail"
    assert _record("qtm-mc", {}, 0.5, 0.5)["verdict"] == "inconclusive"
    rec = _record("bessel-dynkin", {}, 0.03)
    assert (rec["rhs"], rec["verdict"]) == (0.02, "inconclusive")
    assert _record("bessel-dynkin", {}, 0.01)["verdict"] == "pass"
    lhs, rhs = Estimate(1.0, 0.1, 0), Estimate(0.95, 0.1, 0)
    rec = _record("poincare-cauchy", {}, lhs, rhs)
    assert (rec["lhs_err"], rec["verdict"]) == (0.1, "saturated")


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

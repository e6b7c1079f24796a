import json

import pytest

from beckner.cli import (SuiteConfig, build_parser, explain_check,
                         load_config_file, main, render_csv, run_suite,
                         _EXPLANATIONS)
from beckner.errors import ConfigError, UnknownCheck


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
    with pytest.raises(ConfigError):
        run_suite(small_cfg(d=[4]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="cauchy", d=[2], b=[2.5]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(suite="qtm", d=[2], m=[3.0]))
    with pytest.raises(ConfigError):
        run_suite(small_cfg(format="xml"))


def test_explain_known_and_unknown():
    for check_id in _EXPLANATIONS:
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

    rc = main(["explain", "measure-mass"])
    assert rc == 0
    assert "integrate to 1" in capsys.readouterr().out
    rc = main(["explain", "no-such-check"])
    assert rc == 2


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

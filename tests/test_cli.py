import csv
import math

import pytest

from faraday_edr import cli
from faraday_edr.cli import CSV_HEADER, MOMENTS_HEADER, main, parse_angle
from faraday_edr.errors import NonFiniteValueError, UsageError


def read_rows(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_parse_angle_tokens():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("0.75") == 0.75
    with pytest.raises(UsageError):
        parse_angle("2pi")


def test_sweep_g_schema_and_values(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-g", "--model", "exact-coherent", "--alpha2", "6",
               "--start", "0.1", "--stop", "1.5", "--steps", "8", "-o", str(out)])
    assert rc == 0
    with open(out, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
    assert header == CSV_HEADER
    rows = read_rows(out)
    assert len(rows) == 8
    for row in rows:
        assert row["model"] == "exact-coherent"
        assert row["flags"] == ""
        rel = abs(float(row["eps2_numeric"]) - float(row["eps2_analytic"]))
        assert rel <= 1e-6 * float(row["eps2_analytic"])
    # 12 significant digits, locale-free
    assert "." in rows[0]["eps2_numeric"]
    assert "," not in rows[0]["eps2_numeric"]


def test_sweep_g_defaults(tmp_path):
    # built-in defaults: exact-coherent, alpha2 = 6, 120 g-points on (0.02, pi)
    out = tmp_path / "default.csv"
    assert main(["sweep-g", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 120
    near_quarter = min(rows, key=lambda r: abs(float(r["g"]) - math.pi / 4))
    assert float(near_quarter["eps2_numeric"]) == pytest.approx(1.0 / 6.0, rel=1e-3)


def test_sweep_g_quarter_turn_row(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["sweep-g", "--alpha2", "6", "--start", "pi/4", "--stop", "pi/2",
                 "--steps", "2", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[0]["eps2_numeric"]) == pytest.approx(1.0 / 6.0, rel=1e-8)
    # the pi/2 endpoint is calibration-singular but keeps its disturbance
    assert rows[1]["eps2_numeric"] == "SINGULAR"
    assert rows[1]["hak"] == "SINGULAR"
    assert rows[1]["flags"] == "SINGULAR"
    assert float(rows[1]["eta2_numeric"]) == pytest.approx(
        2.0 * (1.0 - math.exp(-12.0)), rel=1e-9)


def test_sweep_g_revival_row(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["sweep-g", "--alpha2", "6", "--start", "pi/2", "--stop", "pi",
                 "--steps", "2", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert abs(float(rows[1]["eta2_numeric"])) <= 1e-10


def test_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep-g", "--alpha2", "2", "--steps", "10", "--start", "0.05",
            "--stop", "pi"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_chi_psa_includes_oracle_columns(tmp_path):
    out = tmp_path / "chi.csv"
    assert main(["sweep-chi", "--model", "psa", "--start", "0.05", "--stop", "2.0",
                 "--steps", "10", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 10
    for row in rows:
        assert row["g"] == "" and row["alpha2"] == ""
        num, ana = float(row["eps2_numeric"]), float(row["eps2_analytic"])
        assert num == pytest.approx(ana, rel=1e-9)  # quadrature cross-check
    last = rows[-1]
    assert float(last["eta2_analytic"]) == pytest.approx(
        2.0 * (1.0 - math.exp(-8.0)), rel=1e-9)


def test_sweep_chi_wia_rows(tmp_path):
    out = tmp_path / "wia.csv"
    assert main(["sweep-chi", "--model", "wia", "--start", "0.1", "--stop", "0.2",
                 "--steps", "3", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[0]["eps2_analytic"]) == pytest.approx(25.0, rel=1e-12)
    assert float(rows[0]["eta2_analytic"]) == pytest.approx(0.04, rel=1e-12)
    for row in rows:
        assert row["eps2_numeric"] == ""  # purely analytic model
        assert row["hak"] == "1"


def test_sweep_chi_zero_strength_row(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["sweep-chi", "--model", "psa", "--start", "0", "--stop", "0.5",
                 "--steps", "2", "-o", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0]["eps2_analytic"] == "SINGULAR"
    assert rows[0]["flags"] == "SINGULAR"
    assert float(rows[0]["eta2_analytic"]) == 0.0
    assert main(["sweep-chi", "--start", "-0.5", "--stop", "1.0", "--steps", "4",
                 "-o", str(out)]) == 1  # negative strength is a usage error


def test_psa_vs_wia_small_chi(tmp_path):
    # at chi = 0.05 the two disturbance forms differ by < 0.5%
    pa, wa = tmp_path / "p.csv", tmp_path / "w.csv"
    for model, path in (("psa", pa), ("wia", wa)):
        assert main(["sweep-chi", "--model", model, "--start", "0.05",
                     "--stop", "0.1", "--steps", "2", "-o", str(path)]) == 0
    eta_p = float(read_rows(pa)[0]["eta2_analytic"])
    eta_w = float(read_rows(wa)[0]["eta2_analytic"])
    assert abs(eta_w - eta_p) / eta_p < 0.005


def test_tradeoff_emits_csv_and_plot_script(tmp_path):
    out = tmp_path / "trade.csv"
    assert main(["tradeoff", "--model", "wia", "--start", "0.2", "--stop", "2.0",
                 "--steps", "12", "-o", str(out)]) == 0
    rows = read_rows(out)
    models = {row["model"] for row in rows}
    assert models == {"wia", "hak-bound", "bot-bound"}
    for row in rows:
        if row["model"] == "wia":
            assert row["hak"] == "1"
        if row["model"] == "bot-bound":
            # frontier rows satisfy the relation with equality
            eps2 = float(row["eps2_analytic"])
            eta2 = float(row["eta2_analytic"])
            assert eps2 + eta2 * (1 - eta2 / 4) == pytest.approx(1.0, abs=1e-9)
    script = tmp_path / "trade.plot.py"
    assert script.exists()
    text = script.read_text(encoding="utf-8")
    assert "trade.csv" in text
    assert "matplotlib" in text
    assert str(tmp_path) not in text  # references only the CSV, not absolute paths


def test_tradeoff_exact_bot_always_holds(tmp_path):
    out = tmp_path / "te.csv"
    assert main(["tradeoff", "--model", "exact-coherent", "--alpha2", "2",
                 "--steps", "25", "-o", str(out)]) == 0
    for row in read_rows(out):
        if row["model"] == "exact-coherent" and row["bot_lhs"] not in ("", "SINGULAR"):
            assert float(row["bot_lhs"]) >= 1.0 - 1e-9


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--point", "9,0.3", "--point", "6,0", "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as f:
        assert f.readline().rstrip("\n").split(",") == MOMENTS_HEADER
    rows = read_rows(out)
    assert len(rows) == 2
    squeezed = rows[0]
    assert float(squeezed["pred_var_sz"]) == pytest.approx(9.0 * math.exp(0.6), rel=1e-12)
    assert float(squeezed["relgap_var_sz"]) <= 1e-4
    assert float(squeezed["relgap_var_sy"]) <= 1e-4
    coherent = rows[1]
    assert float(coherent["relgap_var_sy"]) <= 1e-9
    assert float(coherent["gap_mean_sz"]) <= 1e-10


def test_moments_swapped_squeezing(tmp_path):
    out = tmp_path / "ms.csv"
    assert main(["moments", "--point", "9,-0.3", "-o", str(out)]) == 0
    row = read_rows(out)[0]
    assert float(row["pred_var_sz"]) == pytest.approx(9.0 * math.exp(-0.6), rel=1e-12)
    assert float(row["relgap_var_sz"]) <= 1e-4


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep configuration\n"
        "alpha2 = 2\n"
        "steps = 5\n"
        "start = 0.3\n"
        "stop = 0.9\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "c1.csv"
    assert main(["sweep-g", "--config", str(cfg), "-o", str(out1)]) == 0
    rows = read_rows(out1)
    assert len(rows) == 5  # from config
    assert rows[0]["alpha2"] == "2"

    out2 = tmp_path / "c2.csv"
    assert main(["sweep-g", "--config", str(cfg), "--alpha2", "6",
                 "-o", str(out2)]) == 0
    assert read_rows(out2)[0]["alpha2"] == "6"  # flag beats config


def test_config_file_malformed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha2: 2\n", encoding="utf-8")
    assert main(["sweep-g", "--config", str(cfg), "-o", str(tmp_path / "x.csv")]) == 1


def test_exit_code_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["sweep-g", "--model", "psa", "-o", out]) == 1  # wrong model
    assert main(["sweep-g", "--alpha2", "6"]) == 1  # missing output
    assert main(["sweep-g", "--steps", "1", "-o", out]) == 1  # steps < 2
    assert main(["sweep-g", "--start", "2pi", "-o", out]) == 1  # bad angle
    assert main(["sweep-g", "--model", "exact-coherent", "--r", "0.3", "-o", out]) == 1
    assert main(["no-such-command"]) == 1
    # non-finite amplitudes are rejected before any state is prepared
    assert main(["sweep-g", "--alpha2", "nan", "-o", out]) == 1
    assert main(["sweep-g", "--alpha2", "inf", "-o", out]) == 1
    assert main(["sweep-g", "--model", "exact-squeezed", "--r", "nan", "-o", out]) == 1
    assert main(["tradeoff", "--alpha2", "-inf", "-o", out]) == 1
    assert main(["moments", "--point", "nan,0", "-o", out]) == 1
    assert main(["moments", "--alpha2", "6", "--r", "inf", "-o", out]) == 1
    assert main(["moments", "--point", "-1,0", "-o", out]) == 1


def test_exit_code_cutoff_ceiling(tmp_path):
    rc = main(["sweep-g", "--alpha2", "100000", "--steps", "2",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_verify_passes_and_fails(tmp_path, capsys):
    assert main(["verify", "--alpha2", "6"]) == 0
    out = capsys.readouterr().out
    assert "all 5 suites pass" in out
    assert "wia hak residual 0" in out

    # truncation-starved run: the edr suite must fail with a deficit diagnostic
    assert main(["verify", "--alpha2", "6", "--cutoff", "4"]) == 3
    out = capsys.readouterr().out
    assert "edr-agreement" in out
    assert "NormDeficitError" in out


def test_fmt_refuses_non_finite_values():
    assert cli._fmt(None) == ""
    assert cli._fmt("SINGULAR") == "SINGULAR"
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteValueError):
            cli._fmt(bad)


def test_exit_code_non_finite_cell(tmp_path, monkeypatch, capsys):
    # a NaN that no SINGULAR flag accounts for fails the run and writes no file
    monkeypatch.setattr(cli, "eps2_from_oracle", lambda cfg: math.nan)
    out = tmp_path / "nan.csv"
    assert main(["sweep-chi", "--model", "psa", "--steps", "3", "-o", str(out)]) == 3
    assert "numerical check failed" in capsys.readouterr().err
    assert not out.exists()
"""Tests for the command-line front end and its emitters."""

import json
import math

import pytest

from fejerwell import ClassicalOrbit, PacketSpec, WellConfig, cli, fejer_position, quantum, reduced_uncertainty
from fejerwell.cli import RunConfig, TimeSeries, emit, main, run


def read(path):
    return path.read_bytes()


def lines(path):
    return path.read_text().splitlines()


def test_emit_header_only_csv(tmp_path):
    out = tmp_path / "empty.csv"
    series = TimeSeries(columns=("t", "x"), rows=[])
    n = emit(series, "csv", str(out))
    assert out.read_text() == "t,x\n"
    assert n == len(b"t,x\n")


def test_emit_csv_shape(tmp_path):
    out = tmp_path / "small.csv"
    series = TimeSeries(columns=("t", "a", "b"), rows=[(0.0, 1.0, 2.0), (1.0, 0.1, 4.0)])
    emit(series, "csv", str(out))
    content = lines(out)
    assert len(content) == 3
    assert content[0] == "t,a,b"
    # 17 significant digits round-trip exactly
    assert float(content[2].split(",")[1]) == 0.1


def test_emit_json_round_trip(tmp_path):
    out = tmp_path / "s.json"
    series = TimeSeries(columns=("t", "v"), rows=[(0.0, 1.5), (2.0, -0.25)])
    emit(series, "json", str(out))
    parsed = json.loads(out.read_text())
    rebuilt = TimeSeries(
        columns=tuple(parsed["columns"]),
        rows=[tuple(r) for r in parsed["rows"]],
    )
    assert rebuilt == series


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit(TimeSeries(columns=("t",), rows=[]), "xml", str(tmp_path / "x"))


def test_timeseries_invariants():
    with pytest.raises(ValueError):
        TimeSeries(columns=("t", "x"), rows=[(0.0,)])
    with pytest.raises(ValueError):
        TimeSeries(columns=("t", "x"), rows=[(1.0, 0.0), (1.0, 0.0)])


def test_trajectories_resolves_auto_width(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "trajectories", "--n", "500", "--N", "auto", "--t-max", "2T",
        "--steps", "64", "--out", str(out),
    ])
    assert code == 0
    content = lines(out)
    assert content[0] == "t,x_quantum,x_fejer,p_quantum,p_fejer"
    assert len(content) == 65
    first = [float(v) for v in content[1].split(",")]
    # auto resolves to N = 23; the classical column pins the resolved width
    orbit = ClassicalOrbit(a=1.0, p_c=500 * math.pi, mu=1.0)
    assert math.isclose(first[2], fejer_position(orbit, 23, 0.0), rel_tol=1e-12)
    assert first[3] == 0.0  # momentum mean vanishes at the start
    # final sample sits at 2T
    last = [float(v) for v in content[-1].split(",")]
    assert math.isclose(last[0], 2 * orbit.period, rel_tol=1e-12)


def test_trajectories_momentum_normalization(tmp_path):
    raw = tmp_path / "raw.csv"
    norm = tmp_path / "norm.csv"
    args = ["trajectories", "--n", "50", "--N", "5", "--t-max", "0.5T", "--steps", "16"]
    assert main(args + ["--normalize-momentum", "off", "--out", str(raw)]) == 0
    assert main(args + ["--normalize-momentum", "on", "--out", str(norm)]) == 0
    row_raw = [float(v) for v in lines(raw)[5].split(",")]
    row_norm = [float(v) for v in lines(norm)[5].split(",")]
    p_c = 50 * math.pi
    assert math.isclose(row_raw[4], row_norm[4] * p_c, rel_tol=1e-12)


def test_t_max_accepts_plain_number(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    T = 2 / (50 * math.pi)
    assert main(["trajectories", "--n", "50", "--N", "3", "--t-max", "2T",
                 "--steps", "8", "--out", str(a)]) == 0
    assert main(["trajectories", "--n", "50", "--N", "3", "--t-max", repr(2 * T),
                 "--steps", "8", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_fig1_headline_row(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--out", str(out)]) == 0
    content = lines(out)
    assert content[0] == "n,N_opt,sqrt_n,product_min"
    final = [float(v) for v in content[-1].split(",")]
    assert final[0] == 500.0 and final[1] == 23.0


def test_uncertainty_command(tmp_path, monkeypatch):
    # delta_x and delta_p come from one kernel pass over every instant
    passes = []
    moments = quantum._moments
    monkeypatch.setattr(quantum, "_moments", lambda *args: passes.append(args[3]) or moments(*args))
    out = tmp_path / "unc.csv"
    assert main(["uncertainty", "--n", "50", "--N", "5", "--t-max", "1T",
                 "--steps", "32", "--out", str(out)]) == 0
    assert passes == [("position", "position_sq", "momentum")]
    content = lines(out)
    assert content[0] == "t,delta_x,delta_x_classical,delta_p,delta_p_classical"
    first = [float(v) for v in content[1].split(",")]
    assert first[3] == 1.0 and first[4] == 1.0  # momentum spreads start at 1
    spec = PacketSpec(n=50, N=5)
    for row in content[1:]:
        vals = [float(v) for v in row.split(",")]
        assert all(0.0 <= v <= 1.0 for v in vals[1:])
        for col, kind in ((1, "position"), (3, "momentum")):
            assert vals[col] == pytest.approx(reduced_uncertainty(WellConfig(), spec, vals[0], kind), abs=1e-14)


def test_gibbs_command(tmp_path):
    out = tmp_path / "gibbs.csv"
    assert main(["gibbs", "--m", "200", "--out", str(out)]) == 0
    content = lines(out)
    assert content[0] == "m,overshoot_ratio,fejer_max_ratio"
    final = [float(v) for v in content[-1].split(",")]
    assert final[0] == 200.0
    assert abs(final[1] - 1.17898) < 0.005
    assert final[2] <= 1 + 1e-9


def test_limit_command(tmp_path):
    out = tmp_path / "limit.csv"
    assert main(["limit", "--N", "5", "--n-list", "100,200", "--out", str(out)]) == 0
    content = lines(out)
    assert content[0] == "n,hbar_eff,N,sup_err_x,sup_err_p,sup_err_x2"
    rows = [[float(v) for v in r.split(",")] for r in content[1:]]
    assert rows[0][0] == 100.0 and rows[1][0] == 200.0
    assert rows[1][3] < rows[0][3]


def test_json_format(tmp_path):
    out = tmp_path / "traj.json"
    assert main(["trajectories", "--n", "50", "--N", "3", "--steps", "8",
                 "--format", "json", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["columns"][0] == "t"
    assert len(parsed["rows"]) == 8


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["trajectories", "--n", "100", "--N", "auto", "--steps", "32"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=12\nn=50\nN=3\nt-max=1T\n# comment line\n")
    out1 = tmp_path / "c1.csv"
    assert main(["trajectories", "--config", str(cfg), "--out", str(out1)]) == 0
    assert len(lines(out1)) == 13  # header + steps rows from the file
    out2 = tmp_path / "c2.csv"
    assert main(["trajectories", "--config", str(cfg), "--steps", "5",
                 "--out", str(out2)]) == 0
    assert len(lines(out2)) == 6  # flag wins over the file


@pytest.mark.parametrize("line", ["t_max=3T", "normalize-momentum=yes", "ste=5"])
def test_config_file_rejects_bad_lines(tmp_path, line):
    # an unknown key (a flag's prefix included) and a value outside the
    # flag's choices are usage errors, exactly as the same flag would be
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"steps=8\nn=50\nN=3\n{line}\n")
    out = tmp_path / "c.csv"
    assert main(["trajectories", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path):
    assert main(["no-such-command"]) == 1
    assert main(["trajectories", "--steps", "1"]) == 1
    assert main(["trajectories", "--n", "5", "--N", "9"]) == 1  # N >= n
    assert main(["trajectories", "--t-max", "-1"]) == 1
    assert main(["trajectories", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_io_error_exit_three(tmp_path):
    code = main(["trajectories", "--n", "50", "--N", "3", "--steps", "8",
                 "--out", str(tmp_path / "nodir" / "x.csv")])
    assert code == 3


def test_run_config_api():
    # programmatic entry mirrors the CLI
    code = run(RunConfig(command="gibbs", m=20, out=None, format="csv"))
    assert code == 0


def error_records(capsys):
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


@pytest.mark.parametrize(
    "fields",
    [
        {"command": "trajectories", "N": "best"},
        {"command": "nope"},
        {"command": "gibbs", "m": 5, "format": "xml"},
    ],
)
def test_run_usage_errors_exit_one(tmp_path, capsys, fields):
    out = tmp_path / "x.csv"
    assert run(RunConfig(out=str(out), **fields)) == 1
    assert [r["error"] for r in error_records(capsys)] == ["usage"]
    assert not out.exists()


def test_run_accepts_a_numeric_t_max(tmp_path):
    out = tmp_path / "traj.csv"
    t_max = 0.01
    assert run(RunConfig(command="trajectories", n=50, N=3, t_max=t_max, steps=8, out=str(out))) == 0
    assert float(lines(out)[-1].split(",")[0]) == t_max


def test_gibbs_zero_order_exits_one():
    assert main(["gibbs", "--m", "0"]) == 1


def test_config_line_without_equals_exits_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=8\nn 50\n")
    out = tmp_path / "c.csv"
    assert main(["trajectories", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_oracle_check_tolerance_failure_exits_two(tmp_path, capsys, monkeypatch):
    # every tolerance at 0: each row with a nonzero deviation fails, and
    # the artifact is still written
    monkeypatch.setattr(cli, "_ORACLE_CASES", ((10, 3),))
    monkeypatch.setattr(cli, "_ORACLE_SPECS", tuple((kind, 0.0) for kind, _ in cli._ORACLE_SPECS))
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--out", str(out)]) == 2
    assert [r["error"] for r in error_records(capsys)] == ["tolerance"]
    rows = [[float(v) for v in row.split(",")] for row in lines(out)[1:]]
    assert len(rows) == 4
    assert all(row[-1] == float(row[3] == 0.0) for row in rows)
    assert sum(row[-1] == 0.0 for row in rows) >= 3


def test_variance_error_in_a_series_exits_two(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise quantum.VarianceError("variance -1 below round-off guard")

    monkeypatch.setattr(cli, "packet_moments", broken)
    out = tmp_path / "unc.csv"
    assert main(["uncertainty", "--n", "50", "--N", "3", "--steps", "8", "--out", str(out)]) == 2
    (record,) = error_records(capsys)
    assert record["error"] == "validation" and "round-off" in record["message"]
    assert not out.exists()

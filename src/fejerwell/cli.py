"""Command-line front end emitting the package's headline data sets as CSV/JSON.

Commands
--------
fig1          optimal packet half-width against the central level
trajectories  packet means beside the averaged classical series
uncertainty   quantum and classical reduced uncertainties
gibbs         truncated-series overshoot against the bounded average
limit         constrained-classical-limit deviation rows
oracle-check  closed forms against the first-principles oracle

--config PATH reads a file of key=value lines (blank lines and # comments
skipped) as the flags --key=value placed before the command line, so a
flag given on the command line wins. The keys are the flag names: n, N,
t-max, steps, format, out, normalize-momentum, n-list and m. An unknown
key or a bad value is a usage error, as the same flag would be.

Output is deterministic: identical configurations produce byte-identical
artifacts. Exit codes: 0 success, 1 usage error, 2 tolerance/validation
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .classical import (
    ClassicalOrbit,
    _matched_orbit,
    classical_reduced_uncertainty,
    fejer_momentum,
    fejer_position,
    gibbs_overshoot,
)
from .core import PacketSpec, WellConfig, _reduced_spread, spectral_data
from .limits import limit_sequence
from .optimizer import optimal_N, scan_n
from .quantum import OBSERVABLES, exp_p2, oracle_expectation, packet_moments

__all__ = ["RunConfig", "TimeSeries", "emit", "run", "main"]

COMMANDS = ("fig1", "trajectories", "uncertainty", "gibbs", "limit", "oracle-check")

_GIBBS_LADDER = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

# oracle-check tolerances: (observable, relative tolerance)
_ORACLE_SPECS = (("position", 1e-8), ("position_sq", 1e-8), ("momentum", 1e-6),
                 ("momentum_sq", 1e-12))
OBS_CODE = {kind: code for code, kind in enumerate(OBSERVABLES)}
_ORACLE_CASES = ((10, 3), (50, 7), (200, 14))


@dataclass(frozen=True)
class TimeSeries:
    """Labeled rectangular numeric records."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity does not match column count")
        if self.columns and self.columns[0] == "t":
            ts = [row[0] for row in self.rows]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError("t column must be strictly increasing")


@dataclass
class RunConfig:
    command: str
    n: int = 500
    N: int | str = "auto"
    t_max: float | str = "2T"
    steps: int = 2000
    format: str = "csv"
    out: str | None = None
    normalize_momentum: bool = True
    n_list: list[int] | None = None
    m: int = 200


def emit(series: TimeSeries, format: str, out: str | None) -> int:
    """Write the series as CSV or JSON; returns the number of bytes written.

    CSV: one header line, one line per row, 17 significant digits,
    LF-terminated. JSON: an object with "columns" and "rows" arrays.
    """
    if format == "csv":
        lines = [",".join(series.columns)]
        for row in series.rows:
            lines.append(",".join(format_float(v) for v in row))
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        payload = json.dumps(
            {"columns": list(series.columns), "rows": [list(r) for r in series.rows]},
            separators=(",", ":"),
        ) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    data = payload.encode()
    if out is None:
        sys.stdout.write(payload)
        sys.stdout.flush()
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise OSError(f"cannot write output to {out}: {exc}") from exc
    return len(data)


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def _resolve_t_max(value: float | str, period: float) -> float:
    """Accept a plain time or a literal period multiple such as "2T"."""
    if isinstance(value, str):
        text = value.strip()
        if text.lower().endswith("t"):
            mult = text[:-1].strip()
            factor = float(mult) if mult else 1.0
            t_max = factor * period
        else:
            t_max = float(text)
    else:
        t_max = float(value)
    if not 0 < t_max < math.inf:  # nan fails both
        raise ValueError(f"t_max must be finite and positive, got {value!r}")
    return t_max


def _resolve_N(cfg: WellConfig, n: int, N: int | str) -> int:
    if isinstance(N, str):
        if N != "auto":
            raise ValueError(f"N must be an integer or 'auto', got {N!r}")
        return optimal_N(cfg, n).N_opt
    return int(N)


def _series_fig1(config: RunConfig, cfg: WellConfig) -> TimeSeries:
    scan = scan_n(cfg, config.n_list or None)
    rows = [(float(r.n), float(r.N_opt), r.sqrt_n, r.product_min) for r in scan.rows]
    return TimeSeries(columns=("n", "N_opt", "sqrt_n", "product_min"), rows=rows)


def _packet_series(config: RunConfig, cfg: WellConfig):
    """The packet, its matched orbit and the time grid of a time-series command."""
    spec = PacketSpec(n=config.n, N=_resolve_N(cfg, config.n, config.N))
    orbit = _matched_orbit(cfg, config.n)
    ts = np.linspace(0.0, _resolve_t_max(config.t_max, orbit.period), config.steps)
    return spec, orbit, ts


def _columns(names: tuple[str, ...], *values) -> TimeSeries:
    return TimeSeries(columns=names, rows=[tuple(map(float, row)) for row in zip(*values)])


def _series_trajectories(config: RunConfig, cfg: WellConfig) -> TimeSeries:
    spec, orbit, ts = _packet_series(config, cfg)
    p_scale = orbit.p_c if config.normalize_momentum else 1.0
    x, p = packet_moments(cfg, spec, ts, ("position", "momentum"))
    return _columns(
        ("t", "x_quantum", "x_fejer", "p_quantum", "p_fejer"),
        ts,
        x,
        fejer_position(orbit, spec.N, ts),
        p / p_scale,
        fejer_momentum(orbit, spec.N, ts) / p_scale,
    )


def _series_uncertainty(config: RunConfig, cfg: WellConfig) -> TimeSeries:
    spec, orbit, ts = _packet_series(config, cfg)
    x, x2, p = packet_moments(cfg, spec, ts)
    return _columns(
        ("t", "delta_x", "delta_x_classical", "delta_p", "delta_p_classical"),
        ts,
        _reduced_spread(x, x2),
        classical_reduced_uncertainty(orbit, "position", spec.N, ts),
        _reduced_spread(p, exp_p2(cfg, spec)),
        classical_reduced_uncertainty(orbit, "momentum", spec.N, ts),
    )


def _series_gibbs(config: RunConfig, cfg: WellConfig) -> TimeSeries:
    m_max = config.m
    if m_max < 1:
        raise ValueError(f"need m >= 1, got {m_max}")
    orders = sorted({m for m in _GIBBS_LADDER if m < m_max} | {m_max})
    orbit = ClassicalOrbit()
    ts = np.arange(10000) * (orbit.period / 10000)
    # every Fejer column first, so that all orders share the one reduction of
    # ts that classical keeps; each overshoot reduces its own lobe grid
    fejer_max = [float(np.max(np.abs(fejer_momentum(orbit, m, ts)))) / orbit.p_c for m in orders]
    rows = [(float(m), gibbs_overshoot(orbit, m), f) for m, f in zip(orders, fejer_max)]
    return TimeSeries(columns=("m", "overshoot_ratio", "fejer_max_ratio"), rows=rows)


def _series_limit(config: RunConfig, cfg: WellConfig) -> TimeSeries:
    n_values = config.n_list if config.n_list else [100, 200, 400, 800]
    # --N auto applies the per-level floor(sqrt(n)) rule; an integer fixes N
    rule: int | str = "sqrt" if config.N == "auto" else int(config.N)
    p_c = 500.0 * math.pi
    rows_ = limit_sequence(cfg.a, cfg.mu, p_c, n_values, N_rule=rule)
    rows = [
        (float(r.n), r.hbar_eff, float(r.N), r.sup_err_x, r.sup_err_p, r.sup_err_x2)
        for r in rows_
    ]
    return TimeSeries(
        columns=("n", "hbar_eff", "N", "sup_err_x", "sup_err_p", "sup_err_x2"),
        rows=rows,
    )


def _series_oracle_check(config: RunConfig, cfg: WellConfig) -> tuple[TimeSeries, bool]:
    rows = []
    all_pass = True
    for n, N in _ORACLE_CASES:
        spec = PacketSpec(n=n, N=N)
        sd = spectral_data(cfg, n)
        ts = np.linspace(0.0, sd.period, 32)
        scales = {
            "position": cfg.a,
            "position_sq": cfg.a**2,
            "momentum": sd.p_n,
            "momentum_sq": sd.p_n**2,
        }
        closed = dict(zip(("position", "position_sq", "momentum"), packet_moments(cfg, spec, ts)))
        closed["momentum_sq"] = np.full(len(ts), exp_p2(cfg, spec))
        for kind, tol in _ORACLE_SPECS:
            method = "spectral" if kind == "momentum_sq" else "grid"
            devs = [
                abs(closed[kind][i] - oracle_expectation(cfg, spec, float(t), kind, method=method))
                for i, t in enumerate(ts)
            ]
            max_rel = max(devs) / scales[kind]
            ok = max_rel <= tol
            all_pass &= ok
            rows.append(
                (float(n), float(N), float(OBS_CODE[kind]), max_rel, tol, float(ok))
            )
    series = TimeSeries(
        columns=("n", "N", "observable_code", "max_rel_dev", "tol", "status"),
        rows=rows,
    )
    return series, all_pass


def _check_config(config: RunConfig) -> None:
    """Reject a bad format or a non-integer field before any series is computed."""
    if config.format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {config.format!r}")
    integers = {"n": config.n, "steps": config.steps, "m": config.m}
    if not isinstance(config.N, str):
        integers["N"] = config.N
    integers.update((f"n_list[{i}]", v) for i, v in enumerate(config.n_list or ()))
    for name, value in integers.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if config.steps < 2:
        raise ValueError(f"need steps >= 2, got {config.steps}")


def run(config: RunConfig) -> int:
    """Execute one command and emit its artifact; returns the exit status."""
    cfg = WellConfig()
    status = 0
    try:
        _check_config(config)
        if config.command == "fig1":
            series = _series_fig1(config, cfg)
        elif config.command == "trajectories":
            series = _series_trajectories(config, cfg)
        elif config.command == "uncertainty":
            series = _series_uncertainty(config, cfg)
        elif config.command == "gibbs":
            series = _series_gibbs(config, cfg)
        elif config.command == "limit":
            series = _series_limit(config, cfg)
        elif config.command == "oracle-check":
            series, all_pass = _series_oracle_check(config, cfg)
            if not all_pass:
                status = 2
        else:
            raise ValueError(f"unknown command {config.command!r}")
    except ValueError as exc:
        _error_record("usage", str(exc))
        return 1
    except RuntimeError as exc:
        _error_record("validation", str(exc))
        return 2
    try:
        emit(series, config.format, config.out)
    except OSError as exc:
        _error_record("io", str(exc))
        return 3
    except ValueError as exc:
        _error_record("usage", str(exc))
        return 1
    if status:
        _error_record("tolerance", "oracle deviations exceed tolerance")
    return status


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _config_tokens(path: str) -> list[str]:
    """A key=value file as the flags --key=value, in file order."""
    tokens = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, _, val = line.partition("=")
            tokens.append(f"--{key.strip()}={val.strip()}")
    return tokens


def _parse_n_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_N(text: str) -> int | str:
    return "auto" if text == "auto" else int(text)


def _build_parser() -> argparse.ArgumentParser:
    """Flags with no defaults of their own: an absent flag keeps RunConfig's default."""
    parser = argparse.ArgumentParser(
        prog="fejerwell",
        description="Square-well packet dynamics against averaged classical series",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,  # a config key must name its flag exactly
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--n", type=int, help="central quantum number")
    parser.add_argument(
        "--N",
        type=_parse_N,
        help="packet half-width (integer) or 'auto': optimal_N, "
        "or floor(sqrt(n)) per row for limit",
    )
    parser.add_argument(
        "--t-max",
        dest="t_max",
        help="time span: a number, or a period multiple such as '2T'",
    )
    parser.add_argument("--steps", type=int, help="samples in the span")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--config",
        help="file of key=value lines, each read as the flag --key=value; flags win",
    )
    parser.add_argument(
        "--normalize-momentum",
        dest="normalize_momentum",
        choices=("on", "off"),
        help="divide momentum columns by p_c (trajectories)",
    )
    parser.add_argument(
        "--n-list",
        dest="n_list",
        type=_parse_n_list,
        help="comma-separated levels (fig1, limit)",
    )
    parser.add_argument("--m", type=int, help="largest order (gibbs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
        if "config" in args:
            # the file's flags go first, so a flag on the command line wins
            args = vars(parser.parse_args(_config_tokens(args["config"]) + argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    except (OSError, ValueError) as exc:
        _error_record("usage", f"config file: {exc}")
        return 1
    args.pop("config", None)
    if "normalize_momentum" in args:
        args["normalize_momentum"] = args["normalize_momentum"] == "on"
    return run(RunConfig(**args))


if __name__ == "__main__":
    sys.exit(main())

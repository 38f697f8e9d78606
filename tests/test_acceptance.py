"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured values before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see all lines.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from fejerwell import (
    ClassicalOrbit,
    PacketSpec,
    WellConfig,
    classical_period,
    classical_reduced_uncertainty,
    default_n_grid,
    exp_p,
    exp_p2,
    exp_x,
    exp_x2,
    fejer_momentum,
    fejer_position,
    gibbs_overshoot,
    limit_sequence,
    optimal_N,
    oracle_expectation,
    quasi_exp,
    reduced_uncertainty,
    uncertainty_product,
)
from fejerwell import limits
from fejerwell.cli import main

NATURAL = WellConfig()
HEADLINE = PacketSpec(n=500, N=23)
T500 = classical_period(NATURAL, 500)
ORBIT500 = ClassicalOrbit(a=1.0, p_c=500 * math.pi, mu=1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_optimal_packet_width():
    start = time.perf_counter()
    grid = default_n_grid()
    rows = {n: optimal_N(NATURAL, n) for n in grid}
    elapsed = time.perf_counter() - start
    exact = rows[500].N_opt == 23
    in_band = all(
        math.isqrt(n) - 1 <= rows[n].N_opt <= math.isqrt(n) + 1 for n in grid
    )
    ok = exact and in_band and elapsed < 10.0
    report(
        1,
        ok,
        f"N_opt(500)={rows[500].N_opt} (want 23); band holds on {len(grid)}-pt "
        f"grid: {in_band}; runtime {elapsed:.2f}s < 10s",
    )
    assert rows[500].N_opt == 23
    assert in_band
    assert elapsed < 10.0


def test_criterion_02_classical_period():
    T = classical_period(NATURAL, 500)
    three_sig = abs(T - 1.27324e-3) / 1.27324e-3 < 5e-6
    exact = math.isclose(T, 2 / (500 * math.pi), rel_tol=1e-12)
    report(2, three_sig and exact, f"T(500)={T:.6e}; 2/(500*pi) match to 1e-12: {exact}")
    assert three_sig and exact


def test_criterion_03_oracle_equivalence():
    worst = {"position": 0.0, "position_sq": 0.0, "momentum": 0.0, "momentum_sq": 0.0}
    for n, N in [(10, 3), (50, 7), (200, 14)]:
        spec = PacketSpec(n=n, N=N)
        T = classical_period(NATURAL, n)
        p_n = n * math.pi
        scales = {"position": 1.0, "position_sq": 1.0, "momentum": p_n, "momentum_sq": p_n**2}
        for t in np.linspace(0.0, T, 32):
            t = float(t)
            devs = {
                "position": abs(exp_x(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "position")),
                "position_sq": abs(exp_x2(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "position_sq")),
                "momentum": abs(exp_p(NATURAL, spec, t) - oracle_expectation(NATURAL, spec, t, "momentum")),
                "momentum_sq": abs(exp_p2(NATURAL, spec) - oracle_expectation(NATURAL, spec, t, "momentum_sq", method="spectral")),
            }
            for kind, dev in devs.items():
                worst[kind] = max(worst[kind], dev / scales[kind])
    ok = (
        worst["position"] < 1e-8
        and worst["position_sq"] < 1e-8
        and worst["momentum"] < 1e-6
        and worst["momentum_sq"] < 1e-12
    )
    report(
        3,
        ok,
        f"max rel dev: x={worst['position']:.2e} (<1e-8), "
        f"x2={worst['position_sq']:.2e} (<1e-8), p={worst['momentum']:.2e} (<1e-6), "
        f"p2={worst['momentum_sq']:.2e} (<1e-12); printed closed forms on the default path",
    )
    assert worst["position"] < 1e-8
    assert worst["position_sq"] < 1e-8
    assert worst["momentum"] < 1e-6
    assert worst["momentum_sq"] < 1e-12


def test_criterion_04_p2_constancy():
    spec = PacketSpec(n=50, N=7)
    T = classical_period(NATURAL, 50)
    # the closed form carries no time argument at all; the grid oracle must
    # agree that nothing moves
    vals = [
        oracle_expectation(NATURAL, spec, float(t), "momentum_sq", method="grid")
        for t in np.linspace(0.0, T, 32)
    ]
    spread = (max(vals) - min(vals)) / exp_p2(NATURAL, spec)
    ok = spread < 1e-10
    report(4, ok, f"grid-oracle <p^2> spread over a period: {spread:.2e} (<1e-10)")
    assert spread < 1e-10


def test_criterion_05_gibbs_vs_bounded_average():
    g_ref = 2 / math.pi * quad(lambda u: math.sin(u) / u, 0.0, math.pi)[0]
    overshoot = gibbs_overshoot(ORBIT500, 200)
    ts = np.arange(10000) * (ORBIT500.period / 10000)
    fejer_max = {
        N: float(np.max(np.abs(fejer_momentum(ORBIT500, N, ts)))) / ORBIT500.p_c
        for N in (1, 23, 200)
    }
    bounded = all(v <= 1 + 1e-9 for v in fejer_max.values())
    ok = abs(overshoot - 1.17898) < 0.005 and abs(overshoot - g_ref) < 0.005 and bounded
    report(
        5,
        ok,
        f"overshoot(200)={overshoot:.5f} (ref {g_ref:.5f} +-0.005); "
        f"averaged-series max ratios {fejer_max} all <= 1+1e-9: {bounded}",
    )
    assert abs(overshoot - 1.17898) < 0.005
    assert bounded


def test_criterion_06_first_period_coincidence():
    ts1 = np.linspace(0.0, T500, 1024)
    ts2 = np.linspace(T500, 2 * T500, 1024)
    e1 = float(np.max(np.abs(exp_x(NATURAL, HEADLINE, ts1) - fejer_position(ORBIT500, 23, ts1))))
    e2 = float(np.max(np.abs(exp_x(NATURAL, HEADLINE, ts2) - fejer_position(ORBIT500, 23, ts2))))
    # the gap at t = T against its closed-form detuning part; the rest is
    # the amplitude part <x> - quasi
    e_T = float(exp_x(NATURAL, HEADLINE, T500) - fejer_position(ORBIT500, 23, T500))
    D_T = limits._detuning(1.0, 500, 23, 1)
    grows = e2 >= 2 * e1
    ok = e1 < 0.02 and grows
    report(
        6,
        ok,
        f"max|<x>-avg| [0,T]={e1:.5f} (<0.02 required), [T,2T]={e2:.5f}, "
        f"growth x{e2 / e1:.2f} (>=2 required); e(T)={e_T:.7f}, "
        f"D(T)={D_T:.7f} (limits._detuning), e(T)-D(T)={e_T - D_T:.2e}",
    )
    assert grows
    # the sup deviation over the first period genuinely reaches ~0.028a at
    # the period-end corner (verified against both first-principles oracles),
    # so the 0.02 stand-in bound is not attainable; see the decisions ledger
    assert e1 < 0.02


def test_criterion_07_quasi_quantum_closeness():
    ts = np.linspace(0.0, 0.0025, 500)
    dev = float(np.max(np.abs(
        quasi_exp(NATURAL, HEADLINE, ts, "position") - exp_x(NATURAL, HEADLINE, ts)
    )))
    # the other two quasi series on the same instants, against the bounds
    # B_p and B_x2 of quasi_exp's docstring (a = hbar = 1), for the record
    n, N = HEADLINE.n, HEADLINE.N
    p_n = n * math.pi
    dev_p = float(np.max(np.abs(quasi_exp(NATURAL, HEADLINE, ts, "momentum") - exp_p(NATURAL, HEADLINE, ts))))
    dev_x2 = float(np.max(np.abs(quasi_exp(NATURAL, HEADLINE, ts, "position_sq") - exp_x2(NATURAL, HEADLINE, ts))))
    B_p = 2 * N * (N + 1) / (3 * (2 * n - 2 * N + 1))
    B_x2 = 1 / (2 * math.pi**2 * (n - N) ** 2) + 4 / math.pi**2 * N / (2 * n - 2 * N + 1) ** 2
    ok = dev < 1e-2
    report(
        7,
        ok,
        f"max|quasi-<x>| for t<=0.0025: {dev:.2e} (<1e-2); "
        f"max|quasi p-<p>|/p_n={dev_p / p_n:.2e} (B_p/p_n={B_p / p_n:.2e}), "
        f"max|quasi x2-<x2>|={dev_x2:.2e} (B_x2={B_x2:.2e})",
    )
    assert dev < 1e-2


def test_criterion_08_reduced_uncertainty_coincidence():
    ts = np.linspace(0.0, T500, 1024)
    dx_q = reduced_uncertainty(NATURAL, HEADLINE, ts, "position")
    dp_q = reduced_uncertainty(NATURAL, HEADLINE, ts, "momentum")
    dx_c = classical_reduced_uncertainty(ORBIT500, "position", 23, ts)
    dp_c = classical_reduced_uncertainty(ORBIT500, "momentum", 23, ts)
    ex = float(np.max(np.abs(dx_q - dx_c)))
    ep = float(np.max(np.abs(dp_q - dp_c)))
    nonzero = float(np.max(dx_q)) > 0.05 and float(np.max(dp_q)) > 0.05
    ok = ex < 0.05 and ep < 0.05 and nonzero
    report(
        8,
        ok,
        f"max|dx-d'x|={ex:.4f}, max|dp-d'p|={ep:.4f} (<0.05 required); "
        f"spreads exceed 0.05 somewhere: {nonzero}",
    )
    assert nonzero
    # the pointwise gap concentrates at the bounce corners, where the
    # detuned quantum turn misaligns with the sharp averaged-series turn;
    # it genuinely exceeds 0.05 there (see the decisions ledger)
    assert ex < 0.05 and ep < 0.05


def test_criterion_09_constrained_limit_convergence():
    rows = limit_sequence(1.0, 1.0, 500 * math.pi, [100, 200, 400, 800], N_rule=5)
    errs = [r.sup_err_x for r in rows]
    decreasing = all(b < a - 1e-12 for a, b in zip(errs, errs[1:]))
    quarter = errs[-1] < errs[0] / 4
    ok = decreasing and quarter
    report(
        9,
        ok,
        "sup_err_x = " + ", ".join(f"{e:.3e}" for e in errs)
        + f"; strictly decreasing: {decreasing}; err(800) < err(100)/4: {quarter}",
    )
    assert decreasing and quarter


def test_criterion_10_heisenberg_floor():
    floor = 0.5 * (1 - 1e-9)
    products = []
    for n in default_n_grid():
        products.append(optimal_N(NATURAL, n).product_min)
    for t in np.linspace(0.0, 2 * T500, 128):
        products.append(uncertainty_product(NATURAL, HEADLINE, float(t)))
    for n, N in [(10, 3), (50, 7), (200, 14)]:
        spec = PacketSpec(n=n, N=N)
        T = classical_period(NATURAL, n)
        for t in np.linspace(0.0, T, 32):
            products.append(uncertainty_product(NATURAL, spec, float(t)))
    worst = min(products)
    ok = worst >= floor
    report(10, ok, f"min uncertainty product across scans: {worst:.6f} >= hbar/2")
    assert worst >= floor


def test_criterion_11_cli_determinism(tmp_path):
    commands = {
        "fig1": ["fig1", "--n-list", "10,50,120"],
        "trajectories": ["trajectories", "--n", "100", "--N", "auto", "--steps", "64"],
        "uncertainty": ["uncertainty", "--n", "100", "--N", "9", "--steps", "64"],
        "gibbs": ["gibbs", "--m", "50"],
        "limit": ["limit", "--N", "5", "--n-list", "100,200"],
        "oracle-check": ["oracle-check"],
    }
    identical = {}
    for name, args in commands.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        code_a = main(args + ["--out", str(a)])
        code_b = main(args + ["--out", str(b)])
        identical[name] = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()
    ok = all(identical.values())
    report(11, ok, f"byte-identical reruns: {identical}")
    assert ok

"""Tests for the packet half-width selection and its scaling with n."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fejerwell import (
    PacketSpec,
    WellConfig,
    default_n_grid,
    optimal_N,
    scan_n,
    uncertainty_product,
)
from fejerwell import optimizer
from fejerwell.core import _half_angle
from fejerwell.optimizer import _tracking_curve
from pair_oracle import pair_terms, tracking_curve

NATURAL = WellConfig()


def default_window(n):
    return min(n - 1, math.ceil(4 * math.sqrt(n)))


def test_headline_width_at_n_500():
    row = optimal_N(NATURAL, 500)
    assert row.N_opt == 23
    assert row.product_min >= 0.5
    assert math.isclose(row.sqrt_n, math.sqrt(500), rel_tol=1e-15)


@pytest.mark.parametrize("n,target", [(16, 4), (64, 8), (256, 16)])
def test_square_root_law_samples(n, target):
    assert abs(optimal_N(NATURAL, n).N_opt - target) <= 1


def test_small_n_matches_exhaustive_bruteforce():
    # independent check: every candidate's error from the O(N^2) pair sum,
    # over all of [1, n - 1], beyond the window at n = 30
    for n in (4, 5, 9, 30):
        row = optimal_N(NATURAL, n)
        objs = tracking_curve(NATURAL, n, n - 1, optimizer._TRACK_POINTS)
        assert row.N_opt == 1 + int(np.argmin(objs[1:])), n


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 2000), st.sampled_from([1, 2, 257, 1000, 1024]))
@example(4, 1)
@example(2000, 1024)
@example(500, 257)
def test_factored_curve_matches_pair_sum(n, t_points):
    N_max = default_window(n)
    fast = _tracking_curve(NATURAL, n, N_max, t_points)
    ref = tracking_curve(NATURAL, n, N_max, t_points)
    assert np.all(np.abs(fast - ref) <= 1e-12 * np.abs(ref))
    for N in range(1, N_max + 1):
        assert np.argmin(fast[1 : N + 1]) == np.argmin(ref[1 : N + 1]), N


def _half_angle_layouts(half):
    """core._half_angle in each layout its callers use; all must agree bit for bit."""
    stacked = np.empty((2,) + half.shape)  # optimizer: cos rows over sin rows, no temporary
    _half_angle(half.copy(), stacked[0], stacked[1])
    cos, sin = np.empty_like(half), half.copy()  # quantum, sin and cos of psi
    _half_angle(sin, cos, sin)
    cos_only, sin_only = half.copy(), half.copy()  # classical series, in place
    _half_angle(cos_only, cos_only)
    _half_angle(sin_only, None, sin_only)
    for other in (cos, cos_only):
        assert np.array_equal(stacked[0], other)
    for other in (sin, sin_only):
        assert np.array_equal(stacked[1], other)
    return stacked


# the largest M = 2nP of a scan at P = 65536 (2 n P^2 < 2^53)
LARGEST_M = 2 * (2**20 - 1) * 65536


@pytest.mark.parametrize(
    "M", [4, 8, 64, 4096, 2 * 10_000 * 1024, LARGEST_M, "psi", "harmonics"]
)
def test_half_angle_pair_matches_cos_and_sin(M):
    # core._half_angle over the argument range of each caller: the width
    # scan's signed residues r in [-M/2, M/2] (every one of a small M, and
    # r = 0, +-M/4 and the poles of tan(pi r / M) at +-M/2, with their
    # neighbours, for the n = 10^4 grid and the largest admitted M), the
    # packet's psi columns at pi c for c in [-1/2, 1/2] with the poles at
    # +-1/2, and the classical harmonics pi h f for h up to 632
    rng = np.random.default_rng(5)
    if M == "psi":
        c = np.concatenate([np.linspace(-0.5, 0.5, 20001), rng.uniform(-0.5, 0.5, 20000)])
        c = np.concatenate([c, [np.nextafter(0.5, 0), np.nextafter(-0.5, 0), -0.0, 1e-300]])
        half = math.pi * c
        phase = 2 * half
    elif M == "harmonics":
        f = np.concatenate([np.linspace(-0.5, 0.5, 201), [0.5 - 1e-4, 1e-9, -1e-9], rng.uniform(-0.5, 0.5, 100)])
        half = np.multiply.outer(f, math.pi * np.arange(1.0, 633.0))
        phase = 2 * half
    else:
        h, q = M // 2, M // 4
        if M <= 4096:
            r = np.arange(-h, h + 1)
        else:
            r = np.array([-h, -h + 1, -h + 2, -q, -1, 0, 1, q - 1, q, h - 2, h - 1, h, 12345, -12345])
        rows = r.reshape(-1, 1) if r.size % 4 else r.reshape(-1, 4)
        half = rows * (math.pi / M)
        phase = 2 * np.pi * rows / M
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, sin = _half_angle_layouts(half)
    eps = np.finfo(float).eps
    assert np.all(np.abs(cos - np.cos(phase)) <= 2 * eps)
    assert np.all(np.abs(sin - np.sin(phase)) <= 2 * eps)


def test_float_residues_are_exact_at_the_largest_admitted_grid():
    # 2 n P^2 just below 2^53: the float residue of res * step is congruent
    # to the int64 (res * step) % M and lies in [-M/2, M/2]
    n, P = 2**20 - 1, 65536
    assert 2 * n * P**2 < 2**53 <= 2 * (n + 1) * P**2
    M = 2 * n * P
    B = math.isqrt(P - 1) + 1
    steps = np.concatenate([np.arange(-(-P // B)) * B, np.arange(B)])
    rng = np.random.default_rng(11)
    res = np.concatenate(
        [[0, 1, 2, M // 2 - 1, M // 2, M // 2 + 1, M - 2, M - 1], rng.integers(0, M, 500)]
    )
    r, work = np.empty((2, len(res), len(steps)))
    optimizer._residues(res.astype(float), steps.astype(float), M, r, work)
    assert np.array_equal(r, np.rint(r))
    assert np.max(np.abs(r)) <= M // 2
    exact = np.multiply.outer(res, steps) % M
    assert np.all((r.astype(np.int64) - exact) % M == 0)


def test_scan_range_guard():
    # the largest scan of the width law (n = 10^6, P = 65536) is admitted,
    # and its first values match the pair sum; the first n with
    # 2 n P^2 >= 2^53 is refused before any work
    got = _tracking_curve(NATURAL, 10**6, 1, 65536)
    ref = tracking_curve(NATURAL, 10**6, 1, 65536)
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    with pytest.raises(ValueError, match="2\\^53"):
        _tracking_curve(NATURAL, 2**20, 1, 65536)
    _tracking_curve(NATURAL, 2**20 - 1, 1, 65536)


@pytest.mark.parametrize("n", [30, 100, 10_000])
def test_pair_tables_hold_each_span(n):
    # spans 1..80 cross six table boundaries (at v = 32, 45, 55, 63, 70 and
    # 77). A block holds whole product groups, at most 127 pairs: all of a
    # span up to v = 63, 127 pairs of a longer one. Each span's residues,
    # which are the multipliers d (2n + s) below M, and amplitudes are
    # those of the pair enumeration, as multisets
    P, size = 1024, 127
    M = 2 * n * P
    V = min(80, n - 1)
    amp, freq, span = pair_terms(NATURAL, n, V, "position")
    m = np.rint(freq / (math.pi**2 / 2))
    spans, pending = [], []
    for res, a, groups in optimizer._pair_blocks(n, M, 4.0 / math.pi**2, size):
        assert 0 < len(res) <= size and a.shape == (2, len(res))
        assert np.array_equal(a[1], -a[0])
        # the groups tile the block in order
        assert [lo for lo, _, _ in groups] == [0] + [hi for _, hi, _ in groups[:-1]]
        assert groups[-1][1] == len(res)
        for lo, hi, ends_span in groups:
            pending.append(np.stack([res[lo:hi], a[0, lo:hi]]))
            if ends_span:
                spans.append(pending)
                pending = []
        if len(spans) >= V:
            break
    for v, parts in enumerate(spans[:V], 1):
        sizes = [part.shape[1] for part in parts]
        assert sizes == [size] * (len(sizes) - 1) + [2 * v - size * (len(sizes) - 1)], v
        got = np.concatenate(parts, axis=1)
        want = np.stack([m[span == v], amp[span == v]])
        assert np.array_equal(got[:, np.lexsort(got)], want[:, np.lexsort(want)]), v


def test_scan_memory_stays_bounded():
    # the pair tables are capped at about 1024 pairs and a span's blocks at
    # 64 KiB of residues, so the traced peak stays flat in n
    for n in (10_000, 40_000):
        tracemalloc.start()
        try:
            optimal_N(NATURAL, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)


def test_first_rise_stop_equals_exhaustive_scan():
    # optimal_N stops at the first rise; the whole window's argmin must agree
    for n in range(4, 301):
        curve = _tracking_curve(NATURAL, n, default_window(n), optimizer._TRACK_POINTS)
        assert optimal_N(NATURAL, n).N_opt == 1 + int(np.argmin(curve[1:])), n
    # the single-minimum assumption on all of [1, n - 1], past the window:
    # the error falls strictly to its minimum and rises strictly after it
    for n in range(4, 61):
        curve = _tracking_curve(NATURAL, n, n - 1, optimizer._TRACK_POINTS)[1:]
        k = int(np.argmin(curve))
        assert np.all(np.diff(curve[: k + 1]) < 0) and np.all(np.diff(curve[k:]) > 0), n


@pytest.mark.parametrize("t_points", [2, 257, 2048])
def test_first_rise_stop_equals_exhaustive_scan_on_other_grids(t_points, monkeypatch):
    monkeypatch.setattr(optimizer, "_TRACK_POINTS", t_points)
    for n in (4, 7, 12, 20, 33, 55, 90, 150, 250, 300):
        curve = _tracking_curve(NATURAL, n, default_window(n), t_points)
        row = optimal_N(NATURAL, n)
        assert row.N_opt == 1 + int(np.argmin(curve[1:])), n


def test_scan_stops_after_first_rise(monkeypatch):
    drawn = []
    errors = optimizer._tracking_errors

    def counted(*args):
        for err in errors(*args):
            drawn.append(err)
            yield err

    monkeypatch.setattr(optimizer, "_tracking_errors", counted)
    row = optimal_N(NATURAL, 500)
    assert row.N_opt == 23
    # N = 0..24 up to the first rise, not the window's 0..90
    assert len(drawn) <= row.N_opt + 2
    assert drawn[-1] > drawn[-2]


def test_scan_forms_tangents_in_blocks_across_spans(monkeypatch):
    # spans 1..24 hold 600 pairs, so the scan to its first rise at n = 500
    # forms its residues and tangents in 6 blocks of whole spans, at most
    # 127 pairs each, not in one block per span (24)
    calls = []
    residues = optimizer._residues

    def counted(res, *args):
        calls.append(len(res))
        residues(res, *args)

    monkeypatch.setattr(optimizer, "_residues", counted)
    assert optimal_N(NATURAL, 500).N_opt == 23
    assert len(calls) <= 6, calls


@pytest.mark.parametrize(
    "n,N_opt,product",
    [
        (2000, 54, 308.47890679217085),
        (10_000, 144, 963.7811515087348),
        (40_000, 337, 2542.1209652741554),
    ],
)
def test_width_law_at_scale(n, N_opt, product):
    # well above floor(sqrt(n)) = 44, 100 and 200: the +-1 band holds only
    # on the 10..500 grid. 144 and 337 are the values of the fixed
    # 1024-point rectangle rule; the converged objective gives 142 and 327
    row = optimal_N(NATURAL, n)
    assert row.N_opt == N_opt
    assert math.isclose(row.product_min, product, rel_tol=1e-12)


def test_numpy_integer_levels():
    row = optimal_N(NATURAL, np.int64(500))
    assert type(row.n) is int
    assert row == optimal_N(NATURAL, 500)
    res = scan_n(NATURAL, list(np.array([50, 100, 200])))
    assert res.rows == scan_n(NATURAL, [50, 100, 200]).rows


def test_width_at_1e4_on_a_finer_grid(monkeypatch):
    # the pinned 144 is the value of the fixed 1024-point rectangle rule
    monkeypatch.setattr(optimizer, "_TRACK_POINTS", 4096)
    assert optimal_N(NATURAL, 10_000).N_opt == 142


def test_determinism():
    rows = [optimal_N(NATURAL, 100) for _ in range(2)]
    assert rows[0] == rows[1]
    res = scan_n(NATURAL, [50, 50, 120])
    assert res.rows[0] == res.rows[1]


def test_minimality_certificate():
    for n in (60, 250, 500):
        row = optimal_N(NATURAL, n)
        curve = _tracking_curve(NATURAL, n, row.N_opt + 1, optimizer._TRACK_POINTS)
        best = curve[row.N_opt]
        for neighbor in (row.N_opt - 1, row.N_opt + 1):
            assert best <= curve[neighbor] * (1 + 1e-12)


@pytest.mark.parametrize("n,t_points", [(50, 1024), (500, 257), (2000, 1024)])
def test_curve_depends_on_n_and_grid_only(n, t_points):
    # every phase and the sawtooth are exact on the index grid, so mass and
    # hbar drop out and the well width only scales the curve
    curves = [
        _tracking_curve(cfg, n, 40, t_points) / cfg.a
        for cfg in (NATURAL, WellConfig(mu=3.7, hbar=0.2), WellConfig(a=2, mu=0.3, hbar=7))
    ]
    assert np.array_equal(curves[0], curves[1])
    assert np.array_equal(curves[0], curves[2])


@pytest.mark.parametrize("t_points", [1, 2, 257, 1024, 2048])
@pytest.mark.parametrize("a", [1.0, 0.3])
def test_width_zero_error_is_exact_rms_of_sawtooth(t_points, a):
    # N = 0 leaves the packet at a/2: the value is the RMS of
    # a/2 - 2a min(i, P - i)/P, which must come out within 1 ulp
    got = _tracking_curve(WellConfig(a=a), 4, 0, t_points)[0]
    A, P = Fraction(a), t_points
    mean_sq = sum((A / 2 - 2 * A * min(i, P - i) / P) ** 2 for i in range(P)) / P
    ulp = Fraction(math.ulp(got))
    assert (Fraction(got) - ulp) ** 2 <= mean_sq <= (Fraction(got) + ulp) ** 2


def test_scan_monotone_trend_and_band():
    res = scan_n(NATURAL)
    widths = [r.N_opt for r in res.rows]
    assert all(b >= a for a, b in zip(widths, widths[1:]))
    for r in res.rows:
        assert 1 <= r.N_opt < r.n
        root = math.isqrt(r.n)
        assert root - 1 <= r.N_opt <= root + 1
        assert r.product_min >= 0.5 * (1 - 1e-9)


def test_scan_fit_exponent():
    res = scan_n(NATURAL)
    assert res.fit is not None
    assert 0.0 < res.fit.m_exp < 1.0
    # frozen from the verified implementation: integer rounding at small n
    # steepens the two-decade log-log slope beyond the ideal 1/2 even
    # though every point stays within +-1 of floor(sqrt(n))
    assert math.isclose(res.fit.m_exp, 0.6492258362549327, rel_tol=1e-9)
    # independent least-squares on the produced rows
    lx = np.log([r.n for r in res.rows])
    ly = np.log([r.N_opt for r in res.rows])
    sx, sy = lx - lx.mean(), ly - ly.mean()
    slope = float(np.dot(sx, sy) / np.dot(sx, sx))
    assert math.isclose(res.fit.m_exp, slope, rel_tol=1e-10)
    assert res.fit.prefactor > 0
    assert res.fit.residual >= 0


def test_scan_fit_skipped_for_short_input():
    res = scan_n(NATURAL, [50, 120])
    assert res.fit is None
    assert len(res.rows) == 2


def test_default_grid_shape():
    grid = default_n_grid()
    assert grid[0] == 10 and grid[-1] == 500
    assert grid == sorted(set(grid))
    assert len(grid) == 12


def test_product_start_mode_has_no_interior_minimum():
    # the t=0 uncertainty product falls monotonically with width over the
    # whole search window, so it cannot select a width
    n = 50
    cap = default_window(n)
    products = [
        uncertainty_product(NATURAL, PacketSpec(n=n, N=N), 0.0) for N in range(1, cap + 1)
    ]
    assert all(b < a for a, b in zip(products, products[1:]))
    row = optimal_N(NATURAL, n)
    assert row.product_min == products[row.N_opt - 1]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        optimal_N(NATURAL, 3)
    # any order is accepted, and the rows keep it (fig1 --n-list emits them)
    assert [r.n for r in scan_n(NATURAL, [100, 50]).rows] == [100, 50]
    with pytest.raises(ValueError):
        _tracking_curve(NATURAL, 100, 5, t_points=0)

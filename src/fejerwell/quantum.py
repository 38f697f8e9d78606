"""Closed-form expectation values of equal-weight packets in the well.

The mean of an observable over the packet expands into a double sum over
level pairs (u, v) = (n+j, n+k): diagonal terms give a time-independent
part, and each off-diagonal pair contributes its matrix element times a
cosine (or sine) at the pair's Bohr frequency (E_u - E_v)/hbar. Every
such frequency is an integer multiple of w_b = pi^2 hbar / (2 mu a^2):
a pair with difference d = u - v and sum offset s = (u - n) + (v - n)
oscillates at d (2n+s) w_b. Write tau = w_b t. The position mean is

    <x> = a/2 + (4a/pi^2) (1/(2N+1)) * sum over pairs of
          [1/(2n+s)^2 - 1/d^2] * cos(d (2n+s) tau)

with d odd, and the squared-position mean carries every difference
d = 1..2N with amplitude (-1)^d [1/d^2 - 1/(2n+s)^2] plus a diagonal
part. <p> is the exact term-by-term time derivative of <x> times the
mass; <p^2> is diagonal, hence constant in time.

Grouping the pairs by d, or by s, turns each inner sum into a cosine over
an arithmetic progression, which has the closed (Dirichlet-kernel) form

    sum_{m=0}^{K-1} cos(c + (2m - K + 1) phi) = cos(c) R_K(phi),
    R_K(phi) = sin(K phi) / sin(phi).

With theta_d = d tau, phi_s = (2n+s) tau and L = 2N - |s|:

    <x>   = a/2 + (4a/pi^2)/(2N+1) * [ sum_{s odd, |s|<2N} (2n+s)^-2 R_{L+1}(phi_s)/2
                                      - sum_{d odd <= 2N} d^-2 R_{2N+1-d}(theta_d) cos(2n theta_d) ]
    <x^2> = diagonal + (4a^2/pi^2)/(2N+1) * [ sum_{d=1..2N} (-1)^d d^-2 R_{2N+1-d}(theta_d) cos(2n theta_d)
                                             - sum_{|s|<2N} (2n+s)^-2 S_s ]

where S_s = -R_{L+1}(phi_s)/2 for odd s and (R_{L+1}(phi_s) - 1)/2 for
even s, and <p> = mu w_b d<x>/dtau uses R_K'. Each moment therefore
costs O(N) kernel evaluations per instant, not O(N^2) pair terms
(Zygmund, Trigonometric Series, ch. III).

Every closed form here is validated by `oracle_expectation`, which knows
nothing of the term parametrization: its "grid" path evaluates the packet
wavefunction on a quadrature grid and applies the operators numerically,
and its "spectral" path re-enumerates all level pairs directly from
textbook matrix elements. It forms each pair's phase as the exact integer
u^2 - v^2 times w_b t, so the phase error is eps times the phase, not eps
times the largest energy times t.

Precision. The whole spectrum repeats with the revival period
T_rev = 2 pi / w_b = 2n T, and every phase is an integer multiple of tau.
frac(t / T_rev) is formed in double-double by `core._fraction`, which the
classical series share (an exact two-product of t with the high part of
1/T_rev, for |t| below 2^52 T_rev, about 4.5e15 T_rev; a larger or
non-finite t raises ValueError), and each phase is reduced as
frac(integer * that fraction) with an exact leading product. Long-time
evaluation is therefore exact to rounding while the largest multiplier,
4nN, stays below 2^27 (n = 10^5 with N = sqrt(n) is inside); past that
the bound on the rounded part of each phase grows by a factor of 4 per
doubling of the multiplier. Each R_K is evaluated at x = phi - j pi, with
j = rint(phi / pi) in {-1, 0, 1} so that |x| <= pi/2, times the sign
(-1)^(j(K-1)), and from its Taylor series where |K x| is small, so the
removable singularities at phi = j pi cost no accuracy.

Tangents. Outside the Taylor branch R_K(x) = sin(Kx)/sin(x) and R_K'(x)
are rational in t_x = tan(x/2) and t_k = tan(Kx/2), by the half-angle
identities sin y = 2u/(1 + u^2) and cos y = (1 - u^2)/(1 + u^2) with
u = tan(y/2), so a kernel column costs two tangents and no sine or
cosine. The psi = 2n theta_d columns take the same route: their fraction
c = frac(2n d tau) from `_phases` lies in [-1/2, 1/2], so pi c is already
the half angle, and cos psi and sin psi come from the one tangent
tan(pi c) by `core._half_angle`, the helper that the classical series
and the width scan share. No array path of the moments calls sin or cos.
The reason is speed: numpy dispatches float64 tan to an SVML
(AVX512_SKX) loop at 2 to 3 ns per element, while its float64 sin and
cos run through scalar libm at 8 to 25 ns, and at n = 10^5 the two sines
of each column took most of a kernel block (DECISIONS.md has the
measurements and the hosts they hold on). The j reduction keeps
|x/2| <= pi/4, so |t_x| <= 1 and only t_k meets the poles of tan; there
sin(Kx) = 0, |t_k| is at most about 1e16, and the formulas stay finite
and accurate to a few eps of K (R) and K^2 (R'). At c = +-1/2, the pole
of tan(pi c), the rounded pi/2 keeps the tangent finite, and cos psi and
sin psi come out -1 and about 1e-16, as np.cos and np.sin of pi give.

Scalar and array t take the same code. A scalar t is reduced in Python
floats (`core._fraction`) and its one row of phases comes from plain
products, the same IEEE operations as the outer products of an array
call; it comes back as np.float64. The kernel sums are matrix-vector
products, which BLAS may round differently for one instant than for
many, so a scalar agrees with the matching element of an array call to
rounding.

One pass for every moment at an instant. Delta-x and Delta-p need <x>,
<x^2> and <p> at the same t, and the three share their phases: the <x>
columns are the odd ones among the <x^2> columns, and <p> reads the same
columns as <x>. `packet_moments` therefore asks one kernel for the union
of the columns of the moments it is given, and forms the revival
fraction, the phase reduction and the Dirichlet values once. Each moment
is then a weighted sum over three feature blocks (R cos psi on the
d-columns with R on the s-columns, R sin psi on the d-columns, and R'
in place of R in the first), and only the blocks that some requested
moment weights are formed. Each moment sums its own columns in the
order its standalone kernel does, so for a scalar t the values equal
those of exp_x, exp_x2 and exp_p bit for bit, and <p>(0) is exactly 0.
expectation_sample, uncertainty_product, reduced_uncertainty and the
limit and CLI series all take this path; at (500, 23) one pass costs
about as much as one exp_x2 call, not the three calls it replaces.

Block size. Every moment runs one loop over blocks, in `_moments`. The
revival fraction and the split of its high part are formed once per
call on t as passed, so a scalar t runs them on Python floats; each
block then forms only the outer products frac(m * that fraction), and
the element passes of the kernel run in place. Arrays are evaluated in
blocks of at most core._CHUNK = 8192 instants x kernel columns, by the
rule core._block_rows that the classical series share, and a t that
fits in one block, a scalar included, is that block, unsliced. A block
holds a few temporaries of that size at once (the phases, the sign, the
two tangents, 1 + t^2 of each, one more for R', and 1 + t^2 or cos of
the psi columns). Each float64 temporary is then at most 64 KiB, below
glibc's default mmap threshold of 128 KiB: the temporaries come from the
heap and are reused from block to block. Larger blocks are mapped and
unmapped, or trimmed from the heap, on every call unless some earlier
large free in the process has raised glibc's dynamic thresholds. A fused
pass counts the union of its columns, so its blocks hold fewer instants
than a standalone exp_x block (44 against 89 at (500, 23)), and no
temporary ever spans instants x columns x moments; an array therefore
agrees with the standalone calls to rounding rather than bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import PacketSpec, WellConfig, packet_wavefunction, spectral_data
from .core import _block_rows, _fraction, _half_angle, _reduced_spread, _split

__all__ = [
    "OBSERVABLES",
    "ExpectationSample",
    "VarianceError",
    "exp_x",
    "exp_x2",
    "exp_p",
    "exp_p2",
    "oracle_expectation",
    "packet_moments",
    "quasi_exp",
    "reduced_uncertainty",
    "uncertainty_product",
    "expectation_sample",
]

OBSERVABLES = ("position", "position_sq", "momentum", "momentum_sq")

_TAYLOR = 1e-3  # |K delta| below which R_K and R_K' use their Taylor series


class VarianceError(RuntimeError):
    """A variance came out negative beyond the round-off guard."""


@dataclass(frozen=True)
class ExpectationSample:
    """All first and second moments of a packet at one instant."""

    t: float
    x_mean: float
    x2_mean: float
    p_mean: float
    p2_mean: float
    dx: float
    dp: float
    product: float


# --- exact phases ------------------------------------------------------------


def _phases(h, l, m):
    """frac(m * (h + l)) over instants (rows) x multipliers (columns).

    m holds integers with |m| < 2**bits and h keeps 53 - bits bits, so
    m * h is an exact product and its fraction is exact; m * l (below
    2**(bits - 54) for |hi| <= 1/2) is rounded once and added after.
    Python floats h and l give one row, by plain products, which are the
    same IEEE operations as the outer ones at a third of their cost.
    """
    mul = np.multiply.outer if isinstance(h, np.ndarray) else np.multiply
    c = mul(h, m)
    r = np.rint(c)
    c -= r
    mul(l, m, out=r)
    c += r
    return c


# --- Dirichlet-kernel sums ---------------------------------------------------

_PACKET = ("position", "position_sq", "momentum")


@dataclass(frozen=True)
class _Kernel:
    """Read-only columns and weights of one (n, N, outputs) kernel pass.

    Column i holds R_{K[i]} at the phase m[i] * tau: m = d on the first
    nd columns (the d-groups) and m = 2n + s on the rest; m ends with the
    nd multipliers 2n d of psi = 2n theta_d. Three feature blocks are
    formed from them: "cos" is R with the d-columns times cos psi, "sin"
    the d-columns of R times sin psi, and "rate" R' with the d-columns
    times cos psi. Output j is
    const[j] + sum over (block, cols, w) in terms[j] of block[:, cols] @ w,
    where cols is None for a whole block, or the indices of the output's
    columns where they are a part of the union (the odd ones among all of
    <x^2>'s). Either way each output sums the same values in the same
    order as the kernel of that output alone.
    """

    m: np.ndarray
    K: np.ndarray
    flip: np.ndarray  # -2 where K is even (R_K(phi + pi) = -R_K(phi)), else 0
    a2: np.ndarray  # R_K(x) = K + a2 x^2 + a4 x^4 + O(x^6)
    a4: np.ndarray
    nd: int
    terms: tuple[tuple[tuple[str, np.ndarray | None, np.ndarray], ...], ...]
    blocks: frozenset[str]
    const: np.ndarray
    bits: int  # every m is below 2**bits


def _cols(idx: np.ndarray, width: int):
    """Ascending indices into a block of width columns: None for all of
    them (the block is read as it is), else the indices to gather."""
    if len(idx) == width:
        return None
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=16)
def _kernel(n: int, N: int, outputs: tuple[str, ...]) -> _Kernel:
    """The union of the columns that `outputs` need, and one weight set per output.

    The outputs are the brackets of <x> ("position"), <x^2>
    ("position_sq") and the tau-derivative of <x> ("momentum"), and the
    classical-amplitude series of `quasi_exp` ("quasi_position",
    "quasi_momentum"). <x> and <p> take the odd d- and s-columns, <x^2>
    every d = 1..2N and |s| < 2N, and the quasi series the odd d-columns
    alone.
    """
    full = "position_sq" in outputs
    step = 1 if full else 2
    d = np.arange(1.0, 2 * N + 1, step)
    s = np.arange(1.0 - 2 * N, 2 * N, step) if set(outputs) & set(_PACKET) else np.empty(0)
    odd_d, odd_s = np.flatnonzero(d % 2 == 1), np.flatnonzero(s % 2 != 0)
    x_d, x_s = -1.0 / d[odd_d] ** 2, 0.5 / (2 * n + s[odd_s]) ** 2  # <x> weights
    odd = _cols(np.concatenate([odd_d, len(d) + odd_s]), len(d) + len(s))
    d_cols = _cols(odd_d, len(d))
    weights = {
        "position": (("cos", odd, np.concatenate([x_d, x_s])),),
        "momentum": (
            ("sin", d_cols, -2.0 * n * d[odd_d] * x_d),
            ("rate", odd, np.concatenate([x_d * d[odd_d], x_s * (2 * n + s[odd_s])])),
        ),
        "quasi_position": (("cos", d_cols, x_d),),
        "quasi_momentum": (("sin", d_cols, 1.0 / d[odd_d]),),
    }
    const = 0.0
    if full:
        even = s % 2 == 0
        w_s = 0.5 / (2 * n + s) ** 2
        levels = n + np.arange(-N, N + 1, dtype=float)
        const = float(np.sum(w_s[even])) - 0.125 * float(np.sum(1.0 / levels**2))
        w = np.concatenate([(-1.0) ** d / d**2, np.where(even, -w_s, w_s)])
        weights["position_sq"] = (("cos", None, w),)
    K = np.concatenate([2 * N + 1 - d, 2 * N + 1 - np.abs(s)])
    arrays = {
        "m": np.concatenate([d, 2 * n + s, 2 * n * d]),
        "K": K,
        "flip": -2.0 * (K % 2 == 0),
        "a2": K * (1 - K**2) / 6,
        "a4": K * (K**2 - 1) * (3 * K**2 - 7) / 360,
        "const": np.array([const if out == "position_sq" else 0.0 for out in outputs]),
    }
    terms = tuple(weights[out] for out in outputs)
    for arr in (*arrays.values(), *(w for ts in terms for _, _, w in ts)):
        arr.setflags(write=False)
    return _Kernel(
        **arrays,
        nd=len(d),
        terms=terms,
        blocks=frozenset(name for ts in terms for name, _, _ in ts),
        bits=(4 * n * N).bit_length(),  # one bound for every kernel of (n, N)
    )


def _dirichlet(ker: _Kernel, c: np.ndarray, rate: bool):
    """R_K and (if rate) R_K' at phi = 2 pi c, for |c| <= 1/2 (plus rounding).

    With j = rint(2c), x = phi - j pi = pi (2c - j) takes one rounding,
    |x| <= pi/2 and R_K(phi) = (-1)^(j (K - 1)) R_K(x). R_K(x) and R_K'(x)
    are rational in t_x = tan(x/2) and t_k = tan(K x/2):

        R   = t_k (1 + t_x^2) / (t_x (1 + t_k^2))
        R'  = (1 + t_x^2) (K (1 - t_k^2) t_x - (1 - t_x^2) t_k) / (2 t_x^2 (1 + t_k^2))

    and where |K x| < _TAYLOR they come from their Taylor series instead.
    """
    u = 2.0 * c  # a new contiguous array, also where c is a view
    j = np.rint(u)
    u -= j
    u *= 0.5 * math.pi  # x/2
    sign = j  # (-1)^(j (K - 1)) = 1 + flip j^2 for |j| <= 1, in place
    sign *= j
    sign *= ker.flip
    sign += 1.0
    tk = u * ker.K  # K x/2
    a = np.abs(tk)  # later 1 + t_x^2
    near = np.minimum.reduce(a, axis=None, initial=np.inf) < 0.5 * _TAYLOR
    if near:
        small = a < 0.5 * _TAYLOR
        x = 2.0 * u
        x2 = x * x
        taylor = sign * (ker.K + x2 * (ker.a2 + x2 * ker.a4))
        taylor_rate = sign * (x * (2.0 * ker.a2 + 4.0 * x2 * ker.a4)) if rate else None
    tx = np.tan(u, out=u)
    np.tan(tk, out=tk)
    if near:
        np.copyto(tx, 1.0, where=small)  # t_x = 0 only where K x = 0
    np.multiply(tx, tx, out=a)
    a += 1.0
    b = tk * tk
    b += 1.0
    if rate:
        num = np.subtract(2.0, b)  # 1 - t_k^2
        num *= ker.K
        num *= tx
        v = np.subtract(2.0, a)  # 1 - t_x^2
        v *= tk
        num -= v
    b *= tx
    a /= b
    a *= sign  # sign (1 + t_x^2) / (t_x (1 + t_k^2)), common to R and R'
    R = tk
    R *= a
    dR = None
    if rate:
        dR = num
        dR *= a
        dR /= tx
        dR *= 0.5
    if near:
        np.copyto(R, taylor, where=small)
        if rate:
            np.copyto(dR, taylor_rate, where=small)
    return R, dR


def _moments(cfg: WellConfig, spec: PacketSpec, t, outputs: tuple[str, ...]) -> list:
    """Each output at t from one loop over the blocks; np.float64 for a scalar t.

    The high part of frac(t / T_rev) keeps 53 - bits bits for `_phases`.
    """
    ker = _kernel(spec.n, spec.N, outputs)
    nk = len(ker.K)
    t_arr = np.asarray(t, dtype=float)
    hi, lo = _fraction(cfg._revival_rate, t_arr)
    h, l = _split(hi, max(ker.bits, 1))
    l = l + lo
    brackets = np.empty((len(outputs), t_arr.size))
    step = _block_rows(len(ker.m))
    blocks = [(h, l, brackets)]  # a t that fits in one block, a scalar included
    if t_arr.size > step:
        h, l = h.reshape(-1), l.reshape(-1)
        blocks = (
            (h[i : i + step], l[i : i + step], brackets[:, i : i + step])
            for i in range(0, h.size, step)
        )
    for h_i, l_i, out in blocks:
        c = _phases(h_i, l_i, ker.m).reshape(out.shape[1], len(ker.m))
        R, dR = _dirichlet(ker, c[:, :nk], "rate" in ker.blocks)
        psi = c[:, nk:]
        psi *= math.pi  # psi / 2, for the one tangent of `core._half_angle`
        feats = {"cos": R, "rate": dR}
        if "sin" in ker.blocks:
            cos = np.empty(psi.shape) if "cos" in ker.blocks or dR is not None else None
            _half_angle(psi, cos, psi)  # sin psi over psi
            feats["sin"] = np.multiply(psi, R[:, : ker.nd])
        else:  # "cos" or "rate": cos psi alone
            cos = psi
            _half_angle(psi, cos)
        if cos is not None:
            if "cos" in ker.blocks:
                R[:, : ker.nd] *= cos
            if dR is not None:
                dR[:, : ker.nd] *= cos
        for acc, terms in zip(out, ker.terms):
            for i, (name, cols, w) in enumerate(terms):
                # a gather is C-ordered, so BLAS sums each row as it sums
                # the same columns in the kernel of this output alone
                f = feats[name] if cols is None else feats[name].take(cols, axis=1)
                if i:
                    np.add(acc, f @ w, out=acc)
                else:
                    np.matmul(f, w, out=acc)

    brackets = brackets.reshape((len(outputs),) + t_arr.shape)
    vals = []
    for j, output in enumerate(outputs):
        if output == "position_sq":
            offset, factor = cfg.a**2 / 3.0, 4.0 * cfg.a**2 / math.pi**2
        elif output == "momentum":
            # mu w_b (4a/pi^2) = 2 hbar / a scales the tau-derivative of the <x> bracket
            offset, factor = 0.0, 2.0 * cfg.hbar / cfg.a
        elif output == "quasi_momentum":
            offset, factor = 0.0, 4.0 * spectral_data(cfg, spec.n).p_n / math.pi
        else:
            offset, factor = cfg.a / 2.0, 4.0 * cfg.a / math.pi**2
        vals.append(offset + factor / spec.size * (ker.const[j] + brackets[j]))
    return vals


def packet_moments(cfg: WellConfig, spec: PacketSpec, t, kinds=_PACKET) -> tuple:
    """<x>, <x^2> and <p> at t from one kernel pass, in the order of `kinds`.

    kinds names any of "position", "position_sq" and "momentum". The pass
    evaluates the union of their kernel columns once, so it costs about
    as much as the widest of the matching exp_x, exp_x2 and exp_p calls.
    Each value equals that call's, bit for bit for a scalar t and to
    rounding for an array (its blocks hold fewer instants); scalar or
    array t, each value shaped like t.
    """
    kinds = tuple(kinds)
    if not kinds or not set(kinds) <= set(_PACKET):
        raise ValueError(f"kinds must name some of {_PACKET}, got {kinds!r}")
    return tuple(_moments(cfg, spec, t, kinds))


def exp_x(cfg: WellConfig, spec: PacketSpec, t):
    """Packet position mean <x>(t); scalar or array t."""
    return _moments(cfg, spec, t, ("position",))[0]


def exp_x2(cfg: WellConfig, spec: PacketSpec, t):
    """Packet squared-position mean <x^2>(t); scalar or array t."""
    return _moments(cfg, spec, t, ("position_sq",))[0]


def exp_p(cfg: WellConfig, spec: PacketSpec, t):
    """Packet momentum mean <p>(t) = mu * d<x>/dt, taken term by term.

    At t = 0 every R_K' and every sin(2n theta_d) is exactly zero, so the
    value there is exactly zero, here and in `packet_moments`.
    """
    return _moments(cfg, spec, t, ("momentum",))[0]


def exp_p2(cfg: WellConfig, spec: PacketSpec) -> float:
    """Packet squared-momentum mean, constant in time.

    (pi hbar / a)^2 * mean of (n+m)^2 = p_n^2 (1 + (N + N^2)/(3 n^2)).
    """
    p_n = spec.n * math.pi * cfg.hbar / cfg.a
    return p_n**2 * (1.0 + (spec.N + spec.N**2) / (3.0 * spec.n**2))


# --- first-principles oracles ------------------------------------------------


def _grid_expectation(cfg, spec, t, kind, grid_points):
    x = np.linspace(0.0, cfg.a, grid_points)
    psi = packet_wavefunction(cfg, spec, x, t)
    h = x[1] - x[0]
    if kind == "position":
        return float(np.trapezoid(np.abs(psi) ** 2 * x, dx=h))
    if kind == "position_sq":
        return float(np.trapezoid(np.abs(psi) ** 2 * x**2, dx=h))

    # every mode extends oddly about both walls, so ghost cells by odd
    # reflection keep the centered stencils valid (and exact in structure
    # for sine superpositions) all the way to the boundary
    g = 4
    ext = np.empty(len(psi) + 2 * g, dtype=psi.dtype)
    ext[g:-g] = psi
    ext[:g] = -psi[g:0:-1]
    ext[-g:] = -psi[-2 : -g - 2 : -1]

    def diff4(s):
        j = np.arange(g, g + len(psi))
        return (
            ext[j - 2 * s] - 8 * ext[j - s] + 8 * ext[j + s] - ext[j + 2 * s]
        ) / (12 * s * h)

    if kind == "momentum":
        # Richardson combination of stride-1 and stride-2 stencils removes
        # the leading h^4 error; needed to validate at 1e-6 for n ~ 200
        dpsi = (16.0 * diff4(1) - diff4(2)) / 15.0
        integrand = (np.conj(psi) * (-1j * cfg.hbar) * dpsi).real
        return float(np.trapezoid(integrand, dx=h))
    # momentum_sq: -hbar^2 psi* psi'' with a 4th-order second derivative
    j = np.arange(g, g + len(psi))
    d2 = (
        -ext[j - 2] + 16 * ext[j - 1] - 30 * ext[j] + 16 * ext[j + 1] - ext[j + 2]
    ) / (12 * h**2)
    integrand = (-cfg.hbar**2 * np.conj(psi) * d2).real
    return float(np.trapezoid(integrand, dx=h))


def _matrix_element(cfg, u, v, kind):
    """Textbook well matrix element <u|f|v> (the momentum one over -i)."""
    if kind == "position":
        if u == v:
            return cfg.a / 2.0
        if (u - v) % 2 == 0:
            return 0.0
        return (2.0 * cfg.a / math.pi**2) * (1.0 / (u + v) ** 2 - 1.0 / (u - v) ** 2)
    if kind == "position_sq":
        if u == v:
            return cfg.a**2 * (1.0 / 3.0 - 1.0 / (2.0 * math.pi**2 * u**2))
        return (
            (2.0 * cfg.a**2 / math.pi**2)
            * (-1.0) ** (u - v)
            * (1.0 / (u - v) ** 2 - 1.0 / (u + v) ** 2)
        )
    if kind == "momentum":
        # <u|p|v> = -i * this value
        if (u - v) % 2 == 0:
            return 0.0
        return 4.0 * cfg.hbar * u * v / (cfg.a * (u**2 - v**2))
    # momentum_sq: diagonal (hbar k_u)^2
    if u == v:
        return (cfg.hbar * u * math.pi / cfg.a) ** 2
    return 0.0


def _spectral_expectation(cfg, spec, t, kind):
    levels = [int(u) for u in spec.levels()]
    # (E_u - E_v) t / hbar = (u^2 - v^2) w_b t with an exact integer factor
    tau = math.pi**2 * cfg.hbar / (2.0 * cfg.mu * cfg.a**2) * t
    trig = math.sin if kind == "momentum" else math.cos
    total = 0.0
    for u in levels:
        total += _matrix_element(cfg, u, u, kind)
    for iu, u in enumerate(levels):
        for v in levels[:iu]:
            m = _matrix_element(cfg, u, v, kind)
            if m == 0.0:
                continue
            total += 2.0 * m * trig((u * u - v * v) * tau)
    return total / spec.size


def oracle_expectation(
    cfg: WellConfig,
    spec: PacketSpec,
    t: float,
    kind: str,
    grid_points: int = 4096,
    method: str = "grid",
) -> float:
    """First-principles packet expectation value, for validating closed forms.

    method="grid" builds the wavefunction on a uniform quadrature grid of
    `grid_points` samples and applies the operator numerically (position
    powers pointwise, momentum via finite differences). method="spectral"
    sums analytic matrix elements over all level pairs with their Bohr
    phases; it is exact up to rounding and independent of the closed
    forms' term bookkeeping.
    """
    if kind not in OBSERVABLES:
        raise ValueError(f"kind must be one of {OBSERVABLES}, got {kind!r}")
    if method == "spectral":
        return _spectral_expectation(cfg, spec, t, kind)
    if method != "grid":
        raise ValueError(f"method must be 'grid' or 'spectral', got {method!r}")
    if grid_points < 512:
        raise ValueError(f"grid too coarse: {grid_points} points (minimum 512)")
    if grid_points < 2048:
        warnings.warn(
            f"{grid_points}-point grid may not reach validation accuracy "
            f"for n around {spec.n}",
            stacklevel=2,
        )
    return _grid_expectation(cfg, spec, t, kind, grid_points)


# --- quasi-quantum series ----------------------------------------------------


def quasi_exp(cfg: WellConfig, spec: PacketSpec, t, kind: str):
    """Packet series with classical Fourier amplitudes in place of matrix elements.

    Each level pair keeps its own Bohr frequency d (1 + s/(2n)) w_n, and its
    matrix element becomes the classical amplitude of harmonic d: for the
    position -4a/(pi^2 d^2) per cosine pair at odd d (a/2 at d = 0), for the
    momentum 4 p_n/(pi d) per sine pair. The deviation from the true mean,
    the amplitude effect, therefore stays of order 1/n^2 at all times, and
    the deviation from the Fejer average is the effect of unequal level
    spacing alone. Grouped by d, the pairs sum to R_{2N+1-d}(theta_d) times
    cos(2n theta_d) or sin(2n theta_d), the d-groups of `exp_x`, in one
    kernel pass of `_moments`.
    """
    if kind not in ("position", "momentum"):
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    return _moments(cfg, spec, t, ("quasi_" + kind,))[0]


# --- uncertainty measures ----------------------------------------------------


def reduced_uncertainty(cfg: WellConfig, spec: PacketSpec, t, kind: str):
    """Dimensionless spread sqrt(1 - <f>^2 / <f^2>), clamped to [0, 1]."""
    if kind == "position":
        mean, second = _moments(cfg, spec, t, ("position", "position_sq"))
    elif kind == "momentum":
        (mean,) = _moments(cfg, spec, t, ("momentum",))
        second = exp_p2(cfg, spec)
    else:
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    return _reduced_spread(mean, second)


def _variance(mean, second, scale):
    var = second - np.asarray(mean) ** 2
    if (var < -1e-12 * scale).any():
        raise VarianceError(f"variance {np.min(var)} below round-off guard")
    return np.maximum(var, 0.0)


def uncertainty_product(cfg: WellConfig, spec: PacketSpec, t):
    """Delta-x times Delta-p for the packet; never below hbar/2."""
    x, x2, p = _moments(cfg, spec, t, _PACKET)
    p2 = exp_p2(cfg, spec)
    val = np.sqrt(_variance(x, x2, cfg.a**2)) * np.sqrt(_variance(p, p2, p2))
    return val[()]


def expectation_sample(cfg: WellConfig, spec: PacketSpec, t: float) -> ExpectationSample:
    """All moments of the packet at time t in one record, from one kernel pass."""
    x_mean, x2_mean, p_mean = _moments(cfg, spec, t, _PACKET)
    p2_mean = exp_p2(cfg, spec)
    dx = math.sqrt(_variance(x_mean, x2_mean, cfg.a**2))
    dp = math.sqrt(_variance(p_mean, p2_mean, p2_mean))
    return ExpectationSample(
        t=t,
        x_mean=x_mean,
        x2_mean=x2_mean,
        p_mean=p_mean,
        p2_mean=p2_mean,
        dx=dx,
        dp=dp,
        product=dx * dp,
    )

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

Level sums for the Hankel part. The d-groups are the Toeplitz part of
each mean (weights that depend on d alone): the Fejer average of the
classical series with detuned phases. The s-groups carry the weights
1/(2n+s)^2, of order 1/n^2, and -d/(2n+s) in <p>: the Hankel part,
which depends on s = j + k. With u = j k / ((2n+j)(2n+k)), so that
2n + s = (2n+j)(2n+k)(1 - u)/2n, both are geometric series in u,

    1/(2n+s)^2 = sum_{i>=0} (i+1) psi_i(j) psi_i(k),  psi_i(j) = 2n (-j)^i / (2n+j)^(i+2),
    1/(2n+s)   = 2n sum_{i>=0} xi_i(j) xi_i(k),       xi_i(j) = (-j)^i / (2n+j)^(i+1),

and [s odd] = (1 - (-1)^j (-1)^k)/2, so, cut after i = K, each Hankel
part is a quadratic form of rank O(K) in the level phases
a_j = cos(m_j tau) and b_j = sin(m_j tau) of the dense forms below:
sums of a_j and b_j against psi_i, xi_i, j xi_i and their products with
(-1)^j, one BLAS product per output and per a or b against a
(2N+1) x O(K) basis (`_level_form`) that the kernel plan keeps. On the
kernel the a_j and b_j come from `_level_phases`, as on the dense forms,
and share the kernel's split of the revival fraction, since
m_j < 4nN. |u| is at
most (N/(2n-N))^2, and the cut moves <x> and <x^2> by at most
(2/pi^2) (2N+1) (2n)^2/(2n-N)^4 sum_{i>K} (i+1) u^i of a and a^2, and
<p> by at most 8N (2N+1)/(pi (2n-N)^2) sum_{i>K} u^i of p_n;
`_series_terms` takes the least K that puts both below eps/16. For
N = isqrt(n) that is K = 2 at n = 16384 and 10^5 and K = 1 at 10^6 and
10^7: two or three terms. The rule depends on (n, N) alone; K would
pass _SERIES_CAP = 16 where n < 2.05 N, which no packet of
N = isqrt(n) >= 128 reaches, and such a packet has no kernel (the
engine rule below). Per instant a kernel evaluates the d-columns alone
(N Dirichlet columns for <x> and <p>, 2N for <x^2>), plus one tangent
per level for the 2N + 1 level phases and two products of 2N + 1 levels
by at most 4(K + 1) columns per output.

Dense quadratic forms. The same means are quadratic forms in the 2N + 1
level phases. With u_j = n + j and m_j = 2nj + j^2 = u_j^2 - n^2 for
j = -N..N, every pair phase is (m_j - m_k) tau, so with a_j = cos(m_j tau)
and b_j = sin(m_j tau), d = j - k and s = j + k:

    <x>   = a/2 + (2a/pi^2)/(2N+1) * sum_jk X_jk (a_j a_k + b_j b_k),
            X_jk = 1/(2n+s)^2 - 1/d^2 for odd d, else 0
    <x^2> = diagonal + (2a^2/pi^2)/(2N+1) * sum_jk X2_jk (a_j a_k + b_j b_k),
            X2_jk = (-1)^d (1/d^2 - 1/(2n+s)^2) for d != 0
    <p>   = -(2 hbar/a)/(2N+1) * sum_jk G_jk b_j a_k,
            G_jk = 2u_j (1/(u_j+u_k) - 1/(u_j-u_k)) = -4 u_j u_k / (d (2n+s)) for odd d

X and X2 are each a part in d alone (Toeplitz) plus one in 2n + s
(Hankel), and G_jk = d (2n+s) X_jk. A quasi form of quasi_exp is its
packet form less the Hankel part, X2's diagonal included, so the quasi
momentum is mu d/dt of the quasi position. X is symmetric and vanishes
at even d, j and k of one parity, so <x> sums the even-by-odd block alone:

    <x>   = a/2 + (4a/pi^2)/(2N+1) * sum_{j even, k odd} X_jk (a_j a_k + b_j b_k),

a quarter of the (2N+1)^2 terms, and so does the quasi position. G
vanishes at even d too and is antisymmetric, G_oe = -G_eo^T, so

    <p>   = -(2 hbar/a)/(2N+1) * sum_{j even, k odd} G_jk (b_j a_k - a_j b_k),

and X2 is symmetric, so <x^2> (and its quasi form) sums [X2_ee | 2 X2_eo]
over the even rows and X2_oo over the odd ones. The levels come in the parity order
[even j | odd j] (`_levels`). Per block of instants `_moments` forms a
and b from the tangents of their half phases, stacks the rows of a over those
of b, and does one BLAS product per moment and block of its matrix,
each form by the rule of its matrix's symmetry: ([a_e; b_e] @ 2 X_eo)
times [a_o; b_o] for <x> and ([a; b] @ X2) times [a; b] for <x^2>, each
summed over an instant's a and b rows by np.vecdot, and
([a_e; b_e] @ G_eo) times the swapped [b_o; a_o] for <p>, by np.vecdot,
a quarter of the multiply-adds at every N (DECISIONS.md, "Dense <p> on
G_eo at every N"). Where the whole matrix passes two _CHUNKs, N >= 64,
<x^2> takes its block triangle in two products, three quarters of them;
below that one whole product is the faster, since the second product
costs more than the quarter it saves (DECISIONS.md, "Dense <p> and
<x^2> past one chunk"). The plan keeps only the blocks that its
outputs read, as views of one buffer, each filled in panels of at most
_CHUNK elements. The forms have no
Taylor branch, so the cancellation of the direct R_K' just above the
kernel's Taylor threshold is gone there.

The engine rule. `_moments` takes the dense forms for the quasi series
at every packet; for the packet moments where the (2N+1)^2 matrix fits
in _PANELS = 8 blocks of core._CHUNK elements, N <= 127, which includes
the paper's (500, 23) and every packet of n < 16384 at N = isqrt(n); and
for the packet moments past the series rule, n < 2.05 N, at any N. Every
other packet moment takes the Dirichlet kernel, O(N) per instant with
the level sums, where the dense forms are O(N^2): from N = 128 exp_x and
the fused pass are slower dense at N = isqrt(n), while at (10^4, 100) a
fused pass is 1.35-1.4x faster dense (DECISIONS.md, "Dense forms in
64 KiB panels up to N = 127"). The cost of the dense forms past the
series rule, with a 40 MB fused plan at (1500, 1000), is in DECISIONS.md,
"Packets past the series rule on the dense forms". The accuracy of each
path, in eps of a, a^2 and p_n against the 40-digit pair sum or the
60-digit closed form, and the cost of the quasi series past N = 127, are
in DECISIONS.md, "The Dirichlet kernel serves the three packet moments
only".

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
4nN for the kernel and 2nN + N^2 for the dense forms, stays below 2^27
(n = 10^5 with N = sqrt(n) is inside). Past that each phase is still
reduced to [-1/2, 1/2], and only its rounded part grows, by a factor of
4 per doubling of the multiplier: at (10^6, 2277), 4nN = 2^33.1, the
kernel is within 2.5 eps of a and a^2 and 400 eps of p_n of a 60-digit
closed form at 0.05, 0.2, 0.4 and 0.5 T_rev. Next to a singular phase
the rounding of c itself is amplified by R_K: at 0.4999 T_rev <x> is
100 eps of a off at (3 x 10^5, 1101). Each R_K is evaluated at
x = phi - j pi, with j = rint(phi / pi) in {-1, 0, 1} so that
|x| <= pi/2, times the sign (-1)^(j(K-1)), and from its Taylor series
where |K x| is small, so the removable singularities at phi = j pi cost
the evaluation itself no accuracy.

Tangents. Outside the Taylor branch R_K(x) = sin(Kx)/sin(x) and R_K'(x)
are rational in t_x = tan(x/2) and t_k = tan(Kx/2), by the half-angle
identities sin y = 2u/(1 + u^2) and cos y = (1 - u^2)/(1 + u^2) with
u = tan(y/2), so a kernel column costs two tangents and no sine or
cosine. The psi = 2n theta_d columns take the same route: their fraction
c = frac(2n d tau) from `_phases` lies in (-1, 1), and tan(pi c) has
period 1, so pi c is already the half angle, and cos psi and sin psi
come from the one tangent tan(pi c) by `core._half_angle`, the helper
that the classical series and the width scan share. No array path of
the moments calls sin or cos. The reason is speed: numpy dispatches
float64 tan to an SVML (AVX512_SKX) loop at 2 to 3 ns per element,
while its float64 sin and cos run through scalar libm at 8 to 25 ns,
and at n = 10^5 the two sines of each column took most of a kernel
block (DECISIONS.md has the measurements and the hosts they hold on). The j reduction keeps
|x/2| <= pi/4, so |t_x| <= 1 and only t_k meets the poles of tan; there
sin(Kx) = 0, |t_k| is at most about 1e16, and the formulas stay finite
and accurate to a few eps of K (R) and K^2 (R'). At c = +-1/2, the pole
of tan(pi c), the rounded pi/2 keeps the tangent finite, and cos psi and
sin psi come out -1 and about 1e-16, as np.cos and np.sin of pi give.

Scalar and array t take the same code. A scalar t is reduced in Python
floats (`core._fraction`) and its one row of phases comes from plain
products, the same IEEE operations as the outer products of an array
call; it comes back as np.float64. The sums are matrix products, which
BLAS may round differently for one instant than for many, so a scalar
agrees with the matching element of an array call to rounding.

One pass for every moment at an instant. Delta-x and Delta-p need <x>,
<x^2> and <p> at the same t, and the three share their phases: <x>
and <p> read the odd d-columns, <x^2> reads those and the even ones,
and all three read the level phases. `packet_moments` therefore asks
one kernel for the union of the columns of the moments it is given, and
forms the revival fraction, the phase reduction, the Dirichlet values
and the level phases once. Each moment is then a weighted sum over three
column products (R cos psi on the d-columns, and R sin psi and R' cos psi
on the odd d-columns alone) plus its level sum, and a pass forms only
the products that some requested moment weights. The kernel lays out
its columns in one order whatever it is asked for, [even d | odd d], so
each moment reads one contiguous slice of each product, the same columns
in the same order as its standalone kernel, and does its own level-sum
products against its own basis. The values therefore equal those of
exp_x, exp_x2 and exp_p bit for bit, and <p>(0) is exactly 0: every R',
every sin psi and every b_j is 0 there. expectation_sample,
uncertainty_product, reduced_uncertainty and the limit and CLI series
all take this path; on the kernel one pass costs about as much as one
exp_x2 call, not the three calls it replaces. A dense pass forms a and b
once and does one product per moment.

Calls on one array of instants share one pass. For an array t of packet
moments within the budget below, `_moments` runs the fused pass of all
three, whatever its call asks, and keeps the three brackets, read-only,
with the plan's const, for the last array t it saw
(`core._LastInstants`): keyed by t's contents, under the packet (n, N),
the engine and the revival rate, the values that fix the brackets. A
later exp_x, exp_x2, exp_p, packet_moments, uncertainty_product or
reduced_uncertainty call on the same values, such as the benchmark's
moment calls, only scales its rows, as offset + f (const + bracket),
which returns a new array: a caller that changes it changes no later
call. The values equal a fresh call's bit for bit, since a fused pass
equals each standalone call. Inside the package no two such calls share
an array: `limits.limit_sequence` and the CLI series make one fused
packet_moments call per array, so only direct callers gain, and a lone
call on a new array within the budget pays for the whole pass: a lone
exp_x took about 1.2, 1.8 and 1.6 times its own pass at (500, 23),
(10^4, 100) and (10^5, 316) (DECISIONS.md, "The entry keeps the fused
brackets"). A scalar or 0-d t, an array past the budget and a quasi
series keep nothing, and form only what their outputs read.

Block size. Every moment runs one loop over blocks, in `_moments`. The
revival fraction and the split of its high part are formed once per
call on t as passed, so a scalar t runs them on Python floats; each
block then forms only the outer products frac(m * that fraction), and
the element passes of the kernel run in place. Each plan, `_kernel` or
`_dense`, sets its block's instants once, as its field rows, by the
rule core._block_rows that the classical series share, and `_moments`
reads plan.rows for either engine: an array is evaluated in blocks of
rows instants, and a t that fits in one block, a scalar included, is
that block, unsliced. A kernel block reads three phase arrays, each its
own: the Dirichlet columns and the psi = 2n theta_d columns, from which
it forms its column products, and the 2N + 1 level phases of
`_level_phases`. Each holds at most
core._CHUNK = 8192 elements, so the rows come from the widest of the
three, not their sum. The levels (2N + 1) are the widest for every
packet moment: exp_x, exp_x2, exp_p and a fused pass all take 12
instants per block at (10^5, 316). A block holds a few temporaries of
one array's size at once (the phases, the sign, the two tangents,
1 + t^2 of each, one more for R', cos psi, and a and b of the levels).
A dense block holds _block_rows(2(2N+1)) instants, so the stacked
[a; b] and its product with a matrix are at most 64 KiB each. Each
float64 temporary is then at most 64 KiB, below glibc's default mmap
threshold of 128 KiB: the temporaries come from the heap and are reused
from block to block. Larger blocks are mapped and unmapped, or trimmed from
the heap, on every call unless some earlier large free in the process
has raised glibc's dynamic thresholds. A fused kernel pass reads the
blocks of its standalone calls, so its arrays equal exp_x, exp_x2 and
exp_p bit for bit, and no temporary ever spans instants x columns x
moments. Every moment of a dense pass reads the same blocks, so there
its arrays equal the standalone calls bit for bit too. Small arrays do
not make the heap memory stay, though: where a block's temporaries sit at
the top of the heap, glibc can trim them after the block and the next
block faults them back in. With the level sums a warm fused call at
(10^5, 316) on 8 instants, one block, peaks at 379 KiB of temporaries
(`tracemalloc`; DECISIONS.md).

Memory. The plans are the one cache of what their blocks read: `_form`
and `_level_form` are builders that only `_dense` and `_kernel` call,
and a plan evicted from its cache of 16 frees its arrays. The blocks of
a dense plan may be larger than a block of instants (at N = 127, 130 KB
each for the <x> and <p> blocks and 390 KB for the <x^2> triangle; at
N = 100, 81, 81 and 242 KB), but they are views of one buffer, so a plan
past glibc's 128 KiB mmap threshold maps its matrices once and keeps
none of them in the heap among the temporaries of its blocks of
instants; the buffer is filled in panels of rows, so no (2N+1)^2
temporary is made. A fused dense plan at N = 127 holds 650 KB, so 16
dense plans of N <= 127 keep at most 16 x (130 + 390 + 130) KB, about
10.4 MB. A fused plan past the series rule holds five quarters of
(2N+1)^2 float64 (40 MB at (1500, 1000)), and a quasi plan one quarter
(8.0 MB at N = 1000) or, for <x^2>, three, and so may each of the 16; the kernel plans'
level-sum bases are small (30, 15 and 122 KB for <x>, <x^2> and <p> at
(10^5, 316)). The kept instants are one entry: the three brackets of an
array t, 3 floats per instant. An array whose 2N + 1 level phases would
pass _PANELS * _CHUNK elements (512 KiB) is not kept, so the entry holds
at most 1.5 MiB / (2N + 1), 33 KB at (500, 23). It holds no array of a
plan, so an evicted plan still frees its matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PacketSpec, WellConfig, packet_wavefunction
from .core import _CHUNK, _PANELS, _LastInstants, _block_rows, _check_instant, _fraction, _half_angle
from .core import _reduced_spread, _split

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

_ORACLE_POINTS = 4096  # grid points of `oracle_expectation`'s grid quadrature
_TAYLOR = 1e-3  # |K delta| below which R_K and R_K' use their Taylor series


class VarianceError(RuntimeError):
    """A variance came out negative beyond the round-off guard."""


class ExpectationSample(NamedTuple):
    """All first and second moments of a packet at one instant, as an immutable tuple."""

    t: float
    x_mean: float
    x2_mean: float
    p_mean: float
    p2_mean: float
    dx: float
    dp: float
    product: float


# --- exact phases ------------------------------------------------------------


def _phases(h, l, m, bits: int):
    """frac(m * (h + l)) over instants (rows) x multipliers (columns).

    m holds integers with |m| < 2**bits and h keeps 53 - bits bits, so
    m * h is an exact product and its fraction is exact; m * l (below
    2**(2 bits - 55) for |hi| <= 1/2) is rounded once and added after.
    Up to 27 bits the sum stays within (-1, 1), and within (-3/4, 3/4) on
    the Dirichlet columns (m <= 2N), which is all that the periodic
    tangents and `_dirichlet` need; past that it is reduced once more.
    Python floats h and l give one row, by plain products, which are the
    same IEEE operations as the outer ones at a third of their cost.
    """
    mul = np.multiply.outer if isinstance(h, np.ndarray) else np.multiply
    c = mul(h, m)
    r = np.rint(c)
    c -= r
    mul(l, m, out=r)
    c += r
    if bits > 27:
        c -= np.rint(c, out=r)
    return c


def _level_phases(m, bits: int, h, l) -> np.ndarray:
    """a = cos(m tau) over b = sin(m tau) of one block, as ab[0] and ab[1].

    Both come from the one tangent of each half phase pi c, c from
    `_phases`, by `core._half_angle`; the dense forms read the stacked
    rows [a; b], the kernel's level sums a and b apart.
    """
    c = _phases(h, l, m, bits).reshape(-1, len(m))
    c *= math.pi
    ab = np.empty((2,) + c.shape)
    _half_angle(c, ab[0], ab[1])
    return ab


# --- Dirichlet-kernel sums ---------------------------------------------------

_PACKET = ("position", "position_sq", "momentum")
_SERIES_TOL = 2.0**-56  # bound on the level sums' truncation: eps/16 of a, a^2 and p_n
_SERIES_CAP = 16  # the longest level-sum series: a packet that needs more takes the dense forms


@functools.lru_cache(maxsize=64)
def _series_terms(n: int, N: int) -> int | None:
    """The last index K of the level-sum series of (n, N), or None past _SERIES_CAP.

    The series of `_level_form` falls as u^k with u = (N / (2n - N))^2,
    the largest j k / ((2n + j)(2n + k)). Cut after k = K, it moves <x>
    and <x^2> by at most (2/pi^2) (2N+1) (2n)^2 / (2n-N)^4
    sum_{k>K} (k+1) u^k of a and a^2, and <p> by at most
    8N (2N+1) / (pi (2n-N)^2) sum_{k>K} u^k of p_n: each of the (2N+1)^2
    pair weights is off by its tail. K is the least that puts both below
    _SERIES_TOL. Cached, since `_moments` asks it for the engine of every
    call past the dense size.
    """
    u = (N / (2 * n - N)) ** 2
    x = 2 / math.pi**2 * (2 * N + 1) * (2 * n) ** 2 / (2 * n - N) ** 4
    p = 8 * N * (2 * N + 1) / (math.pi * (2 * n - N) ** 2)
    for K in range(_SERIES_CAP + 1):
        tail = u ** (K + 1) / (1 - u)
        if max(x * tail * (K + 2 - (K + 1) * u) / (1 - u), p * tail) <= _SERIES_TOL:
            return K
    return None


def _level_form(n: int, N: int, output: str, K: int) -> tuple:
    """(sine, left, right, w): the Hankel part of one output's bracket as a short level sum.

    Built for `_kernel`, whose plan keeps it.

    With s = j + k, d = j - k and sigma_j = (-1)^j, the Hankel weights are
    separable series in the levels j and k,

        1/(2n+s)^2 = sum_i (i+1) psi_i(j) psi_i(k),
        -d/(2n+s)  = 2n sum_i [(-j xi_i(j)) xi_i(k) + xi_i(j) (k xi_i(k))],
        [s odd]    = (1 - sigma_j sigma_k)/2,

    with psi_i(j) = 2n (-j)^i / (2n+j)^(i+2) and xi_i(j) = (-j)^i / (2n+j)^(i+1):
    the geometric series in u = j k / ((2n+j)(2n+k)) of
    (2n)^2 / (2n+s)^2 = 1/((1 - u)^2 (1 + j/2n)^2 (1 + k/2n)^2) and of
    2n / (2n+s), cut after i = K. The bracket's Hankel part is then
    sum_r w_r (a @ left)_r (a @ right)_r plus the same in b for <x> and
    <x^2>, where left is right, and sum_r w_r (b @ left)_r (a @ right)_r
    for <p>, over the columns psi_i and sigma psi_i (or the xi pairs).
    <x^2> sums -sigma_j sigma_k / (2 (2n+s)^2) over every pair, d = 0
    included, which is its diagonal part, so its kernel's const is zero.
    """
    j = np.arange(-N, N + 1.0)[:, None]
    i = np.arange(K + 1.0)
    sign = 1.0 - 2.0 * (j % 2)
    if output == "momentum":
        xi = (-j) ** i / (2 * n + j) ** (i + 1)
        left, right = np.hstack([-j * xi, xi]), np.hstack([xi, j * xi])
        left, right = np.hstack([left, sign * left]), np.hstack([right, -sign * right])
        w = np.full(left.shape[1], float(n))  # 2n times the 1/2 of [s odd]
    else:
        psi = 2.0 * n * (-j) ** i / (2 * n + j) ** (i + 2)
        if output == "position_sq":
            left, w = sign * psi, -0.5 * (i + 1)
        else:
            left, w = np.hstack([psi, sign * psi]), 0.25 * np.concatenate([i + 1, -(i + 1)])
        right = left
    for arr in (left, right, w):
        arr.setflags(write=False)
    return output == "momentum", left, right, w


@dataclass(frozen=True)
class _Kernel:
    """Read-only columns, weights and level sums of one (n, N, outputs) kernel pass.

    Column i holds R_{K[i]} at the phase d[i] * tau. The columns are the
    d-groups in one order whatever the outputs, [even d | odd d], the even
    ones only where <x^2> is asked. psi_m holds the multipliers 2n d of
    psi = 2n theta_d, in the same order, as an array of its own. Three
    column products are formed from them (`_products`): "cos" is R times
    cos psi on the d-columns, "sin" R times sin psi and "rate" R' times
    cos psi on the odd ones alone. Output j is sum over (name, cols, w)
    in terms[j] of product[:, cols] @ w, plus the level sum forms[j] over
    a_l = cos(m_l tau) and b_l = sin(m_l tau) at the level multipliers
    m_l = 2n l + l^2, l = -N..N. cols is a slice: the last N columns of
    any [even | odd] layout (<x>), or every column (<x^2>, and the
    odd-only "sin" and "rate"). Each output therefore reads the same
    columns in the same order, and the same level sum, as the kernel of
    that output alone.
    """

    d: np.ndarray  # the Dirichlet multipliers
    psi_m: np.ndarray
    K: np.ndarray
    flip: np.ndarray  # -2 where K is even (R_K(phi + pi) = -R_K(phi)), else 0
    a2: np.ndarray  # R_K(x) = K + a2 x^2 + a4 x^4 + O(x^6)
    a4: np.ndarray
    odd_d: slice  # the plan's odd d-columns, after its even ones
    terms: tuple[tuple[tuple[str, slice, np.ndarray], ...], ...]
    blocks: frozenset[str]  # the products that the outputs read
    m: np.ndarray  # the level multipliers
    forms: tuple[tuple, ...]  # `_level_form` per output
    const: np.ndarray  # zeros: the level sums hold <x^2>'s diagonal
    bits: int  # every d and m is below 2**bits
    rows: int  # instants per block: the Dirichlet, psi and level phases each hold at most _CHUNK elements


@functools.lru_cache(maxsize=16)
def _kernel(n: int, N: int, outputs: tuple[str, ...]) -> _Kernel:
    """The columns that `outputs` need, in the fixed order, and one weight set and level sum per output.

    The outputs are the brackets of <x> ("position"), <x^2>
    ("position_sq") and the tau-derivative of <x> ("momentum"). <x> and
    <p> take the odd d-columns, <x^2> every d = 1..2N. Their Hankel parts
    are level sums of the length that `_series_terms` gives, so the
    packet is one inside the series rule.
    """
    series = _series_terms(n, N)
    odd_d = np.arange(1.0, 2 * N + 1, 2)
    even_d = np.arange(2.0, 2 * N + 1, 2) if "position_sq" in outputs else np.empty(0)
    d = np.concatenate([even_d, odd_d])
    odd = slice(-N or None, None)  # the last N columns of any [even | odd] layout (all where N = 0: none)
    x_d = -1.0 / odd_d**2  # <x> weights
    j = np.arange(-N, N + 1.0)
    weights = {  # the Toeplitz part of each output: its d-columns
        "position": (("cos", odd, x_d),),
        "position_sq": (("cos", slice(None), (-1.0) ** d / d**2),),
        "momentum": (("sin", slice(None), -2.0 * n * odd_d * x_d), ("rate", slice(None), x_d * odd_d)),
    }
    K = 2 * N + 1 - d
    arrays = {
        "d": d,
        "psi_m": 2 * n * d,
        "K": K,
        "flip": -2.0 * (K % 2 == 0),
        "a2": K * (1 - K**2) / 6,
        "a4": K * (K**2 - 1) * (3 * K**2 - 7) / 360,
        "m": (j + 2 * n) * j,
        "const": np.zeros(len(outputs)),
    }
    terms = tuple(weights[out] for out in outputs)
    for arr in (*arrays.values(), *(w for ts in terms for _, _, w in ts)):
        arr.setflags(write=False)
    return _Kernel(
        **arrays,
        odd_d=slice(len(even_d), None),
        terms=terms,
        blocks=frozenset(name for ts in terms for name, _, _ in ts),
        forms=tuple(_level_form(n, N, out, series) for out in outputs),
        bits=(4 * n * N).bit_length(),  # one bound for every kernel of (n, N), levels included
        rows=_block_rows(max(len(d), len(arrays["m"]))),
    )


def _dirichlet(ker: _Kernel, c: np.ndarray, rate: slice | None):
    """R_K at phi = 2 pi c, for |c| < 3/4, and R_K' on the columns `rate` of c.

    c holds every d-column of ker, and rate is a slice from some column of
    c to its last, or None for no R'. With j = rint(2c), x = phi - j pi =
    pi (2c - j) takes one rounding, |x| <= pi/2 and R_K(phi) =
    (-1)^(j (K - 1)) R_K(x). R_K(x) and R_K'(x) are rational in
    t_x = tan(x/2) and t_k = tan(K x/2):

        R   = t_k (1 + t_x^2) / (t_x (1 + t_k^2))
        R'  = (1 + t_x^2) (K (1 - t_k^2) t_x - (1 - t_x^2) t_k) / (2 t_x^2 (1 + t_k^2))

    and where |K x| < _TAYLOR they come from their Taylor series instead,
    evaluated on those elements alone. Every step is elementwise, so a
    column's values do not depend on the other columns of c.
    """
    K, flip, a2, a4 = ker.K, ker.flip, ker.a2, ker.a4
    u = 2.0 * c  # a new array: c is left as it is
    j = np.rint(u)
    u -= j
    u *= 0.5 * math.pi  # x/2
    sign = j  # (-1)^(j (K - 1)) = 1 + flip j^2 for |j| <= 1, in place
    sign *= j
    sign *= flip
    sign += 1.0
    tk = u * K  # K x/2
    a = np.abs(tk)  # later 1 + t_x^2
    small = None
    if np.minimum.reduce(a, axis=None, initial=np.inf) < 0.5 * _TAYLOR:
        small = np.flatnonzero(a < 0.5 * _TAYLOR)
        col = small % len(K)
        x = 2.0 * u.reshape(-1)[small]
        x2 = x * x
        sign_s = sign.reshape(-1)[small]
        taylor = sign_s * (K[col] + x2 * (a2[col] + x2 * a4[col]))
        if rate is not None:
            taylor_rate = sign_s * (x * (2.0 * a2[col] + 4.0 * x2 * a4[col]))
    tx = np.tan(u, out=u)
    np.tan(tk, out=tk)
    if small is not None:
        tx.reshape(-1)[small] = 1.0  # t_x = 0 only where K x = 0
    np.multiply(tx, tx, out=a)
    a += 1.0
    b = tk * tk
    b += 1.0
    if rate is not None:
        rb, ra, rx, rk, rK = b, a, tx, tk, K
        if rate.start:  # views on the columns of R'
            rb, ra, rx, rk, rK = b[:, rate], a[:, rate], tx[:, rate], tk[:, rate], K[rate]
        num = np.subtract(2.0, rb)  # 1 - t_k^2
        num *= rK
        num *= rx
        v = np.subtract(2.0, ra)  # 1 - t_x^2
        v *= rk
        num -= v
    b *= tx
    a /= b
    a *= sign  # sign (1 + t_x^2) / (t_x (1 + t_k^2)), common to R and R'
    R = tk
    R *= a
    dR = None
    if rate is not None:
        dR = num
        dR *= ra
        dR /= rx
        dR *= 0.5
    if small is not None:
        R.reshape(-1)[small] = taylor
        if rate is not None:
            at = col >= (rate.start or 0)
            dR[small[at] // len(K), col[at] - (rate.start or 0)] = taylor_rate[at]
    return R, dR


def _products(ker: _Kernel, h, l, rows: int) -> dict:
    """The column products that ker's outputs read (ker.blocks) of one block, by name.

    "cos" is R cos psi on ker's d-columns, "sin" R sin psi and "rate"
    R' cos psi on the odd ones, ker.odd_d.
    """
    names = ker.blocks
    c = _phases(h, l, ker.d, ker.bits).reshape(rows, len(ker.d))
    R, dR = _dirichlet(ker, c, ker.odd_d if "rate" in names else None)
    psi = _phases(h, l, ker.psi_m, ker.bits).reshape(rows, len(ker.d))
    psi *= math.pi  # psi / 2, for the one tangent of `core._half_angle`
    cos, sin = np.empty(psi.shape), psi if "sin" in names else None
    _half_angle(psi, cos, sin)  # sin psi over psi
    odd, formed = ker.odd_d, {}
    if sin is not None:
        formed["sin"] = np.multiply(sin[:, odd], R[:, odd])
    if dR is not None:
        dR *= cos[:, odd] if odd.start else cos
        formed["rate"] = dR
    if "cos" in names:
        R *= cos
        formed["cos"] = R
    return formed


def _kernel_block(ker: _Kernel, h, l, out: np.ndarray) -> None:
    """The brackets of one block of instants from its split revival fraction
    h + l, into out: the column products that the outputs read, and the
    level sums over the level phases of `_level_phases`."""
    a, b = _level_phases(ker.m, ker.bits, h, l)
    feats = _products(ker, h, l, out.shape[1])
    for acc, terms, (sine, left, right, v) in zip(out, ker.terms, ker.forms):
        for i, (name, cols, w) in enumerate(terms):
            if i:
                np.add(acc, feats[name][:, cols] @ w, out=acc)
            else:
                np.matmul(feats[name][:, cols], w, out=acc)
        y = (b if sine else a) @ left
        if sine:
            y *= a @ right
        else:  # left is right
            y *= y
            z = b @ left
            z *= z
            y += z
        acc += y @ v


# --- dense quadratic forms ---------------------------------------------------


def _levels(N: int) -> tuple[np.ndarray, int]:
    """j = -N..N in the dense forms' parity order [even j | odd j], and the count of even j."""
    j = np.arange(-N, N + 1.0)
    even = j % 2 == 0
    return np.concatenate([j[even], j[~even]]), N + 1 - N % 2


def _form(n: int, N: int, kinds: tuple[str, ...]) -> tuple:
    """(rule, parts) per kind: the read-only blocks of each output's quadratic form.

    Built for `_dense`, whose plan keeps them, all in one buffer.

    Row j and column k stand for the levels n + j and n + k, j and k in
    the order of `_levels`; with d = j - k and w = 2n + j + k, the bracket
    of `_moments` is sum_jk X_jk (a_j a_k + b_j b_k) for the position kinds
    and sum_jk X_jk b_j a_k for the momentum kinds. X is the docstring's
    X/2, X2/2 or -G, or its quasi form, so each packet bracket equals the
    kernel's and a quasi form takes its packet form's layout. -G_jk is
    4 (n+j)(n+k) / (d w), one division of exact integers. Each part
    (left, right, B) is the block of X on the levels left (rows) by right
    (columns), slices of the parity order, and the rule says how
    `_dense_block` sums it:

    - "sym", sum over the parts of B_jk (a_j a_k + b_j b_k): the symmetric
      kinds. The <x> and quasi-position X vanish at even d, so they keep
      the (N_even x N_odd) block 2 X_eo alone, a quarter of X. Past two
      _CHUNKs, (2N+1)^2 > 16384 or N >= 64, either <x^2> keeps its upper block
      triangle [X_ee | 2 X_eo] on the even rows and X_oo on the odd ones,
      three quarters of X in two products; below, X whole, since there
      the second product costs more than the quarter it saves
      (DECISIONS.md, "Dense <p> and <x^2> past one chunk").
    - "anti", sum B_jk (b_j a_k - a_j b_k) over the even rows and odd
      columns, with B = X_eo: the antisymmetric momentum kinds, at every
      N. Their X vanishes at even d and X_oe = -X_eo^T, so this is the
      whole bracket from a quarter of X (DECISIONS.md, "Dense <p> on
      G_eo at every N").

    Doubling is exact, so every block holds the elements of one fill of
    X, or twice them. The blocks of all kinds are views of one buffer, so
    a plan's matrices are one allocation however they are split: past
    128 KiB glibc maps it once, and no long-lived block sits in the heap
    among the temporaries of the blocks of instants. Each block is filled
    in panels of rows of at most _CHUNK elements, so no (2N+1)^2
    temporary is made.
    """
    j, even = _levels(N)
    e, o, every = slice(even), slice(even, None), slice(None)
    layouts = []  # (kind, rule, (rows, columns, the doubled columns) per block)
    for kind in kinds:
        if kind.endswith("momentum"):
            rule, blocks = "anti", ((e, o, None),)
        elif not kind.endswith("position_sq"):
            rule, blocks = "sym", ((e, o, every),)
        elif len(j) ** 2 <= 2 * _CHUNK:
            rule, blocks = "sym", ((every, every, None),)
        else:
            rule, blocks = "sym", ((e, every, o), (o, o, None))
        layouts.append((kind, rule, blocks))
    buffer = np.zeros(sum(len(j[rows]) * len(j[cols]) for _, _, blocks in layouts for rows, cols, _ in blocks))
    forms, at = [], 0
    for kind, rule, blocks in layouts:
        parts = []
        for left, right, double in blocks:
            rows, cols = j[left], j[right]
            X = buffer[at : at + len(rows) * len(cols)].reshape(len(rows), len(cols))
            at += X.size
            step = _block_rows(len(cols))
            for lo in range(0, len(rows), step):
                _fill(X[lo : lo + step], n, rows[lo : lo + step], cols, kind)
            if double is not None:
                X[:, double] *= 2.0  # X_eo plus the transpose of X_oe, exactly
            X.setflags(write=False)
            parts.append((left, right, X))
        forms.append((rule, tuple(parts)))
    buffer.setflags(write=False)
    return tuple(forms)


def _fill(X: np.ndarray, n: int, j: np.ndarray, k: np.ndarray, kind: str) -> None:
    """Write one form's X_jk, rows j by columns k, into the zeroed X: per observable,
    its Toeplitz part in d = j - k plus hankel (0 for a quasi_ kind) times its
    Hankel part in w = 2n + j + k. The momentum is -2 d w times the position,
    for the packet (2n + 2k)(2n + 2j) / (d w), a quotient of exact integers."""
    d = np.subtract.outer(j, k)
    w = np.add.outer(j, k)
    w += 2.0 * n
    observable = kind.removeprefix("quasi_")
    hankel = float(observable == kind)
    pair = d != 0 if observable == "position_sq" else d % 2 != 0
    d, w = d[pair], w[pair]
    if observable == "position":
        X[pair] = 0.5 * hankel / w**2 - 0.5 / d**2
    elif observable == "position_sq":
        X[pair] = np.where(d % 2 == 0, 0.5, -0.5) * (1.0 / d**2 - hankel / w**2)
    else:  # momentum
        X[pair] = (w - hankel * d) * (w + hankel * d) / (d * w)


@dataclass(frozen=True)
class _Dense:
    """Read-only level multipliers and matrix blocks of one (n, N, outputs) dense pass.

    The levels come in the parity order of `_levels`. Each output carries
    the (rule, parts) of `_form`: the blocks of its matrix that it reads,
    each with the level slices (left, right) of its rows and columns.
    """

    m: np.ndarray  # 2n j + j^2: u_j^2 - n^2, so a_j = cos(m_j tau)
    forms: tuple[tuple[str, tuple[tuple[slice, slice, np.ndarray], ...]], ...]  # `_form` per output
    const: np.ndarray
    bits: int  # every m is below 2**bits
    rows: int  # instants per block: the stacked [a; b] and each product hold at most _CHUNK elements


@functools.lru_cache(maxsize=16)
def _dense(n: int, N: int, outputs: tuple[str, ...]) -> _Dense:
    """The multipliers and the blocks of `_form` per output; <x^2> adds its diagonal as a constant."""
    j, _ = _levels(N)
    m = (j + 2 * n) * j
    diagonal = -0.125 * float(np.sum(1.0 / (np.arange(-N, N + 1.0) + n) ** 2))
    const = np.array([diagonal if out == "position_sq" else 0.0 for out in outputs])
    m.setflags(write=False)
    const.setflags(write=False)
    return _Dense(
        m=m,
        forms=_form(n, N, outputs),
        const=const,
        bits=(2 * n * N + N * N).bit_length(),
        rows=_block_rows(2 * len(m)),
    )


def _dense_block(plan: _Dense, h, l, out: np.ndarray) -> None:
    """The brackets of one block from its split revival fraction h + l, into
    out. The level phases ab of `_level_phases`, a = cos(m tau) and
    b = sin(m tau), are read as the rows of a stacked over the rows of b:
    one matrix product per output and block of its form, times the columns
    it pairs with: the same columns for a symmetric form, summed over each
    instant's a and b rows, and the swapped odd columns [b_o; a_o] for an
    antisymmetric one, each instant's b row less its a row."""
    ab = _level_phases(plan.m, plan.bits, h, l)
    size = out.shape[1]
    rows = ab.reshape(-1, ab.shape[2])
    for acc, (rule, parts) in zip(out, plan.forms):
        left, right, X = parts[0]
        if rule == "sym":  # sum_jk X_jk (a_j a_k + b_j b_k), block by block
            y = np.vecdot(rows[:, left] @ X, rows[:, right])
            for left, right, X in parts[1:]:
                y += np.vecdot(rows[:, left] @ X, rows[:, right])
            np.add(y[:size], y[size:], out=acc)
        else:  # "anti": sum_eo X_eo (b_e a_o - a_e b_o), np.vecdot within 2 eps of p_n (DECISIONS.md)
            y = np.vecdot((rows[:, left] @ X).reshape(2, size, X.shape[1]), ab[::-1, :, right])
            np.subtract(y[1], y[0], out=acc)  # (b_e @ X) a_o - (a_e @ X) b_o


@functools.lru_cache(maxsize=64)
def _scales(a: float, hbar: float, N: int, outputs: tuple[str, ...]) -> tuple:
    """(offset, factor / (2N+1)) per output, by observable: its value is offset + that * (const + bracket).

    Cached apart from the plans, which both paths key on (n, N, outputs)
    alone, so that a call does not work them out again.
    """
    scale = {
        "position": (a / 2.0, 4.0 * a / math.pi**2),
        "position_sq": (a**2 / 3.0, 4.0 * a**2 / math.pi**2),
        # mu w_b (4a/pi^2) = 2 hbar / a scales the tau-derivative of the <x> bracket
        "momentum": (0.0, 2.0 * hbar / a),
    }
    scales = (scale[out.removeprefix("quasi_")] for out in outputs)
    return tuple((offset, factor / (2 * N + 1)) for offset, factor in scales)


_instants = _LastInstants()  # the three brackets of the last array of instants


def _moments(cfg: WellConfig, spec: PacketSpec, t, outputs: tuple[str, ...]) -> list:
    """Each output at t from one loop over the blocks; np.float64 for a scalar t.

    The engine rule: the dense quadratic forms serve a quasi series, a
    packet whose (2N+1)^2 matrix fits in _PANELS blocks of _CHUNK elements
    (N <= 127), and a packet whose level sums `_series_terms` would cut
    past _SERIES_CAP (n < 2.05 N); the Dirichlet kernel serves the packet
    moments of every other packet. The high part of frac(t / T_rev) keeps
    53 - bits bits for `_phases`. For an array t of packet moments, the
    pass takes all three outputs, and their brackets are kept, read-only,
    with the plan's const (`core._LastInstants`) under the packet, the
    engine and the revival rate; a later call on the same contents only
    scales the rows it asks for. A scalar or 0-d t, and a quasi series,
    keep nothing.
    """
    dense = spec.size**2 <= _PANELS * _CHUNK or outputs[0] not in _PACKET or _series_terms(spec.n, spec.N) is None
    tag = kept = None
    passed = outputs
    if isinstance(t, np.ndarray) and t.ndim and outputs[0] in _PACKET:
        key = (spec.n, spec.N, dense, cfg._revival_rate)
        tag, kept = _instants.find(key, t, spec.size)
        if tag is not None:
            passed = _PACKET
    if kept is None:
        plan = (_dense if dense else _kernel)(spec.n, spec.N, passed)
        step = plan.rows
        hi, lo = _fraction(cfg._revival_rate, t)  # raises ValueError before t_arr can overflow
        t_arr = np.asarray(t, dtype=float)
        size, shape = t_arr.size, t_arr.shape
        h, l = _split(hi, max(plan.bits, 1))
        l = l + lo
        brackets = np.empty((len(passed), size))
        blocks = [(h, l, brackets)]  # a t that fits in one block, a scalar included
        if size > step:
            hf, lf = h.reshape(-1), l.reshape(-1)
            blocks = (
                (hf[i : i + step], lf[i : i + step], brackets[:, i : i + step])
                for i in range(0, size, step)
            )
        block = _dense_block if dense else _kernel_block
        for h_i, l_i, out in blocks:
            block(plan, h_i, l_i, out)
        kept = plan.const, brackets.reshape((len(passed),) + shape)
        if tag is not None:
            kept[1].setflags(write=False)
            _instants.keep(key, tag, kept)

    const, brackets = kept
    if passed is not outputs:  # the rows of the kept pass that outputs read
        at = [_PACKET.index(out) for out in outputs]
        const, brackets = const[at], brackets[at]
    scales = _scales(cfg.a, cfg.hbar, spec.N, outputs)
    return [offset + f * (c + b) for (offset, f), c, b in zip(scales, const, brackets)]


def packet_moments(cfg: WellConfig, spec: PacketSpec, t, kinds=_PACKET) -> tuple:
    """<x>, <x^2> and <p> at t from one kernel pass, in the order of `kinds`.

    kinds names any of "position", "position_sq" and "momentum". The pass
    evaluates the union of their kernel columns once, so it costs about
    as much as the widest of the matching exp_x, exp_x2 and exp_p calls.
    Each value equals that call's, bit for bit, for a scalar or an array
    t, and is shaped like t.
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

    At t = 0 every R_K' and every sin(2n theta_d) is exactly zero, as is
    every b_j of the dense forms, so the value there is exactly zero, here
    and in `packet_moments`.
    """
    return _moments(cfg, spec, t, ("momentum",))[0]


def exp_p2(cfg: WellConfig, spec: PacketSpec) -> float:
    """Packet squared-momentum mean, constant in time.

    (pi hbar / a)^2 * mean of (n+m)^2 = p_n^2 (1 + (N + N^2)/(3 n^2)).
    """
    p_n = spec.n * math.pi * cfg.hbar / cfg.a
    return p_n**2 * (1.0 + (spec.N + spec.N**2) / (3.0 * spec.n**2))


# --- first-principles oracles ------------------------------------------------


def _grid_expectation(cfg, spec, t, kind):
    x = np.linspace(0.0, cfg.a, _ORACLE_POINTS)
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
    method: str = "grid",
) -> float:
    """First-principles packet expectation value, for validating closed forms.

    method="grid" builds the wavefunction on a fixed uniform quadrature
    grid of 4096 samples (`quantum._ORACLE_POINTS`) and applies the
    operator numerically (position powers pointwise, momentum via finite
    differences). method="spectral"
    sums analytic matrix elements over all level pairs with their Bohr
    phases; it is exact up to rounding and independent of the closed
    forms' term bookkeeping. t is one instant: an array t raises
    ValueError.
    """
    _check_instant(t)
    if kind not in OBSERVABLES:
        raise ValueError(f"kind must be one of {OBSERVABLES}, got {kind!r}")
    if method == "spectral":
        return _spectral_expectation(cfg, spec, t, kind)
    if method != "grid":
        raise ValueError(f"method must be 'grid' or 'spectral', got {method!r}")
    return _grid_expectation(cfg, spec, t, kind)


# --- quasi-quantum series ----------------------------------------------------


def quasi_exp(cfg: WellConfig, spec: PacketSpec, t, kind: str):
    """Packet series with classical Fourier amplitudes in place of matrix elements.

    kind is "position", "position_sq" or "momentum". Each level pair keeps
    its Bohr frequency d (1 + s/(2n)) w_n, and its matrix element keeps only
    its Toeplitz part, the classical amplitude of harmonic d (-4a/(pi^2 d^2)
    at odd d about a/2 for <x>, (-1)^d 4a^2/(pi^2 d^2) about a^2/3 for
    <x^2>); the momentum is mu d/dt of the position series. So the deviation
    from the Fejer average is the effect of unequal level spacing alone, and
    the one from the packet mean, the Hankel part, is at most, at all times,

        B_A  = (4a/pi^2) N(N+1)/((2N+1)(2n-2N+1)^2), about a N/(2 pi^2 n^2), for <x>,
        B_p  = (2 hbar/a) N(N+1)/(3(2n-2N+1)), about p_n N^2/(3 pi n^2), for <p>,
        B_x2 = a^2/(2 pi^2 (n-N)^2) + (4a^2/pi^2) N/(2n-2N+1)^2 for <x^2>.

    Every series takes the dense forms, on its packet form's layout: past
    N = 127, O(N^2) per instant and a plan of a quarter of (2N+1)^2 float64,
    three quarters for <x^2> (DECISIONS.md, "The Dirichlet kernel serves
    the three packet moments only").
    """
    if kind not in _PACKET:
        raise ValueError(f"kind must be one of {_PACKET}, got {kind!r}")
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
    """second - mean^2 clamped at 0; below -1e-12 scale it raises VarianceError.

    A scalar variance (np.float64 is a float) is guarded and clamped as a
    Python float, with the IEEE operations of the array path and without
    its numpy calls; the clamp keeps np.maximum's results, 0.0 for -0.0
    and nan for nan.
    """
    var = second - mean * mean
    if isinstance(var, float):
        var = float(var)
        if var < -1e-12 * scale:
            raise VarianceError(f"variance {var} below round-off guard")
        return 0.0 if var <= 0.0 else var
    if np.count_nonzero(var < -1e-12 * scale):
        raise VarianceError(f"variance {np.min(var)} below round-off guard")
    return np.maximum(var, 0.0)


def uncertainty_product(cfg: WellConfig, spec: PacketSpec, t):
    """Delta-x times Delta-p for the packet; never below hbar/2."""
    x, x2, p = _moments(cfg, spec, t, _PACKET)
    p2 = exp_p2(cfg, spec)
    var_x, var_p = _variance(x, x2, cfg.a**2), _variance(p, p2, p2)
    if isinstance(var_x, float):  # the same IEEE roots as np.sqrt, without its scalar dispatch
        return np.float64(math.sqrt(var_x) * math.sqrt(var_p))
    return np.sqrt(var_x) * np.sqrt(var_p)


def expectation_sample(cfg: WellConfig, spec: PacketSpec, t: float) -> ExpectationSample:
    """All moments of the packet at one instant t in one record, from one kernel pass.

    An array t raises TypeError before any moment is evaluated.
    """
    if not isinstance(t, float) and np.ndim(t) != 0:  # np.ndim costs a float about 1 us
        raise TypeError(f"t must be one instant, got an array of shape {np.shape(t)}")
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

"""Privacy core: l1 clipping, Laplace noise calibration and sampling, and
an empirical audit of the local-DP log-density bound.

The mechanism privatizes a latent vector v by clipping it into the l1 ball
of radius C and adding i.i.d. Laplace(0, b) noise per coordinate. Any two
clipped inputs are at l1 distance at most 2C, so b = 2C / epsilon bounds
the log-density ratio of the outputs by epsilon. The 2C constant is a
derivation from that worst-case distance, validated empirically by
``verify_dp_bound`` rather than taken on faith.

epsilon = math.inf encodes the non-private setting: the scale is exactly 0
and ``privatize`` degenerates to clipping alone, bit for bit. The noise
scale itself is a plain float where 0 means "no noise".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import Array, Rng, as_f64, clip_rows_l1

#: Absolute tolerance for clip-norm and bound checks; covers float64 rounding.
BOUND_TOL = 1e-9


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget epsilon (finite positive or math.inf) and clip radius.

    At a finite epsilon the noise scale b = 2C / epsilon must be a positive
    finite float: b = 0 (underflow) would add no noise at all, and b = inf
    (overflow) would turn every latent into noise.
    """

    epsilon: float
    clip_c: float

    def __post_init__(self):
        if math.isnan(self.epsilon) or self.epsilon <= 0:
            raise ValueError("epsilon must be positive or infinite")
        if not math.isfinite(self.clip_c) or self.clip_c <= 0:
            raise ValueError("clip_c must be a positive finite float")
        b = calibrate_scale(self)
        if not self.non_private and not 0.0 < b < math.inf:
            raise ValueError(
                f"epsilon {self.epsilon!r} with clip_c {self.clip_c!r} gives noise scale "
                f"b = 2 * clip_c / epsilon = {b!r}; b must be positive and finite"
            )

    @property
    def non_private(self) -> bool:
        return math.isinf(self.epsilon)


def clip_l1(v: Array, clip_c: float) -> Array:
    """Rescale v into the l1 ball of radius clip_c.

    Returns v * min(1, clip_c / ||v||_1): direction is preserved, vectors
    already inside the ball come back bit-identical, and the operation is
    idempotent up to rounding. This is ``numcore.clip_rows_l1`` on one row.
    """
    if clip_c <= 0:
        raise ValueError("clip_c must be positive")
    v = as_f64(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("clip_l1 requires finite input")
    return clip_rows_l1(v.reshape(1, -1), clip_c)[0].reshape(v.shape)


def calibrate_scale(params: PrivacyParams) -> float:
    """Noise scale b for the clipped-input Laplace mechanism.

    b = 2 * clip_c / epsilon for finite epsilon (two clipped vectors are at
    l1 distance at most 2 * clip_c); b = 0 for the non-private setting.
    """
    if params.non_private:
        return 0.0
    return 2.0 * params.clip_c / params.epsilon


def sample_laplace(b: float, dim: int, rng: Rng) -> Array:
    """dim i.i.d. Laplace(0, b) draws via the inverse CDF.

    x = -b * sgn(u) * ln(1 - 2|u|) for u uniform in (-1/2, 1/2). b = 0
    returns the zero vector without consuming randomness.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if b < 0:
        raise ValueError("noise scale must be non-negative")
    if b == 0.0:
        return np.zeros(dim)
    u = rng.random(dim) - 0.5
    # u = -0.5 has probability 2**-53; keep the log argument positive.
    inner = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(np.float64).tiny)
    return -b * np.sign(u) * np.log(inner)


def privatize(latent: Array, params: PrivacyParams, rng: Rng | None) -> Array:
    """Clip, then add calibrated Laplace noise.

    With epsilon = inf this is clip_l1 exactly (no addition is performed,
    so even signed zeros survive) and ``rng`` is not used, so it may be None.
    """
    clipped = clip_l1(latent, params.clip_c)
    b = calibrate_scale(params)
    if b == 0.0:
        return clipped
    return clipped + sample_laplace(b, clipped.shape[0], rng)


def log_density(y: Array, center: Array, b: float) -> float:
    """Log density of the product Laplace(center_i, b) distribution at y."""
    if b <= 0:
        raise ValueError("log_density requires b > 0")
    y = as_f64(y)
    center = as_f64(center)
    if y.shape != center.shape:
        raise ValueError("log_density: shape mismatch")
    return float(np.sum(-np.log(2.0 * b) - np.abs(y - center) / b))


@dataclass(frozen=True)
class BoundCheck:
    log_ratio: float
    ok: bool


def verify_dp_bound(u: Array, v: Array, y: Array, params: PrivacyParams) -> BoundCheck:
    """Check |ln p(y | u) - ln p(y | v)| <= epsilon for one probe point.

    u and v must already be clipped; unclipped inputs are rejected so the
    check cannot silently test a weaker mechanism. An infinite epsilon is
    vacuously ok.
    """
    if params.non_private:
        return BoundCheck(log_ratio=0.0, ok=True)
    u = as_f64(u)
    v = as_f64(v)
    limit = params.clip_c + BOUND_TOL
    if np.abs(u).sum() > limit or np.abs(v).sum() > limit:
        raise ValueError("verify_dp_bound requires inputs clipped to clip_c")
    b = calibrate_scale(params)
    ratio = log_density(y, u, b) - log_density(y, v, b)
    return BoundCheck(log_ratio=ratio, ok=abs(ratio) <= params.epsilon + BOUND_TOL)


@dataclass
class BoundSuiteReport:
    epsilon: float
    trials: int
    max_abs_log_ratio: float
    violations: int
    tightness: float  # best sampled |log_ratio| / epsilon over antipodal pairs
    ok: bool


#: Values in one (rows, dim) array of a ``run_bound_suite`` block: 256 KiB
#: of float64, so a block's arrays stay in cache at any dim.
_BLOCK_VALUES = 2**15


def _random_clipped_batch(direction: Rng, radius: Rng, n: int, dim: int, clip_c: float) -> Array:
    """The next n random vectors inside (or on) the l1 ball, biased toward
    the surface.

    Row i uses only the i-th dim normals of ``direction`` and the i-th
    uniform of ``radius``, and numpy's generators yield the same values
    whether drawn whole or in pieces, so drawing n1 and then n2 rows from
    the same two streams gives exactly the rows of one n1 + n2 draw.
    """
    raw = direction.normal(0.0, 1.0, (n, dim))
    norms = np.maximum(np.abs(raw).sum(axis=1), 1e-12)
    scale = clip_c * (0.5 + 0.75 * radius.random(n))  # up to 1.25C, then clipped
    return clip_rows_l1(raw * (scale / norms)[:, None], clip_c)[0]


def _ball_streams(rng: Rng) -> tuple[Rng, Rng]:
    return rng.derive("dir"), rng.derive("radius")


def _random_pair_ratios(g: Rng, n: int, dim: int, c: float, b: float, rows: int):
    """|log-ratio| of n random (u, v, y) triples, ``rows`` triples a block.

    Probes y sit around u or v (on-distribution) or uniformly over a box,
    chosen by the triple's global index mod 3.
    """
    u_streams, v_streams = _ball_streams(g.derive("u")), _ball_streams(g.derive("v"))
    noise_stream, box_stream = g.derive("noise"), g.derive("box")
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        u = _random_clipped_batch(*u_streams, m, dim, c)
        v = _random_clipped_batch(*v_streams, m, dim, c)
        noise = sample_laplace(b, m * dim, noise_stream).reshape(m, dim)
        box = box_stream.uniform(-3.0 * c, 3.0 * c, (m, dim))
        style = np.arange(lo, lo + m) % 3
        y = np.where((style == 0)[:, None], u + noise, np.where((style == 1)[:, None], v + noise, box))
        yield np.abs((np.abs(y - v).sum(axis=1) - np.abs(y - u).sum(axis=1)) / b)


def _antipodal_ratios(ga: Rng, n: int, dim: int, c: float, b: float, rows: int):
    """|log-ratio| of n antipodal surface pairs (u, -u) probed far out along
    u, where the ratio is extremal; even global indices put u on an axis,
    odd ones on a random sign pattern."""
    axis_stream, sign_stream, reach_stream = ga.derive("axis"), ga.derive("signs"), ga.derive("reach")
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        axes = axis_stream.integers(0, dim, m)
        signs = np.where(sign_stream.random((m, dim)) < 0.5, -1.0, 1.0)
        ua = np.zeros((m, dim))
        on_axis = np.arange(lo, lo + m) % 2 == 0
        ua[on_axis, axes[on_axis]] = c
        ua[~on_axis] = signs[~on_axis] * (c / dim)
        reach = 1.0 + 9.0 * reach_stream.random(m)  # probe beyond the ball
        ya = ua * reach[:, None]
        yield np.abs((np.abs(ya + ua).sum(axis=1) - np.abs(ya - ua).sum(axis=1)) / b)


def run_bound_suite(
    params: PrivacyParams,
    dim: int,
    trials: int,
    rng: Rng,
    noise_scale: float | None = None,
) -> BoundSuiteReport:
    """Randomized audit of the DP bound over ``trials`` (u, v, y) triples.

    Probes y are drawn on-distribution around u or v, uniformly over a box,
    and far out along antipodal directions where the ratio is extremal.
    The bulk runs vectorized; a 100-triple slice is replayed through the
    public ``verify_dp_bound`` so the suite cannot drift from its
    semantics. ``noise_scale`` overrides the calibrated b (test hook for
    demonstrating what a miscalibrated mechanism does to the bound); the
    report's ok flag is violations == 0.

    The bulk is drawn and scored in blocks of max(1, 2**15 // dim) rows, so
    memory does not grow with ``trials``. The report is the one a single
    whole-array pass gives, bit for bit: each stream is derived once and
    drawn block by block, which yields the same values as one draw; the
    probe style and the antipodal parity follow the global trial index;
    each row's l1 sums are the same row reductions; and the blocks combine
    by a running max and a running count, both exact.
    """
    if params.non_private:
        raise ValueError("nothing to verify for epsilon = inf")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if noise_scale is not None and not (math.isfinite(noise_scale) and noise_scale > 0):
        raise ValueError("noise_scale must be positive and finite")
    b = calibrate_scale(params) if noise_scale is None else float(noise_scale)
    c = params.clip_c
    eps = params.epsilon
    rows = max(1, _BLOCK_VALUES // dim)

    # one in eight trials stresses antipodal surface pairs with far probes
    n_antipodal = max(1, trials // 8)
    n_random = trials - n_antipodal

    g = rng.derive("suite")
    max_ratio = top_antipodal = np.float64(0.0)  # every |ratio| is >= 0
    violations = 0

    def score(ratios: Array) -> np.float64:
        nonlocal max_ratio, violations
        block_max = ratios.max()
        max_ratio = np.maximum(max_ratio, block_max)  # propagates NaN, as one max would
        violations += int((ratios > eps + BOUND_TOL).sum())
        return block_max

    for ratios in _random_pair_ratios(g, n_random, dim, c, b, rows):
        score(ratios)
    for ratios in _antipodal_ratios(g.derive("antipodal"), n_antipodal, dim, c, b, rows):
        top_antipodal = np.maximum(top_antipodal, score(ratios))
    max_ratio = float(max_ratio)
    tight = float(top_antipodal / eps)

    if noise_scale is None:
        audit = PrivacyParams(epsilon=eps, clip_c=c)
        spot = g.derive("spot")
        n_spot = min(100, trials)
        su = _random_clipped_batch(*_ball_streams(spot.derive("u")), n_spot, dim, c)
        sv = _random_clipped_batch(*_ball_streams(spot.derive("v")), n_spot, dim, c)
        sy = su + sample_laplace(b, n_spot * dim, spot.derive("noise")).reshape(n_spot, dim)
        for i in range(n_spot):
            check = verify_dp_bound(su[i], sv[i], sy[i], audit)
            if not check.ok:
                violations += 1
            max_ratio = max(max_ratio, abs(check.log_ratio))

    return BoundSuiteReport(
        epsilon=eps,
        trials=trials,
        max_abs_log_ratio=max_ratio,
        violations=violations,
        tightness=tight,
        ok=violations == 0,
    )

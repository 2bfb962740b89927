"""Scaled underdamped Langevin chain with an exact per-step Gaussian kernel.

One step of size delta integrates

    dv = -gamma A v dt - u g dt + sqrt(2 gamma u A) dB,   dx = v dt

exactly, with the gradient g frozen at the step's start. Every drift and
covariance block is a function of the single SPD matrix A = V diag(a) V^T,
so in eigen-coordinates y = V^T x, w = V^T v, h = V^T g the step splits
into one independent (position, velocity) pair per eigenvalue a. With
s = gamma a d (writing d for delta) each pair moves as

    mean_w  = e^{-s} w - u (1 - e^{-s}) / (gamma a) h
    mean_y  = y + (1 - e^{-s}) / (gamma a) w - u (s - (1 - e^{-s})) / (gamma a)^2 h
    cov_ww  = u (1 - e^{-2s})
    cov_yw  = u (1 - e^{-s})^2 / (gamma a)
    cov_yy  = 2u (s - 2 (1 - e^{-s}) + (1 - e^{-2s})/2) / (gamma a)^2

The covariance does not depend on the state, and the cross term is
structurally nonzero, so each pair is drawn jointly through its closed-form
lower 2x2 Cholesky factor. A step therefore costs two changes of basis
(the gradient in, the new state out) plus length-d arithmetic. Each is a
product with V for a dense A, and an O(d) indexing for a diagonal A
(the unscaled A = I included), whose V is a permutation.

All chains of a run move as one batch: one step cache, one (C, 2, d)
array of (y; w) rows, and per step one ``grad_oracle`` call on the (C, d)
positions, one update and one guard check. ``step``, ``run_chain`` and
``coupled_pair_run`` are batches of one, one and two chains. Chain c
draws its noise from its own generator in blocks of K steps; a (K, 2, d)
draw is the same stream as K (2, d) draws, and K keeps a block of the
batch within NOISE_BLOCK_DOUBLES. A chain's states depend on neither C
nor K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite, NumericalBlowup
from .spd import SymMatrix
from .targets import InitSpec, TargetModel
from .tuner import ScalingConfig

#: Coordinates beyond this magnitude abort the chain instead of overflowing.
BLOWUP_GUARD = 1e12
#: Step noise is drawn in blocks of at most this many doubles (256 KiB) per batch.
NOISE_BLOCK_DOUBLES = 32768


@dataclass(frozen=True, eq=False)
class ChainState:
    """Position and velocity of one chain."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.shape != v.shape or x.ndim != 1:
            raise InvalidInput("x and v must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise InvalidInput("chain state has non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.x.size


@dataclass(frozen=True, eq=False)
class KernelMoments:
    """Exact mean and covariance blocks of one frozen-gradient step."""

    mean_x: np.ndarray
    mean_v: np.ndarray
    cov_xx: SymMatrix
    cov_vv: SymMatrix
    cov_xv: np.ndarray

    def joint_mean(self) -> np.ndarray:
        return np.concatenate([self.mean_x, self.mean_v])

    def joint_cov(self) -> SymMatrix:
        top = np.hstack([self.cov_xx.mat, self.cov_xv])
        bottom = np.hstack([self.cov_xv.T, self.cov_vv.mat])
        return SymMatrix(np.vstack([top, bottom]))


def _cov_xx_shape(s: np.ndarray) -> np.ndarray:
    """g(s) = s + 2 expm1(-s) - expm1(-2s)/2, switching to its series
    s^3/3 - s^4/4 + 7 s^5/60 below s = 1e-3 where the direct form cancels."""
    direct = s + 2.0 * np.expm1(-s) - 0.5 * np.expm1(-2.0 * s)
    series = s**3 / 3.0 - s**4 / 4.0 + 7.0 * s**5 / 60.0
    return np.where(s < 1e-3, series, direct)


def _modes(config: ScalingConfig, delta: float):
    """Eigenvectors V of A (shared with ``config.A.eig``) and the
    per-eigenvalue closed forms of one step.

    Returns ``(V, mean_w, mean_g, cov)``: ``mean_w`` and ``mean_g`` are
    (2, d) rows (y, w) weighting w and h in the step mean, ``cov`` holds
    the (3, d) rows cov_yy, cov_yw, cov_ww.
    """
    if not (delta > 0.0 and np.isfinite(delta)):
        raise InvalidInput("step size delta must be positive")
    pair = config.A.eig
    u = config.u
    ga = config.gamma * pair.values
    s = ga * delta
    one_minus = -np.expm1(-s)  # 1 - e^{-s}, accurate for small s
    mean_w = np.stack([one_minus / ga, np.exp(-s)])
    mean_g = np.stack([u * (s + np.expm1(-s)) / ga**2, u * one_minus / ga])
    cov = np.stack(
        [
            2.0 * u * _cov_xx_shape(s) / ga**2,
            (u / ga) * np.expm1(-s) ** 2,
            -u * np.expm1(-2.0 * s),
        ]
    )
    return pair.vectors, mean_w, mean_g, cov


@dataclass(frozen=True, eq=False)
class StepCache:
    """One step of fixed (A, gamma, u, delta), stored per eigenvalue of A.

    ``vectors`` holds the eigenvectors V of A as columns; when V is a
    permutation, ``perm`` (``config.A.eig.perm``) and its inverse ``unperm``
    index in place of products with V and V^T. Every other array is per
    mode, indexed by eigenvalue along its last axis:
    ``mean_w`` and ``mean_g`` are the (2, d) rows (y, w) by which the
    step mean weights the velocity w = V^T v and the gradient h = V^T g,
    and ``factor[i, j]`` is entry (i, j) of each mode's lower 2x2
    Cholesky factor of the state-independent (y, w) covariance:
    l_yy = sqrt(cov_yy), l_wy = cov_yw / l_yy, l_ww = sqrt(cov_ww - l_wy^2).
    """

    config: ScalingConfig
    delta: float
    dim: int
    vectors: np.ndarray
    perm: np.ndarray | None
    unperm: np.ndarray | None
    mean_w: np.ndarray
    mean_g: np.ndarray
    factor: np.ndarray


def _to_eigen(cache: StepCache, z: np.ndarray) -> np.ndarray:
    """z V: coordinates (..., d) into the eigenbasis of A."""
    return z @ cache.vectors if cache.perm is None else z.take(cache.perm, axis=-1)


def _from_eigen(cache: StepCache, z: np.ndarray) -> np.ndarray:
    """z V^T: eigen-coordinates (..., d) back to the original basis."""
    return z @ cache.vectors.T if cache.perm is None else z.take(cache.unperm, axis=-1)


def _mean(mean_w, mean_g, ns: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Step mean of the eigen-coordinate rows ``ns`` = (..., 2, d) = (y; w)
    under eigen-coordinate gradients h = g V of shape (..., d)."""
    out = mean_w * ns[..., 1:, :]
    out[..., 0, :] += ns[..., 0, :]
    out -= mean_g * h[..., None, :]
    return out


def kernel_moments(
    state: ChainState, grad: np.ndarray, config: ScalingConfig, delta: float
) -> KernelMoments:
    """Exact first and second moments of one frozen-gradient step, assembled
    with dense products by V: the reference the indexed step is tested against."""
    vectors, mean_w, mean_g, cov = _modes(config, delta)
    d = vectors.shape[0]
    g = np.asarray(grad, dtype=float)
    if g.shape != (d,) or state.dim != d:
        raise InvalidInput("state/gradient dimension does not match A")
    ns = np.stack([state.x, state.v]) @ vectors
    mean = _mean(mean_w, mean_g, ns, g @ vectors) @ vectors.T

    def assemble(coef: np.ndarray) -> np.ndarray:
        out = (vectors * coef) @ vectors.T
        return 0.5 * (out + out.T)

    return KernelMoments(
        mean_x=mean[0],
        mean_v=mean[1],
        cov_xx=SymMatrix(assemble(cov[0])),
        cov_vv=SymMatrix(assemble(cov[2])),
        cov_xv=assemble(cov[1]),
    )


def make_step_cache(config: ScalingConfig, delta: float) -> StepCache:
    """Eigenvectors of A plus per-mode mean coefficients and noise factors.

    Raises ``NotPositiveDefinite`` when some mode's 2x2 covariance does
    not factor in floating point, e.g. when delta is so small that
    cov_yy underflows; no jitter is added.
    """
    vectors, mean_w, mean_g, (c_yy, c_yw, c_ww) = _modes(config, delta)
    with np.errstate(all="ignore"):
        l_yy = np.sqrt(c_yy)
        l_wy = c_yw / l_yy
        schur = c_ww - l_wy**2
        factor = np.stack([[l_yy, np.zeros_like(l_yy)], [l_wy, np.sqrt(schur)]])
    if not (np.all(c_yy > 0.0) and np.all(schur > 0.0) and np.all(np.isfinite(factor))):
        raise NotPositiveDefinite(
            f"step covariance is not positive definite at delta = {delta:.3e}"
        )
    perm, unperm = config.A.eig.perm, None
    if perm is not None:
        unperm = np.empty_like(perm)
        unperm[perm] = np.arange(perm.size)  # argsort(perm); a sort would page in ~0.3 MB more
    return StepCache(
        config=config,
        delta=delta,
        dim=vectors.shape[0],
        vectors=vectors,
        perm=perm,
        unperm=unperm,
        mean_w=mean_w,
        mean_g=mean_g,
        factor=factor,
    )


def _checked_cache(inits, target: TargetModel, config: ScalingConfig, delta: float, n_steps: int):
    """The step cache of (config, delta), once n_steps, each init and A are checked."""
    if n_steps < 1:
        raise InvalidInput("n_steps must be at least 1")
    if any(init.x0.size != target.dim for init in inits):
        raise InvalidInput("init dimension does not match the target")
    cache = make_step_cache(config, delta)
    if cache.dim != target.dim:
        raise InvalidInput("scaling matrix dimension does not match the target")
    return cache


def _step_noise(cache: StepCache, rngs, n_steps: int):
    """Yield each step's correlated (y; w) noise, (len(rngs), 2, d), row c
    drawn from ``rngs[c]`` in blocks of K steps (see the module docstring)."""
    block = max(1, min(n_steps, NOISE_BLOCK_DOUBLES // (len(rngs) * 2 * cache.dim)))
    raw = np.empty((len(rngs), block, 2, cache.dim))
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        for z, rng in zip(raw, rngs):
            rng.standard_normal(out=z[:k])
        yield from (cache.factor * raw[:, :k, None]).sum(axis=-2).swapaxes(0, 1)


def _advance(cache: StepCache, ns: np.ndarray, g: np.ndarray, noise: np.ndarray, step_index=None):
    """One step of a batch from (y; w) rows ns (C, 2, d), gradients g (C, d) and
    noise (C or 1, 2, d); returns the new (y; w) and (x; v) rows. A coordinate
    beyond BLOWUP_GUARD, or a non-finite one (as a non-finite gradient always
    gives), raises ``NumericalBlowup`` at ``step_index``."""
    out = _mean(cache.mean_w, cache.mean_g, ns, _to_eigen(cache, g))
    out += noise
    xv = _from_eigen(cache, out)
    if not np.abs(xv).max() < BLOWUP_GUARD:
        if np.isfinite(g).all():
            raise NumericalBlowup("chain coordinate left the guarded region", step_index)
        raise NumericalBlowup("gradient oracle returned non-finite values", step_index)
    return out, xv


def step(
    state: ChainState, target: TargetModel, cache: StepCache, rng: np.random.Generator
) -> ChainState:
    """Advance one chain by one exact Gaussian step (one gradient call)."""
    if state.dim != cache.dim or target.dim != cache.dim:
        raise InvalidInput("state/target dimension does not match the cache")
    xv = np.stack([state.x, state.v])[None]
    noise = next(_step_noise(cache, (rng,), 1))
    _, xv = _advance(cache, _to_eigen(cache, xv), target.grad_oracle(xv[:, 0]), noise)
    return ChainState(x=xv[0, 0], v=xv[0, 1])


@dataclass(frozen=True, eq=False)
class ChainRun:
    """Retained states of one chain plus bookkeeping."""

    xs: np.ndarray
    vs: np.ndarray
    steps: np.ndarray
    grad_calls: int
    final: ChainState


def run_chains(
    init: InitSpec,
    target: TargetModel,
    config: ScalingConfig,
    delta: float,
    n_steps: int,
    rngs,
    thin: int = 1,
    burn_in: int = 0,
    stationary_velocity_init: bool = False,
) -> list[ChainRun]:
    """Run one chain per generator of ``rngs``, all from (x0, 0), as one batch.

    Chain c's run is that of ``run_chain`` with ``rngs[c]``: it keeps every
    thin-th state after burn-in and makes ``n_steps`` gradient calls, and
    ``stationary_velocity_init`` starts it from v ~ N(0, u I) instead of
    zero. ``NumericalBlowup`` reports the first step at which any chain trips.
    """
    if thin < 1 or burn_in < 0:
        raise InvalidInput("thin must be >= 1 and burn_in >= 0")
    if not rngs:
        raise InvalidInput("at least one generator is required")
    cache = _checked_cache((init,), target, config, delta, n_steps)
    xv = np.zeros((len(rngs), 2, target.dim))
    xv[:, 0] = init.x0
    if stationary_velocity_init:
        for row, rng in zip(xv, rngs):
            row[1] = math.sqrt(config.u) * rng.standard_normal(target.dim)
    ns = _to_eigen(cache, xv)

    kept = max(0, (n_steps - burn_in) // thin)
    held = np.empty((len(rngs), kept, 2, target.dim))
    out, next_kept = 0, burn_in + thin
    for i, noise in enumerate(_step_noise(cache, rngs, n_steps), start=1):
        ns, xv = _advance(cache, ns, target.grad_oracle(xv[:, 0]), noise, i)
        if i == next_kept:
            held[:, out] = xv
            out, next_kept = out + 1, next_kept + thin
    steps = burn_in + thin * np.arange(1, kept + 1, dtype=np.int64)
    return [
        ChainRun(run[:, 0], run[:, 1], steps, n_steps, ChainState(x=last[0], v=last[1]))
        for run, last in zip(held, xv)
    ]


def run_chain(init, target, config, delta, n_steps, rng, **options) -> ChainRun:
    """Run one chain from (x0, 0): :func:`run_chains` with the single generator
    ``rng`` and the same keyword ``options`` (thin, burn_in,
    stationary_velocity_init). Makes exactly ``n_steps`` gradient calls."""
    return run_chains(init, target, config, delta, n_steps, (rng,), **options)[0]


def coupled_pair_run(
    init_a: InitSpec,
    init_b: InitSpec,
    target: TargetModel,
    config: ScalingConfig,
    delta: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synchronously coupled pair: a batch of two chains sharing each draw of rng.

    Returns the squared coupling distance
    rho_i = |x_i - y_i|^2 + |(x_i + v_i) - (y_i + w_i)|^2 for i = 0..n;
    its decay rate measures the contraction of the dynamics.
    """
    cache = _checked_cache((init_a, init_b), target, config, delta, n_steps)
    xv = np.zeros((2, 2, target.dim))
    xv[0, 0], xv[1, 0] = init_a.x0, init_b.x0
    ns = _to_eigen(cache, xv)

    def rho(xv) -> float:
        dx = xv[0, 0] - xv[1, 0]
        dq = (xv[0, 0] + xv[0, 1]) - (xv[1, 0] + xv[1, 1])
        return float(dx @ dx + dq @ dq)

    out = np.empty(n_steps + 1)
    out[0] = rho(xv)
    for i, noise in enumerate(_step_noise(cache, (rng,), n_steps), start=1):
        ns, xv = _advance(cache, ns, target.grad_oracle(xv[:, 0]), noise, i)
        out[i] = rho(xv)
    return out

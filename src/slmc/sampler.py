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
lower 2x2 Cholesky factor. A step therefore costs two products with V
(into and out of the eigenbasis) plus length-d arithmetic; for A = I,
V is the identity and every operation is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite, NumericalBlowup
from .spd import SymMatrix, sym_eig
from .targets import InitSpec, TargetModel
from .tuner import ScalingConfig

#: Coordinates beyond this magnitude abort the chain instead of overflowing.
BLOWUP_GUARD = 1e12


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
    """Eigenvectors V of A and the per-eigenvalue closed forms of one step.

    Returns ``(V, mean_w, mean_g, cov)``: ``mean_w`` and ``mean_g`` are
    (2, d) rows (y, w) weighting w and h in the step mean, ``cov`` holds
    the (3, d) rows cov_yy, cov_yw, cov_ww.
    """
    if not (delta > 0.0 and np.isfinite(delta)):
        raise InvalidInput("step size delta must be positive")
    pair = sym_eig(config.A)
    alpha = pair.values
    if alpha[0] <= 0.0:
        raise InvalidInput("scaling matrix A must be SPD")
    u = config.u
    ga = config.gamma * alpha
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

    ``vectors`` holds the eigenvectors V of A as columns. Every other
    array is per mode, indexed by eigenvalue along its last axis:
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
    mean_w: np.ndarray
    mean_g: np.ndarray
    factor: np.ndarray


def _mean(vectors, mean_w, mean_g, ns: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Step mean of the eigen-coordinate rows ``ns`` = (y; w) under gradient g."""
    out = mean_w * ns[1]
    out[0] += ns[0]
    out -= mean_g * (g @ vectors)
    return out


def kernel_moments(
    state: ChainState, grad: np.ndarray, config: ScalingConfig, delta: float
) -> KernelMoments:
    """Exact first and second moments of one frozen-gradient step."""
    vectors, mean_w, mean_g, cov = _modes(config, delta)
    d = vectors.shape[0]
    g = np.asarray(grad, dtype=float)
    if g.shape != (d,) or state.dim != d:
        raise InvalidInput("state/gradient dimension does not match A")
    ns = np.stack([state.x, state.v]) @ vectors
    mean = _mean(vectors, mean_w, mean_g, ns, g) @ vectors.T

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
    return StepCache(
        config=config,
        delta=delta,
        dim=vectors.shape[0],
        vectors=vectors,
        mean_w=mean_w,
        mean_g=mean_g,
        factor=factor,
    )


def _advance(cache: StepCache, ns: np.ndarray, g: np.ndarray, z: np.ndarray):
    """One step from eigen-coordinate rows ``ns`` = (y; w) with (2, d) noise z.

    Returns the new (y; w) rows and the matching (x; v) rows.
    """
    out = _mean(cache.vectors, cache.mean_w, cache.mean_g, ns, g)
    out += (cache.factor * z).sum(axis=1)
    xv = out @ cache.vectors.T
    if not (np.abs(xv) < BLOWUP_GUARD).all():
        raise NumericalBlowup("chain coordinate left the guarded region")
    return out, xv


def step(
    state: ChainState, target: TargetModel, cache: StepCache, rng: np.random.Generator
) -> ChainState:
    """Advance one chain by one exact Gaussian step (one gradient call)."""
    if state.dim != cache.dim or target.dim != cache.dim:
        raise InvalidInput("state/target dimension does not match the cache")
    g = target.grad_oracle(state.x)
    if not np.all(np.isfinite(g)):
        raise NumericalBlowup("gradient oracle returned non-finite values")
    ns = np.stack([state.x, state.v]) @ cache.vectors
    _, xv = _advance(cache, ns, g, rng.standard_normal((2, cache.dim)))
    return ChainState(x=xv[0], v=xv[1])


@dataclass(frozen=True, eq=False)
class ChainRun:
    """Retained states of one chain plus bookkeeping."""

    xs: np.ndarray
    vs: np.ndarray
    steps: np.ndarray
    grad_calls: int
    final: ChainState


def run_chain(
    init: InitSpec,
    target: TargetModel,
    config: ScalingConfig,
    delta: float,
    n_steps: int,
    rng: np.random.Generator,
    thin: int = 1,
    burn_in: int = 0,
    stationary_velocity_init: bool = False,
) -> ChainRun:
    """Run one chain from (x0, 0), retaining every thin-th state after burn-in.

    Makes exactly ``n_steps`` gradient calls. Set
    ``stationary_velocity_init`` to start from v ~ N(0, u I) instead of
    the default zero velocity.
    """
    if n_steps < 1:
        raise InvalidInput("n_steps must be at least 1")
    if thin < 1 or burn_in < 0:
        raise InvalidInput("thin must be >= 1 and burn_in >= 0")
    if init.x0.size != target.dim:
        raise InvalidInput("init dimension does not match the target")
    cache = make_step_cache(config, delta)
    if cache.dim != target.dim:
        raise InvalidInput("scaling matrix dimension does not match the target")

    d = target.dim
    if stationary_velocity_init:
        v = math.sqrt(config.u) * rng.standard_normal(d)
    else:
        v = np.zeros(d)
    xv = np.stack([init.x0, v])
    ns = xv @ cache.vectors

    kept = max(0, (n_steps - burn_in) // thin)
    xs = np.empty((kept, d))
    vs = np.empty((kept, d))
    steps = np.empty(kept, dtype=np.int64)
    out = 0
    for i in range(1, n_steps + 1):
        g = target.grad_oracle(xv[0])
        if not np.all(np.isfinite(g)):
            raise NumericalBlowup("gradient oracle returned non-finite values", i)
        z = rng.standard_normal((2, d))
        try:
            ns, xv = _advance(cache, ns, g, z)
        except NumericalBlowup as exc:
            raise NumericalBlowup("chain coordinate left the guarded region", i) from exc
        if i > burn_in and (i - burn_in) % thin == 0:
            xs[out] = xv[0]
            vs[out] = xv[1]
            steps[out] = i
            out += 1
    return ChainRun(
        xs=xs, vs=vs, steps=steps, grad_calls=n_steps, final=ChainState(x=xv[0], v=xv[1])
    )


def coupled_pair_run(
    init_a: InitSpec,
    init_b: InitSpec,
    target: TargetModel,
    config: ScalingConfig,
    delta: float,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Synchronously coupled pair: both chains consume identical noise.

    Returns the squared coupling distance
    rho_i = |x_i - y_i|^2 + |(x_i + v_i) - (y_i + w_i)|^2 for i = 0..n;
    its decay rate measures the contraction of the dynamics.
    """
    if init_a.x0.size != init_b.x0.size:
        raise InvalidInput("coupled inits must share a dimension")
    if n_steps < 1:
        raise InvalidInput("n_steps must be at least 1")
    cache = make_step_cache(config, delta)
    d = target.dim
    xv_a = np.stack([init_a.x0, np.zeros(d)])
    xv_b = np.stack([init_b.x0, np.zeros(d)])
    ns_a, ns_b = xv_a @ cache.vectors, xv_b @ cache.vectors

    def rho(xv_a, xv_b) -> float:
        dx = xv_a[0] - xv_b[0]
        dq = (xv_a[0] + xv_a[1]) - (xv_b[0] + xv_b[1])
        return float(dx @ dx + dq @ dq)

    out = np.empty(n_steps + 1)
    out[0] = rho(xv_a, xv_b)
    for i in range(1, n_steps + 1):
        ga = target.grad_oracle(xv_a[0])
        gb = target.grad_oracle(xv_b[0])
        if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
            raise NumericalBlowup("gradient oracle returned non-finite values", i)
        z = rng.standard_normal((2, d))
        ns_a, xv_a = _advance(cache, ns_a, ga, z)
        ns_b, xv_b = _advance(cache, ns_b, gb, z)
        out[i] = rho(xv_a, xv_b)
    return out

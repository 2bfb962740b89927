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
lower 2x2 Cholesky factor. For a dense A a step costs two products with V
(the gradient in, the new state out) plus length-d arithmetic. For a
diagonal A (the unscaled A = I included) V is a permutation, and the chain
steps in the original coordinates instead: its per-mode coefficients are
permuted when the batch lays out its rows (at the start and at each cell's
end), and its noise once per block; no step indexes by the permutation.

All chains of all cells of a run move as one batch of (R, 2, d) rows, R
being the cells' chains together, and each row carries its cell's step
coefficients. Each step makes one ``grad_oracle`` call on the positions of
every row still running, one update and one guard check. Rows of dense-A
cells come first and keep eigen-coordinates; the cells of one batch share
that V, and each step multiplies their contiguous row slice by it once in
each direction. Dense cells are ordered by ascending n and the others by
descending n, so the rows still running are always one contiguous range,
and a cell's rows leave it after its last step. ``run_chains``,
``run_chain``, ``step`` and ``coupled_pair_run`` are batches of one cell.
Each chain draws its noise from its own generator in blocks of K steps; a
(K, 2, d) draw is the same stream as K (2, d) draws, K keeps a block within
NOISE_BLOCK_DOUBLES, and blocks are cut at every cell's end. A chain's
states therefore depend neither on K nor on the other rows of its batch,
except through the gradient oracle's arithmetic on a batch of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _Rows(NamedTuple):
    """Per-row step coefficients of a batch: ``mean_w``, ``mean_g`` (R, 2, d) and
    ``factor`` (R, 2, 2, d) as in ``StepCache`` (R is 1 when one cache serves
    every row), and the label of each row's cell. The first ``dense`` rows step
    in the eigenbasis ``vectors``. The others step in the original coordinates:
    for each (lo, hi, unperm) of ``perms``, rows lo..hi-1 have ``mean_w`` and
    ``mean_g`` permuted by unperm, and so their noise."""

    mean_w: np.ndarray
    mean_g: np.ndarray
    factor: np.ndarray
    perms: tuple
    vectors: np.ndarray | None
    dense: int
    labels: tuple


def _batch_rows(parts) -> _Rows:
    """The rows of ``parts``, (cache, rows, label) triples with every dense cache first."""
    caches, counts = [cache for cache, _, _ in parts], [n for _, n, _ in parts]
    bases = [cache.vectors for cache in caches if cache.perm is None]
    if any(not np.array_equal(basis, bases[0]) for basis in bases[1:]):
        raise InvalidInput("the dense-A cells of one batch must share the eigenvectors of A")
    firsts = [sum(counts[:i]) for i in range(len(counts))]

    def stack(field, permute=True):
        arrays = [getattr(cache, field) for cache in caches]
        if permute:
            arrays = [a if c.perm is None else a.take(c.unperm, axis=-1) for a, c in zip(arrays, caches)]
        return arrays[0][None] if len(arrays) == 1 else np.repeat(np.stack(arrays), counts, axis=0)

    return _Rows(
        stack("mean_w"),
        stack("mean_g"),
        stack("factor", permute=False),
        tuple((a, a + n, c.unperm) for c, a, n in zip(caches, firsts, counts) if c.perm is not None),
        bases[0] if bases else None,
        sum(n for c, n in zip(caches, counts) if c.perm is None),
        tuple(label for _, n, label in parts for _ in range(n)),
    )


def _rotate(z: np.ndarray, rows: _Rows, back: bool = False) -> np.ndarray:
    """Rows z (R, ..., d) with the first ``rows.dense`` taken into the eigenbasis
    (z V), or with ``back`` out of it (z V^T); one product on that contiguous slice."""
    k = rows.dense
    if k == 0:
        return z
    head = z[:k] @ (rows.vectors.T if back else rows.vectors)
    return head if k == len(z) else np.concatenate((head, z[k:]))


def _noise_blocks(rows: _Rows, rngs, n_steps: int):
    """Yield the correlated (y; w) noise of n_steps steps in blocks (len(rngs), K, 2, d)
    in each row's own coordinates, row r drawn from ``rngs[r]`` (see the module docstring)."""
    r, d = len(rngs), rows.factor.shape[-1]
    block = max(1, min(n_steps, NOISE_BLOCK_DOUBLES // (r * 2 * d)))
    raw = np.empty((r, block, 2, d))
    factor = rows.factor[:r, None]
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        for z, rng in zip(raw, rngs):
            rng.standard_normal(out=z[:k])
        noise = (factor * raw[:, :k, None]).sum(axis=-2)
        for lo, hi, unperm in rows.perms:
            noise[lo:hi] = noise[lo:hi].take(unperm, axis=-1)
        yield noise


def _advance(rows: _Rows, ns: np.ndarray, g: np.ndarray, noise: np.ndarray, step_index=None):
    """One step of a batch from its working rows ns (R, 2, d), gradients g (R, d) and
    noise (R or 1, 2, d); returns the new working rows and (x; v) rows. A coordinate
    beyond BLOWUP_GUARD, or a non-finite one (as a non-finite gradient always gives),
    raises ``NumericalBlowup`` naming ``step_index`` and the first such row's cell."""
    out = _mean(rows.mean_w, rows.mean_g, ns, _rotate(g, rows))
    out += noise
    xv = _rotate(out, rows, back=True)
    if not np.abs(xv).max() < BLOWUP_GUARD:
        bad = int(np.argmin((np.abs(xv) < BLOWUP_GUARD).all(axis=(1, 2))))
        if np.isfinite(g[bad]).all():
            what = "chain coordinate left the guarded region"
        else:
            what = "gradient oracle returned non-finite values"
        raise NumericalBlowup(what, step_index, rows.labels[bad])
    return out, xv


def step(
    state: ChainState, target: TargetModel, cache: StepCache, rng: np.random.Generator
) -> ChainState:
    """Advance one chain by one exact Gaussian step (one gradient call)."""
    if state.dim != cache.dim or target.dim != cache.dim:
        raise InvalidInput("state/target dimension does not match the cache")
    rows = _batch_rows([(cache, 1, None)])
    xv = np.stack([state.x, state.v])[None]
    noise = next(_noise_blocks(rows, (rng,), 1))
    _, xv = _advance(rows, _rotate(xv, rows), target.grad_oracle(xv[:, 0]), noise[:, 0])
    return ChainState(x=xv[0, 0], v=xv[0, 1])


@dataclass(frozen=True, eq=False)
class ChainRun:
    """Retained states of one chain plus bookkeeping."""

    xs: np.ndarray
    vs: np.ndarray
    steps: np.ndarray
    grad_calls: int
    final: ChainState


@dataclass(frozen=True, eq=False)
class Cell:
    """The chains of one (config, delta) in a run batch: one per generator of
    ``rngs``, each from (x0, 0), or from v ~ N(0, u I) with
    ``stationary_velocity_init``, for ``n_steps`` steps, keeping every thin-th
    state after ``burn_in``. ``label`` names the cell in a ``NumericalBlowup``."""

    init: InitSpec
    config: ScalingConfig
    delta: float
    n_steps: int
    rngs: tuple
    thin: int = 1
    burn_in: int = 0
    stationary_velocity_init: bool = False
    label: str | None = None


@dataclass(frozen=True, eq=False)
class CellRun:
    """Retained states of one cell's C chains, ``xs`` and ``vs`` each (C, kept, d),
    taken at ``steps``; ``final`` is each chain's last (x; v), (C, 2, d)."""

    xs: np.ndarray
    vs: np.ndarray
    steps: np.ndarray
    final: np.ndarray
    grad_calls: int

    def chains(self) -> list[ChainRun]:
        """One ``ChainRun`` per chain, viewing this cell's arrays."""
        return [
            ChainRun(x, v, self.steps, self.grad_calls, ChainState(x=last[0], v=last[1]))
            for x, v, last in zip(self.xs, self.vs, self.final)
        ]


def run_cells(target: TargetModel, cells) -> list[CellRun]:
    """Run every chain of every cell as one batch; one ``CellRun`` per cell.

    Each step makes one ``target.grad_oracle`` call on the positions of every
    chain whose cell has steps left, so the run makes max(n_steps) calls, and
    each chain's run is the one ``run_chain`` gives it alone. ``NumericalBlowup``
    reports the first step at which any chain trips, and that chain's cell.
    """
    caches = []
    for cell in cells:
        if cell.thin < 1 or cell.burn_in < 0:
            raise InvalidInput("thin must be >= 1 and burn_in >= 0")
        if not cell.rngs:
            raise InvalidInput("at least one generator is required")
        caches.append(_checked_cache((cell.init,), target, cell.config, cell.delta, cell.n_steps))

    def rank(c):  # dense cells by ascending n, then the rest by descending n
        n = cells[c].n_steps
        return (0, n) if caches[c].perm is None else (1, -n)

    order = sorted(range(len(cells)), key=rank)
    bounds = np.cumsum([0] + [len(cells[c].rngs) for c in order]).tolist()
    span = dict(zip(order, zip(bounds, bounds[1:])))
    d = target.dim
    xv = np.zeros((bounds[-1], 2, d))
    for c, cell in enumerate(cells):
        block = xv[span[c][0] : span[c][1]]
        block[:, 0] = cell.init.x0
        if cell.stationary_velocity_init:
            for row, rng in zip(block, cell.rngs):
                row[1] = math.sqrt(cell.config.u) * rng.standard_normal(d)

    steps = [
        cell.burn_in + cell.thin * np.arange(1, (cell.n_steps - cell.burn_in) // cell.thin + 1)
        for cell in cells
    ]
    xs = [np.empty((len(cell.rngs), s.size, d)) for cell, s in zip(cells, steps)]
    vs = [np.empty_like(x) for x in xs]
    finals = [None] * len(cells)
    ns, done, at = None, 0, 0  # working rows; steps taken; batch row of xv[0]
    # The rows still running form one range [lo, hi), which shrinks at each cell's end.
    for end in sorted({cell.n_steps for cell in cells}):
        live = [c for c in order if cells[c].n_steps >= end]
        lo, hi = span[live[0]][0], span[live[-1]][1]
        window = _batch_rows([(caches[c], len(cells[c].rngs), cells[c].label) for c in live])
        xv = xv[lo - at : hi - at]
        ns, at = _rotate(xv, window) if ns is None else ns[lo - at : hi - at], lo
        rngs = [rng for c in live for rng in cells[c].rngs]
        for noise in _noise_blocks(window, rngs, end - done):
            path = []
            for t in range(noise.shape[1]):
                g = target.grad_oracle(xv[:, 0])
                ns, xv = _advance(window, ns, g, noise[:, t], done + t + 1)
                path.append(xv)
            path = np.stack(path)
            for c in live:
                cell, (a, b) = cells[c], span[c]
                j = max(0, (done - cell.burn_in) // cell.thin)  # states kept before this block
                first = cell.burn_in + cell.thin * (j + 1) - done - 1  # its index in the block
                picked = path[first :: cell.thin, a - lo : b - lo]
                xs[c][:, j : j + len(picked)] = picked[:, :, 0].swapaxes(0, 1)
                vs[c][:, j : j + len(picked)] = picked[:, :, 1].swapaxes(0, 1)
            done += noise.shape[1]
        for c in live:
            if cells[c].n_steps == end:
                finals[c] = xv[span[c][0] - lo : span[c][1] - lo]
    return [
        CellRun(x, v, s, final, cell.n_steps)
        for x, v, s, cell, final in zip(xs, vs, steps, cells, finals)
    ]


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
    cell = Cell(init, config, delta, n_steps, tuple(rngs), thin, burn_in, stationary_velocity_init)
    return run_cells(target, [cell])[0].chains()


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
    rows = _batch_rows([(cache, 2, None)])
    xv = np.zeros((2, 2, target.dim))
    xv[0, 0], xv[1, 0] = init_a.x0, init_b.x0
    ns = _rotate(xv, rows)

    def rho(xv) -> float:
        dx = xv[0, 0] - xv[1, 0]
        dq = (xv[0, 0] + xv[0, 1]) - (xv[1, 0] + xv[1, 1])
        return float(dx @ dx + dq @ dq)

    out = np.empty(n_steps + 1)
    out[0] = rho(xv)
    i = 0
    for noise in _noise_blocks(rows, (rng,), n_steps):
        for shared in noise.swapaxes(0, 1):
            i += 1
            ns, xv = _advance(rows, ns, target.grad_oracle(xv[:, 0]), shared, i)
            out[i] = rho(xv)
    return out

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
lower 2x2 Cholesky factor. A diagonal A (the unscaled A = I included) is
read by its entries, its eigenvalues in coordinate order, with V = I: such a
cell steps in x, mode i being coordinate i, draws its noise there, and its
cache and steps hold no d x d array. A batch with a dense A changes
variables once instead: it steps in y = x V, where A is diagonal, on the
target's gradient there (``TargetModel.grad_in_frame``), so no step
multiplies by V. Its other A's must be diagonal in y too: the same A, or a
multiple of I, whose noise is drawn in x and turned into y once per block.
States are turned into y at the start and back into x once per block.

All chains of all cells of a run move as one batch of R rows, R being the
cells' chains together, and each row carries its cell's step coefficients.
Positions and velocities are (2, R, d) planes, each (R, d) plane contiguous,
and so are the per-row coefficients and each step's noise; a step writes
straight into the next slot of its noise block's path, so each numpy call
updates every row at once on contiguous memory. A step makes one gradient
call on the positions of every row still running and one update; the
blow-up guard checks each block once, at its end, in the batch's
coordinates. Cells are ordered by descending n, so the rows still running
are always a prefix, laid out once, and a cell's rows leave it after its last
step, when ``run_cells`` can hand the cell over. Of each kept state a cell
stores |v|^2, and its full position and velocity only where its ``keep``
names them. ``run_chain``, ``step`` and ``coupled_pair_run`` are batches of
one cell, which keep both.
Each chain draws its noise from its own generator in blocks of K steps; a
(K, 2, d) draw is the same stream as K (2, d) draws, K keeps a block within
NOISE_BLOCK_DOUBLES, and blocks are cut at every cell's end. A chain's
states therefore depend neither on K nor on the other rows of its batch,
except through the gradient oracle's arithmetic on a batch of rows and, for
a multiple of I beside a dense A, the rounding of the change of variables.

On a Gaussian f = (x - mu)^T P (x - mu) / 2 with P and A both diagonal, mode i
is coordinate i and h_i = p_i (y_i - mu_i), so a step maps (e, w), e = y - mu, to
M (e, w) + N(0, Sigma): M = [[1 - m_gy p, m_wy], [-m_gw p, m_ww]], m_.. being
the weights of w and h in mean_y and mean_w above, and Sigma the mode's cov
(``mode_maps``). ``exact_law`` composes these maps by binary doubling into the
law after any n steps, Gaussian with independent modes, running no chain.
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


#: Taylor coefficients c_k = (-1)^k (2 - 2^(k-1)) / k! of g below, k = 25 down to 3.
_COV_XX_SERIES = tuple(
    (-1) ** k * (2 - 2 ** (k - 1)) / math.factorial(k) for k in range(25, 2, -1)
)


#: Up to this many entries the series runs on Python floats: each numpy call
#: would cost more than its arithmetic.
_SERIES_SCALAR_MAX = 16


def _horner(t):
    """sum_{k=3}^{25} c_k t^(k-3) by Horner, on a float or elementwise on an array."""
    acc = _COV_XX_SERIES[0]
    for c in _COV_XX_SERIES[1:]:
        acc = acc * t + c
    return acc


def _cov_xx_shape(s: np.ndarray, em1=None, em2=None) -> np.ndarray:
    """g(s) = s + 2 expm1(-s) - expm1(-2s)/2, exact to rounding: below s = 1,
    where the direct form cancels, its series s^3 sum_{k=3}^{25} c_k s^(k-3) by
    Horner (the first omitted term is below 1e-17 of g); from s = 1 on, where it
    cancels by at most a factor ~8, the direct form, from ``em1`` = expm1(-s) and
    ``em2`` = expm1(-2s) if given. The direct form is evaluated only if some s is
    from 1 up. A float product or sum is one IEEE operation on a Python float as
    on a numpy element, so the series gives the same bits on either."""
    small = s < 1.0
    every = small.all()
    t = s if every else s[small]
    if t.size <= _SERIES_SCALAR_MAX:
        series = t**3 * np.array([_horner(x) for x in t.tolist()])
    else:
        series = t**3 * _horner(t)
    if every:
        return series
    if em1 is None:
        em1, em2 = np.expm1(-s), np.expm1(-2.0 * s)
    out = s + 2.0 * em1 - 0.5 * em2
    out[small] = series
    return out


def _modes(config: ScalingConfig, delta: float):
    """The per-mode closed forms of one step: a diagonal A's modes are its entries
    in coordinate order (V = I), a dense A's its ascending eigenvalues.

    Returns ``(mean_w, mean_g, cov)``: ``mean_w`` and ``mean_g`` are
    (2, d) rows (y, w) weighting w and h in the step mean, views of one
    (4, d) array, and ``cov`` holds the (3, d) rows cov_yy, cov_yw, cov_ww.
    """
    if not (delta > 0.0 and np.isfinite(delta)):
        raise InvalidInput("step size delta must be positive")
    a = config.A
    modes = a.diag if a.is_diagonal else a.eig.values
    u = config.u
    ga = config.gamma * modes
    ga2 = ga**2
    s = ga * delta
    em1, em2 = np.expm1(-s), np.expm1(-2.0 * s)  # accurate for small s
    one_minus = -em1  # 1 - e^{-s}
    mean, cov = np.empty((4, s.size)), np.empty((3, s.size))
    mean[0] = one_minus / ga
    mean[1] = np.exp(-s)
    mean[2] = u * (s + em1) / ga2
    mean[3] = u * one_minus / ga
    cov[0] = 2.0 * u * _cov_xx_shape(s, em1, em2) / ga2
    cov[1] = (u / ga) * em1**2
    cov[2] = -u * em2
    return mean[:2], mean[2:], cov


@dataclass(frozen=True, eq=False)
class StepCache:
    """One step of fixed (A, gamma, u, delta), stored per eigenvalue of A.

    ``vectors`` names the frame the modes live in: None for a diagonal A, whose
    modes are its coordinates, else A's eigenvectors V, in whose y = x V a batch
    steps. Every other array is per mode, indexed by eigenvalue along its last axis:
    ``mean_w`` and ``mean_g`` are the (2, d) rows (y, w) by which the
    step mean weights the velocity w = V^T v and the gradient h = V^T g,
    and ``factor[i, j]`` is entry (i, j) of each mode's lower 2x2
    Cholesky factor of the state-independent (y, w) covariance:
    l_yy = sqrt(cov_yy), l_wy = cov_yw / l_yy, l_ww = sqrt(cov_ww - l_wy^2).
    """

    config: ScalingConfig
    dim: int
    vectors: np.ndarray | None
    mean_w: np.ndarray
    mean_g: np.ndarray
    factor: np.ndarray


def kernel_moments(
    state: ChainState, grad: np.ndarray, config: ScalingConfig, delta: float
) -> KernelMoments:
    """Exact first and second moments of one frozen-gradient step, assembled
    with dense products by V (I for a diagonal A): the reference the step is
    tested against."""
    mean_w, mean_g, cov = _modes(config, delta)
    d = mean_w.shape[-1]
    vectors = np.eye(d) if config.A.is_diagonal else config.A.eig.vectors
    g = np.asarray(grad, dtype=float)
    if g.shape != (d,) or state.dim != d:
        raise InvalidInput("state/gradient dimension does not match A")
    y, w = np.stack([state.x, state.v]) @ vectors
    mean = mean_w * w  # (y; w) <- (y + m_wy w - m_gy h, m_ww w - m_gw h) for h = g V
    mean[0] += y
    mean -= mean_g * (g @ vectors)
    mean = mean @ vectors.T

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
    """Per-mode mean coefficients and noise factors of one step of (config, delta).

    Raises ``NotPositiveDefinite`` when some mode's 2x2 covariance does
    not factor in floating point, e.g. when delta is so small that
    cov_yy underflows; no jitter is added.
    """
    mean_w, mean_g, (c_yy, c_yw, c_ww) = _modes(config, delta)
    factor = np.zeros((2, 2, c_yy.size))  # l_yw stays 0
    with np.errstate(all="ignore"):
        factor[0, 0] = l_yy = np.sqrt(c_yy)
        factor[1, 0] = l_wy = c_yw / l_yy
        schur = c_ww - l_wy**2
        factor[1, 1] = np.sqrt(schur)
    if not ((c_yy > 0.0).all() and (schur > 0.0).all() and np.isfinite(factor).all()):
        raise NotPositiveDefinite(
            f"step covariance is not positive definite at delta = {delta:.3e}"
        )
    return StepCache(
        config=config,
        dim=mean_w.shape[-1],
        vectors=None if config.A.is_diagonal else config.A.eig.vectors,
        mean_w=mean_w,
        mean_g=mean_g,
        factor=factor,
    )


def mode_maps(config: ScalingConfig, delta: float, curvature) -> tuple[np.ndarray, np.ndarray]:
    """One step's (d, 2, 2) maps M and covariances Sigma of the modes of a Gaussian
    whose precision is ``curvature`` on A's modes (see the module docstring)."""
    (m_wy, m_ww), (m_gy, m_gw), (c_yy, c_yw, c_ww) = _modes(config, delta)
    maps = np.stack([[1.0 - m_gy * curvature, m_wy], [-m_gw * curvature, m_ww]])
    return maps.transpose(2, 0, 1), np.stack([[c_yy, c_yw], [c_yw, c_ww]]).transpose(2, 0, 1)


def exact_law(target: TargetModel, init: InitSpec, config: ScalingConfig, delta: float, steps):
    """Each mode's mean (k, d, 2) and covariance (k, d, 2, 2) of (x_n - mu, v_n) of a chain
    from (x0, 0), at each count n of the ascending ``steps``, with no chain run. Raises
    ``InvalidInput`` unless P, the target's constant Hessian, and A are both diagonal."""
    p = target.hess_oracle(target.minimizer) if target.hess_constant else None
    if not (isinstance(p, SymMatrix) and p.is_diagonal and config.A.is_diagonal):
        raise InvalidInput("the exact law needs a Gaussian target, with P and A both diagonal")
    gaps = np.diff(np.asarray(steps, dtype=np.int64), prepend=0).tolist()
    if min(gaps, default=0) < 0:
        raise InvalidInput("step counts must ascend from 0")
    powers = [mode_maps(config, delta, p.diag)]  # (M^(2^j), sum_{i<2^j} M^i Sigma M^iT)
    mean = np.stack([init.x0 - target.minimizer, np.zeros(target.dim)], axis=1)[..., None]  # (d, 2, 1)
    cov = np.zeros_like(powers[0][1])
    means, covs = np.empty((len(gaps), target.dim, 2)), np.empty((len(gaps), target.dim, 2, 2))
    for i, gap in enumerate(gaps):  # each bit j of the gap takes 2^j steps
        while len(powers) < gap.bit_length():
            m, c = powers[-1]
            powers.append((m @ m, m @ c @ m.swapaxes(1, 2) + c))
        for m, c in (power for j, power in enumerate(powers) if gap >> j & 1):
            mean, cov = m @ mean, m @ cov @ m.swapaxes(1, 2) + c
        means[i], covs[i] = mean[..., 0], cov
    return means, covs


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


class _Batch:
    """Rows that step together: ``parts``, (cache, rows, label) triples in descending
    n, and their states xv (2, R, d) in x. With a dense A they step in y = x V for its
    eigenvectors V (``vectors``), where every other A must be diagonal too: the same
    V, or a multiple of I; else in x. ``xv`` and ``grad`` are in those coordinates.
    The per-row layout is built once, for all R rows: ``mean`` (2, 2, R, d) holds
    (mean_w, mean_g) and ``factor`` (2, 2, R, d) the factor, as in ``StepCache``
    with a row axis before the modes, so that each (R, d) plane is contiguous;
    ``labels`` names each row's cell, and each (lo, hi) of ``turns`` names rows
    lo..hi-1 of a multiple of I beside a dense A, whose noise, drawn in x, turns
    into y. The rows still running are a prefix: a caller cuts ``xv`` to its
    leading rows, whole cells at a time, and a step reads the leading len(xv) rows
    of each plane."""

    def __init__(self, target: TargetModel, parts, xv: np.ndarray):
        caches, counts = [c for c, _, _ in parts], [n for _, n, _ in parts]
        vs = [c.vectors for c in caches if c.vectors is not None]
        diags = [c.config.A.diag for c in caches if c.vectors is None]
        if vs and (any(a.min() < a.max() for a in diags) or any((v != vs[0]).any() for v in vs)):
            raise InvalidInput("a batch with a dense A holds only A's of its V or multiples of I")
        self.vectors, self.grad, self.back = None, target.grad_oracle, lambda a: a
        if vs:  # V^T stored C-contiguous: a row then rounds alike in any batch
            v, vt = vs[0], np.ascontiguousarray(vs[0].T)
            self.vectors, self.grad, xv = v, target.grad_in_frame(v), xv @ v
            self.back = lambda a: (a.reshape(-1, a.shape[-1]) @ vt).reshape(a.shape)
        self.xv = xv

        def rows(arrays):  # (2, 2, d) per cache -> (2, 2, R, d)
            return np.repeat(np.stack(arrays, axis=2), counts, axis=2)

        self.mean = rows([np.stack((c.mean_w, c.mean_g)) for c in caches])
        self.factor = rows([c.factor for c in caches])
        bounds = np.cumsum([0] + counts).tolist()
        self.turns = [(a, b) for a, b, c in zip(bounds, bounds[1:], caches) if vs and c.vectors is None]
        self.labels = tuple(label for _, n, label in parts for _ in range(n))

    def noise(self, rngs, n_steps: int):
        """Yield the correlated (y; w) noise of n_steps steps in blocks (K, 2, len(rngs), d),
        in the batch's coordinates, row r drawn from ``rngs[r]`` (see the module
        docstring). Each block is written into the buffer of the one before it, so use
        a block before drawing the next."""
        r, d = len(rngs), self.factor.shape[-1]
        block = max(1, min(n_steps, NOISE_BLOCK_DOUBLES // (r * 2 * d)))
        raw, noise = np.empty((r, block, 2, d)), np.empty((block, 2, r, d))
        l_yy, l_wy, l_ww = self.factor[0, 0, :r], self.factor[1, 0, :r], self.factor[1, 1, :r]
        for start in range(0, n_steps, block):
            k = min(block, n_steps - start)
            for z, rng in zip(raw, rngs):
                rng.standard_normal(out=z[:k])
            z, out = raw[:, :k].transpose(1, 2, 0, 3), noise[:k]  # both (k, 2, r, d)
            np.multiply(l_yy, z[:, 0], out=out[:, 0])  # l_yw = 0
            np.multiply(l_wy, z[:, 0], out=out[:, 1])
            out[:, 1] += np.multiply(l_ww, z[:, 1], out=z[:, 1])
            for lo, hi in self.turns:  # a range past the leading r rows is empty
                out[..., lo:hi, :] = out[..., lo:hi, :] @ self.vectors
            yield out

    def walk(self, rngs, n_steps: int, first: int | None):
        """Take n_steps steps, the first numbered ``first`` (None: one unnumbered
        step), with noise from ``rngs``. Yield each noise block's positions and
        velocities (K, 2, R, d) in x; the next block may write over them."""
        path = None
        for noise in self.noise(rngs, n_steps):
            k = len(noise)
            if path is None:  # the first block is the longest
                path = np.empty((k + 1,) + self.xv.shape)
            path[0] = self.xv
            self.block(noise, path[: k + 1], first)
            yield self.back(path[1 : k + 1])  # in x, by one product if turned
            first += k

    def block(self, noise, path, first) -> None:
        """Take len(noise) steps from path[0], step t numbered first + t (None:
        unnumbered), with noise[t] (2, R or 1, d), writing into path[t + 1]. Then,
        if a coordinate of the block is beyond BLOWUP_GUARD or non-finite (as a
        non-finite gradient always makes it), raise ``NumericalBlowup`` naming
        the first such step and its first such row's cell. Numpy reports no
        overflow or invalid operation in the block, the oracle's included: steps
        after a trip run on through inf and NaN, and the guard reports the trip."""
        mean_w, mean_g = self.mean[:, :, : path.shape[2]]
        tmp = np.empty_like(path[0])
        grads = []  # each step's gradients, to name a trip's cause
        grad, keep, multiply = self.grad, grads.append, np.multiply
        with np.errstate(over="ignore", invalid="ignore"):
            for t, n in enumerate(noise):
                y, w, out = path[t, 0], path[t, 1], path[t + 1]
                g = grad(y)
                keep(g)
                # (y, w) <- (y + m_wy w - m_gy h, m_ww w - m_gw h) + noise
                multiply(mean_w, w, out=out)
                out[0] += y
                out -= multiply(mean_g, g, out=tmp)
                out += n
            self.xv = path[-1]
            steps = path[1:]
            if np.abs(steps).max() < BLOWUP_GUARD:
                return
            held = (np.abs(steps) < BLOWUP_GUARD).all(axis=(1, 3))
        t, bad = np.unravel_index(np.argmin(held), held.shape)
        if np.isfinite(grads[t][bad]).all():
            what = "chain coordinate left the guarded region"
        else:
            what = "gradient oracle returned non-finite values"
        raise NumericalBlowup(what, None if first is None else first + int(t), self.labels[bad])


def step(
    state: ChainState, target: TargetModel, cache: StepCache, rng: np.random.Generator
) -> ChainState:
    """Advance one chain by one exact Gaussian step (one gradient call)."""
    if state.dim != cache.dim or target.dim != cache.dim:
        raise InvalidInput("state/target dimension does not match the cache")
    batch = _Batch(target, [(cache, 1, None)], np.stack((state.x, state.v))[:, None])
    xv = next(batch.walk((rng,), 1, None))[0]
    return ChainState(x=xv[0, 0], v=xv[1, 0])


@dataclass(frozen=True, eq=False)
class Cell:
    """The chains of one (config, delta) in a run batch: one per generator of
    ``rngs``, each from (x0, 0), for ``n_steps`` steps, keeping every thin-th
    state after ``burn_in``: its |v|^2 always, and in full its position if
    ``keep`` holds "x" and its velocity if it holds "v". ``label`` names the
    cell in a ``NumericalBlowup``."""

    init: InitSpec
    config: ScalingConfig
    delta: float
    n_steps: int
    rngs: tuple
    thin: int = 1
    burn_in: int = 0
    label: str | None = None
    keep: str = "xv"


@dataclass(frozen=True, eq=False)
class CellRun:
    """Retained states of one cell's C chains, taken at ``steps``: ``speed_sq``
    (C, kept) holds each state's |v|^2, ``xs`` and ``vs`` (C, kept, d) its position
    and velocity, each None unless the cell keeps it. ``final`` is each chain's
    last (x; v), (C, 2, d)."""

    xs: np.ndarray | None
    vs: np.ndarray | None
    speed_sq: np.ndarray
    steps: np.ndarray
    final: np.ndarray
    grad_calls: int


def run_cells(target: TargetModel, cells, on_cell=None) -> list[CellRun]:
    """Run every chain of every cell as one batch; one ``CellRun`` per cell.

    Each step makes one gradient call (``target.grad_oracle``, or the map
    ``grad_in_frame`` gives) on the positions of every chain whose cell has
    steps left, so the run makes max(n_steps) calls, and each chain's run is the
    one ``run_chain`` gives it alone, up to rounding. When a cell's A is dense the
    batch steps in that A's eigenvectors (see the module docstring), and raises
    ``InvalidInput`` unless every other A is diagonal there too; the states it
    keeps are turned back into x block by block. ``NumericalBlowup``
    reports the first step at which any chain trips, and that chain's cell.
    ``on_cell(c, run)``, if given, receives cell c's ``CellRun`` as soon as its
    rows leave the batch, before the batch takes its next step. A cell's kept
    states are stored as its ``keep`` asks, block by block: their |v|^2, the
    row sums of squares of the block's velocities, always, and full positions
    and velocities only if named, so a cell that keeps neither holds C x kept
    doubles, not 2 C x kept x d.
    """
    caches = []
    for cell in cells:
        if cell.thin < 1 or cell.burn_in < 0:
            raise InvalidInput("thin must be >= 1 and burn_in >= 0")
        if not set(cell.keep) <= {"x", "v"}:
            raise InvalidInput(f"keep names states by 'x' and 'v', got {cell.keep!r}")
        if not cell.rngs:
            raise InvalidInput("at least one generator is required")
        caches.append(_checked_cache((cell.init,), target, cell.config, cell.delta, cell.n_steps))

    order = sorted(range(len(cells)), key=lambda c: -cells[c].n_steps)
    bounds = np.cumsum([0] + [len(cells[c].rngs) for c in order]).tolist()
    span = dict(zip(order, zip(bounds, bounds[1:])))
    d = target.dim
    xv = np.zeros((2, bounds[-1], d))
    for c, cell in enumerate(cells):
        a, b = span[c]
        xv[0, a:b] = cell.init.x0

    steps = [
        cell.burn_in + cell.thin * np.arange(1, (cell.n_steps - cell.burn_in) // cell.thin + 1)
        for cell in cells
    ]
    sq = [np.empty((len(cell.rngs), s.size)) for cell, s in zip(cells, steps)]
    xs = [np.empty(q.shape + (d,)) if "x" in cell.keep else None for cell, q in zip(cells, sq)]
    vs = [np.empty(q.shape + (d,)) if "v" in cell.keep else None for cell, q in zip(cells, sq)]
    runs = [None] * len(cells)
    batch = _Batch(target, [(caches[c], len(cells[c].rngs), cells[c].label) for c in order], xv)
    rngs, done = [rng for c in order for rng in cells[c].rngs], 0
    # The rows still running are rows 0..hi-1, and hi shrinks at each cell's end.
    for end in sorted({cell.n_steps for cell in cells}):
        live = [c for c in order if cells[c].n_steps >= end]
        hi = span[live[-1]][1]
        batch.xv = batch.xv[:, :hi]
        for path in batch.walk(rngs[:hi], end - done, done + 1):
            k = len(path)
            for c in live:
                cell, (a, b) = cells[c], span[c]
                j = max(0, (done - cell.burn_in) // cell.thin)  # states kept before this block
                first = cell.burn_in + cell.thin * (j + 1) - done - 1  # its index in the block
                x, v = path[first : k : cell.thin, :, a:b].transpose(1, 2, 0, 3)
                kept = slice(j, j + x.shape[1])
                sq[c][:, kept] = (v**2).sum(axis=-1)
                for store, states in ((xs[c], x), (vs[c], v)):
                    if store is not None:
                        store[:, kept] = states
            done += k
        for c, cell in enumerate(cells):
            if cell.n_steps == end:
                a, b = span[c]
                final = path[-1, :, a:b].swapaxes(0, 1).copy()  # the last states, in x
                runs[c] = CellRun(xs[c], vs[c], sq[c], steps[c], final, cell.n_steps)
                if on_cell is not None:
                    on_cell(c, runs[c])
    return runs


def run_chain(init, target, config, delta, n_steps, rng, thin=1, burn_in=0) -> CellRun:
    """Run one chain from (x0, 0) with the generator ``rng``, as a batch of one cell
    that keeps every thin-th state after ``burn_in``, positions and velocities
    both; its ``CellRun`` holds one chain. Makes exactly ``n_steps`` gradient calls."""
    return run_cells(target, [Cell(init, config, delta, n_steps, (rng,), thin, burn_in)])[0]


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
    xv[0] = init_a.x0, init_b.x0
    batch = _Batch(target, [(cache, 2, None)], xv)

    def rho(xv) -> float:
        (x, y), (v, w) = xv
        dx, dq = x - y, (x + v) - (y + w)
        return float(dx @ dx + dq @ dq)

    out = [rho(xv)]
    for path in batch.walk((rng,), n_steps, 1):
        out.extend(map(rho, path))
    return np.array(out)

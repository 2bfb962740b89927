"""Wasserstein-2 distances and moment diagnostics.

Two W2 routes are provided: the closed form between Gaussian summaries,
and the exact discrete distance between equal-size sample clouds via
min-cost perfect matching on the squared-distance cost matrix. Exact
matching (rather than an entropic approximation) keeps the result
deterministic and testable against permutation brute force, at the
price of a cloud-size cap.

The matching is warm-started. For the per-coordinate scaling
M = diag(sd_y / sd_x), |x_i - y_j|^2 differs from a_i + b_j - 2 x~_i . y~_j
only by terms separable in i and j, where x~ and y~ are the clouds
centred on their own means, a_i = x~_i^T M x~_i and b_j = y~_j^T M^-1 y~_j.
That form is one GEMM plus two broadcast adds; less its column and then
its row minima, it is the solver's cost (a shortest-augmenting-path
method), reduced by dual potentials that the raw squared distances lack.
A term subtracted from every row or every column shifts every perfect
matching's total alike, so the optimal matching is the plain problem's;
the matched distances are then recomputed from the points. On one
thread, on clouds of n = 600, d = 512, the solve took 11% longer without
the scaling (M = I) and 41% longer without the minima. The Gaussian
transport map between the clouds' moments, as M, solved no faster.

From n = _WARM_FLOOR on, a chain's cloud is reduced once more, coarse to
fine (after Schmitzer 2016; Gerber & Maggioni 2017): the matching on every
_COARSE-th row and column is solved exactly, Bellman-Ford on it gives dual
potentials, and a c-transform carries them onto all n columns, again as row
and column terms. On one thread at n = 1024, d = 2, cost and solve took
87-121 ms, not 119-185, for a chain's cloud (rho = 0.99) against iid draws,
and 62-93, not 140-291, for two chains'; but 123-219, not 69-87, for two iid
clouds. So it runs only if either cloud's step ratio
r = sum |x_{i+1} - x_i|^2 / (2 sum |x_i - mean|^2), about 1 for iid points
and 1 - rho for a chain, is below _CHAIN_RATIO. Below the floor it saves
little or nothing.

The solver and the other scipy routines are imported on first use, so a
run that evaluates no W2 never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .spd import SymMatrix, spd_apply_fn

MAX_CLOUD = 4096
_PSD_TOL = 1e-10
#: Rows per block when matched distances are recomputed.
_BLOCK = 32
#: The coarse warm start's least n, subsampling step and chain gate on r.
_WARM_FLOOR, _COARSE, _CHAIN_RATIO = 256, 4, 0.5


@dataclass(frozen=True, eq=False)
class GaussianSummary:
    """Mean and PSD covariance summarizing a distribution."""

    mean: np.ndarray
    cov: SymMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (self.cov.dim,):
            raise InvalidInput("mean dimension does not match covariance")
        if self.cov.is_diagonal:  # its eigenvalues are its entries
            eigs = self.cov.diag
        else:
            try:  # a Cholesky factor bounds lambda_min below by -c d eps |S|, far inside the tolerance
                np.linalg.cholesky(self.cov.mat)
                eigs = None
            except np.linalg.LinAlgError:  # singular or indefinite: decide by the spectrum
                eigs = np.linalg.eigvalsh(self.cov.mat)
        if eigs is not None:
            lo, hi = float(eigs.min()), float(eigs.max())
            if lo < -_PSD_TOL * max(1.0, abs(hi)):
                raise InvalidInput(f"covariance is indefinite (lambda_min = {lo:.3e})")
        object.__setattr__(self, "mean", mean)


@dataclass(frozen=True, eq=False)
class SampleCloud:
    """A finite set of points treated as a uniform empirical measure."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidInput("points must be a count x d array with count >= 1")
        if not np.all(np.isfinite(pts)):
            raise InvalidInput("cloud has non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_points(cls, points: np.ndarray) -> "SampleCloud":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        return cls(points=pts)


def gaussian_w2(a: GaussianSummary, b: GaussianSummary) -> float:
    """Closed-form W2 between Gaussians:
    sqrt(|mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_b^{1/2} S_a S_b^{1/2})^{1/2})).

    The last trace is the sum of the roots of the eigenvalues of the inner
    matrix, read off one triangle; a diagonal S_b scales S_a entry by entry. Round-off can
    push the trace term slightly negative; it is clamped at zero, as are
    negative covariance eigenvalues inside the roots.
    """
    if a.cov.dim != b.cov.dim:
        raise InvalidInput("summaries have different dimensions")
    if b.cov.is_diagonal:  # the products with the diagonal root of S_b, entry by entry
        s = np.sqrt(np.clip(b.cov.diag, 0.0, None))
        inner = a.cov.mat * s[:, None]
        inner *= s
    else:
        root_b = spd_apply_fn(b.cov, lambda w: np.sqrt(np.clip(w, 0.0, None))).mat
        inner = root_b @ a.cov.mat @ root_b
    spectrum = np.linalg.eigvalsh(inner)
    cross = float(np.sqrt(np.clip(spectrum, 0.0, None)).sum())
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    trace_term = float(a.cov.diag.sum() + b.cov.diag.sum() - 2.0 * cross)
    return float(np.sqrt(mean_term + max(trace_term, 0.0)))


def import_solvers() -> None:
    """Import the scipy routines of the W2 estimators now, if not yet done.

    A caller that evaluates W2 on several threads calls this first, so that
    the first import, which allocates scipy's long-lived module data, runs
    on the calling thread. Run first on a worker thread, it leaves that data
    in the worker's own malloc heap, whose freed cost matrices then cannot
    be reused as one block (seen as ~2 MB more peak RSS at n = 1024).
    """
    import scipy.optimize  # noqa: F401
    import scipy.spatial.distance  # noqa: F401


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact W2 between equal-size clouds: the min-cost perfect matching
    of squared distances, root-mean over the matched pairs.

    The solver's rows are ``b``'s points and its columns ``a``'s (the
    faster way round when ``a`` is a chain's cloud and ``b`` independent
    draws), and its cost matrix is :func:`_reduced_cost`, which has the
    plain problem's optimal matchings, reduced for a chain's cloud by a
    coarse solve's potentials. The matched squared distances are recomputed
    with ``cdist`` and averaged in ``a``'s order, so the result is the plain
    solve's bit for bit unless two matchings' totals differ by less than
    the rounding of the reduced costs (then either is optimal to that
    rounding).
    """
    if a.count != b.count:
        raise InvalidInput(f"cloud sizes differ: {a.count} vs {b.count}")
    if a.count > MAX_CLOUD:
        raise InvalidInput(f"cloud size {a.count} exceeds the cap {MAX_CLOUD}")
    if a.points.shape[1] != b.points.shape[1]:
        raise InvalidInput("clouds have different dimensions")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    rows, cols = linear_sum_assignment(_reduced_cost(b.points, a.points))
    match = np.empty_like(rows)
    match[cols] = rows  # a's point i is matched to b's point match[i]
    blocks = (slice(i, i + _BLOCK) for i in range(0, a.count, _BLOCK))
    squared = [
        np.diagonal(cdist(a.points[k], b.points[match[k]], metric="sqeuclidean")) for k in blocks
    ]
    return float(np.sqrt(np.concatenate(squared).mean()))


def _reduced_cost(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The n x n cost a_i + b_j - 2 x~_i . y~_j of the module docstring,
    less its column minima and then its row minima; for a chain's cloud at
    n >= _WARM_FLOOR, then less the coarse potentials and the minima again.

    M = diag(sd_y / sd_x) is taken from column variances, with scale 1
    where either is zero, so nothing is decomposed. The result is
    nonnegative, with a zero in every row and every column.
    """
    n = x.shape[0]
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    chain = n >= _WARM_FLOOR and any(  # r < _CHAIN_RATIO, false for a constant cloud
        np.linalg.norm(np.diff(c, axis=0)) ** 2 < 2.0 * _CHAIN_RATIO * np.linalg.norm(c) ** 2 for c in (xc, yc)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.sqrt(np.square(yc).sum(axis=0) / np.square(xc).sum(axis=0))
    scale[~(np.isfinite(scale) & (scale > 0.0))] = 1.0
    weights = np.square(xc) @ scale, np.square(yc) @ (1.0 / scale)
    xc *= -2.0  # its weights are taken
    cost = xc @ yc.T
    cost += weights[0][:, None]
    cost += weights[1]
    cost -= cost.min(axis=0)
    cost -= cost.min(axis=1)[:, None]
    if chain:  # the sub-problem on every _COARSE-th row and column, each cloud in its own order
        from scipy.optimize import linear_sum_assignment

        coarse = (np.arange(n // _COARSE) * n) // (n // _COARSE)
        sub = cost[np.ix_(coarse, coarse)]
        u = _coarse_potentials(sub, linear_sum_assignment(sub)[1])[0]
        v = np.full(n, np.inf)
        for i, u_i in zip(coarse, u):  # the c-transform onto all n columns, with no m x n array
            np.minimum(v, cost[i] - u_i, out=v)
        cost -= v
        cost -= cost.min(axis=1)[:, None]
        cost -= cost.min(axis=0)
    return cost


def _coarse_potentials(cost: np.ndarray, match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Potentials (u, v) with u_i + v_j <= cost_ij, tight on (i, match[i])
    if that matching is optimal: Bellman-Ford from v = 0 relaxes
    v_j <- min(v_j, min_i(v_match[i] + cost_ij - cost_i,match[i])) to a fixed
    point, or for m + 1 rounds should rounding leave a tiny negative cycle;
    then u_i = min_j(cost_ij - v_j)."""
    m = cost.shape[0]
    tight, v, work = cost[np.arange(m), match], np.zeros(m), np.empty_like(cost)
    for _ in range(m + 1):
        relaxed = np.minimum(v, np.add(cost, (v[match] - tight)[:, None], out=work).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return np.subtract(cost, v, out=work).min(axis=1), v


def moment_summary(cloud: SampleCloud) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of a cloud."""
    if cloud.count < 2:
        raise InvalidInput("need at least two points for a covariance")
    mean = cloud.points.mean(axis=0)
    centered = cloud.points - mean
    cov = centered.T @ centered
    cov /= cloud.count - 1
    return GaussianSummary(mean=mean, cov=SymMatrix(cov))

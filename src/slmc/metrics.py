"""Wasserstein-2 distances and moment diagnostics.

Two W2 routes are provided: the closed form between Gaussian summaries,
and the exact discrete distance between equal-size sample clouds via
min-cost perfect matching on the squared-distance cost matrix. Exact
matching (rather than an entropic approximation) keeps the result
deterministic and testable against permutation brute force, at the
price of a cloud-size cap.

The matching is warm-started. The solver (a shortest-augmenting-path
method) runs far faster on a cost matrix reduced by good dual
potentials than on the raw squared distances. For any SPD transport
matrix M, |x_i - y_j|^2 differs from a_i + b_j - 2 x~_i . y~_j only by
terms separable in i and j, where x~ and y~ are the clouds centred on
their own means, a_i = x~_i^T M x~_i and b_j = y~_j^T M^-1 y~_j. That
form is one GEMM plus two broadcast adds, nonnegative, and zero where
y~ = M x~. M is the Gaussian transport map between the clouds' moments
when the sample fixes a full covariance (n > d(d+1)/2), and a
per-coordinate scaling otherwise. Subtracting a term from every row and
every column shifts every perfect matching's total by the same amount,
so the optimal matching is the plain problem's; the matched distances
are then recomputed from the points.

The solver and the other scipy routines are imported on first use, so a
run that evaluates no W2 never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .spd import SymMatrix, spd_sqrt

MAX_CLOUD = 4096
_PSD_TOL = 1e-10
#: Below this relative conditioning the Gaussian map gives way to the per-coordinate one.
_WARM_RTOL = 1e-10
#: Rows per block when matched distances are recomputed.
_BLOCK = 32


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
        root_b = spd_sqrt(b.cov, clip_negative=True).mat
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
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial.distance  # noqa: F401


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact W2 between equal-size clouds: the min-cost perfect matching
    of squared distances, root-mean over the matched pairs.

    The solver's rows are ``b``'s points and its columns ``a``'s (the
    faster way round when ``a`` is a chain's cloud and ``b`` independent
    draws), and its cost matrix is :func:`_reduced_cost`, which has the
    plain problem's optimal matchings. The matched squared distances are
    recomputed with ``cdist`` and averaged in ``a``'s order, so the
    result is the plain solve's bit for bit unless two matchings' totals
    differ by less than the rounding of the reduced costs (then either
    is optimal to that rounding).
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
    """The n x n cost a_i + b_j - 2 x~_i . y~_j of the module docstring.

    M is the Gaussian map M = R^-T W diag(sqrt(lam)) W^T R^-1, for
    S_x = R R^T (Cholesky) and R^T S_y R = W diag(lam) W^T, when
    n > d(d+1)/2 (the free entries of a covariance) and no pivot or lam
    is below :data:`_WARM_RTOL` of its largest. Otherwise it is
    diag(sd_y / sd_x) from column variances (scale 1 where either is
    zero), with no decomposition; as that map is far from tight, the
    column and then the row minima are also subtracted (a third off the
    solver at n = 600, d = 512). Entries are nonnegative up to rounding,
    about eps times the largest |x~|^2 + |y~|^2.
    """
    n, d = x.shape
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    gaussian = False
    if n > d * (d + 1) // 2:
        try:
            chol = np.linalg.cholesky(xc.T @ xc / n)
            s = yc @ chol
            pair = SymMatrix(s.T @ s / n).eig
            pivots, lam = np.diagonal(chol) ** 2, pair.values
            gaussian = pivots.min() > _WARM_RTOL * pivots.max() and lam[0] > _WARM_RTOL * lam[-1]
        except (np.linalg.LinAlgError, InvalidInput):
            pass  # singular moments: the per-coordinate map
    if gaussian:
        from scipy.linalg import solve_triangular

        root = np.sqrt(lam)
        white = solve_triangular(chol, xc.T, lower=True).T @ pair.vectors  # x~ R^-T W
        s = s @ pair.vectors
        weights = np.square(white, out=white) @ root, np.square(s, out=s) @ (1.0 / root)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = np.sqrt(np.square(yc).sum(axis=0) / np.square(xc).sum(axis=0))
        scale[~(np.isfinite(scale) & (scale > 0.0))] = 1.0
        weights = np.square(xc) @ scale, np.square(yc) @ (1.0 / scale)
    xc *= -2.0  # its weights are taken
    cost = xc @ yc.T
    cost += weights[0][:, None]
    cost += weights[1]
    if not gaussian:
        cost -= cost.min(axis=0)
        cost -= cost.min(axis=1)[:, None]
    return cost


def moment_summary(cloud: SampleCloud) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of a cloud."""
    if cloud.count < 2:
        raise InvalidInput("need at least two points for a covariance")
    mean = cloud.points.mean(axis=0)
    centered = cloud.points - mean
    cov = centered.T @ centered
    cov /= cloud.count - 1
    return GaussianSummary(mean=mean, cov=SymMatrix(cov))

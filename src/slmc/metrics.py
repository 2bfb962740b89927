"""Wasserstein-2 distances and moment diagnostics.

Two W2 routes are provided: the closed form between Gaussian summaries,
and the exact discrete distance between equal-size sample clouds via
min-cost perfect matching on the squared-distance cost matrix. Exact
matching (rather than an entropic approximation) keeps the result
deterministic and testable against permutation brute force, at the
price of a cloud-size cap.

The matching is warm-started. The solver (a shortest-augmenting-path
method) runs far faster from good dual potentials than from zero, and
the Gaussian transport map between the two clouds' own means and
covariances gives good ones. Subtracting a potential from every row and
every column shifts every perfect matching's total by the same amount,
so the optimal matching is unchanged; the matched distances are then
recomputed from the points, so the result is the plain problem's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInput
from .spd import SymMatrix, spd_sqrt

MAX_CLOUD = 4096
_PSD_TOL = 1e-10
#: Below this relative conditioning the potentials fall back to zero.
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
        eigs = np.linalg.eigvalsh(self.cov.mat)
        lo, hi = float(eigs[0]), float(eigs[-1])
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

    The last trace is the sum of the roots of the inner matrix's
    eigenvalues; a diagonal S_b scales S_a entry by entry. Round-off can
    push the trace term slightly negative; it is clamped at zero, as are
    negative covariance eigenvalues inside the roots.
    """
    if a.cov.dim != b.cov.dim:
        raise InvalidInput("summaries have different dimensions")
    root_b = spd_sqrt(b.cov, clip_negative=True).mat
    if b.cov.eig.perm is None:
        inner = root_b @ a.cov.mat @ root_b
    else:  # the products with the diagonal root_b, entry by entry
        s = np.diagonal(root_b)
        inner = s[:, None] * a.cov.mat * s
    spectrum = np.linalg.eigvalsh(SymMatrix(inner).mat)
    cross = float(np.sqrt(np.clip(spectrum, 0.0, None)).sum())
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    trace_term = float(np.trace(a.cov.mat) + np.trace(b.cov.mat) - 2.0 * cross)
    return float(np.sqrt(mean_term + max(trace_term, 0.0)))


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact W2 between equal-size clouds: the min-cost perfect matching
    of squared distances, root-mean over the matched pairs.

    The solver's rows are ``b``'s points and its columns ``a``'s (the
    faster way round when ``a`` is a chain's cloud and ``b`` independent
    draws). Its cost matrix is reduced in place by the potentials of
    :func:`_transport_potentials`, which leave the optimal matching as
    it is; where they do not exist the plain cost matrix is solved. The
    matched squared distances are recomputed with the cost matrix's own
    arithmetic and averaged in ``a``'s order, so when the optimal
    matching is unique the result is bit for bit the plain solve's.
    """
    if a.count != b.count:
        raise InvalidInput(f"cloud sizes differ: {a.count} vs {b.count}")
    if a.count > MAX_CLOUD:
        raise InvalidInput(f"cloud size {a.count} exceeds the cap {MAX_CLOUD}")
    if a.points.shape[1] != b.points.shape[1]:
        raise InvalidInput("clouds have different dimensions")
    potentials = _transport_potentials(b.points, a.points)
    cost = cdist(b.points, a.points, metric="sqeuclidean")
    if potentials is not None:
        cost -= potentials[0][:, None]
        cost -= potentials[1]
    rows, cols = linear_sum_assignment(cost)
    match = np.empty_like(rows)
    match[cols] = rows  # a's point i is matched to b's point match[i]
    blocks = (slice(i, i + _BLOCK) for i in range(0, a.count, _BLOCK))
    squared = [
        np.diagonal(cdist(a.points[k], b.points[match[k]], metric="sqeuclidean")) for k in blocks
    ]
    return float(np.sqrt(np.concatenate(squared).mean()))


def _transport_potentials(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Row and column potentials u(x_i), v(y_j) for the cost |x_i - y_j|^2.

    With means m_x, m_y and covariances S_x, S_y of the two clouds, the
    Gaussian transport map is T(x) = m_y + M (x - m_x), where
    M = R^{-T} W diag(sqrt(lam)) W^T R^{-1} for S_x = R R^T (Cholesky)
    and R^T S_y R = W diag(lam) W^T. The potentials are chosen so that
    |x - y|^2 - u(x) - v(y) = |T(x) - y|^2 in the metric M^{-1}, which
    is nonnegative and vanishes on the map's graph. None (zero
    potentials) when S_x or R^T S_y R is singular or ill-conditioned,
    which includes count <= d and coincident points, or when a
    potential is not finite.
    """
    n, d = x.shape
    if n <= d:
        return None
    mean_x, mean_y = x.mean(axis=0), y.mean(axis=0)
    shift = mean_x - mean_y
    with np.errstate(all="ignore"):
        r = x - mean_x
        u = np.einsum("ij,ij->i", r, r) + 2.0 * (r @ shift) + shift @ shift
        try:
            chol = np.linalg.cholesky(r.T @ r / n)
            # r R^{-T}, written over r
            white_x = solve_triangular(chol, r.T, lower=True, overwrite_b=True).T
            s = y - mean_y
            v = np.einsum("ij,ij->i", s, s) - 2.0 * (s @ shift)
            s = s @ chol
            pair = SymMatrix(s.T @ s / n).eig
        except (np.linalg.LinAlgError, InvalidInput):
            return None
        pivots, lam = np.diagonal(chol) ** 2, pair.values
        if not (pivots.min() > _WARM_RTOL * pivots.max() and lam[0] > _WARM_RTOL * lam[-1]):
            return None
        root = np.sqrt(lam)
        s = s @ pair.vectors
        v -= np.square(s, out=s) @ (1.0 / root)
        del s
        white_x = white_x @ pair.vectors
        u -= np.square(white_x, out=white_x) @ root
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return None
    return u, v


def moment_summary(cloud: SampleCloud) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of a cloud."""
    if cloud.count < 2:
        raise InvalidInput("need at least two points for a covariance")
    mean = cloud.points.mean(axis=0)
    centered = cloud.points - mean
    cov = centered.T @ centered / (cloud.count - 1)
    return GaussianSummary(mean=mean, cov=SymMatrix(cov))

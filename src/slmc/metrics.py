"""Wasserstein-2 distances and moment diagnostics.

Two W2 routes are provided: the closed form between Gaussian summaries,
and the exact discrete distance between equal-size sample clouds via
min-cost perfect matching on the squared-distance cost matrix. Exact
matching (rather than an entropic approximation) keeps the result
deterministic and testable against permutation brute force, at the
price of a cloud-size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInput
from .spd import SymMatrix, spd_sqrt

MAX_CLOUD = 4096
_PSD_TOL = 1e-10


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

    Round-off can push the trace term slightly negative; it is clamped
    at zero, as are negative covariance eigenvalues inside the roots.
    """
    if a.cov.dim != b.cov.dim:
        raise InvalidInput("summaries have different dimensions")
    root_b = spd_sqrt(b.cov, clip_negative=True).mat
    inner = SymMatrix(root_b @ a.cov.mat @ root_b)
    cross = spd_sqrt(inner, clip_negative=True).mat
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    trace_term = float(np.trace(a.cov.mat) + np.trace(b.cov.mat) - 2.0 * np.trace(cross))
    return float(np.sqrt(mean_term + max(trace_term, 0.0)))


def empirical_w2(a: SampleCloud, b: SampleCloud) -> float:
    """Exact W2 between equal-size clouds: the min-cost perfect matching
    of squared distances, root-mean over the matched pairs."""
    if a.count != b.count:
        raise InvalidInput(f"cloud sizes differ: {a.count} vs {b.count}")
    if a.count > MAX_CLOUD:
        raise InvalidInput(f"cloud size {a.count} exceeds the cap {MAX_CLOUD}")
    if a.points.shape[1] != b.points.shape[1]:
        raise InvalidInput("clouds have different dimensions")
    cost = cdist(a.points, b.points, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def moment_summary(cloud: SampleCloud) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of a cloud."""
    if cloud.count < 2:
        raise InvalidInput("need at least two points for a covariance")
    mean = cloud.points.mean(axis=0)
    centered = cloud.points - mean
    cov = centered.T @ centered / (cloud.count - 1)
    return GaussianSummary(mean=mean, cov=SymMatrix(cov))

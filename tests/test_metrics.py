import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from helpers import random_spd
import slmc
from slmc.errors import InvalidInput
from slmc.metrics import (
    GaussianSummary,
    SampleCloud,
    empirical_w2,
    gaussian_w2,
    moment_summary,
    _reduced_cost,
)
from slmc.spd import SymMatrix, spd_apply_fn


def brute_force_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Exhaustive minimum over all perfect matchings."""
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((a[i] - b[j]) ** 2) for i, j in enumerate(perm))
        best = min(best, cost)
    return float(np.sqrt(best / n))


class TestGaussianW2:
    def test_identical_is_zero(self):
        g = GaussianSummary(mean=np.zeros(2), cov=SymMatrix(np.diag([1.0, 2.0])))
        assert gaussian_w2(g, g) == pytest.approx(0.0, abs=1e-9)

    def test_pure_mean_shift(self):
        a = GaussianSummary(mean=np.zeros(2), cov=SymMatrix(np.eye(2)))
        b = GaussianSummary(mean=np.array([3.0, 0.0]), cov=SymMatrix(np.eye(2)))
        assert gaussian_w2(a, b) == pytest.approx(3.0, rel=1e-12)

    def test_one_dimensional_scale_gap(self):
        a = GaussianSummary(mean=np.zeros(1), cov=SymMatrix([[1.0]]))
        b = GaussianSummary(mean=np.zeros(1), cov=SymMatrix([[4.0]]))
        # quantile coupling in 1-D: |sigma_a - sigma_b|
        assert gaussian_w2(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(InvalidInput):
            GaussianSummary(mean=np.zeros(2), cov=SymMatrix(np.diag([1.0, -0.5])))

    def test_dense_indefinite_covariance_rejected(self):
        with pytest.raises(InvalidInput, match="indefinite"):
            GaussianSummary(mean=np.zeros(2), cov=SymMatrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_rank_deficient_gram_matrix_passes_through_the_spectrum(self, monkeypatch):
        # two points in d = 3 with a constant coordinate: the Gram matrix has a zero
        # row, so Cholesky fails exactly and the eigenvalues decide
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: (calls.append(a.shape), eigvalsh(a))[1])
        summary = moment_summary(SampleCloud.from_points(np.array([[1.0, 0.0, 5.0], [-1.0, 2.0, 5.0]])))
        assert calls == [(3, 3)]
        assert np.linalg.matrix_rank(summary.cov.mat) == 1

    def test_positive_definite_covariance_needs_no_spectrum(self, monkeypatch):
        cov = random_spd(np.random.default_rng(71), 6)

        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        GaussianSummary(mean=np.zeros(6), cov=cov)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        a = GaussianSummary(mean=rng.standard_normal(d), cov=random_spd(rng, d))
        b = GaussianSummary(mean=rng.standard_normal(d), cov=random_spd(rng, d))
        assert gaussian_w2(a, b) == pytest.approx(gaussian_w2(b, a), abs=1e-10)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        gs = [
            GaussianSummary(mean=rng.standard_normal(d), cov=random_spd(rng, d))
            for _ in range(3)
        ]
        ab = gaussian_w2(gs[0], gs[1])
        bc = gaussian_w2(gs[1], gs[2])
        ac = gaussian_w2(gs[0], gs[2])
        assert ac <= ab + bc + 1e-8


    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_diagonal_b_matches_the_dense_formula(self, d):
        rng = np.random.default_rng(d)
        a = GaussianSummary(mean=rng.standard_normal(d), cov=random_spd(rng, d))
        b = GaussianSummary(mean=rng.standard_normal(d), cov=SymMatrix.diagonal(rng.uniform(0.1, 5.0, d)))
        assert b.cov.is_diagonal
        root_b = np.diag(np.sqrt(np.diagonal(b.cov.mat)))
        inner = SymMatrix(root_b @ a.cov.mat @ root_b)
        cross = np.trace(spd_apply_fn(inner, np.sqrt).mat)
        expected = np.sqrt(
            np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov.mat) + np.trace(b.cov.mat) - 2.0 * cross
        )
        assert gaussian_w2(a, b) == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("stored", ["diagonal", "dense"])
    def test_unsymmetrized_inner_matrix_matches_the_symmetrized_one(self, stored):
        # eigvalsh reads one triangle of the inner matrix, which round-off leaves
        # slightly asymmetric; the symmetrized matrix gives the same W2 to rounding
        rng = np.random.default_rng(64)
        d = 64
        a = moment_summary(SampleCloud.from_points(rng.standard_normal((300, d)) @ random_spd(rng, d).mat))
        cov = SymMatrix.diagonal(rng.uniform(0.1, 5.0, d)) if stored == "diagonal" else random_spd(rng, d)
        b = GaussianSummary(mean=rng.standard_normal(d), cov=cov)
        root_b = spd_apply_fn(b.cov, np.sqrt).mat
        inner = root_b @ a.cov.mat @ root_b
        assert not np.array_equal(inner, inner.T)
        spectrum = np.linalg.eigvalsh(SymMatrix(inner).mat)
        cross = np.sqrt(np.clip(spectrum, 0.0, None)).sum()
        expected = np.sqrt(
            np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov.mat) + np.trace(b.cov.mat) - 2.0 * cross
        )
        assert gaussian_w2(a, b) == pytest.approx(expected, rel=1e-12)


class TestEmpiricalW2:
    def test_identical_clouds(self):
        cloud = SampleCloud.from_points(np.arange(12.0).reshape(6, 2))
        assert empirical_w2(cloud, cloud) == 0.0

    def test_two_singletons(self):
        a = SampleCloud.from_points(np.array([[0.0]]))
        b = SampleCloud.from_points(np.array([[5.0]]))
        assert empirical_w2(a, b) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            a = rng.standard_normal((5, 2))
            b = rng.standard_normal((5, 2))
            fast = empirical_w2(SampleCloud.from_points(a), SampleCloud.from_points(b))
            assert fast == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        shuffled = pts[rng.permutation(40)]
        assert empirical_w2(
            SampleCloud.from_points(pts), SampleCloud.from_points(shuffled)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_counts_rejected(self):
        a = SampleCloud.from_points(np.zeros((3, 1)))
        b = SampleCloud.from_points(np.zeros((4, 1)))
        with pytest.raises(InvalidInput):
            empirical_w2(a, b)

    def test_cap_enforced(self):
        a = SampleCloud.from_points(np.zeros((4097, 1)))
        with pytest.raises(InvalidInput):
            empirical_w2(a, a)

    def test_consistency_with_gaussian_w2(self):
        rng = np.random.default_rng(123)
        mean_b = np.array([2.0, 0.0, 0.0])
        cov_b = np.diag([1.0, 2.0, 0.5])
        a_pts = rng.standard_normal((1024, 3))
        b_pts = mean_b + rng.standard_normal((1024, 3)) @ np.diag(np.sqrt(np.diag(cov_b)))
        exact = gaussian_w2(
            GaussianSummary(mean=np.zeros(3), cov=SymMatrix(np.eye(3))),
            GaussianSummary(mean=mean_b, cov=SymMatrix(cov_b)),
        )
        emp = empirical_w2(SampleCloud.from_points(a_pts), SampleCloud.from_points(b_pts))
        assert abs(emp - exact) / exact < 0.15

    def test_warm_start_keeps_the_plain_matching(self):
        rng = np.random.default_rng(2024)

        def ar1(n, d):  # a chain-like cloud: strongly correlated consecutive points
            z = np.empty((n, d))
            z[0] = rng.standard_normal(d)
            for i in range(1, n):
                z[i] = 0.9 * z[i - 1] + np.sqrt(1 - 0.9**2) * rng.standard_normal(d)
            return z

        pairs = {
            "iid": lambda n, d: (rng.standard_normal((n, d)), rng.standard_normal((n, d))),
            "shifted-scaled": lambda n, d: (
                3.0 + 2.0 * rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d),
                rng.standard_normal((n, d)),
            ),
            "ar1": lambda n, d: (ar1(n, d), rng.standard_normal((n, d))),
        }
        cases = [(kind, n, d) for kind in pairs for d in (1, 2, 3, 10) for n in (2, 50, 300)]
        cases += [("iid", 3, 10), ("iid", 10, 10), ("iid", 1, 1), ("iid", 1, 3)]
        # the per-coordinate map with n > d, as at every other n and d
        cases += [(kind, 300, 40) for kind in pairs]
        for kind, n, d in cases:
            self._check(*pairs[kind](n, d))
        same, other = np.full((40, 2), 1.5), np.full((40, 2), -0.5)
        self._check(same, same)
        self._check(same, other)
        # one coincident cloud: every matching is optimal, and the solves may
        # sum the same distances in different orders
        self._check(same, rng.standard_normal((40, 2)), rel=1e-14)
        self._check(rng.standard_normal((40, 2)), same, rel=1e-14)
        for d in (3, 40):  # one constant coordinate, in either cloud
            a, b = rng.standard_normal((300, d)), rng.standard_normal((300, d))
            a[:, 1] = 0.7
            self._check(a, b)
            self._check(b, a)

    @staticmethod
    def _check(a, b, rel=0.0):
        cost = cdist(a, b, metric="sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        plain = float(np.sqrt(cost[rows, cols].mean()))
        found = empirical_w2(SampleCloud.from_points(a), SampleCloud.from_points(b))
        assert found == plain if rel == 0.0 else found == pytest.approx(plain, rel=rel)
        # rows are b's points: the reduced cost is the plain one shifted by a
        # row term plus a column term, and nonnegative
        reduced = _reduced_cost(b, a)
        shift = reduced - cost.T
        double = shift - shift[:, :1] - shift[:1, :] + shift[0, 0]
        assert np.abs(double).max() <= 1e-9 * cost.max()
        assert reduced.min() >= -1e-9 * cost.max()

    def test_small_sample_needs_no_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposition in the matching")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        rng = np.random.default_rng(31)
        # n below and above d(d + 1)/2, the free entries of a covariance
        for n, d in ((120, 64), (1024, 2), (300, 3)):
            a = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d)
            self._check(a, rng.standard_normal((n, d)))

    def test_degenerate_clouds_raise_no_warnings(self):
        rng = np.random.default_rng(8)
        flat = rng.standard_normal((50, 2))
        flat[:, 0] = -3.25
        cases = [
            (np.array([[0.5, 1.0]]), np.array([[-2.0, 4.0]])),  # n = 1
            (np.full((40, 2), 1.5), np.full((40, 2), 1.5)),  # coincident clouds
            (np.full((40, 2), 1.5), np.full((40, 2), -0.5)),
            (flat, rng.standard_normal((50, 2))),  # a zero-variance coordinate
            (rng.standard_normal((50, 2)), flat),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in cases:
                self._check(a, b)


class TestMomentSummary:
    def test_two_points(self):
        summary = moment_summary(SampleCloud.from_points(np.array([[-1.0], [1.0]])))
        assert summary.mean[0] == 0.0
        assert summary.cov.mat[0, 0] == pytest.approx(2.0)

    def test_degenerate_cloud(self):
        summary = moment_summary(SampleCloud.from_points(np.ones((10, 2))))
        assert np.allclose(summary.cov.mat, 0.0)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(55)
        pts = rng.standard_normal((100_000, 2)) @ np.diag([1.0, 2.0])
        summary = moment_summary(SampleCloud.from_points(pts))
        assert np.allclose(summary.cov.mat, np.diag([1.0, 4.0]), rtol=0.05, atol=0.02)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInput):
            moment_summary(SampleCloud.from_points(np.zeros((1, 2))))


class TestSampleCloud:
    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            SampleCloud.from_points(np.array([[np.nan, 0.0]]))


def test_importing_slmc_loads_no_scipy():
    # scipy is imported by the first W2 that needs it, not on import: slmc.cli imports every module
    code = "import sys, slmc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(slmc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

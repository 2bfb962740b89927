import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_config, random_spd
from slmc.errors import InvalidInput, SingularMatrix
from slmc.metrics import GaussianSummary, SampleCloud, gaussian_w2, moment_summary
from slmc.sampler import make_step_cache
from slmc.spd import MAX_DIM, EigenPair, SymMatrix, spd_apply_fn
from slmc.targets import make_gaussian, sample_exact_positions

SORTED_DIAGONALS = pytest.mark.parametrize(
    "entries",
    [
        [1.0],
        [1.0, 1.0, 1.0],
        [0.5, 2.0, 2.0, 2.0, 7.0],
        [-3.0, 0.0, 0.0, 1e-300, 4.0],
        np.repeat(np.geomspace(1.0, 100.0, 40), 3),
        np.ones(512),
    ],
    ids=["d1", "identity", "ties", "signs-and-zeros", "geomspace-ties", "i512"],
)
UNSORTED_DIAGONALS = pytest.mark.parametrize(
    "entries",
    [
        1.0 / np.geomspace(1.0, 100.0, 512),
        [3.0, 1.0, 2.0, 1.0, 5.0],
        [5.0, 5.0, 3.0, 3.0, 1.0, 1.0],
        np.random.default_rng(10).standard_normal(300),
        np.random.default_rng(11).permutation(np.geomspace(1.0, 100.0, 512)),
    ],
    ids=["descending", "ties", "descending-ties", "random", "shuffled"],
)


class TestSymMatrix:
    def test_symmetrizes_small_noise(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]])
        sym = SymMatrix(m)
        assert np.array_equal(sym.mat, sym.mat.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(InvalidInput):
            SymMatrix(np.eye(4097))

    def test_stored_matrix_read_only(self):
        sym = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            sym.mat[0, 0] = 5.0

    def test_decomposition_kept_and_read_only(self):
        m = random_spd(np.random.default_rng(3), 3)
        assert m.eig is m.eig
        for array in (m.eig.values, m.eig.vectors):
            with pytest.raises(ValueError):
                array[0] = 5.0

    @pytest.mark.parametrize(
        "entries",
        [[np.nan, 1.0], [1.0, np.inf], [-np.inf], [], np.ones(MAX_DIM + 1), np.eye(2), 3.0],
        ids=["nan", "inf", "minus-inf", "empty", "oversized", "matrix", "scalar"],
    )
    def test_diagonal_rejects_bad_entries(self, entries):
        with pytest.raises(InvalidInput):
            SymMatrix.diagonal(entries)

    def test_diagonal_keeps_a_read_only_copy_of_its_entries(self):
        entries = np.array([3.0, 1.0, 2.0])
        m = SymMatrix.diagonal(entries)
        entries[0] = 9.0
        assert np.array_equal(m.diag, [3.0, 1.0, 2.0])
        assert m.dim == 3 and m.is_diagonal
        for array in (m.diag, m.mat):
            with pytest.raises(ValueError):
                array[0] = 5.0
        assert m.mat is m.mat

    def test_diagonal_builds_no_dense_array_until_mat_is_read(self):
        tracemalloc.start()
        try:
            m = SymMatrix.diagonal(np.geomspace(1.0, 100.0, MAX_DIM))
            assert m.dim == MAX_DIM and m.is_diagonal
            assert spd_apply_fn(spd_apply_fn(m, lambda w: 1.0 / w), np.sqrt).is_diagonal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one MAX_DIM x MAX_DIM array is 128 MiB

    def test_step_cache_shares_the_decomposition_of_a(self):
        config = make_config(random_spd(np.random.default_rng(4), 3))
        assert make_step_cache(config, 0.1).config.A.eig is config.A.eig


class TestSymEig:
    def test_dense_or_signed_eigenvectors_have_no_permutation(self, monkeypatch):
        assert EigenPair._fields == ("values", "vectors")
        eigh = np.linalg.eigh

        def signed_eigh(a):
            values, vectors = eigh(a)
            return values, -vectors

        # every matrix, a diagonal too, takes eigh's vectors as they come, signs included
        monkeypatch.setattr(np.linalg, "eigh", signed_eigh)
        for m in (random_spd(np.random.default_rng(6), 3), SymMatrix.diagonal([4.0, 1.0, 2.0])):
            values, vectors = eigh(m.mat)
            assert np.array_equal(m.eig.values, values)
            assert np.array_equal(m.eig.vectors, -vectors)

    def test_identity(self):
        pair = SymMatrix(np.eye(3)).eig
        assert np.allclose(pair.values, [1.0, 1.0, 1.0])
        assert np.allclose(pair.vectors @ pair.vectors.T, np.eye(3), atol=1e-10)

    def test_diagonal(self):
        pair = SymMatrix(np.diag([2.0, 8.0])).eig
        assert np.allclose(pair.values, [2.0, 8.0])
        # axis-aligned basis up to sign
        assert np.allclose(np.abs(pair.vectors), np.eye(2), atol=1e-12)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        m = random_spd(rng, 4, lo=0.5, hi=20.0)
        pair = m.eig
        for i in range(4):
            residual = m.mat @ pair.vectors[:, i] - pair.values[i] * pair.vectors[:, i]
            assert np.linalg.norm(residual) < 1e-9

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        m = random_spd(rng, d)
        pair = m.eig
        assert np.allclose(pair.vectors.T @ pair.vectors, np.eye(d), atol=1e-10)
        rebuilt = (pair.vectors * pair.values) @ pair.vectors.T
        assert np.allclose(rebuilt, m.mat, rtol=1e-10, atol=1e-10)


class TestApplyFn:
    def test_inverse_of_singular_raises(self):
        with pytest.raises(SingularMatrix):
            spd_apply_fn(SymMatrix(np.diag([1.0, 0.0])), lambda w: 1.0 / w)

    def test_non_vectorized_function_rejected(self):
        with pytest.raises(InvalidInput):
            spd_apply_fn(SymMatrix(np.diag([4.0, 9.0])), lambda w: float(w[0]) ** 0.5)

    @pytest.mark.parametrize(
        "entries", [[3.0], [1.0, 4.0], [4.0, 1.0, 2.0], [2.0, -1.0, 0.0, 2.0], np.geomspace(100.0, 1.0, 512)]
    )
    def test_permutation_basis_stays_diagonal(self, entries):
        m = SymMatrix.diagonal(entries)
        assert m.is_diagonal
        for fn in (np.sqrt, np.exp, lambda w: 1.0 / w):
            if fn is not np.exp and min(entries) <= 0:
                continue
            out = spd_apply_fn(m, fn)
            dense = (m.eig.vectors * fn(m.eig.values)) @ m.eig.vectors.T
            assert np.array_equal(out.mat, dense)
            assert np.array_equal(np.diagonal(out.mat), fn(np.asarray(entries, dtype=float)))
            assert out.is_diagonal

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_inverse_roundtrip(self, seed):
        # the spectral inverse is how make_gaussian forms the position covariance
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        m = random_spd(rng, d, lo=1e-4, hi=1e4)  # condition number <= 1e8
        inverse = spd_apply_fn(m, lambda w: 1.0 / w)
        assert np.allclose(inverse.mat @ m.mat, np.eye(d), atol=1e-9)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDiagonalStorage:
    """``SymMatrix.diagonal(e)`` keeps only e, and gives what the dense
    ``SymMatrix(np.diag(e))`` gives, bit for bit."""

    @staticmethod
    def pair(entries):
        entries = np.asarray(entries, dtype=float)
        return SymMatrix.diagonal(entries), SymMatrix(np.diag(entries))

    @SORTED_DIAGONALS
    def test_sorted_matches_dense(self, entries):
        self.check(entries)

    @UNSORTED_DIAGONALS
    def test_unsorted_matches_dense(self, entries):
        self.check(entries)

    def check(self, entries):
        stored, dense = self.pair(entries)
        assert same_bits(stored.mat, dense.mat)
        assert same_bits(stored.diag, dense.diag)
        assert same_bits(stored.eig.values, dense.eig.values)
        assert same_bits(stored.eig.vectors, dense.eig.vectors)
        assert stored.extremes == (dense.eig.values[0], dense.eig.values[-1])
        fns = [np.exp, lambda w: np.sqrt(np.clip(w, 0.0, None))]
        if np.min(entries) > 0.0:
            fns.append(lambda w: 1.0 / w)
        for fn in fns:
            out, ref = spd_apply_fn(stored, fn), spd_apply_fn(dense, fn)
            assert same_bits(out.diag, ref.diag) and same_bits(out.mat, ref.mat)

    @pytest.mark.parametrize(
        "entries",
        [
            [3.0],
            [1.0, 4.0],
            [4.0, 1.0, 2.0],
            [5.0, 5.0, 3.0, 3.0, 1.0, 1.0],
            np.geomspace(100.0, 1.0, 512),
            np.random.default_rng(11).permutation(np.geomspace(1.0, 100.0, 512)),
        ],
        ids=["d1", "sorted", "unsorted", "ties", "descending", "shuffled"],
    )
    def test_targets_and_w2_match_dense(self, entries):
        # the entries serve as a precision and, stored either way, as a covariance
        stored, dense = self.pair(entries)
        d = stored.dim
        rng = np.random.default_rng(d)
        mean, x = rng.standard_normal(d), rng.standard_normal((d + 8, d))
        targets = [make_gaussian(mean, p) for p in (stored, dense)]
        assert same_bits(targets[0].grad_oracle(x), targets[1].grad_oracle(x))
        assert same_bits(targets[0].position_cov.mat, targets[1].position_cov.mat)
        draws = [
            sample_exact_positions(replace(targets[0], position_cov=cov), d + 8, np.random.default_rng(12))
            for cov in (stored, dense)
        ]
        assert same_bits(draws[0], draws[1])
        sample = moment_summary(SampleCloud.from_points(draws[0] + 0.1 * x))
        exact = [GaussianSummary(mean=mean, cov=cov) for cov in (stored, dense)]
        assert gaussian_w2(sample, exact[0]) == gaussian_w2(sample, exact[1])
        assert gaussian_w2(exact[0], sample) == gaussian_w2(exact[1], sample)
        assert gaussian_w2(exact[0], exact[0]) == gaussian_w2(exact[1], exact[1])

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

import slmc.targets
from helpers import random_logistic
from slmc.errors import InvalidInput, MinimizerNotFound, NotPositiveDefinite
from slmc.spd import SymMatrix
from slmc.targets import (
    InitSpec,
    TargetModel,
    grad_check,
    load_logistic_csv,
    make_gaussian,
    make_logistic_ridge,
    sample_exact_positions,
)


@pytest.fixture
def logistic_target():
    return random_logistic(42, rows=20, d=3, ridge=0.5)


class TestGaussian:
    def test_diagonal_constants(self):
        t = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 100.0])))
        assert t.m == 1.0 and t.L == 100.0 and t.kappa == 100.0

    def test_identity_kappa_one(self):
        t = make_gaussian(np.zeros(3), SymMatrix(np.eye(3)))
        assert t.kappa == 1.0

    def test_offdiagonal_eigenvalues(self):
        t = make_gaussian(np.zeros(2), SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        assert np.isclose(t.m, 1.0) and np.isclose(t.L, 3.0)

    def test_non_spd_precision_rejected(self):
        with pytest.raises(InvalidInput):
            make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, -2.0])))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, entry):
        # a NaN minimizer has a NaN gradient there, which passed the |grad f| check
        with pytest.raises(InvalidInput, match="minimizer has non-finite entries"):
            make_gaussian(np.array([entry, 0.0]), SymMatrix.diagonal([1.0, 4.0]))

    def test_hessian_constant_everywhere(self):
        t = make_gaussian(np.ones(2), SymMatrix(np.array([[2.0, 0.5], [0.5, 1.0]])))
        assert t.hess_constant
        h1 = t.hess_oracle(np.zeros(2)).mat
        h2 = t.hess_oracle(np.array([5.0, -3.0])).mat
        assert np.array_equal(h1, h2)

    def test_diagonal_precision_is_applied_elementwise(self):
        precision = SymMatrix.diagonal([4.0, 1.0, 2.0])
        mean = np.array([0.5, -1.0, 2.0])
        t = make_gaussian(mean, precision)
        assert precision.is_diagonal
        xs = np.random.default_rng(8).standard_normal((5, 3))
        assert np.array_equal(t.grad_oracle(xs), (xs - mean) @ precision.mat)
        for x in xs:
            r = x - mean
            assert np.array_equal(t.grad_oracle(x), r @ precision.mat)
            assert t.value_oracle(x) == 0.5 * float(r @ (precision.mat @ r))

    def test_dense_precision_gradient(self):
        precision = SymMatrix(np.array([[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 3.0]]))
        mean = np.array([0.5, -1.0, 2.0])
        t = make_gaussian(mean, precision)
        assert not precision.is_diagonal
        xs = np.random.default_rng(9).standard_normal((5, 3))
        expected = np.array([precision.mat @ (x - mean) for x in xs])
        assert np.allclose(t.grad_oracle(xs), expected, rtol=1e-12, atol=0.0)
        for x, g in zip(xs, expected):
            assert np.allclose(t.grad_oracle(x), g, rtol=1e-12, atol=0.0)
            assert t.value_oracle(x) == pytest.approx(0.5 * (x - mean) @ g, rel=1e-12)

    def test_gradient_exact(self):
        t = make_gaussian(np.ones(2), SymMatrix(np.diag([1.0, 4.0])))
        assert grad_check(t, np.array([0.3, -0.7])) <= 1e-6

    def test_position_cov_is_precision_inverse(self):
        p = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        t = make_gaussian(np.zeros(2), p)
        assert np.allclose(t.position_cov.mat @ p.mat, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 16, 512])
    def test_diagonal_position_cov_scales_the_draws(self, d):
        t = make_gaussian(np.linspace(-1.0, 1.0, d), SymMatrix.diagonal(np.geomspace(1.0, 100.0, d)))
        assert t.position_cov.is_diagonal
        draws = sample_exact_positions(t, 7, np.random.default_rng(d))
        chol = np.linalg.cholesky(t.position_cov.mat)
        expected = t.minimizer + np.random.default_rng(d).standard_normal((7, d)) @ chol.T
        assert np.array_equal(draws, expected)

    def test_negative_diagonal_position_cov_raises(self):
        t = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        indefinite = replace(t, position_cov=SymMatrix(np.diag([-1.0, 2.0])))
        with pytest.raises(NotPositiveDefinite):
            sample_exact_positions(indefinite, 4, np.random.default_rng(0))

    def test_singular_position_cov_raises(self):
        # exact draws factor position_cov as it is, with no jitter
        t = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        singular = replace(t, position_cov=SymMatrix(np.diag([1.0, 0.0])))
        with pytest.raises(NotPositiveDefinite):
            sample_exact_positions(singular, 4, np.random.default_rng(0))


class TestLogisticRidge:
    def test_zero_features_pure_quadratic(self):
        t = make_logistic_ridge(np.zeros((5, 2)), np.ones(5), ridge=2.0)
        assert t.m == 2.0 and t.L == 2.0
        assert np.allclose(t.minimizer, 0.0, atol=1e-10)
        assert t.hess_constant

    def test_single_row_smoothness_bound(self):
        t = make_logistic_ridge(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=1.0)
        assert np.isclose(t.L, 1.25)

    def test_grad_check_at_zero(self, logistic_target):
        assert grad_check(logistic_target, np.zeros(3)) <= 1e-5

    def test_grad_check_at_random_point(self, logistic_target):
        rng = np.random.default_rng(3)
        assert grad_check(logistic_target, rng.standard_normal(3)) <= 1e-5

    def test_minimizer_gradient_small(self, logistic_target):
        g = logistic_target.grad_oracle(logistic_target.minimizer)
        assert np.linalg.norm(g) <= 1e-10

    def test_extreme_margins_stay_exact(self):
        # margins past +-750 overflow exp(z) to inf and underflow exp(-|z|) to 0;
        # neither may warn, and the results must match expit-based sums, as they
        # must at ordinary margins (the first point)
        rng = np.random.default_rng(12)
        features = rng.standard_normal((40, 3))
        labels = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
        ridge = 0.5
        ya = features * labels[:, None]
        direction = rng.standard_normal(3)
        points = [direction * (r / np.abs(ya @ direction).max()) for r in (1.0, 1000.0, 1e4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = make_logistic_ridge(features, labels, ridge=ridge)
            batch = t.grad_oracle(np.array(points))
            for i, x in enumerate(points):
                z = ya @ x
                assert i == 0 or (z.max() > 750.0 and z.min() < -750.0)
                g, h = t.grad_oracle(x), t.hess_oracle(x).mat
                assert np.isfinite(g).all() and np.isfinite(h).all()
                reference = ridge * x - expit(-z) @ ya
                np.testing.assert_allclose(g, reference, rtol=1e-13)
                np.testing.assert_allclose(batch[i], reference, rtol=1e-13)
                w = expit(z) * expit(-z)
                np.testing.assert_allclose(
                    h, (ya * w[:, None]).T @ ya + ridge * np.eye(3), rtol=1e-12
                )
            # one row: sigma(-z) is exactly 0 at z = 800 and exactly 1 at z = -800
            one = make_logistic_ridge(np.array([[1.0, 0.0]]), np.array([1.0]), ridge=ridge)
            for x, sigma in ((np.array([800.0, 0.0]), 0.0), (np.array([-800.0, 0.0]), 1.0)):
                assert np.array_equal(one.grad_oracle(x), ridge * x - sigma * np.array([1.0, 0.0]))
                assert np.array_equal(one.hess_oracle(x).mat, ridge * np.eye(2))

    def test_newton_budget_exhaustion(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((30, 2)) * 4.0
        labels = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        with pytest.raises(MinimizerNotFound):
            make_logistic_ridge(features, labels, ridge=0.1, max_newton_iter=1)

    def test_newton_polishes_past_a_stalled_line_search(self):
        # near this optimum the line search cannot resolve the decrease it asks
        # for and stalls at |g| ~ 2.6e-10; full Newton steps reach the tolerance
        t = random_logistic(45, rows=2000, d=20, ridge=0.5)
        assert np.linalg.norm(t.grad_oracle(t.minimizer)) <= 1e-10

    def test_bad_labels_rejected(self):
        with pytest.raises(InvalidInput):
            make_logistic_ridge(np.zeros((2, 1)), np.array([0.0, 1.0]), ridge=1.0)

    def test_nonpositive_ridge_rejected(self):
        with pytest.raises(InvalidInput):
            make_logistic_ridge(np.zeros((2, 1)), np.array([1.0, -1.0]), ridge=0.0)


class TestSharedInvariants:
    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_convexity_lower_bound(self, which, logistic_target):
        if which == "gaussian":
            target = make_gaussian(np.zeros(3), SymMatrix(np.diag([1.0, 2.0, 5.0])))
        else:
            target = logistic_target
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.standard_normal(target.dim)
            y = rng.standard_normal(target.dim)
            gap = (
                target.value_oracle(y)
                - target.value_oracle(x)
                - target.grad_oracle(x) @ (y - x)
            )
            assert gap >= 0.5 * target.m * np.sum((y - x) ** 2) - 1e-9

    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_hessian_spectral_bound(self, which, logistic_target):
        if which == "gaussian":
            target = make_gaussian(np.zeros(3), SymMatrix(np.diag([1.0, 2.0, 5.0])))
        else:
            target = logistic_target
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.standard_normal(target.dim)
            top = target.hess_oracle(x).eig.values[-1]
            assert top <= target.L + 1e-9


class TestBatchContract:
    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_batch_rows_match_single_points(self, which, logistic_target):
        if which == "gaussian":
            rng = np.random.default_rng(21)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            precision = SymMatrix((q * [1.0, 3.0, 9.0]) @ q.T)
            target = make_gaussian(np.array([0.5, -1.0, 2.0]), precision)
        else:
            target = logistic_target
        points = np.random.default_rng(22).standard_normal((5, target.dim))
        batch = target.grad_oracle(points)
        assert batch.shape == (5, target.dim)
        rows = np.stack([target.grad_oracle(x) for x in points])
        assert np.allclose(batch, rows, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "shape, block",
        [((25, 3), None), ((25, 3), 50), ((2000, 20), None)],
        ids=["25x3", "25x3-small-blocks", "2000x20"],
    )
    def test_hessian_batch_matches_points(self, monkeypatch, shape, block):
        # a batch is one blocked product W @ Q, summed in another order than a
        # point's (B * w) @ B^T: equal to rounding, and exactly symmetric
        if block is not None:  # 8 rows and 6 probes a block: every loop runs more than once
            monkeypatch.setattr(slmc.targets, "_HESS_BLOCK", block)
        rows, d = shape
        if d == 3:
            target = random_logistic(21, rows=rows, d=d, ridge=0.3, scale=1.5)
        else:
            target = random_logistic(7, rows=rows, d=d, ridge=1.0)
        points = np.random.default_rng(23).standard_normal((20, d)) * 2.0
        batch = target.hess_oracle(points)
        assert batch.shape == (20, d, d)
        assert np.array_equal(batch, batch.transpose(0, 2, 1))
        singles = [target.hess_oracle(x) for x in points]
        assert all(isinstance(h, SymMatrix) for h in singles)
        expected = np.stack([h.mat for h in singles])
        assert np.abs(batch - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("stored", ["diagonal", "dense"])
    def test_gaussian_hessian_batch_is_its_precision_repeated(self, stored):
        entries = [4.0, 1.0, 2.0]
        dense = SymMatrix(np.diag(entries))
        precision = SymMatrix.diagonal(entries) if stored == "diagonal" else dense
        target = make_gaussian(np.zeros(3), precision)
        assert target.hess_oracle(np.zeros(3)) is precision
        batch = target.hess_oracle(np.ones((4, 3)))
        assert batch.shape == (4, 3, 3)
        assert all(np.array_equal(h, precision.mat) for h in batch)

    @staticmethod
    def model_with(grad):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        return TargetModel(
            dim=2,
            name="row-blind",
            value_oracle=target.value_oracle,
            grad_oracle=grad,
            hess_oracle=target.hess_oracle,
            m=target.m,
            L=target.L,
            minimizer=target.minimizer,
        )

    def test_non_batched_oracle_rejected(self):
        with pytest.raises(InvalidInput):
            self.model_with(lambda x: np.array([x[0], 4.0 * x[1]]))

    def test_oracle_dropping_the_batch_axis_rejected(self):
        p = np.diag([1.0, 4.0])
        with pytest.raises(InvalidInput):
            self.model_with(lambda x: p @ x.reshape(-1))


class TestGradInFrame:
    """The gradient in y = x V, y -> grad(y V^T) V, for an orthogonal V."""

    @staticmethod
    def frame(d, seed=31):
        return np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]

    def test_folded_logistic_gradient_matches_the_rotated_oracle(self):
        target = random_logistic(46, rows=60, d=5, ridge=0.5)
        vectors = self.frame(5)
        y = np.random.default_rng(32).standard_normal((4, 5))
        folded = target.grad_in_frame(vectors)(y)
        reference = target.grad_oracle(y @ vectors.T) @ vectors
        assert folded.shape == (4, 5)
        assert np.abs(folded - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.allclose(target.grad_in_frame(vectors)(y[0]), reference[0], rtol=1e-12, atol=1e-14)

    def test_folding_reruns_no_newton(self, monkeypatch):
        # the logistic map folds V into its design and builds no new target
        target = random_logistic(46, rows=60, d=5, ridge=0.5)

        def refuse(*args):
            raise AssertionError("Newton rerun")

        monkeypatch.setattr(slmc.targets, "_newton_minimize", refuse)
        monkeypatch.setattr(slmc.targets.TargetModel, "__post_init__", refuse)
        target.grad_in_frame(self.frame(5))(np.ones((4, 5)))

    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_a_replaced_oracle_is_called_once_per_call(self, which, logistic_target):
        if which == "gaussian":
            base = make_gaussian(np.array([0.5, -1.0, 2.0]), SymMatrix(np.diag([1.0, 3.0, 9.0])))
        else:
            base = logistic_target
        calls = []
        target = replace(base, grad_oracle=lambda x: (calls.append(len(x)), base.grad_oracle(x))[1])
        calls.clear()  # discard the contract check made on construction
        vectors = self.frame(3)
        y = np.random.default_rng(33).standard_normal((4, 3))
        got = target.grad_in_frame(vectors)(y)
        assert calls == [4]
        reference = base.grad_oracle(y @ vectors.T) @ vectors
        assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    @staticmethod
    def folded_logistic(rows=300, d=5, seed=47):
        """A logistic target, a frame V and D = V^T B, B = (y_i a_i)^T stored C-contiguous
        as the target stores it."""
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((rows, d))
        labels = np.where(rng.standard_normal(rows) > 0, 1.0, -1.0)
        vectors = TestGradInFrame.frame(d, seed)
        design = vectors.T @ np.ascontiguousarray((features * labels[:, None]).T)
        return make_logistic_ridge(features, labels, ridge=0.5), vectors, design

    def test_logistic_frame_oracle_is_bit_equal_across_batch_sizes_and_a_point(self):
        # its margin buffer is kept per leading shape: (4, d), (2, d), (4, d) again, (d,)
        target, vectors, design = self.folded_logistic()
        oracle = target.grad_in_frame(vectors)
        rng = np.random.default_rng(48)
        for shape in ((4, 5), (2, 5), (4, 5), (5,)):
            y = rng.standard_normal(shape)
            reference = 0.5 * y - (1.0 / (1.0 + np.exp(y @ design))) @ design.T
            got = oracle(y)
            assert got.shape == shape and np.array_equal(got, reference)

    def test_logistic_frame_oracle_at_extreme_margins_under_the_callers_errstate(self):
        target, vectors, design = self.folded_logistic(rows=40, d=3)
        direction = np.random.default_rng(49).standard_normal(3)
        y = np.array([direction * (r / np.abs(direction @ design).max()) for r in (1.0, 1e4, 1e5)])
        z = y @ design
        assert (z[1:].max(axis=1) > 750.0).all() and (z[1:].min(axis=1) < -750.0).all()
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            got = target.grad_in_frame(vectors)(y)
        reference = 0.5 * y - expit(-z) @ design.T
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, reference, rtol=1e-13)

    def test_two_logistic_frame_oracles_interleaved_match_their_solo_runs(self):
        target, vectors, _ = self.folded_logistic()
        frames = (vectors, self.frame(5, seed=50))
        rng = np.random.default_rng(51)
        ys = [rng.standard_normal((4, 5)) for _ in range(3)]
        solo = [[target.grad_in_frame(v)(y) for y in ys] for v in frames]
        oracles = [target.grad_in_frame(v) for v in frames]
        got = [[], []]
        for y in ys:
            for results, oracle in zip(got, oracles):
                results.append(oracle(y))
        # each result is its own: the calls after it do not write over it
        for results, expected in zip(got, solo):
            assert all(np.array_equal(a, b) for a, b in zip(results, expected))

    def test_logistic_frame_oracle_makes_no_per_call_margin_array(self):
        rows = 2000
        target, vectors, _ = self.folded_logistic(rows=rows)
        oracle = target.grad_in_frame(vectors)
        y = np.random.default_rng(52).standard_normal((4, 5))
        oracle(y)  # allocates the (4, rows) buffer
        tracemalloc.start()
        try:
            for _ in range(50):
                oracle(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows * 8


class TestInitSpec:
    def test_default_distance_bound(self):
        t = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        init = InitSpec.from_point(t, np.array([3.0, 4.0]))
        assert np.isclose(init.dist_bound, 5.0)

    def test_too_small_bound_rejected(self):
        t = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        with pytest.raises(InvalidInput):
            InitSpec.from_point(t, np.array([3.0, 4.0]), dist_bound=4.0)

    def test_defaults_to_minimizer(self):
        t = make_gaussian(np.array([1.0, -1.0]), SymMatrix(np.eye(2)))
        init = InitSpec.from_point(t)
        assert np.array_equal(init.x0, t.minimizer)
        assert init.dist_bound == 0.0


class TestCsvLoader:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((6, 2))
        labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([features, labels]), delimiter=",")
        got_features, got_labels = load_logistic_csv(path)
        assert np.allclose(got_features, features)
        assert np.array_equal(got_labels, labels)

    def test_bad_labels(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0.5\n")
        with pytest.raises(InvalidInput):
            load_logistic_csv(path)

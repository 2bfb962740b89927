import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ZeroRng, make_config, random_logistic, random_spd
from slmc.errors import InvalidInput, NotPositiveDefinite, NumericalBlowup
from slmc.experiment import tune_scaled
from slmc.sampler import (
    NOISE_BLOCK_DOUBLES,
    _Batch,
    _cov_xx_shape,
    Cell,
    ChainState,
    coupled_pair_run,
    exact_law,
    kernel_moments,
    make_step_cache,
    mode_maps,
    run_cells,
    run_chain,
    step,
)
from slmc.spd import SymMatrix
from slmc.targets import InitSpec, TargetModel, make_gaussian, make_logistic_ridge
from slmc.tuner import estimate_theta, scaled_params, unscaled_config


def scalar_moments(a, gamma, u, delta, x, v, g):
    """Independent 1-D closed forms for cross-checking the matrix assembly."""
    s = gamma * a * delta
    e1, e2 = math.exp(-s), math.exp(-2.0 * s)
    mean_v = e1 * v - (u / (gamma * a)) * (1.0 - e1) * g
    mean_x = (
        x
        + (1.0 - e1) / (gamma * a) * v
        - (u / (gamma * a)) * (delta - (1.0 - e1) / (gamma * a)) * g
    )
    cov_vv = u * (1.0 - e2)
    cov_xv = (u / (gamma * a)) * (1.0 + e2 - 2.0 * e1)
    cov_xx = (2.0 * u / (gamma * a)) * (
        delta - e2 / (2.0 * gamma * a) + 2.0 * e1 / (gamma * a) - 1.5 / (gamma * a)
    )
    return mean_x, mean_v, cov_xx, cov_vv, cov_xv


class TestKernelMoments:
    def test_scalar_case_decaying_velocity(self):
        config = make_config(SymMatrix([[2.0]]))
        mom = kernel_moments(
            ChainState(x=np.zeros(1), v=np.ones(1)), np.zeros(1), config, 0.5
        )
        assert mom.mean_v[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert mom.mean_x[0] == pytest.approx(0.5 * (1.0 - math.exp(-1.0)), rel=1e-12)
        assert mom.cov_vv.mat[0, 0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)

    def test_scalar_case_gradient_pull(self):
        config = make_config(SymMatrix([[1.0]]))
        mom = kernel_moments(
            ChainState(x=np.zeros(1), v=np.zeros(1)), np.ones(1), config, 1.0
        )
        assert mom.mean_v[0] == pytest.approx(-(1.0 - math.exp(-1.0)), rel=1e-12)
        assert mom.mean_x[0] == pytest.approx(-math.exp(-1.0), rel=1e-12)

    def test_no_time_limit(self):
        rng = np.random.default_rng(2)
        config = make_config(random_spd(rng, 3), u=1.7)
        state = ChainState(x=rng.standard_normal(3), v=rng.standard_normal(3))
        g = rng.standard_normal(3)
        mom = kernel_moments(state, g, config, 1e-12)
        assert np.allclose(mom.mean_x, state.x, atol=1e-9)
        assert np.allclose(mom.mean_v, state.v, atol=1e-9)
        for block in (mom.cov_xx.mat, mom.cov_vv.mat, mom.cov_xv):
            assert np.max(np.abs(block)) < 1e-9

    def test_matches_scalar_closed_forms_per_mode(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 3, lo=0.5, hi=6.0)
        gamma, u, delta = 1.3, 0.8, 0.4
        config = make_config(a, u=u, gamma=gamma)
        state = ChainState(x=rng.standard_normal(3), v=rng.standard_normal(3))
        g = rng.standard_normal(3)
        mom = kernel_moments(state, g, config, delta)
        # rotate everything into the eigenbasis and compare mode by mode
        values, vectors = np.linalg.eigh(a.mat)
        xr, vr, gr = vectors.T @ state.x, vectors.T @ state.v, vectors.T @ g
        for i, eig in enumerate(values):
            mx, mv, cxx, cvv, cxv = scalar_moments(eig, gamma, u, delta, xr[i], vr[i], gr[i])
            assert vectors[:, i] @ mom.mean_x == pytest.approx(mx, rel=1e-10, abs=1e-12)
            assert vectors[:, i] @ mom.mean_v == pytest.approx(mv, rel=1e-10, abs=1e-12)
            assert vectors[:, i] @ mom.cov_xx.mat @ vectors[:, i] == pytest.approx(cxx, rel=1e-9)
            assert vectors[:, i] @ mom.cov_vv.mat @ vectors[:, i] == pytest.approx(cvv, rel=1e-9)
            assert vectors[:, i] @ mom.cov_xv @ vectors[:, i] == pytest.approx(cxv, rel=1e-9)

    def test_unscaled_specialization_at_identity(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 5.0])))
        config = unscaled_config(target)
        state = ChainState(x=np.array([0.4, -0.2]), v=np.array([1.0, 0.5]))
        g = target.grad_oracle(state.x)
        mom = kernel_moments(state, g, config, 0.3)
        for i in range(2):
            mx, mv, cxx, cvv, cxv = scalar_moments(
                1.0, config.gamma, config.u, 0.3, state.x[i], state.v[i], g[i]
            )
            assert mom.mean_x[i] == pytest.approx(mx, rel=1e-12)
            assert mom.mean_v[i] == pytest.approx(mv, rel=1e-12)
            assert mom.cov_xx.mat[i, i] == pytest.approx(cxx, rel=1e-9)
            assert mom.cov_vv.mat[i, i] == pytest.approx(cvv, rel=1e-9)
            assert mom.cov_xv[i, i] == pytest.approx(cxv, rel=1e-9)

    def test_cross_covariance_symmetric(self):
        rng = np.random.default_rng(11)
        config = make_config(random_spd(rng, 4), u=2.2, gamma=0.7)
        state = ChainState(x=rng.standard_normal(4), v=rng.standard_normal(4))
        mom = kernel_moments(state, rng.standard_normal(4), config, 0.25)
        assert np.allclose(mom.cov_xv, mom.cov_xv.T, atol=1e-12)

    def test_joint_covariance_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            config = make_config(random_spd(rng, 3, lo=1.0, hi=30.0), u=1.5)
            state = ChainState(x=np.zeros(3), v=np.zeros(3))
            mom = kernel_moments(state, np.zeros(3), config, float(rng.uniform(0.01, 0.5)))
            eigs = np.linalg.eigvalsh(mom.joint_cov().mat)
            assert eigs[0] >= -1e-12 * max(1.0, eigs[-1])

    def test_zero_gradient_semigroup(self):
        # with g = 0 two steps of delta match one step of 2*delta in law
        rng = np.random.default_rng(17)
        a = random_spd(rng, 3, lo=0.8, hi=8.0)
        config = make_config(a, u=1.4, gamma=1.1)
        delta = 0.3
        d = 3
        zeros = np.zeros(d)

        def moments(x, v, dt):
            return kernel_moments(ChainState(x=x, v=v), zeros, config, dt)

        # mean map of one step as a 2d x 2d matrix, one unit state per column
        unit = np.eye(2 * d)
        joint = np.column_stack([moments(e[:d], e[d:], delta).joint_mean() for e in unit])
        sigma1 = moments(zeros, zeros, delta).joint_cov().mat
        sigma_two_steps = joint @ sigma1 @ joint.T + sigma1
        sigma2 = moments(zeros, zeros, 2.0 * delta).joint_cov().mat
        assert np.allclose(sigma_two_steps, sigma2, atol=1e-10)
        # means compose as well
        state = ChainState(x=rng.standard_normal(3), v=rng.standard_normal(3))
        m1 = moments(state.x, state.v, delta)
        m2 = moments(m1.mean_x, m1.mean_v, delta)
        expected = moments(state.x, state.v, 2.0 * delta).joint_mean()
        assert np.allclose(m2.joint_mean(), expected, atol=1e-12)

    def test_nonpositive_delta_rejected(self):
        config = make_config(SymMatrix(np.eye(2)))
        state = ChainState(x=np.zeros(2), v=np.zeros(2))
        with pytest.raises(InvalidInput):
            kernel_moments(state, np.zeros(2), config, 0.0)


#: g(s) = s + 2 expm1(-s) - expm1(-2s)/2, each value rounded from 50 digits.
COV_XX_SHAPE_REFERENCE = [
    (1e-08, 3.333333308333334e-25),
    (1e-05, 3.3333083334500003e-16),
    (0.000999, 3.320854475440936e-10),
    (0.001, 3.3308344995834563e-10),
    (0.001003, 3.3608944719110154e-10),
    (0.01, 3.308449584560374e-07),
    (0.1, 0.00030945953292821707),
    (0.5, 0.029121598839545685),
    (0.999, 0.167691896900231),
    (1.0, 0.1680912407245783),
    (2.0, 0.7615127470288583),
    (10.0, 8.500090798828948),
    (500.0, 498.5),
]


class TestCovXXShape:
    def test_matches_reference_values(self):
        # the direct form alone is off by up to ~1e-9 just above s = 1e-3
        s, expected = np.array(COV_XX_SHAPE_REFERENCE).T
        np.testing.assert_allclose(_cov_xx_shape(s), expected, rtol=1e-15, atol=0.0)


class TestStepCache:
    def test_zero_delta_rejected(self):
        with pytest.raises(InvalidInput):
            make_step_cache(make_config(SymMatrix(np.eye(2))), 0.0)

    def test_diagonal_exponential(self):
        cache = make_step_cache(make_config(SymMatrix(2.0 * np.eye(2))), 0.5)
        vectors = cache.config.A.eig.vectors
        exp_ga = (vectors * cache.mean_w[1]) @ vectors.T
        assert np.allclose(exp_ga, math.exp(-1.0) * np.eye(2), rtol=1e-12)

    def test_joint_psd_random(self):
        rng = np.random.default_rng(29)
        a = random_spd(rng, 4, lo=2.0, hi=50.0)
        config = make_config(a, u=2.0)
        make_step_cache(config, 0.05)
        mom = kernel_moments(ChainState(x=np.zeros(4), v=np.zeros(4)), np.zeros(4), config, 0.05)
        eigs = np.linalg.eigvalsh(mom.joint_cov().mat)
        assert eigs[0] >= -1e-12 * eigs[-1]

    def test_mode_factors_reproduce_joint_covariance(self):
        # s = gamma * a * delta runs from 1e-6 to 1e3, across the cov_xx series switch.
        # An unsorted diagonal A is read with V = I: its mode i is coordinate i, whose
        # factor is that of the d = 1 step on entry i
        rng = np.random.default_rng(37)
        dense = random_spd(rng, 4, lo=1.0, hi=10.0)
        entries = [4.0, 1.0, 10.0, 2.5]
        zeros = np.zeros(4)
        for a, vec in ((dense, dense.eig.vectors), (SymMatrix.diagonal(entries), np.eye(4))):
            config = make_config(a, u=1.7)
            for delta in np.geomspace(1e-6, 1e2, 17):
                cache = make_step_cache(config, float(delta))
                (l_yy, _), (l_wy, l_ww) = cache.factor
                mom = kernel_moments(ChainState(x=zeros, v=zeros), zeros, config, float(delta))
                for exact, per_mode in (
                    (mom.cov_xx.mat, l_yy**2),
                    (mom.cov_xv, l_yy * l_wy),
                    (mom.cov_vv.mat, l_wy**2 + l_ww**2),
                ):
                    rebuilt = (vec * per_mode) @ vec.T
                    assert np.abs(rebuilt - exact).max() <= 1e-12 * np.abs(exact).max()
                if a.is_diagonal:
                    alone = [make_step_cache(make_config(SymMatrix([[e]]), u=1.7), float(delta))
                             for e in entries]
                    one_d = np.concatenate([c.factor for c in alone], axis=-1)
                    assert np.allclose(cache.factor, one_d, rtol=1e-14, atol=0.0)

    def test_underflowing_covariance_raises(self):
        # cov_xx ~ delta^3 underflows to zero: no jitter, an explicit failure
        with pytest.raises(NotPositiveDefinite):
            make_step_cache(make_config(SymMatrix(np.eye(2))), 1e-120)


class TestStep:
    def test_zero_noise_returns_means(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        cache = make_step_cache(config, 0.1)
        state = ChainState(x=np.array([0.5, -1.0]), v=np.array([0.2, 0.3]))
        out = step(state, target, cache, ZeroRng())
        mom = kernel_moments(state, target.grad_oracle(state.x), config, 0.1)
        assert np.array_equal(out.x, mom.mean_x)
        assert np.array_equal(out.v, mom.mean_v)

    @staticmethod
    def check_one_step_moments(target, config, state, delta, seed):
        # n one-step rows from the same state in one batch: row i draws from the one
        # generator after rows 0..i-1, the stream of n calls of step
        cache = make_step_cache(config, delta)
        n = 100_000
        xv = np.repeat(np.stack((state.x, state.v))[:, None], n, axis=1)
        batch = _Batch(target, [(cache, n, None)], xv)
        x, v = next(batch.walk((np.random.default_rng(seed),) * n, 1, None))[0]
        first = step(state, target, cache, np.random.default_rng(seed))
        assert np.array_equal(x[0], first.x) and np.array_equal(v[0], first.v)
        outs = np.concatenate((x, v), axis=1)
        mom = kernel_moments(state, target.grad_oracle(state.x), config, delta)
        mean = mom.joint_mean()
        sigma = mom.joint_cov().mat
        z_mean = np.abs(outs.mean(axis=0) - mean) / np.sqrt(np.diag(sigma) / n)
        assert z_mean.max() < 5.0
        emp_cov = np.cov(outs, rowvar=False)
        se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / (n - 1))
        assert (np.abs(emp_cov - sigma) / se).max() < 5.0

    def test_one_step_monte_carlo_moments(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        state = ChainState(x=np.array([1.0, -0.5]), v=np.array([0.0, 0.7]))
        self.check_one_step_moments(target, config, state, 0.3, seed=101)

    def test_one_step_monte_carlo_moments_dense_a(self):
        # only a non-diagonal A distinguishes V from V^T in the eigenbasis step
        target = make_gaussian(np.zeros(3), SymMatrix(np.diag([1.0, 4.0, 2.0])))
        config = make_config(random_spd(np.random.default_rng(41), 3, lo=0.5, hi=4.0), u=1.3)
        state = ChainState(x=np.array([1.0, -0.5, 0.3]), v=np.array([0.0, 0.7, -0.2]))
        self.check_one_step_moments(target, config, state, 0.3, seed=103)

    def test_exactly_one_gradient_call(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        calls = {"n": 0}
        counted = TargetModel(
            dim=2,
            name="counting",
            value_oracle=target.value_oracle,
            grad_oracle=lambda x: (calls.__setitem__("n", calls["n"] + 1), target.grad_oracle(x))[1],
            hess_oracle=target.hess_oracle,
            m=target.m,
            L=target.L,
            minimizer=target.minimizer,
            hess_constant=True,
        )
        config = unscaled_config(target)
        cache = make_step_cache(config, 0.1)
        calls["n"] = 0  # discard the minimizer-consistency call made on construction
        step(ChainState(x=np.ones(2), v=np.zeros(2)), counted, cache, np.random.default_rng(0))
        assert calls["n"] == 1


class TestIndexPath:
    """A diagonal A has V = I: the step runs in x, coordinate by coordinate, with no product by V."""

    @staticmethod
    def unsorted_target():
        return make_gaussian(np.array([0.5, -1.0, 2.0]), SymMatrix.diagonal([4.0, 1.0, 2.0]))

    @pytest.mark.parametrize("method", ["scaled", "unscaled"])
    def test_zero_noise_step_equals_dense_reference(self, method):
        target = self.unsorted_target()
        if method == "scaled":
            config = scaled_params(target, estimate_theta(target, [np.zeros(3)], [np.zeros(3)]))
            assert config.A.is_diagonal and (np.diff(config.A.diag) < 0).any()
        else:
            config = unscaled_config(target)
        cache = make_step_cache(config, 0.1)
        assert cache.vectors is None
        state = ChainState(x=np.array([0.3, 1.2, -0.8]), v=np.array([-0.4, 0.1, 0.9]))
        out = step(state, target, cache, ZeroRng())
        mom = kernel_moments(state, target.grad_oracle(state.x), config, 0.1)
        assert np.array_equal(out.x, mom.mean_x)
        assert np.array_equal(out.v, mom.mean_v)

    @pytest.mark.parametrize("method", ["scaled", "unscaled"])
    def test_noisy_step_equals_products_by_the_permutation_matrix(self, method):
        # a diagonal A's modes are its coordinates, so its permutation matrix is I, and
        # a product by I is exact: the frame path with V = I must give the coordinate
        # path's step bit for bit, noise included
        target = self.unsorted_target()
        if method == "scaled":
            config = scaled_params(target, estimate_theta(target, [np.zeros(3)], [np.zeros(3)]))
        else:
            config = unscaled_config(target)
        cache = make_step_cache(config, 0.1)
        framed = replace(cache, vectors=np.eye(3))
        state = ChainState(x=np.array([0.3, 1.2, -0.8]), v=np.array([-0.4, 0.1, 0.9]))
        out = step(state, target, cache, np.random.default_rng(8))
        ref = step(state, target, framed, np.random.default_rng(8))
        assert np.array_equal(out.x, ref.x) and np.array_equal(out.v, ref.v)

    def test_stored_and_dense_diagonal_a_run_bit_identically(self):
        # an unsorted diagonal A, kept as its entries or as a dense array, is read
        # by its entries either way: the same modes, noise and states
        target = self.unsorted_target()
        entries = [2.5, 0.5, 1.5]
        init = InitSpec.from_point(target, np.array([1.0, 2.0, -1.0]))
        got, want = (
            run_cells(target, [Cell(init, make_config(a, u=0.8), 0.05, 300,
                                    tuple(np.random.default_rng(s) for s in (3, 4)), burn_in=20, thin=7)])[0]
            for a in (SymMatrix.diagonal(entries), SymMatrix(np.diag(entries)))
        )
        assert np.array_equal(got.xs, want.xs) and np.array_equal(got.vs, want.vs)

    def test_dense_a_keeps_the_matrix_products(self):
        config = make_config(random_spd(np.random.default_rng(43), 3))
        cache = make_step_cache(config, 0.1)
        assert cache.vectors is config.A.eig.vectors

    @pytest.mark.parametrize("dense", [False, True], ids=["index", "dense"])
    def test_non_finite_gradient_raises_at_its_step(self, dense):
        target = self.unsorted_target()
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            g = target.grad_oracle(x)
            if calls["n"] > 7:  # the construction check is call 1, step i is call i + 1
                g[..., 1] = np.nan
            return g

        nan_target = replace(target, grad_oracle=grad)
        rng = np.random.default_rng(44)
        config = make_config(random_spd(rng, 3)) if dense else unscaled_config(target)
        init = InitSpec.from_point(target, np.ones(3))
        with pytest.raises(NumericalBlowup, match="gradient oracle returned non-finite") as err:
            run_chain(init, nan_target, config, 0.1, 20, rng)
        assert err.value.step_index == 7


class TestRunChain:
    @pytest.fixture
    def setup(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        init = InitSpec.from_point(target, np.array([2.0, 1.0]))
        return target, config, init

    def test_single_step_equals_step(self, setup):
        target, config, init = setup
        run = run_chain(init, target, config, 0.1, 1, np.random.default_rng(3))
        cache = make_step_cache(config, 0.1)
        expected = step(
            ChainState(x=init.x0, v=np.zeros(2)), target, cache, np.random.default_rng(3)
        )
        assert run.xs.shape == (1, 1, 2)
        assert np.array_equal(run.xs[0, 0], expected.x)
        assert np.array_equal(run.vs[0, 0], expected.v)

    def test_steps_across_a_noise_block_equal_step(self, setup):
        target, config, init = setup
        n = NOISE_BLOCK_DOUBLES // (2 * target.dim) + 3  # one full block plus three steps
        run = run_chain(init, target, config, 0.1, n, np.random.default_rng(5))
        cache = make_step_cache(config, 0.1)
        rng = np.random.default_rng(5)
        state = ChainState(x=init.x0, v=np.zeros(2))
        xs = np.empty((n, 2))
        for i in range(n):
            state = step(state, target, cache, rng)
            xs[i] = state.x
        assert np.array_equal(run.xs[0], xs)
        assert np.array_equal(run.final[0, 1], state.v)

    def test_fixed_seed_bit_identical(self, setup):
        target, config, init = setup
        a = run_chain(init, target, config, 0.05, 200, np.random.default_rng(9))
        b = run_chain(init, target, config, 0.05, 200, np.random.default_rng(9))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.vs, b.vs)

    def test_gradient_call_budget(self, setup):
        target, config, init = setup
        calls = {"n": 0}
        counted = TargetModel(
            dim=2,
            name="counting",
            value_oracle=target.value_oracle,
            grad_oracle=lambda x: (calls.__setitem__("n", calls["n"] + 1), target.grad_oracle(x))[1],
            hess_oracle=target.hess_oracle,
            m=target.m,
            L=target.L,
            minimizer=target.minimizer,
            hess_constant=True,
        )
        calls["n"] = 0  # discard the minimizer-consistency call made on construction
        run = run_chain(init, counted, config, 0.05, 137, np.random.default_rng(0))
        assert calls["n"] == 137
        assert run.grad_calls == 137

    def test_burn_in_and_thinning(self, setup):
        target, config, init = setup
        run = run_chain(
            init, target, config, 0.05, 100, np.random.default_rng(1), thin=10, burn_in=20
        )
        assert run.xs.shape == (1, 8, 2)
        assert list(run.steps) == [30, 40, 50, 60, 70, 80, 90, 100]

    def test_stationary_covariance(self, setup):
        target, config, init = setup
        run = run_chain(init, target, config, 0.02, 80_000, np.random.default_rng(0), burn_in=8_000)
        cov = np.cov(run.xs[0], rowvar=False)
        expected = np.diag([1.0, 0.25])
        rel = np.linalg.norm(cov - expected) / np.linalg.norm(expected)
        assert rel < 0.15

    def test_velocity_stationarity(self):
        target = make_gaussian(np.zeros(4), SymMatrix(np.eye(4)))
        config = scaled_params(target, estimate_theta(target, [np.zeros(4)], [np.zeros(4)]))
        init = InitSpec.from_point(target)
        run = run_chain(init, target, config, 0.05, 30_000, np.random.default_rng(4), burn_in=3_000)
        ratio = (run.vs[0] ** 2).sum(axis=1).mean() / (config.u * 4)
        assert 0.9 < ratio < 1.1

    def test_blowup_reports_step_index(self):
        target = make_gaussian(np.zeros(1), SymMatrix([[1e6]]))
        config = make_config(SymMatrix(np.eye(1)), u=1.0, gamma=0.1)
        init = InitSpec.from_point(target, np.array([1.0]))
        with pytest.raises(NumericalBlowup) as err:
            run_chain(init, target, config, 1.0, 500, np.random.default_rng(0))
        assert err.value.step_index is not None
        assert err.value.step_index >= 1


class SpikeRng:
    """A seeded generator whose normal stream holds one huge draw: the first
    position noise of step ``spike_step`` of a d-dimensional chain."""

    def __init__(self, seed, spike_step, dim):
        self.rng = np.random.default_rng(seed)
        self.drawn = 0
        self.spike_at = (spike_step - 1) * 2 * dim

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        flat = out.reshape(-1)
        if self.drawn <= self.spike_at < self.drawn + flat.size:
            flat[self.spike_at - self.drawn] = 1e200
        self.drawn += flat.size
        return out


class TestRunChains:
    """A cell of several chains runs each chain as ``run_chain`` runs it alone."""

    @staticmethod
    def check_matches_separate_chains(init, target, config, exact, **kwargs):
        seeds = (11, 12, 13)
        cell = Cell(init, config, 0.05, 257, tuple(np.random.default_rng(s) for s in seeds), **kwargs)
        batch = run_cells(target, [cell])[0]
        assert batch.xs.shape[0] == batch.final.shape[0] == len(seeds)
        for c, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            alone = run_chain(init, target, config, 0.05, 257, rng, **kwargs)
            assert np.array_equal(batch.steps, alone.steps)
            assert batch.grad_calls == alone.grad_calls == 257
            for got, want in (
                (batch.xs[c], alone.xs[0]),
                (batch.vs[c], alone.vs[0]),
                (batch.final[c, 0], alone.final[0, 0]),
                (batch.final[c, 1], alone.final[0, 1]),
            ):
                assert got.shape == want.shape
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_diagonal_gaussian_bit_identical(self):
        target = make_gaussian(np.array([1.0, -2.0]), SymMatrix(np.diag([1.0, 4.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        init = InitSpec.from_point(target, np.array([2.0, 1.0]))
        self.check_matches_separate_chains(init, target, config, exact=True)
        self.check_matches_separate_chains(init, target, config, exact=True, burn_in=100, thin=7)

    def test_dense_scaled_config(self):
        rng = np.random.default_rng(43)
        target = make_gaussian(np.zeros(3), random_spd(rng, 3, lo=1.0, hi=20.0))
        config = make_config(random_spd(rng, 3, lo=0.5, hi=4.0), u=1.3)
        init = InitSpec.from_point(target, np.array([1.0, -0.5, 0.3]))
        self.check_matches_separate_chains(init, target, config, exact=False, burn_in=50, thin=3)

    def test_logistic_target(self):
        rng = np.random.default_rng(44)
        target = random_logistic(rng, rows=40, d=3, ridge=0.5)
        config = make_config(random_spd(rng, 3, lo=0.2, hi=2.0), u=1.0 / target.L)
        init = InitSpec.from_point(target)
        self.check_matches_separate_chains(init, target, config, exact=False, burn_in=10, thin=2)

    def test_one_gradient_call_per_step_for_the_batch(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        shapes = []
        counted = TargetModel(
            dim=2,
            name="counting",
            value_oracle=target.value_oracle,
            grad_oracle=lambda x: (shapes.append(np.shape(x)), target.grad_oracle(x))[1],
            hess_oracle=target.hess_oracle,
            m=target.m,
            L=target.L,
            minimizer=target.minimizer,
            hess_constant=True,
        )
        shapes.clear()  # discard the contract checks made on construction
        rngs = tuple(np.random.default_rng(s) for s in range(4))
        run_cells(counted, [Cell(InitSpec.from_point(target), unscaled_config(target), 0.1, 9, rngs)])
        assert shapes == [(4, 2)] * 9

    def test_single_chain_blowup_step_matches_chain_alone(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        config = unscaled_config(target)
        init = InitSpec.from_point(target)
        spike = NOISE_BLOCK_DOUBLES // (3 * 2 * 2) + 50  # inside the second noise block
        with pytest.raises(NumericalBlowup) as alone:
            run_chain(init, target, config, 0.1, 3000, SpikeRng(2, spike, 2))
        rngs = (np.random.default_rng(1), SpikeRng(2, spike, 2), np.random.default_rng(3))
        with pytest.raises(NumericalBlowup) as batch:
            run_cells(target, [Cell(init, config, 0.1, 3000, rngs)])
        assert alone.value.step_index == spike
        assert batch.value.step_index == spike

    def test_no_generators_rejected(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        with pytest.raises(InvalidInput):
            run_cells(target, [Cell(InitSpec.from_point(target), unscaled_config(target), 0.1, 5, ())])


class TestRunCells:
    """Every chain of every cell of a run moves in one batch."""

    @staticmethod
    def cells(init, plan, seed0=100):
        """One three-chain Cell per (config, delta, n_steps, options) entry of ``plan``."""
        return [
            Cell(init, config, delta, n, tuple(np.random.default_rng(seed0 + 10 * i + c) for c in range(3)),
                 **options)
            for i, (config, delta, n, options) in enumerate(plan)
        ]

    @staticmethod
    def check_matches_cells_alone(target, cells, exact):
        batch = run_cells(target, cells)
        for cell, run in zip(cells, batch):
            seeds = [rng.bit_generator.seed_seq.entropy for rng in cell.rngs]
            alone = run_cells(target, [replace(cell, rngs=tuple(np.random.default_rng(s) for s in seeds))])[0]
            assert run.grad_calls == cell.n_steps
            assert np.array_equal(run.steps, alone.steps)
            finals = (zip(run.final[:, i], alone.final[:, i]) for i in (0, 1))
            for pairs in zip(zip(run.xs, alone.xs), zip(run.vs, alone.vs), *finals):
                for a, b in pairs:  # chain by chain: x, v, final x, final v
                    assert a.shape == b.shape
                    if exact:
                        assert np.array_equal(a, b)
                    else:  # gradient rows may round differently in a larger batch
                        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_gaussian_cells_bit_identical_to_each_cell_alone(self):
        target = make_gaussian(np.array([0.5, -1.0, 2.0]), SymMatrix.diagonal([4.0, 1.0, 2.0]))
        scaled = scaled_params(target, estimate_theta(target, [np.zeros(3)], [np.zeros(3)]))
        assert scaled.A.is_diagonal and (np.diff(scaled.A.diag) < 0).any()
        unscaled = unscaled_config(target)
        # three rows of d = 3 fill a noise block in 1,820 steps: n = 3000 crosses a
        # block boundary once the other cells have left, and n = 700 ends inside a block
        cells = self.cells(InitSpec.from_point(target, np.array([1.0, 2.0, -1.0])), [
            (scaled, 0.05, 700, dict(burn_in=100, thin=3)),
            (scaled, 0.02, 1, {}),
            (unscaled, 0.05, 3000, {}),
            (unscaled, 0.02, 257, dict(burn_in=50, thin=7)),
        ])
        self.check_matches_cells_alone(target, cells, exact=True)

    @pytest.mark.filterwarnings("ignore:theta = .* exceeds 1/2:RuntimeWarning")
    def test_logistic_dense_cells_beside_an_unscaled_cell(self):
        target = random_logistic(45, rows=40, d=3, ridge=0.5)
        scaled = tune_scaled(target, 0)
        assert not scaled.A.is_diagonal
        cells = self.cells(InitSpec.from_point(target, np.ones(3)), [
            (scaled, 0.05, 300, dict(burn_in=20, thin=2)),
            (unscaled_config(target), 0.05, 400, {}),
            (scaled, 0.1, 150, {}),
            (unscaled_config(target), 0.1, 200, {}),
        ])
        self.check_matches_cells_alone(target, cells, exact=False)

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("d", [3, 20, 37, 130])
    def test_a_cell_that_keeps_nothing_keeps_the_squared_speeds(self, d, dense):
        # row sums over d > 8 and > 128 take numpy's pairwise-sum paths; the dense
        # A steps in its eigenframe and turns each block back into x first
        rng = np.random.default_rng(d)
        target = make_gaussian(rng.standard_normal(d), SymMatrix.diagonal(rng.uniform(1.0, 5.0, d)))
        config = make_config(random_spd(rng, d, lo=1.0, hi=3.0)) if dense else unscaled_config(target)
        init = InitSpec.from_point(target, np.ones(d))
        # a two-cell batch, so the kept cell is a strided view of the batch's rows
        plan = [(config, 0.05, 900, dict(burn_in=40, thin=3, keep=keep)) for keep in ("", "xv", "x")]
        runs = [run_cells(target, self.cells(init, [entry, (config, 0.05, 1000, {})]))[0] for entry in plan]
        nothing, both, positions = runs
        assert nothing.xs is None and nothing.vs is None and positions.vs is None
        assert both.speed_sq.shape == both.vs.shape[:2] == (3, 286)
        assert np.array_equal(nothing.speed_sq, (both.vs**2).sum(axis=-1))
        assert np.array_equal(positions.xs, both.xs)
        for run in (nothing, positions):
            assert np.array_equal(run.speed_sq, both.speed_sq)
            assert np.array_equal(run.final, both.final)
        # and so the mean |v|^2 has the bits of the mean of the pooled velocities' row sums
        assert nothing.speed_sq.mean() == (both.vs.reshape(-1, d) ** 2).sum(axis=1).mean()

    def test_keep_names_only_positions_and_velocities(self):
        target = make_gaussian(np.zeros(2), SymMatrix.diagonal([1.0, 4.0]))
        cells = self.cells(InitSpec.from_point(target), [(unscaled_config(target), 0.1, 5, dict(keep="xw"))])
        with pytest.raises(InvalidInput, match="keep"):
            run_cells(target, cells)

    def test_one_gradient_call_per_step_of_the_longest_cell(self):
        target = make_gaussian(np.zeros(2), SymMatrix.diagonal([1.0, 4.0]))
        rows = []
        counted = replace(target, grad_oracle=lambda x: (rows.append(len(x)), target.grad_oracle(x))[1])
        rows.clear()  # discard the contract checks made on construction
        config = unscaled_config(target)
        plan = [(config, 0.1, 5, {}), (config, 0.1, 12, {}), (config, 0.2, 9, {})]
        cells = self.cells(InitSpec.from_point(target), plan)
        run_cells(counted, cells)
        assert rows == [9] * 5 + [6] * 4 + [3] * 3

    def test_blowup_names_the_first_cell_to_trip(self):
        target = make_gaussian(np.zeros(2), SymMatrix.diagonal([1.0, 4.0]))
        init, config = InitSpec.from_point(target), unscaled_config(target)
        cells = [
            Cell(init, config, 0.1, 500, (np.random.default_rng(1), SpikeRng(2, 300, 2)), label="a"),
            Cell(init, config, 0.1, 500, (SpikeRng(3, 40, 2),), label="b"),
        ]
        with pytest.raises(NumericalBlowup, match="in cell 'b' \\(step 40\\)") as err:
            run_cells(target, cells)
        assert (err.value.cell, err.value.step_index) == ("b", 40)

    @pytest.mark.parametrize(
        "cause, step, cell, what",
        [
            # alone, a chain checked at every step trips at these steps
            ("runaway", 13, "diagonal", "chain coordinate left the guarded region"),
            ("nan", 250, "dense", "gradient oracle returned non-finite values"),
        ],
    )
    def test_trip_inside_a_block_of_a_mixed_batch(self, cause, step, cell, what):
        # one 400-step block: the steps after the trip run on through overflow and
        # NaN, yet no warning escapes, and the gradient is called once per step
        rng = np.random.default_rng(47)
        target = make_gaussian(np.zeros(3), random_spd(rng, 3, lo=1.0, hi=5.0))
        init = InitSpec.from_point(target, np.ones(3))
        calls = []

        def grad(x):
            calls.append(len(x))
            g = target.grad_oracle(x)
            if cause == "nan" and len(calls) == 250:
                g[1, 2] = np.nan  # the dense cell's second chain
            return g

        counted = replace(target, grad_oracle=grad)
        calls.clear()  # discard the contract check made on construction
        cells = [
            Cell(init, make_config(random_spd(rng, 3, lo=0.5, hi=2.0)), 0.05, 400,
                 (np.random.default_rng(1), np.random.default_rng(2)), label="dense"),
            Cell(init, unscaled_config(target), 20.0 if cause == "runaway" else 0.05, 400,
                 (np.random.default_rng(3), np.random.default_rng(4)), label="diagonal"),
        ]
        assert 400 * 4 * 2 * 3 <= NOISE_BLOCK_DOUBLES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBlowup) as err:
                run_cells(counted, cells)
        assert str(err.value) == f"{what} in cell {cell!r} (step {step})"
        assert (err.value.step_index, err.value.cell) == (step, cell)
        assert calls == [4] * 400


class TestDenseFrame:
    """A batch with a dense A = V diag(a) V^T steps in y = x V, where A is diagonal."""

    D = 4

    @classmethod
    def problem(cls, which, rng):
        """A target, the same target in y = x V, a dense config and its diagonal twin."""
        config = make_config(random_spd(rng, cls.D, lo=0.5, hi=4.0), u=0.7, gamma=1.3)
        vectors = config.A.eig.vectors
        diagonal = make_config(SymMatrix.diagonal(config.A.eig.values), u=0.7, gamma=1.3)
        assert not config.A.is_diagonal
        assert np.array_equal(diagonal.A.diag, config.A.eig.values)  # the same modes, in order
        if which == "gaussian":
            mean, precision = rng.standard_normal(cls.D), random_spd(rng, cls.D, lo=1.0, hi=10.0)
            target = make_gaussian(mean, precision)
            turned = make_gaussian(mean @ vectors, SymMatrix(vectors.T @ precision.mat @ vectors))
        else:
            features = rng.standard_normal((40, cls.D))
            labels = np.where(rng.standard_normal(40) > 0, 1.0, -1.0)
            target = make_logistic_ridge(features, labels, ridge=0.5)
            turned = make_logistic_ridge(features @ vectors, labels, ridge=0.5)
        return target, turned, config, diagonal

    @staticmethod
    def close(got, want, rtol=1e-12):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_zero_noise_steps_follow_the_mean_recursion(self, which):
        rng = np.random.default_rng(48)
        target, _, config, _ = self.problem(which, rng)
        init = InitSpec.from_point(target, 3.0 * rng.standard_normal(self.D))
        run = run_chain(init, target, config, 0.1, 60, ZeroRng())
        state, xs, vs = ChainState(x=init.x0, v=np.zeros(self.D)), [], []
        for _ in range(60):
            mom = kernel_moments(state, target.grad_oracle(state.x), config, 0.1)
            state = ChainState(x=mom.mean_x, v=mom.mean_v)
            xs.append(state.x)
            vs.append(state.v)
        self.close(run.xs[0], np.array(xs))
        self.close(run.vs[0], np.array(vs))
        assert np.abs(run.xs[0, -1] - init.x0).max() > 0.1  # the chain moved

    @pytest.mark.parametrize("which", ["gaussian", "logistic"])
    def test_noisy_run_is_the_rotated_problems_rotated_back(self, which):
        # the same generators draw the same per-mode noise in both runs
        rng = np.random.default_rng(49)
        target, turned, config, diagonal = self.problem(which, rng)
        vectors = config.A.eig.vectors
        x0 = 2.0 * rng.standard_normal(self.D)
        options = dict(burn_in=40, thin=3)
        run, ref = (
            run_cells(problem, [Cell(InitSpec.from_point(problem, start), a, 0.1, 400,
                                     tuple(np.random.default_rng(s) for s in (5, 6, 7)), **options)])[0]
            for problem, start, a in ((target, x0, config), (turned, x0 @ vectors, diagonal))
        )
        assert np.array_equal(run.steps, ref.steps)
        for c in range(3):
            self.close(run.xs[c], ref.xs[c] @ vectors.T)
            self.close(run.vs[c], ref.vs[c] @ vectors.T)
            self.close(run.final[c], ref.final[c] @ vectors.T)

    def test_coupled_pair_is_the_rotated_problems(self):
        # rho does not depend on the coordinates; it decays, so compare it while large
        rng = np.random.default_rng(50)
        target, turned, config, diagonal = self.problem("gaussian", rng)
        vectors = config.A.eig.vectors
        a, b = 2.0 * rng.standard_normal(self.D), 2.0 * rng.standard_normal(self.D)
        rho = coupled_pair_run(InitSpec.from_point(target, a), InitSpec.from_point(target, b),
                               target, config, 0.1, 60, np.random.default_rng(8))
        ref = coupled_pair_run(InitSpec.from_point(turned, a @ vectors),
                               InitSpec.from_point(turned, b @ vectors),
                               turned, diagonal, 0.1, 60, np.random.default_rng(8))
        assert ref[-1] > 1e-6 * ref[0]
        assert np.allclose(rho, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "beside, raises",
        [("non-scalar diagonal", True), ("other dense", True), ("multiple of I", False), ("same A", False)],
    )
    def test_only_a_that_are_diagonal_in_the_frame_share_a_batch(self, beside, raises):
        rng = np.random.default_rng(51)
        target = make_gaussian(np.zeros(3), SymMatrix.diagonal([4.0, 1.0, 2.0]))
        dense = make_config(random_spd(rng, 3, lo=0.5, hi=2.0))
        other = {
            "non-scalar diagonal": make_config(SymMatrix.diagonal([2.0, 1.0, 3.0])),
            "other dense": make_config(random_spd(rng, 3, lo=0.5, hi=2.0)),
            "multiple of I": make_config(SymMatrix.diagonal([2.0, 2.0, 2.0])),
            "same A": make_config(dense.A, u=0.5),
        }[beside]
        calls = []
        counted = replace(target, grad_oracle=lambda x: (calls.append(len(x)), target.grad_oracle(x))[1])
        calls.clear()  # discard the contract check made on construction
        init = InitSpec.from_point(target, np.ones(3))
        cells = [Cell(init, dense, 0.05, 5, (np.random.default_rng(1),)),
                 Cell(init, other, 0.05, 5, (np.random.default_rng(2),))]
        if raises:
            with pytest.raises(InvalidInput, match="dense A"):
                run_cells(counted, cells)
            assert calls == []
        else:
            run_cells(counted, cells)
            assert calls == [2] * 5

    def test_step_on_a_dense_cache_builds_no_target(self, monkeypatch):
        # step turns into the frame on every call, with one gradient call and no
        # target made (whose construction checks its oracle)
        target = make_gaussian(np.zeros(3), random_spd(np.random.default_rng(52), 3))
        calls = []
        counted = replace(target, grad_oracle=lambda x: (calls.append(len(x)), target.grad_oracle(x))[1])
        calls.clear()  # discard the contract check made on construction
        cache = make_step_cache(make_config(random_spd(np.random.default_rng(53), 3)), 0.1)
        assert cache.vectors is not None

        def refuse(self):
            raise AssertionError("a target was built")

        monkeypatch.setattr(TargetModel, "__post_init__", refuse)
        state = ChainState(x=np.ones(3), v=np.zeros(3))
        step(state, counted, cache, np.random.default_rng(0))
        step(state, counted, cache, np.random.default_rng(0))
        assert calls == [1, 1]


class TestCoupledPair:
    @pytest.fixture
    def setup(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 100.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        return target, config

    def test_identical_inits_stay_equal(self, setup):
        target, config = setup
        init = InitSpec.from_point(target, np.array([1.0, 2.0]))
        rho = coupled_pair_run(init, init, target, config, 0.05, 50, np.random.default_rng(0))
        assert np.array_equal(rho, np.zeros(51))

    def test_contraction_slope(self, setup):
        target, config = setup
        init_a = InitSpec.from_point(target, np.array([3.0, 0.3]))
        init_b = InitSpec.from_point(target)
        rho = coupled_pair_run(init_a, init_b, target, config, 0.01, 2600, np.random.default_rng(1))
        mask = rho > 1e-20
        times = np.arange(rho.size)[mask] * 0.01
        slope = np.polyfit(times, np.log(rho[mask]), 1)[0]
        assert slope <= -(1.0 - 2.0 * config.theta)

    @given(c=st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_initial_distance_scales_quadratically(self, c):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        config = unscaled_config(target)
        offset = np.array([1.0, -0.5])
        base_a = InitSpec.from_point(target, offset)
        base_b = InitSpec.from_point(target, -offset)
        big_a = InitSpec.from_point(target, c * offset)
        big_b = InitSpec.from_point(target, -c * offset)
        rho_base = coupled_pair_run(base_a, base_b, target, config, 0.1, 1, np.random.default_rng(0))
        rho_big = coupled_pair_run(big_a, big_b, target, config, 0.1, 1, np.random.default_rng(0))
        assert rho_big[0] == pytest.approx(c * c * rho_base[0], rel=1e-9)

    def test_init_dimension_mismatch_rejected(self, setup):
        target, config = setup
        wrong = InitSpec(x0=np.zeros(3), dist_bound=0.0)
        with pytest.raises(InvalidInput):
            coupled_pair_run(wrong, wrong, target, config, 0.05, 5, np.random.default_rng(0))


class TestExactLaw:
    """The exact law of a chain on a diagonal Gaussian, from the kernel's per-mode maps."""

    @pytest.fixture(params=["scaled", "unscaled"])
    def setup(self, request):
        # a non-ascending P, so mode i must be coordinate i, with mu != 0 and x0 != mu
        target = make_gaussian(np.array([0.5, -1.0, 2.0]), SymMatrix.diagonal([4.0, 1.0, 2.0]))
        if request.param == "scaled":
            config = scaled_params(target, estimate_theta(target, [np.zeros(3)], [np.zeros(3)]))
        else:
            config = unscaled_config(target)
        assert config.A.is_diagonal
        return target, config, InitSpec.from_point(target, np.array([1.5, 2.0, -1.0]))

    def test_one_step_is_the_kernel_on_the_linear_gradient(self, setup):
        target, config, _ = setup
        p, mu = target.hess_oracle(target.minimizer).diag, target.minimizer
        maps, cov = mode_maps(config, 0.3, p)
        state = ChainState(x=np.array([1.5, 2.0, -1.0]), v=np.array([0.3, -0.7, 1.1]))
        moments = kernel_moments(state, p * (state.x - mu), config, 0.3)
        mean = (maps @ np.stack([state.x - mu, state.v], axis=1)[..., None])[..., 0]
        assert np.abs(mean[:, 0] + mu - moments.mean_x).max() <= 1e-14
        assert np.abs(mean[:, 1] - moments.mean_v).max() <= 1e-14
        joint = np.block([[np.diag(cov[:, i, j]) for j in (0, 1)] for i in (0, 1)])
        assert np.abs(joint - moments.joint_cov().mat).max() <= 1e-14

    @pytest.mark.parametrize("stops", [list(range(1, 65)), [0, 3, 4, 17, 40, 41, 64, 1000]], ids=["1..64", "uneven"])
    def test_doubling_is_the_step_by_step_recursion(self, setup, stops):
        target, config, init = setup
        maps, cov = mode_maps(config, 0.1, target.hess_oracle(target.minimizer).diag)
        mean, law_cov = exact_law(target, init, config, 0.1, stops)
        m, c = np.stack([init.x0 - target.minimizer, np.zeros(3)], axis=1), np.zeros((3, 2, 2))
        for k in range(stops[-1] + 1):
            if k in stops:
                i = stops.index(k)
                assert np.abs(mean[i] - m).max() <= 1e-12 * np.abs(m).max()
                assert np.abs(law_cov[i] - c).max() <= 1e-12 * np.abs(c).max()
            m, c = (maps @ m[..., None])[..., 0], maps @ c @ maps.transpose(0, 2, 1) + cov

    def test_many_chains_match_the_law(self, setup):
        # the final states of C = 4096 chains after k = 40 steps, as z-scores against the law
        target, config, init = setup
        chains, k, delta = 4096, 40, 0.05
        rngs = tuple(np.random.default_rng(s) for s in np.random.SeedSequence(26).spawn(chains))
        final = run_cells(target, [Cell(init, config, delta, k, rngs, keep="")])[0].final  # (C, 2, d)
        mean, cov = exact_law(target, init, config, delta, [k])
        for i in (0, 1):  # x and v
            states = final[:, i] - (target.minimizer if i == 0 else 0.0)
            var = cov[0, :, i, i]
            z_mean = (states.mean(axis=0) - mean[0, :, i]) / np.sqrt(var / chains)
            z_var = (states.var(axis=0, ddof=1) - var) / (var * np.sqrt(2.0 / (chains - 1)))
            assert np.abs(z_mean).max() < 5 and np.abs(z_var).max() < 5

    def test_needs_a_diagonal_gaussian_and_a_diagonal_a(self, setup):
        target, config, init = setup
        dense_p = make_gaussian(np.zeros(3), random_spd(np.random.default_rng(1), 3))
        dense_a = replace(config, A=random_spd(np.random.default_rng(2), 3))
        logistic = random_logistic(45, rows=40, d=3, ridge=0.5)
        for model, chain_config in ((dense_p, config), (target, dense_a), (logistic, config)):
            with pytest.raises(InvalidInput, match="needs a Gaussian target, with P and A both diagonal"):
                exact_law(model, InitSpec.from_point(model), chain_config, 0.1, [1])
        with pytest.raises(InvalidInput, match="step counts must ascend"):
            exact_law(target, init, config, 0.1, [5, 3])

    def test_many_steps_reach_the_discretized_stationary_law(self, setup):
        # the transient dies out: at n = 10^9 the law no longer moves with n
        target, config, init = setup
        mean, cov = exact_law(target, init, config, 0.05, [10**8, 10**9])
        assert np.abs(mean).max() < 1e-300
        assert np.abs(cov[1] - cov[0]).max() <= 1e-12 * np.abs(cov[1]).max()

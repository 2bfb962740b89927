import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_config, random_logistic
from slmc.errors import InvalidInput, TheoremInapplicable
from slmc.spd import SymMatrix
from slmc.targets import make_gaussian, make_logistic_ridge
from slmc.tuner import (
    ThetaEstimate,
    default_theta_probes,
    estimate_theta,
    plan_scaled,
    plan_unscaled,
    scaled_params,
    unscaled_config,
)


@pytest.fixture
def logistic_target():
    return random_logistic(21, rows=25, d=3, ridge=0.3, scale=1.5)


def brute_force_theta(target, candidates, probes, batched=True):
    """Independent exhaustive double loop over the same finite sets. The probe
    Hessians come from one batch call, as ``estimate_theta`` reads them, or with
    ``batched=False`` from one point call each."""
    if batched:
        probe_hessians = list(target.hess_oracle(np.array(probes, dtype=float)))
    else:
        probe_hessians = [target.hess_oracle(np.asarray(x, dtype=float)).mat for x in probes]
    best_value, best_y, best_m = math.inf, None, None
    for y in candidates:
        h_y = target.hess_oracle(np.asarray(y, dtype=float)).mat
        m_y = float(np.linalg.eigvalsh(0.5 * (h_y + h_y.T))[0])
        value = 0.0
        for h_x in probe_hessians:
            diff = h_x - h_y
            norm = float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T))).max())
            value = max(value, norm / m_y)
        if value < best_value:
            best_value, best_y, best_m = value, y, m_y
    return best_value, best_y, best_m


class TestEstimateTheta:
    def test_gaussian_theta_zero(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 7.0])))
        est = estimate_theta(target, [np.zeros(2)], [np.ones(2)])
        assert est.theta == 0.0
        assert np.isclose(est.m_hat, 1.0)

    def test_diagonal_extremes_read_without_a_sort(self):
        # m, L and m_hat are a diagonal's least and greatest entries, not an argsort's ends
        p = SymMatrix.diagonal([3.0, 1.0, 2.0])
        target = make_gaussian(np.zeros(3), p)
        assert (target.m, target.L) == (1.0, 3.0)
        assert "eig" not in p.__dict__
        assert estimate_theta(target, [np.zeros(3)], []).m_hat == 1.0
        assert "eig" not in p.__dict__

    def test_pure_quadratic_logistic_theta_zero(self):
        target = make_logistic_ridge(np.zeros((4, 2)), np.ones(4), ridge=2.0)
        est = estimate_theta(target, [np.zeros(2)], [np.ones(2)])
        assert est.theta == 0.0

    @staticmethod
    def search_sets(target, seed=0):
        rng = np.random.default_rng(seed)
        d = target.dim
        candidates = [target.minimizer, rng.standard_normal(d)]
        probes = [rng.standard_normal(d) * r for r in (0.5, 1.0, 2.0) for _ in range(15)]
        return candidates, probes

    def test_matches_brute_force(self, logistic_target):
        candidates, probes = self.search_sets(logistic_target)
        est = estimate_theta(logistic_target, candidates, probes)
        value, y, m_y = brute_force_theta(logistic_target, candidates, probes)
        assert est.theta == value
        assert np.array_equal(est.y_hat, y)
        assert est.m_hat == m_y

    @pytest.mark.parametrize("shape", [(25, 3), (2000, 20)])
    def test_matches_per_point_brute_force_to_rounding(self, logistic_target, shape):
        # the probe Hessians of one batch differ from the point ones in rounding only
        rows, d = shape
        target = logistic_target if d == 3 else random_logistic(7, rows=rows, d=d, ridge=1.0)
        candidates, probes = self.search_sets(target, seed=3)
        est = estimate_theta(target, candidates, probes)
        value, y, m_y = brute_force_theta(target, candidates, probes, batched=False)
        assert est.theta == pytest.approx(value, rel=1e-13, abs=0.0)
        assert np.array_equal(est.y_hat, y)
        assert est.m_hat == m_y

    def test_one_probe_batch_call(self, logistic_target):
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return logistic_target.hess_oracle(x)

        target = replace(logistic_target, hess_oracle=counted)
        candidates, probes = self.search_sets(logistic_target)
        estimate_theta(target, candidates, probes)
        assert calls == [(len(probes), 3), (3,), (3,)]

    @pytest.mark.parametrize(
        "broken",
        [
            lambda stack: stack[0],  # the batch axis dropped
            lambda stack: stack[:-1],  # a probe missing
            lambda stack: stack[:, :2],  # rows missing
            lambda stack: np.where(np.arange(3) == 1, np.nan, stack),
            lambda stack: np.where(np.arange(3) == 2, np.inf, stack),
        ],
        ids=["no-batch-axis", "short", "not-square", "nan", "inf"],
    )
    def test_bad_probe_stack_rejected(self, logistic_target, broken):
        def hess(x):
            h = logistic_target.hess_oracle(x)
            return broken(h) if np.ndim(x) == 2 else h

        target = replace(logistic_target, hess_oracle=hess)
        candidates, probes = self.search_sets(logistic_target)
        with pytest.raises(InvalidInput):
            estimate_theta(target, candidates, probes)

    def test_point_only_oracle_rejected(self, logistic_target):
        def hess(x):
            if np.ndim(x) != 1:
                raise ValueError("points only")
            return logistic_target.hess_oracle(x)

        target = replace(logistic_target, hess_oracle=hess)
        with pytest.raises(InvalidInput, match="fails on the"):
            estimate_theta(target, *self.search_sets(logistic_target))

    @pytest.mark.parametrize(
        "probes", [[np.zeros(3), np.zeros(2)], [np.zeros(4)]], ids=["ragged", "wrong-dimension"]
    )
    def test_misshaped_probes_rejected(self, logistic_target, probes):
        with pytest.raises(InvalidInput):
            estimate_theta(logistic_target, [logistic_target.minimizer], probes)

    def test_empty_inputs_rejected(self, logistic_target):
        with pytest.raises(InvalidInput):
            estimate_theta(logistic_target, [], [np.zeros(3)])
        with pytest.raises(InvalidInput):
            estimate_theta(logistic_target, [np.zeros(3)], [])

    def test_constant_hessian_draws_and_reads_no_probes(self, logistic_target):
        target = make_gaussian(np.ones(3), SymMatrix.diagonal([4.0, 1.0, 2.0]))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        candidates, probes = default_theta_probes(target, rng)
        assert probes == [] and rng.bit_generator.state == state
        assert len(candidates) == 1 and np.array_equal(candidates[0], target.minimizer)
        est = estimate_theta(target, candidates, probes)
        assert est.theta == 0.0 and est.m_hat == 1.0
        with pytest.raises(InvalidInput):
            estimate_theta(target, [], [np.zeros(3)])
        assert len(default_theta_probes(logistic_target, rng)[1]) == 3 * 64

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tuning_inequalities(self, logistic_target):
        rng = np.random.default_rng(1)
        candidates, probes = default_theta_probes(logistic_target, rng)
        est = estimate_theta(logistic_target, candidates, probes)
        config = scaled_params(logistic_target, est)
        assert config.m_hat >= logistic_target.m
        assert config.kappa_hat <= logistic_target.kappa


class TestScaledParams:
    def test_diag_example(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 4.0])))
        est = estimate_theta(target, [np.array([0.3, -0.2])], [np.zeros(2)])
        config = scaled_params(target, est)
        assert config.m_hat == 1.0
        assert config.u == 2.0
        assert np.allclose(config.A.mat, np.diag([2.0, 8.0]))
        assert config.kappa_hat == 4.0
        assert config.gamma == 1.0

    def test_isotropic(self):
        target = make_gaussian(np.zeros(3), SymMatrix(np.eye(3)))
        config = scaled_params(target, estimate_theta(target, [np.zeros(3)], [np.zeros(3)]))
        assert config.u == 2.0
        assert np.allclose(config.A.mat, 2.0 * np.eye(3))

    def test_constant_hessian_logistic(self):
        target = make_logistic_ridge(np.zeros((3, 2)), np.ones(3), ridge=2.0)
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        assert config.u == 1.0
        assert np.allclose(config.A.mat, 2.0 * np.eye(2))

    def test_scaling_floor(self):
        # lambda_min(A) = u * m_hat = 2 by construction
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([3.0, 11.0])))
        config = scaled_params(target, estimate_theta(target, [np.zeros(2)], [np.zeros(2)]))
        assert np.linalg.eigvalsh(config.A.mat)[0] >= 2.0 - 1e-12

    @pytest.mark.parametrize("stored", [True, False], ids=["diagonal", "dense"])
    def test_diagonal_hessian_gives_a_diagonal_a(self, stored):
        entries = np.array([4.0, 1.0, 2.0])
        precision = SymMatrix.diagonal(entries) if stored else SymMatrix(np.diag(entries))
        target = make_gaussian(np.zeros(3), precision)
        config = scaled_params(target, estimate_theta(target, [np.zeros(3)], []))
        assert config.A.is_diagonal
        assert np.array_equal(config.A.diag, 2.0 * entries)
        assert np.array_equal(config.A.mat, SymMatrix(2.0 * np.diag(entries)).mat)

    def test_large_theta_warns_not_raises(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        est = ThetaEstimate(theta=0.75, y_hat=np.zeros(2), m_hat=1.0)
        with pytest.warns(RuntimeWarning):
            config = scaled_params(target, est)
        assert config.theta == 0.75


class TestPlanScaled:
    def test_frozen_reference_values(self):
        config = make_config(SymMatrix(np.diag([2.0, 8.0])), u=2.0)
        plan = plan_scaled(0.5, _with_kappa(config, 4.0), 2, 1.0, 0.0)
        expected_delta = (0.5 / 4.0) * math.sqrt(5.0 / 73728.0) * math.sqrt(0.5)
        assert plan.delta == pytest.approx(expected_delta, rel=1e-12)
        assert plan.n_steps == 3334
        assert plan.applicable

    def test_blowup_toward_half(self):
        config = make_config(SymMatrix(np.eye(2)), u=2.0)
        deltas, ns = [], []
        for theta in (0.0, 0.2, 0.4, 0.49, 0.499):
            plan = plan_scaled(0.5, _with_theta(config, theta), 2, 1.0, 0.0)
            deltas.append(plan.delta)
            ns.append(plan.n_steps)
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_kappa_doubling(self):
        base = make_config(SymMatrix(np.eye(2)), u=2.0)
        one = plan_scaled(0.25, _with_kappa(base, 1000.0), 2, 1.0, 0.0)
        two = plan_scaled(0.25, _with_kappa(base, 2000.0), 2, 1.0, 0.0)
        assert two.delta == pytest.approx(one.delta / 2.0, rel=1e-12)
        assert two.n_steps / one.n_steps == pytest.approx(2.0, rel=1e-3)

    def test_theta_at_half_raises(self):
        config = make_config(SymMatrix(np.eye(2)), theta=0.5)
        with pytest.raises(TheoremInapplicable):
            plan_scaled(0.5, config, 2, 1.0, 0.0)

    def test_bad_epsilon(self):
        config = make_config(SymMatrix(np.eye(2)))
        with pytest.raises(InvalidInput):
            plan_scaled(0.0, config, 2, 1.0, 0.0)


class TestPlanUnscaled:
    def test_frozen_reference_values(self):
        plan = plan_unscaled(0.104, 2.0, 1, 1.0, 0.0)
        assert plan.delta == pytest.approx(5.0e-4, rel=1e-12)
        assert plan.n_steps == 10884

    def test_direct_substitution(self):
        plan = plan_unscaled(1.0, 1.0, 1, 1.0, 0.0)
        assert plan.delta == pytest.approx(1.0 / 104.0, rel=1e-12)

    def test_quadrupling_kappa(self):
        one = plan_unscaled(0.5, 50.0, 2, 1.0, 0.0)
        four = plan_unscaled(0.5, 200.0, 2, 1.0, 0.0)
        assert four.n_steps / one.n_steps == pytest.approx(16.0, rel=0.02)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            plan_unscaled(0.5, 0.5, 2, 1.0, 0.0)


class TestScalingConfig:
    def test_diagonal_a_is_checked_by_its_entries(self):
        a = SymMatrix.diagonal([4.0, 1.0, 2.0])
        make_config(a)
        assert "eig" not in a.__dict__  # no sort of a diagonal

    @pytest.mark.parametrize("stored", [True, False], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("least", [0.0, -1.0])
    def test_a_that_is_not_spd_is_rejected(self, stored, least):
        entries = np.array([4.0, least, 2.0])
        with pytest.raises(InvalidInput, match="must be SPD"):
            make_config(SymMatrix.diagonal(entries) if stored else SymMatrix(np.diag(entries)))


class TestUnscaledConfig:
    def test_ill_conditioned_gaussian(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.diag([1.0, 100.0])))
        config = unscaled_config(target)
        assert config.u == pytest.approx(0.01)
        assert config.gamma == 2.0
        assert np.array_equal(config.A.mat, np.eye(2))
        assert config.kappa_hat == target.kappa

    def test_isotropic_unit(self):
        target = make_gaussian(np.zeros(2), SymMatrix(np.eye(2)))
        assert unscaled_config(target).u == 1.0

    def test_identity_is_stored_as_its_diagonal(self):
        config = unscaled_config(make_gaussian(np.zeros(3), SymMatrix.diagonal([2.0, 3.0, 4.0])))
        assert config.A.is_diagonal and np.array_equal(config.A.diag, np.ones(3))

    def test_identity_scaling_floor(self):
        target = make_gaussian(np.zeros(3), SymMatrix(np.diag([2.0, 3.0, 4.0])))
        config = unscaled_config(target)
        assert np.linalg.eigvalsh(config.A.mat)[0] == 1.0


def _with_theta(config, theta):
    from dataclasses import replace

    return replace(config, theta=theta)


def _with_kappa(config, kappa_hat):
    from dataclasses import replace

    return replace(config, kappa_hat=kappa_hat)

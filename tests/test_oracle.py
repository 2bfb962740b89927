import math

import numpy as np
import pytest
import scipy.linalg

from helpers import make_config
from slmc import ChainState, SymMatrix, cli, run_kernel_validation, sampler
from slmc.oracle import KernelCase, check_case, exact_step_moments, kernel_validation_cases


def _skew_modes(monkeypatch, part, row):
    """Make ``sampler._modes`` return one row of ``part`` (1 mean_g, 2 cov) off by 1e-6."""
    modes = sampler._modes

    def skewed(config, delta):
        out = [block.copy() for block in modes(config, delta)]
        out[part][row] *= 1.0 + 1e-6
        return tuple(out)

    monkeypatch.setattr(sampler, "_modes", skewed)


class TestExactStepMoments:
    def test_zero_gradient_velocity_decays_exactly(self):
        a, delta, v0 = 3.0, 0.5, -1.3
        config = make_config(SymMatrix([[a]]), u=1.7)
        state = ChainState(x=np.array([0.4]), v=np.array([v0]))
        mean, _ = exact_step_moments(state, np.zeros(1), config, delta)
        assert mean[1] == pytest.approx(math.exp(-a * delta) * v0, abs=1e-14)

    def test_stiff_mode_is_halved_then_doubled_and_passes(self, monkeypatch):
        # ||F||_1 delta = (1 + 1e3) * 0.5, so the step is taken as 2^10 pieces
        seen = []
        expm = scipy.linalg.expm

        def recording(m):
            seen.append(m)
            return expm(m)

        monkeypatch.setattr(scipy.linalg, "expm", recording)
        config = make_config(SymMatrix([[1e3]]), u=1.2)
        case = KernelCase(
            label="stiff",
            config=config,
            state=ChainState(x=np.array([0.3]), v=np.array([2.0])),
            grad=np.array([-0.7]),
            delta=0.5,
        )
        report = check_case(case)
        # each expm sees +-F h in its top-left block, with ||F h||_1 <= 1/2 < ||F delta||_1
        assert len(seen) == 2
        assert all(np.abs(m[:2, :2]).sum(axis=0).max() <= 0.5 for m in seen)
        assert report.passed, (report.mean_error, report.cov_error)

    def test_unsorted_diagonal_a_passes(self):
        # a diagonal A's modes are its entries in coordinate order, checked against
        # the matrix exponential of the dense A; the suite's own cases are rotated
        rng = np.random.default_rng(11)
        entries = np.exp(rng.uniform(math.log(1e-4), math.log(1e3), size=4))
        assert not np.all(np.diff(entries) > 0)
        case = KernelCase(
            label="unsorted-diagonal",
            config=make_config(SymMatrix.diagonal(entries), u=1.3),
            state=ChainState(x=rng.standard_normal(4), v=rng.standard_normal(4)),
            grad=rng.standard_normal(4),
            delta=0.5,
        )
        report = check_case(case)
        assert report.passed, (report.mean_error, report.cov_error)


class TestValidationSuite:
    def test_reduced_suite_passes(self):
        reports = run_kernel_validation(seed=0, n_cases=3)
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("seed", range(5))
    def test_default_cases_pass(self, seed):
        reports = run_kernel_validation(seed=seed)
        assert len(reports) == 10
        assert all(r.passed for r in reports), [(r.mean_error, r.cov_error) for r in reports]

    def test_cases_reach_the_series_branch_and_stiff_modes(self):
        s = np.concatenate(
            [
                case.config.gamma * case.config.A.eig.values * case.delta
                for seed in range(5)
                for case in kernel_validation_cases(seed)
            ]
        )
        assert s.min() < 1e-3 and s.max() > 25.0

    @pytest.mark.parametrize("row", [0, 1, 2], ids=["cov_yy", "cov_yw", "cov_ww"])
    def test_a_skewed_covariance_row_fails_every_case(self, monkeypatch, capsys, row):
        _skew_modes(monkeypatch, 2, row)
        assert not any(r.passed for r in run_kernel_validation())
        assert cli.main(["validate-kernel"]) == cli.NUMERICAL_EXIT
        assert capsys.readouterr().out.count("FAIL") == 10

    def test_a_skewed_gradient_weight_fails(self, monkeypatch):
        _skew_modes(monkeypatch, 1, 0)
        assert not all(r.passed for r in run_kernel_validation())

import csv

import numpy as np
import pytest

from slmc import InvalidInput, NumericalBlowup, TheoremInapplicable
from slmc import experiment
from slmc.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    TargetSpecification,
    build_target,
    chain_seed,
    emit_csv,
    parse_config,
    prepare_run,
    run_experiment,
    splitmix64,
)
from slmc.sampler import make_step_cache

GAUSS_SPEC = TargetSpecification(kind="gaussian", precision_diag=(1.0, 4.0))


def small_config(**overrides):
    base = dict(
        target=GAUSS_SPEC,
        methods=("scaled",),
        epsilons=(0.5,),
        seed=0,
        chains=2,
        delta_override=0.02,
        n_override=3000,
        burn_in=500,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeeding:
    def test_splitmix_reference_value(self):
        # first output of the splitmix64 stream seeded at 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) != splitmix64(0)

    def test_chain_seeds_distinct(self):
        seeds = {chain_seed(0, i, c) for i in range(3) for c in range(4)}
        assert len(seeds) == 12


class TestRunExperiment:
    def test_theorem_guarantee_end_to_end(self):
        # planner-driven (override-free) run; chains sized so the W2
        # estimator can actually resolve the epsilon = 0.5 guarantee
        config = ExperimentConfig(
            target=GAUSS_SPEC, methods=("scaled",), epsilons=(0.5,), seed=0, chains=64
        )
        rows = run_experiment(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.w2_gauss <= 0.5
        assert row.theta == 0.0
        assert row.kappa == 4.0

    def test_row_count_is_cells(self):
        config = small_config(methods=("scaled", "unscaled"), epsilons=(0.5, 0.25))
        rows = run_experiment(config)
        assert len(rows) == 4
        assert [(r.method, r.epsilon) for r in rows] == [
            ("scaled", 0.5),
            ("scaled", 0.25),
            ("unscaled", 0.5),
            ("unscaled", 0.25),
        ]

    def test_gradient_call_accounting(self):
        rows = run_experiment(small_config())
        assert rows[0].grad_calls == rows[0].n * 2

    def test_deterministic_given_seed(self):
        rows_a = run_experiment(small_config())
        rows_b = run_experiment(small_config())
        assert rows_a == rows_b

    def test_each_matrix_decomposed_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        config = small_config(
            methods=("scaled", "unscaled"), epsilons=(0.5, 0.25), n_override=200, burn_in=100
        )
        run_experiment(config)
        # P, P^-1, the scaled A and I are diagonal and sorted without eigh; what is
        # left is the transport-map matrix of each cell's 200-point matching, and
        # gaussian_w2 needs only eigenvalues
        assert len(calls) == 4

    def test_velocity_ratio_near_one(self):
        config = small_config(n_override=20000, delta_override=0.05, burn_in=2000)
        row = run_experiment(config)[0]
        assert 0.85 < row.vel_ratio < 1.15

    def test_logistic_target_w2_is_nan(self, tmp_path):
        rng = np.random.default_rng(1)
        data = np.column_stack(
            [rng.standard_normal((12, 2)), np.where(rng.standard_normal(12) > 0, 1.0, -1.0)]
        )
        path = tmp_path / "data.csv"
        np.savetxt(path, data, delimiter=",")
        config = small_config(
            target=TargetSpecification(kind="logistic", dataset=str(path), ridge=1.0),
            n_override=500,
            burn_in=100,
        )
        row = run_experiment(config)[0]
        assert np.isnan(row.w2_gauss) and np.isnan(row.w2_empirical)
        assert 0.0 < row.vel_ratio

    def test_inapplicable_plan_with_overrides_becomes_warning(self, tmp_path):
        # a logistic target with wild curvature swings pushes theta past 1/2
        rng = np.random.default_rng(3)
        features = rng.standard_normal((50, 2)) * 6.0
        labels = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
        path = tmp_path / "steep.csv"
        np.savetxt(path, np.column_stack([features, labels]), delimiter=",")
        spec = TargetSpecification(kind="logistic", dataset=str(path), ridge=0.01)
        target = build_target(spec)
        assert target.kappa > 100  # sanity: genuinely ill-conditioned

        config = small_config(target=spec, n_override=200, burn_in=50)
        rows = run_experiment(config)
        assert rows[0].warnings  # surfaced, not raised

    def test_wall_ms_only_with_timing(self):
        config = small_config(methods=("scaled", "unscaled"), n_override=300, burn_in=100)
        assert all(row.wall_ms > 0.0 for row in run_experiment(config, record_timing=True))
        assert all(row.wall_ms == 0.0 for row in run_experiment(config))

    def test_blowup_names_the_cell_that_trips_first(self):
        # alone, the unscaled cell trips at step 14 and the scaled one at step 10
        config = small_config(methods=("unscaled", "scaled"), delta_override=20.0, n_override=400, burn_in=10)
        with pytest.raises(NumericalBlowup, match="in cell 'scaled eps=0.5' \\(step 10\\)"):
            run_experiment(config)

    @pytest.mark.filterwarnings("ignore:theta = .* exceeds 1/2:RuntimeWarning")
    def test_every_cell_is_planned_before_any_chain_runs(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((50, 2)) * 6.0
        labels = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
        path = tmp_path / "steep.csv"
        np.savetxt(path, np.column_stack([features, labels]), delimiter=",")
        spec = TargetSpecification(kind="logistic", dataset=str(path), ridge=0.01)
        config = small_config(target=spec, methods=("unscaled", "scaled"), delta_override=None, n_override=None)
        monkeypatch.setattr(experiment, "run_cells", lambda *args: pytest.fail("chains ran"))
        with pytest.raises(TheoremInapplicable):  # the scaled plan: theta > 1/2
            run_experiment(config)

    def test_inapplicable_plan_without_overrides_raises(self, tmp_path):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((50, 2)) * 6.0
        labels = np.where(rng.standard_normal(50) > 0, 1.0, -1.0)
        path = tmp_path / "steep.csv"
        np.savetxt(path, np.column_stack([features, labels]), delimiter=",")
        spec = TargetSpecification(kind="logistic", dataset=str(path), ridge=0.01)
        config = small_config(target=spec, delta_override=None, n_override=None)
        from slmc import TheoremInapplicable

        with pytest.raises(TheoremInapplicable):
            run_experiment(config)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.filterwarnings("ignore:theta = .* exceeds 1/2:RuntimeWarning")
def test_logistic_setup_never_raises(seed, tmp_path):
    # 2000 x 20 logistic datasets drawn as the benchmark's logistic workload
    # draws them: features N(0, 1/d), labels sign(a.w + N(0, 0.25))
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((2000, 20)) / np.sqrt(20)
    margin = features @ rng.standard_normal(20) + 0.5 * rng.standard_normal(2000)
    path = tmp_path / "logistic.csv"
    data = np.column_stack([features, np.where(margin >= 0.0, 1.0, -1.0)])
    np.savetxt(path, data, delimiter=",", fmt="%.17g")
    spec = TargetSpecification(kind="logistic", dataset=str(path), ridge=1.0)
    config = small_config(
        target=spec, methods=("scaled", "unscaled"), epsilons=(1.0,), seed=seed,
        delta_override=0.05, n_override=10_000, burn_in=None,
    )
    setup = prepare_run(config)
    for method in config.methods:
        delta, n_steps, burn_in, _ = setup.cell(config, method, 1.0)
        assert (delta, n_steps, burn_in) == (0.05, 10_000, 5_000)
        make_step_cache(setup.chain_config(method), delta)


class TestOverrideWarnings:
    """With delta/n_steps overrides the step checks judge the delta that runs.
    At eps = 40 on P = diag(1, 4) the scaled plan's delta is 5.823e-2 and the
    stationary-energy cap 4.658e-2; with D = 3 they are 2.483e-2 and 3.581e-2."""

    @staticmethod
    def _cell(delta, dist_bound=None):
        config = small_config(epsilons=(40.0,), delta_override=delta, n_override=200, dist_bound=dist_bound)
        return prepare_run(config).cell(config, "scaled", 40.0)

    def test_override_above_the_cap(self):
        delta, _, _, warnings = self._cell(0.05)
        assert delta == 0.05
        assert warnings == ["delta = 5.000e-02 exceeds the stationary-energy cap 4.658e-02"]

    def test_override_below_the_cap_while_the_plan_is_above(self):
        _, _, _, warnings = self._cell(0.04)
        assert warnings == []

    def test_override_above_the_cap_while_the_plan_is_below(self):
        config = small_config(epsilons=(40.0,), delta_override=None, n_override=None, dist_bound=3.0)
        assert prepare_run(config).cell(config, "scaled", 40.0)[3] == []
        _, _, _, warnings = self._cell(0.05, dist_bound=3.0)
        assert warnings == ["delta = 5.000e-02 exceeds the stationary-energy cap 3.581e-02"]


class TestEmitCsv:
    def make_row(self, **overrides):
        base = dict(
            target="gaussian-d2",
            method="scaled",
            kappa=4.0,
            kappa_hat=4.0,
            theta=0.0,
            epsilon=0.5,
            delta=7.278867114257129e-4,
            n=3334,
            grad_calls=13336,
            w2_gauss=0.1234567891234,
            w2_empirical=0.2,
            vel_ratio=1.01,
            wall_ms=0.0,
        )
        base.update(overrides)
        return ResultRow(**base)

    def test_header_and_shape(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv([self.make_row()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv([self.make_row()], path)
        assert b"\r" not in path.read_bytes()

    def test_roundtrip_within_formatting(self, tmp_path):
        path = tmp_path / "results.csv"
        row = self.make_row()
        emit_csv([row], path)
        with open(path) as fh:
            parsed = next(csv.DictReader(fh))
        assert parsed["target"] == row.target
        assert int(parsed["n"]) == row.n
        assert int(parsed["grad_calls"]) == row.grad_calls
        for key, value in (
            ("kappa", row.kappa),
            ("delta", row.delta),
            ("w2_gauss", row.w2_gauss),
        ):
            assert float(parsed[key]) == pytest.approx(value, rel=1e-8)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv([self.make_row()], path)
        cells = path.read_text().splitlines()[1].split(",")
        assert cells[9] == "0.123456789"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            emit_csv([], tmp_path / "results.csv")


class TestConfigIntegration:
    def test_parse_then_run(self):
        text = """
[target]
kind = gaussian
precision_diag = 1, 4

[run]
methods = scaled
epsilons = 0.5
chains = 2
delta = 0.05
n_steps = 2000
burn_in = 400
"""
        rows = run_experiment(parse_config(text))
        assert len(rows) == 1
        assert rows[0].n == 2000

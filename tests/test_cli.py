import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from slmc import experiment, metrics, sampler
from slmc.cli import NUMERICAL_EXIT, USAGE_EXIT, main
from slmc.sample_io import read_samples
from slmc.spd import SymMatrix

CONFIG = """
[target]
kind = gaussian
precision_diag = 1, 4

[run]
methods = scaled, unscaled
epsilons = 0.5
chains = 2
delta = 0.05
n_steps = 500
burn_in = 100
"""

#: ``results.csv`` of ``compare`` on CONFIG at the default seed.
PINNED_RESULTS = (
    b"target,method,kappa,kappa_hat,theta,epsilon,delta,n,grad_calls,w2_gauss,w2_empirical,vel_ratio,wall_ms\n"
    b"gaussian-d2,scaled,4,4,0,0.5,0.05,500,1000,0.230760423,0.330170077,1.06016266,0\n"
    b"gaussian-d2,unscaled,4,4,0,0.5,0.05,500,1000,0.128386937,0.315967018,1.00800684,0\n"
)

UNSORTED_CONFIG = CONFIG.replace("precision_diag = 1, 4", "precision_diag = 4, 1, 2").replace(
    "n_steps = 500", "n_steps = 2000"
)

#: ``results.csv`` of ``compare`` on UNSORTED_CONFIG at seed 7. Its scaled A is the
#: non-ascending diagonal u * (4, 1, 2), whose mode i is coordinate i and draws
#: coordinate i's noise; its unscaled A = I reads the same in any order.
PINNED_UNSORTED_RESULTS = (
    b"target,method,kappa,kappa_hat,theta,epsilon,delta,n,grad_calls,w2_gauss,w2_empirical,vel_ratio,wall_ms\n"
    b"gaussian-d3,scaled,4,4,0,0.5,0.05,2000,4000,0.231601775,0.383195195,0.98647373,0\n"
    b"gaussian-d3,unscaled,4,4,0,0.5,0.05,2000,4000,0.539694935,0.639268278,1.0115801,0\n"
)

#: sha256 of each file ``sample`` writes on CONFIG at the default seed (method scaled).
PINNED_SAMPLE_SHA256 = {
    "samples_scaled.csv": "898b3b2b1130df2cd66dd33dff08faadd7938a6416c2f8f496edb97c2cadb28f",
    "samples_scaled.bin": "078c331f4ab5a98cb4e12ee12128b86dffd3e0d25c91d2ad383a3a62ed4516b3",
    "trace_scaled.csv": "e9ae87a5a248b3d8fda895bb998b4fc4c0c77b6084f46865f19a19fd42e60f20",
}

LOGISTIC_CONFIG = """
[target]
kind = logistic
dataset = {dataset}
ridge = 1.0

[run]
methods = scaled, unscaled
epsilons = 1
chains = 2
delta = 0.05
n_steps = 500
burn_in = 100
"""

#: ``results.csv`` of ``compare`` on LOGISTIC_CONFIG over the dataset of the
#: ``logistic_config_path`` fixture, at the default seed.
PINNED_LOGISTIC_RESULTS = (
    b"target,method,kappa,kappa_hat,theta,epsilon,delta,n,grad_calls,w2_gauss,w2_empirical,vel_ratio,wall_ms\n"
    b"logistic-n60-d3,scaled,15.5101528,1.4113752,1.21296405,1,0.05,500,1000,nan,nan,1.0758998,0\n"
    b"logistic-n60-d3,unscaled,15.5101528,15.5101528,0,1,0.05,500,1000,nan,nan,1.10454624,0\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG)
    return path


@pytest.fixture
def logistic_config_path(tmp_path):
    """LOGISTIC_CONFIG over a 60-row, 3-feature dataset whose theta is 1.21."""
    rng = np.random.default_rng(5)
    features = rng.standard_normal((60, 3))
    data = np.column_stack([features, np.where(rng.standard_normal(60) > 0, 1.0, -1.0)])
    np.savetxt(tmp_path / "data.csv", data, delimiter=",", fmt="%.17g")
    path = tmp_path / "logistic.cfg"
    path.write_text(LOGISTIC_CONFIG.format(dataset=tmp_path / "data.csv"))
    return path


def refuse_batch(*args):
    raise AssertionError("a chain ran")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["tune"]) == 1

    def test_bad_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[target]\nkind = gaussian\nfoo = 1\n")
        assert main(["tune", "--config", str(bad)]) == 2

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["tune", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("entry", ["thin = 0", "thin = -2", "burn_in = -1"])
    def test_thin_below_one_or_negative_burn_in_names_its_line(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG.replace("burn_in = 100", entry))
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("slmc: config error: line 12:")

    @pytest.mark.parametrize("command", ["compare", "sample"])
    def test_thin_that_keeps_nothing_is_refused_before_any_chain(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        path = tmp_path / "sparse.cfg"
        text = CONFIG.replace("n_steps = 500", "n_steps = 100")
        path.write_text(text.replace("burn_in = 100", "thin = 1000"))
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["slmc: config error: thin = 1000 keeps no state of n = 100 steps after burn-in 50"]
        assert not out_dir.exists()

    def test_trace_takes_no_thin_check(self, tmp_path, monkeypatch):
        # the trace keeps no state, so a thin that would keep none is no error there
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        path = tmp_path / "sparse.cfg"
        path.write_text(CONFIG.replace("n_steps = 500", "n_steps = 100").replace("burn_in = 100", "thin = 1000"))
        out_dir = tmp_path / "out"
        assert main(["sample", "--config", str(path), "--out", str(out_dir), "--trace"]) == 0
        lines = (out_dir / "trace_scaled.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, 101))

    @pytest.mark.parametrize(
        "run", ["chains = 1\nn_steps = 2\nburn_in = 1", "chains = 1\nn_steps = 1"], ids=["burn-in", "one-step"]
    )
    def test_cell_keeping_one_state_is_refused_before_any_chain(self, tmp_path, capsys, monkeypatch, run):
        # W2 fits a covariance to a cell's states: this failed after every chain, naming no cell
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        path = tmp_path / "few.cfg"
        text = CONFIG.replace("chains = 2\n", "").replace("n_steps = 500\n", "").replace("burn_in = 100\n", "")
        path.write_text(text + run + "\n")
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["slmc: config error: cell 'scaled eps=0.5' keeps 1 state, and its W2 needs at least 2"]
        assert not out_dir.exists()

    def test_logistic_cell_keeping_one_state_runs(self, logistic_config_path, tmp_path):
        # no W2 is evaluated on a logistic target, so one state is enough
        text = logistic_config_path.read_text().replace("chains = 2", "chains = 1")
        logistic_config_path.write_text(text.replace("n_steps = 500", "n_steps = 1"))
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(logistic_config_path), "--out", str(out_dir)]) == 0
        assert len((out_dir / "results.csv").read_text().splitlines()) == 3


def refuse_eig(self):
    raise AssertionError("SymMatrix.eig read")


class TestTuneAndPlan:
    def test_tune_prints_recipe(self, config_path, capsys):
        assert main(["tune", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "theta      = 0" in out
        assert "kappa_hat  = 4" in out

    def test_tune_reads_a_diagonal_a_without_a_sort(self, tmp_path, capsys, monkeypatch):
        tuned, tune_scaled = [], experiment.tune_scaled

        def keep(*args):
            tuned.append(tune_scaled(*args))
            return tuned[-1]

        monkeypatch.setattr(experiment, "tune_scaled", keep)
        monkeypatch.setattr(SymMatrix, "eig", property(refuse_eig))
        path = tmp_path / "unsorted.cfg"
        path.write_text(UNSORTED_CONFIG)
        assert main(["tune", "--config", str(path)]) == 0
        a = tuned[0].A
        expected = f"A spectrum = [{a.diag.min():.9g}, {a.diag.max():.9g}] over 3 eigenvalues"
        assert expected in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["plan"], ["sample"], ["sample", "--format", "bin"], ["sample", "--trace"]],
        ids=["plan", "sample-csv", "sample-bin", "sample-trace"],
    )
    def test_plan_and_sample_read_a_diagonal_a_without_a_sort(self, tmp_path, monkeypatch, argv):
        # a diagonal's eig would densify it and call eigh: nothing may reach it
        monkeypatch.setattr(SymMatrix, "eig", property(refuse_eig))
        path = tmp_path / "unsorted.cfg"
        path.write_text(UNSORTED_CONFIG)
        assert main([*argv, "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_plan_prints_both_methods(self, config_path, capsys):
        from slmc.tuner import plan_unscaled

        assert main(["plan", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "scaled:" in out and "unscaled:" in out
        assert "n=3334" in out
        expected = plan_unscaled(0.5, 4.0, 2, 1.0, 0.0).n_steps
        assert f"n={expected}" in out

    def test_plan_stdout_pinned(self, config_path, capsys):
        assert main(["plan", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out == (
            "epsilon=0.5 scaled:   delta=0.000727886711 n=3334 applicable=True\n"
            "epsilon=0.5 unscaled: delta=0.000849887958 n=10743 applicable=True\n"
        )

    def test_plan_past_theta_one_half_is_a_numerical_failure(self, logistic_config_path, capsys):
        with pytest.warns(RuntimeWarning, match="theta = 1.21 exceeds 1/2"):
            assert main(["plan", "--config", str(logistic_config_path)]) == NUMERICAL_EXIT
        err = capsys.readouterr().err.splitlines()
        assert err == ["slmc: numerical failure: theta = 1.21 >= 1/2: no step-size guarantee exists"]


class TestSample:
    def test_writes_csv(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["sample", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        xs, vs = read_samples(out_dir / "samples_scaled.csv")
        assert xs.shape == (400, 2)

    def test_writes_bin(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["sample", "--config", str(config_path), "--out", str(out_dir), "--format", "bin"]
        )
        assert code == 0
        xs, _ = read_samples(out_dir / "samples_scaled.bin")
        assert xs.shape == (400, 2)

    def test_default_burn_in_is_half_the_run(self, tmp_path):
        config_path = tmp_path / "no_burn_in.cfg"
        config_path.write_text(CONFIG.replace("burn_in = 100\n", ""))
        out_dir = tmp_path / "out"
        assert main(["sample", "--config", str(config_path), "--out", str(out_dir)]) == 0
        xs, _ = read_samples(out_dir / "samples_scaled.csv")
        assert xs.shape == (500 - 500 // 2, 2)

    def test_method_selection(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["sample", "--config", str(config_path), "--out", str(out_dir), "--method", "unscaled"]
        )
        assert code == 0
        assert (out_dir / "samples_unscaled.csv").exists()

    def test_method_outside_the_config_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "scaled_only.cfg"
        config_path.write_text(CONFIG.replace("methods = scaled, unscaled", "methods = scaled"))
        out_dir = tmp_path / "out"
        argv = ["sample", "--config", str(config_path), "--out", str(out_dir), "--method", "unscaled"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("slmc: config error:")
        assert not out_dir.exists()

    def test_reports_the_warnings_compare_reports(self, tmp_path, capsys):
        # the overridden delta 0.05 exceeds the stationary-energy cap 4.66e-2 of
        # the scaled recipe on this target at eps = 40
        config_path = tmp_path / "capped.cfg"
        text = CONFIG.replace("epsilons = 0.5", "epsilons = 40").replace("n_steps = 500", "n_steps = 200")
        config_path.write_text(text.replace("methods = scaled, unscaled", "methods = scaled"))
        runs = {}
        for command in ("sample", "compare"):
            out_dir = tmp_path / command
            assert main([command, "--config", str(config_path), "--out", str(out_dir)]) == 0
            runs[command] = [line for line in capsys.readouterr().err.splitlines() if line]
        assert runs["sample"] == runs["compare"]
        assert len(runs["sample"]) == 1
        assert runs["sample"][0] == (
            "warning [scaled eps=40]: delta = 5.000e-02 exceeds the stationary-energy cap 4.658e-02"
        )

    def test_trace_writes_curve(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            ["sample", "--config", str(config_path), "--out", str(out_dir), "--trace"]
        )
        assert code == 0
        lines = (out_dir / "trace_scaled.csv").read_text().splitlines()
        assert lines[0] == "step,time,w2_exact"
        assert len(lines) > 10

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("samples_scaled.csv", []),
            ("samples_scaled.bin", ["--format", "bin"]),
            ("trace_scaled.csv", ["--trace", "--trace-every", "25"]),
        ],
    )
    def test_bytes_pinned(self, config_path, tmp_path, name, flags):
        # Byte-stability across refactors: a change here is a change of output.
        out_dir = tmp_path / "out"
        assert main(["sample", "--config", str(config_path), "--out", str(out_dir), *flags]) == 0
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == PINNED_SAMPLE_SHA256[name]

    def test_trace_reads_the_law_at_the_planned_delta_and_n(self, tmp_path, monkeypatch):
        # no chain and no gradient call: the last row is the exact W2 of law(x_n) at the plan
        calls, build_target = [], experiment.build_target

        def build(spec):
            target = build_target(spec)

            def counted(x):
                calls.append(x)
                return target.grad_oracle(x)

            made = replace(target, grad_oracle=counted)
            calls.clear()  # the construction check's call
            return made

        monkeypatch.setattr(experiment, "build_target", build)
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        path = tmp_path / "planned.cfg"
        path.write_text(CONFIG.replace("delta = 0.05\n", "").replace("n_steps = 500\n", "") + "[init]\nx0 = 3, 3\n")
        out_dir = tmp_path / "out"
        assert main(["sample", "--config", str(path), "--out", str(out_dir), "--trace"]) == 0
        assert calls == []
        setup = experiment.prepare_run(experiment.parse_config(path.read_text()), ("scaled",))
        plan = setup.plan("scaled", 0.5)
        lines = (out_dir / "trace_scaled.csv").read_text().splitlines()
        every = plan.n_steps // 100
        assert [int(line.split(",")[0]) for line in lines[1:]] == [*range(every, plan.n_steps, every), plan.n_steps]
        step, time, w2 = lines[-1].split(",")
        assert (int(step), time) == (plan.n_steps, f"{plan.n_steps * plan.delta:.9g}")
        mean, cov = sampler.exact_law(setup.target, setup.init, setup.scaled, plan.delta, [plan.n_steps])
        law = metrics.GaussianSummary(setup.target.minimizer + mean[0, :, 0], SymMatrix.diagonal(cov[0, :, 0, 0]))
        pi = metrics.GaussianSummary(setup.target.minimizer, setup.target.position_cov)
        assert float(w2) == pytest.approx(metrics.gaussian_w2(law, pi), rel=1e-8)

    def test_trace_every_beyond_n_gives_one_row_at_n(self, config_path, tmp_path, monkeypatch):
        # the law is logged at n whatever --trace-every is
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        out_dir = tmp_path / "out"
        argv = ["sample", "--config", str(config_path), "--out", str(out_dir), "--trace",
                "--trace-every", "1000"]
        assert main(argv) == 0
        lines = (out_dir / "trace_scaled.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["500", "25"]]

    @pytest.mark.parametrize(
        "n_steps, every, stops",
        [(1, None, [1]), (3, "2", [2, 3]), (3, "1", [1, 2, 3]), (3, "3", [3]), (4, "2", [2, 4])],
        ids=["1-None", "3-2", "3-1", "3-3", "4-2"],
    )
    def test_trace_logs_each_multiple_of_every_and_n(self, tmp_path, monkeypatch, n_steps, every, stops):
        # every multiple of --trace-every below n, then n itself, from step 1 on
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        path = tmp_path / "short.cfg"
        path.write_text(
            CONFIG.replace("n_steps = 500", f"n_steps = {n_steps}").replace("burn_in = 100", "burn_in = 0")
        )
        out_dir = tmp_path / "out"
        argv = ["sample", "--config", str(path), "--out", str(out_dir), "--trace"]
        argv += [] if every is None else ["--trace-every", every]
        assert main(argv) == 0
        lines = (out_dir / "trace_scaled.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == stops

    def test_trace_on_a_logistic_target_is_a_config_error(self, logistic_config_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sampler, "_Batch", refuse_batch)
        out_dir = tmp_path / "out"
        argv = ["sample", "--config", str(logistic_config_path), "--out", str(out_dir), "--trace"]
        with pytest.warns(RuntimeWarning, match="theta = 1.21 exceeds 1/2"):
            assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "slmc: config error: the exact law needs a Gaussian target, with P and A both diagonal"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trace-every", "7"], "argument --trace-every: needs --trace"),
            (["--trace", "--format", "bin"], "argument --format: not allowed with argument --trace"),
            (["--format", "csv", "--trace"], "argument --trace: not allowed with argument --format"),
        ],
        ids=["trace-every-alone", "trace-then-format", "format-then-trace"],
    )
    def test_an_option_that_would_be_ignored_is_a_usage_error(
        self, config_path, tmp_path, capsys, flags, message
    ):
        # each wrote the other kind of output and exited 0
        out_dir = tmp_path / "out"
        assert main(["sample", "--config", str(config_path), "--out", str(out_dir), *flags]) == USAGE_EXIT
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("every", ["0", "-5"])
    def test_trace_every_below_one_is_a_usage_error(self, config_path, tmp_path, capsys, every):
        # -5 wrote a header-only trace and 0 fell back to n // 100, both exiting 0
        out_dir = tmp_path / "out"
        argv = ["sample", "--config", str(config_path), "--out", str(out_dir), "--trace",
                f"--trace-every={every}"]
        assert main(argv) == USAGE_EXIT
        assert "--trace-every: must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()


class TestCompare:
    def test_writes_results(self, config_path, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods x 1 epsilon

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["compare", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["compare", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_results_bytes_pinned(self, config_path, tmp_path):
        # Byte-stability across refactors: a change here is a change of output.
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "results.csv").read_bytes() == PINNED_RESULTS

    def test_unsorted_diagonal_results_bytes_pinned(self, tmp_path):
        config_path = tmp_path / "unsorted.cfg"
        config_path.write_text(UNSORTED_CONFIG)
        out_dir = tmp_path / "out"
        argv = ["compare", "--config", str(config_path), "--out", str(out_dir), "--seed", "7"]
        assert main(argv) == 0
        assert (out_dir / "results.csv").read_bytes() == PINNED_UNSORTED_RESULTS

    def test_logistic_results_bytes_pinned(self, logistic_config_path, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="theta = 1.21 exceeds 1/2"):
            assert main(["compare", "--config", str(logistic_config_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "results.csv").read_bytes() == PINNED_LOGISTIC_RESULTS

    def test_blowup_is_a_numerical_failure(self, tmp_path, capsys):
        config_path = tmp_path / "blowup.cfg"
        config_path.write_text(CONFIG.replace("delta = 0.05", "delta = 20"))
        out_dir = tmp_path / "out"
        assert main(["compare", "--config", str(config_path), "--out", str(out_dir)]) == NUMERICAL_EXIT
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "slmc: numerical failure: chain coordinate left the guarded region"
            " in cell 'scaled eps=0.5' (step 10)"
        ]


class TestValidateKernel:
    def test_reduced_suite_exits_zero(self, capsys):
        code = main(["validate-kernel", "--seed", "0", "--cases", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_no_cases_is_a_usage_error(self, capsys, cases):
        # a check that checks nothing must not pass
        assert main(["validate-kernel", f"--cases={cases}"]) == USAGE_EXIT
        assert "kernel cases passed" not in capsys.readouterr().out

    def test_negative_seed_is_a_usage_error(self, capsys):
        # a generator takes no negative seed: refused with one line, not a traceback
        assert main(["validate-kernel", "--seed=-1", "--cases", "1"]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert "kernel cases passed" not in captured.out
        assert captured.err.splitlines()[-1] == (
            "slmc validate-kernel: error: argument --seed: must be at least 0, got -1"
        )

    def test_removed_monte_carlo_flag_is_a_usage_error(self):
        assert main(["validate-kernel", "--replicas", "5"]) == USAGE_EXIT


class TestW2:
    def test_header_without_rows_is_a_config_error(self, config_path, tmp_path, capsys):
        # numpy warned "input contained no data", then the reader named 1 column
        out_dir = tmp_path / "out"
        main(["sample", "--config", str(config_path), "--out", str(out_dir)])
        capsys.readouterr()
        sample = out_dir / "samples_scaled.csv"
        empty = tmp_path / "empty.csv"
        empty.write_text(sample.read_text().splitlines(keepends=True)[0])
        assert main(["w2", str(empty), str(sample)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"slmc: config error: {empty}: no samples"]

    def test_undecodable_file_is_a_config_error(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.dat"
        garbage.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["w2", str(garbage), str(garbage)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"slmc: config error: {garbage}: neither a ULDS binary nor a text")

    def test_zero_dimension_binary_is_a_config_error(self, tmp_path, capsys):
        # it read as 3 empty points, and w2 printed 0
        zero = tmp_path / "z.bin"
        zero.write_bytes(b"ULDS" + (1).to_bytes(4, "little") + bytes(4) + (3).to_bytes(4, "little"))
        assert main(["w2", str(zero), str(zero)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"slmc: config error: {zero}: header gives dimension 0"]

    def test_same_file_is_zero(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["sample", "--config", str(config_path), "--out", str(out_dir)])
        capsys.readouterr()
        sample = out_dir / "samples_scaled.csv"
        assert main(["w2", str(sample), str(sample)]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_distinct_files_positive(self, config_path, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["sample", "--config", str(config_path), "--out", str(out_a)])
        main(
            ["sample", "--config", str(config_path), "--out", str(out_b), "--seed", "1"]
        )
        capsys.readouterr()
        code = main(
            ["w2", str(out_a / "samples_scaled.csv"), str(out_b / "samples_scaled.csv")]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert float(printed) > 0.0
        # two chains' files from the coarse warm start's floor on: the plain solve's digits
        xs_a, xs_b = (read_samples(out / "samples_scaled.csv")[0] for out in (out_a, out_b))
        assert len(xs_a) >= metrics._WARM_FLOOR
        cost = cdist(xs_a, xs_b, metric="sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        assert printed == f"{np.sqrt(cost[rows, cols].mean()):.9g}"

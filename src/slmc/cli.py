"""Command-line front end.

Exit codes: 1 for usage errors, 2 for configuration problems, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiment, sample_io
from .errors import (
    ConfigError,
    InvalidInput,
    MinimizerNotFound,
    NotPositiveDefinite,
    NumericalBlowup,
    SamplingError,
    SingularMatrix,
    TheoremInapplicable,
)
from .metrics import SampleCloud, empirical_w2
from .oracle import run_kernel_validation
from .sampler import run_chain

USAGE_EXIT = 1
CONFIG_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_config(args) -> experiment.ExperimentConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    config = experiment.parse_config(text)
    if getattr(args, "seed", None) is not None:
        config = experiment.replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config = experiment.replace(config, out_dir=args.out)
    return config


def _cmd_tune(args) -> int:
    config = _load_config(args)
    target = experiment.build_target(config.target)
    scaled = experiment.tune_scaled(target, config.seed)
    spectrum = scaled.A.eig.values
    print(f"target     = {target.name}")
    print(f"theta      = {scaled.theta:.9g}")
    print(f"y_hat      = {np.array2string(scaled.y_hat, precision=6)}")
    print(f"m_hat      = {scaled.m_hat:.9g}")
    print(f"kappa      = {target.kappa:.9g}")
    print(f"kappa_hat  = {scaled.kappa_hat:.9g}")
    print(f"u          = {scaled.u:.9g}  gamma = {scaled.gamma:g}")
    print(
        "A spectrum = "
        f"[{spectrum[0]:.9g}, {spectrum[-1]:.9g}] over {spectrum.size} eigenvalues"
    )
    return 0


def _cmd_plan(args) -> int:
    config = _load_config(args)
    setup = experiment.prepare_run(config, experiment.METHODS)
    for eps in config.epsilons:
        plan_s = setup.plan("scaled", eps)
        plan_u = setup.plan("unscaled", eps)
        print(
            f"epsilon={eps:g} scaled:   delta={plan_s.delta:.9g} n={plan_s.n_steps}"
            f" applicable={plan_s.applicable}"
        )
        print(
            f"epsilon={eps:g} unscaled: delta={plan_u.delta:.9g} n={plan_u.n_steps}"
            f" applicable={plan_u.applicable}"
        )
    return 0


def _print_warnings(method: str, epsilon: float, notes) -> None:
    for note in notes:
        print(f"warning [{method} eps={epsilon:g}]: {note}", file=sys.stderr)


def _cmd_sample(args) -> int:
    config = _load_config(args)
    method = args.method or config.methods[0]
    if method not in config.methods:
        raise ConfigError(f"method {method!r} is not among the config's methods")
    setup = experiment.prepare_run(config, (method,))
    target, init = setup.target, setup.init
    chain_config = setup.chain_config(method)
    delta, n_steps, burn_in, warnings = setup.cell(config, method, config.epsilons[0])
    _print_warnings(method, config.epsilons[0], warnings)

    cell_index = config.methods.index(method) * len(config.epsilons)
    rng = np.random.default_rng(experiment.chain_seed(config.seed, cell_index, 0))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        if target.position_cov is None:
            raise ConfigError("--trace needs a target with closed-form moments")
        every = args.trace_every or max(1, n_steps // 100)
        points = experiment.trace_w2(init, target, chain_config, delta, n_steps, rng, every)
        trace_path = out_dir / f"trace_{method}.csv"
        with open(trace_path, "w", newline="\n") as fh:
            fh.write("step,time,w2_gauss\n")
            for step_index, value in points:
                fh.write(f"{step_index},{step_index * delta:.9g},{value:.9g}\n")
        print(f"wrote {trace_path}")
        return 0

    run = run_chain(
        init, target, chain_config, delta, n_steps, rng, thin=config.thin, burn_in=burn_in
    )
    if args.format == "bin":
        path = out_dir / f"samples_{method}.bin"
        sample_io.write_samples_bin(path, run.xs, run.vs)
    else:
        path = out_dir / f"samples_{method}.csv"
        sample_io.write_samples_csv(path, run.steps, run.xs, run.vs)
    print(f"wrote {path} ({run.xs.shape[0]} states, {run.grad_calls} gradient calls)")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    rows = experiment.run_experiment(config, record_timing=args.timing)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.csv"
    experiment.emit_csv(rows, path)
    for row in rows:
        _print_warnings(row.method, row.epsilon, row.warnings)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_validate_kernel(args) -> int:
    reports = run_kernel_validation(seed=args.seed, n_cases=args.cases)
    failures = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.case.label}: mean error={report.mean_error:.2e} "
            f"cov error={report.cov_error:.2e}"
        )
        failures += 0 if report.passed else 1
    print(f"{len(reports) - failures}/{len(reports)} kernel cases passed")
    return 0 if failures == 0 else NUMERICAL_EXIT


def _cmd_w2(args) -> int:
    xs_a, _ = sample_io.read_samples(args.file_a)
    xs_b, _ = sample_io.read_samples(args.file_b)
    value = empirical_w2(SampleCloud.from_points(xs_a), SampleCloud.from_points(xs_b))
    print(f"{value:.9g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        return p

    def count(text: str) -> int:  # a positive int; argparse names it in its errors
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
        return int(text)

    with_config(sub.add_parser("tune", help="print the scaling recipe for the target"))
    with_config(sub.add_parser("plan", help="print (delta, n) for both methods"))

    p_sample = with_config(
        sub.add_parser(
            "sample",
            help="run one chain and write samples",
            description="Run one chain of the first epsilon's cell and write its states. "
            "As in compare, burn-in defaults to min(n // 2, n - 1) steps.",
        )
    )
    p_sample.add_argument("--format", choices=("csv", "bin"), default="csv")
    p_sample.add_argument("--method", choices=experiment.METHODS, default=None)
    p_sample.add_argument("--trace", action="store_true", help="log a W2 convergence curve")
    p_sample.add_argument("--trace-every", type=int, default=None)

    p_compare = with_config(sub.add_parser("compare", help="full experiment matrix to CSV"))
    p_compare.add_argument(
        "--timing",
        action="store_true",
        help="record wall time (breaks byte-stability): a cell's own evaluation time, in "
        "whichever thread evaluated it, plus its share of chain steps (n x chains over the "
        "run's total) of the one batch that runs every cell's chains; a cell is evaluated "
        "once its own chains end, side by side with other cells and with the batch still "
        "stepping longer cells, so the times can sum to more than the run's wall time",
    )

    p_validate = sub.add_parser(
        "validate-kernel", help="check the step kernel against its matrix exponential"
    )
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--cases", type=count, default=10)

    p_w2 = sub.add_parser("w2", help="W2 between two sample files")
    p_w2.add_argument("file_a")
    p_w2.add_argument("file_b")

    parser.set_defaults(func=None)
    for name, fn in (
        ("tune", _cmd_tune),
        ("plan", _cmd_plan),
        ("sample", _cmd_sample),
        ("compare", _cmd_compare),
        ("validate-kernel", _cmd_validate_kernel),
        ("w2", _cmd_w2),
    ):
        sub.choices[name].set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (ConfigError, InvalidInput) as exc:
        print(f"slmc: config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except (
        NumericalBlowup,
        NotPositiveDefinite,
        SingularMatrix,
        TheoremInapplicable,
        MinimizerNotFound,
    ) as exc:
        print(f"slmc: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except SamplingError as exc:
        print(f"slmc: error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"slmc: io error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())

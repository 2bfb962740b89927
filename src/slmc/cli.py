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
from .errors import ConfigError, InvalidInput, SamplingError
from .metrics import SampleCloud, empirical_w2
from .oracle import run_kernel_validation
from .sampler import exact_law, run_chain

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
    lo, hi = scaled.A.extremes
    print(f"target     = {target.name}")
    print(f"theta      = {scaled.theta:.9g}")
    print(f"y_hat      = {np.array2string(scaled.y_hat, precision=6)}")
    print(f"m_hat      = {scaled.m_hat:.9g}")
    print(f"kappa      = {target.kappa:.9g}")
    print(f"kappa_hat  = {scaled.kappa_hat:.9g}")
    print(f"u          = {scaled.u:.9g}  gamma = {scaled.gamma:g}")
    print(
        "A spectrum = "
        f"[{lo:.9g}, {hi:.9g}] over {scaled.A.dim} eigenvalues"
    )
    return 0


def _cmd_plan(args) -> int:
    config = _load_config(args)
    setup = experiment.prepare_run(config, experiment.METHODS)
    for eps in config.epsilons:
        for method in experiment.METHODS:
            plan = setup.plan(method, eps)
            print(
                f"epsilon={eps:g} {method + ':':9} delta={plan.delta:.9g} n={plan.n_steps}"
                f" applicable={plan.applicable}"
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
    delta, n_steps, warnings = setup.schedule(config, method, config.epsilons[0])
    burn_in = None if args.trace else experiment.cell_burn_in(config, n_steps)  # the trace keeps no state
    _print_warnings(method, config.epsilons[0], warnings)

    out_dir = Path(config.out_dir)
    if args.trace:  # the law after every `every` steps and after n, from the kernel's maps
        every = args.trace_every or max(1, n_steps // 100)
        stops = [*range(every, n_steps, every), n_steps]
        mean, cov = exact_law(target, init, chain_config, delta, stops)
        sd = np.sqrt(target.position_cov.diag)  # law(x_n) and pi are diagonal: W2 sums over modes
        w2 = np.sqrt((mean[..., 0] ** 2 + (np.sqrt(cov[..., 0, 0]) - sd) ** 2).sum(axis=-1))
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"trace_{method}.csv"
        table = np.column_stack([stops, np.multiply(stops, delta), w2])
        np.savetxt(trace_path, table, fmt=("%d", "%.9g", "%.9g"), delimiter=",",
                   header="step,time,w2_exact", comments="")
        print(f"wrote {trace_path}")
        return 0

    # chain 0 of the method's first cell, as in compare
    rng = next(rngs[0] for cell_method, _, rngs in experiment.config_cells(config) if cell_method == method)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = run_chain(
        init, target, chain_config, delta, n_steps, rng, thin=config.thin, burn_in=burn_in
    )
    xs, vs = run.xs[0], run.vs[0]
    if args.format == "bin":
        path = out_dir / f"samples_{method}.bin"
        sample_io.write_samples_bin(path, xs, vs)
    else:
        path = out_dir / f"samples_{method}.csv"
        sample_io.write_samples_csv(path, run.steps, xs, vs)
    print(f"wrote {path} ({xs.shape[0]} states, {run.grad_calls} gradient calls)")
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

    def at_least(lo: int, text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {text}")
        return int(text)

    def count(text: str) -> int:  # argparse names these types in its errors
        return at_least(1, text)

    def nonnegative(text: str) -> int:
        return at_least(0, text)

    with_config(sub.add_parser("tune", help="print the scaling recipe for the target"))
    with_config(sub.add_parser("plan", help="print (delta, n) for both methods"))

    p_sample = with_config(
        sub.add_parser(
            "sample",
            help="run one chain and write samples",
            description="Run one chain of the first epsilon's cell and write its states. "
            "As in compare, burn-in defaults to min(n // 2, n - 1) steps. With --trace, "
            "run no chain: write the exact W2 of law(x_n) to the target at every "
            "--trace-every steps and at n (Gaussian targets only).",
        )
    )
    p_sample.add_argument("--method", choices=experiment.METHODS, default=None)
    output = p_sample.add_mutually_exclusive_group()
    output.add_argument("--format", choices=("csv", "bin"), default=None, help="default csv")
    output.add_argument("--trace", action="store_true", help="write the exact W2 of law(x_n) to the target")
    p_sample.add_argument("--trace-every", type=count, default=None, help="needs --trace; default n // 100")

    def check_sample(args):  # what argparse cannot say: one option needing another
        if args.trace_every is not None and not args.trace:
            p_sample.error("argument --trace-every: needs --trace")

    p_sample.set_defaults(check=check_sample)

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
    p_validate.add_argument("--seed", type=nonnegative, default=0)
    p_validate.add_argument("--cases", type=count, default=10)

    p_w2 = sub.add_parser("w2", help="W2 between two sample files")
    p_w2.add_argument("file_a")
    p_w2.add_argument("file_b")

    parser.set_defaults(func=None, check=None)
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
        if args.check is not None:
            args.check(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (ConfigError, InvalidInput) as exc:
        print(f"slmc: config error: {exc}", file=sys.stderr)
        return CONFIG_EXIT
    except SamplingError as exc:  # every other one is a numerical failure
        print(f"slmc: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except OSError as exc:
        print(f"slmc: io error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Experiment harness: config parsing, chain orchestration, CSV results.

A run covers every (method, epsilon) cell of the config. Seeding is
fully reproducible from the CSV alone: chain c of cell i draws from a
generator seeded with ``base_seed XOR splitmix64(i * 65536 + c)``; the
evaluation draws of a cell use chain slot 0xFFFF and the Hessian
oscillation probes use :data:`PROBE_SALT`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInput, TheoremInapplicable
from .metrics import GaussianSummary, SampleCloud, empirical_w2, gaussian_w2, import_solvers, moment_summary
from .sampler import Cell, run_cells, run_chain  # run_chain is unused here: bench/tracing.py wraps it here
from .spd import SymMatrix
from .targets import InitSpec, TargetModel, load_logistic_csv, make_gaussian, make_logistic_ridge, sample_exact_positions
from .tuner import (
    PlanOutput,
    ScalingConfig,
    default_theta_probes,
    estimate_theta,
    plan_scaled,
    plan_unscaled,
    scaled_params,
    scaled_step_warnings,
    unscaled_config,
    unscaled_step_warnings,
)

METHODS = ("scaled", "unscaled")
#: Cap on the cloud size fed to the exact-matching W2 estimator.
EMPIRICAL_W2_CAP = 1024
#: Chain slot reserved for a cell's evaluation draws.
EVAL_CHAIN_SLOT = 0xFFFF
#: Salt for the probe-set generator of the Hessian oscillation search.
PROBE_SALT = 0x7A11CE

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 mixer; used to derive per-chain seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def chain_seed(base_seed: int, cell_index: int, chain_index: int) -> int:
    return (base_seed ^ splitmix64(cell_index * 65536 + chain_index)) & _MASK


@dataclass(frozen=True)
class TargetSpecification:
    """Declarative target description from a config file."""

    kind: str
    name: str | None = None
    dim: int | None = None
    precision_diag: tuple[float, ...] | None = None
    mean: tuple[float, ...] | None = None
    dataset: str | None = None
    ridge: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    target: TargetSpecification
    methods: tuple[str, ...]
    epsilons: tuple[float, ...]
    seed: int = 0
    chains: int = 4
    delta_override: float | None = None
    n_override: int | None = None
    burn_in: int | None = None
    thin: int = 1
    out_dir: str = "."
    x0: tuple[float, ...] | None = None
    dist_bound: float | None = None


@dataclass(frozen=True)
class ResultRow:
    """One results.csv row: each field but ``warnings`` is a column, in this order."""

    target: str
    method: str
    kappa: float
    kappa_hat: float
    theta: float
    epsilon: float
    delta: float
    n: int
    grad_calls: int
    w2_gauss: float
    w2_empirical: float
    vel_ratio: float
    wall_ms: float
    warnings: tuple[str, ...] = ()


#: The results.csv columns: :class:`ResultRow`'s fields but ``warnings``, in order.
_COLUMNS = tuple(f for f in fields(ResultRow) if f.name != "warnings")
CSV_HEADER = ",".join(f.name for f in _COLUMNS)


# ---------------------------------------------------------------------------
# Config parsing.


def _floats(value: str) -> tuple[float, ...]:
    tokens = value.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"expected a comma-separated number list: empty entry in {value!r}")
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated number list: {exc}") from exc


def _name(value: str) -> str:
    if "," in value or '"' in value:  # either would split or quote a results.csv cell
        raise ValueError(f"a target name holds no ',' or '\"', got {value!r}")
    return value


def _methods(value: str) -> tuple[str, ...]:
    methods = tuple(tok.strip().lower() for tok in value.split(",") if tok.strip())
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    return methods


class ConfigKey(NamedTuple):
    """A config key's dataclass field and value parser, and an exclusive lower
    bound on its value (on each entry of a list) with the message if not met."""

    field: str
    parse: Callable[[str], object]
    above: float | None = None
    message: str = ""


#: Every config key, (section, key) -> how it is read. ``[target]`` keys fill
#: :class:`TargetSpecification`, the others :class:`ExperimentConfig`.
CONFIG_KEYS = {
    ("target", "kind"): ConfigKey("kind", str.lower),
    ("target", "name"): ConfigKey("name", _name),
    ("target", "dim"): ConfigKey("dim", int),
    ("target", "precision_diag"): ConfigKey("precision_diag", _floats),
    ("target", "mean"): ConfigKey("mean", _floats),
    ("target", "dataset"): ConfigKey("dataset", str),
    ("target", "ridge"): ConfigKey("ridge", float),
    ("init", "x0"): ConfigKey("x0", _floats),
    ("init", "dist_bound"): ConfigKey("dist_bound", float),
    ("run", "methods"): ConfigKey("methods", _methods),
    ("run", "epsilons"): ConfigKey("epsilons", _floats, 0, "epsilons must be positive"),
    ("run", "seed"): ConfigKey("seed", int),
    ("run", "chains"): ConfigKey("chains", int, 0, "chains must be positive"),
    ("run", "delta"): ConfigKey("delta_override", float),
    ("run", "n_steps"): ConfigKey("n_override", int),
    ("run", "burn_in"): ConfigKey("burn_in", int, -1, "burn_in must be nonnegative"),
    ("run", "thin"): ConfigKey("thin", int, 0, "thin must be positive"),
    ("run", "out"): ConfigKey("out_dir", str),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse experiment config text.

    The text is ``[section]`` headers, each followed by ``key = value`` lines;
    ``#`` starts a comment. :data:`CONFIG_KEYS` names every section and key
    and the field each fills. Number lists and ``methods`` are comma-separated,
    and every number must be finite.
    ``[target] kind`` is required: ``gaussian`` needs ``precision_diag``, whose
    length ``dim`` and ``mean`` must match, and ``logistic`` needs ``dataset``
    and ``ridge``; a ``name`` holds no ``,`` or ``"``, being a results.csv cell.
    ``[run]`` needs ``methods`` and ``epsilons``; ``delta`` and ``n_steps``, which
    override the plan, come together. A key left out takes its field's default:
    seed 0, 4 chains, thin 1, out ``.``, and burn-in half the run. A
    ``ConfigError`` names the first line at fault, if one is.
    """
    found: dict[str, dict] = {section: {} for section, _ in CONFIG_KEYS}
    lines: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in found:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        row = CONFIG_KEYS.get((section, key))
        if row is None:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if row.field in lines:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        try:
            parsed = row.parse(value)
        except ValueError as exc:  # int and float get a message here, the other parsers word their own
            what = {int: "an integer", float: "a number"}.get(row.parse)
            raise ConfigError(f"expected {what}, got {value!r}" if what else str(exc), lineno) from exc
        values = np.atleast_1d(parsed)
        if values.dtype.kind == "f" and not np.isfinite(values).all():  # NaN would pass `above`
            raise ConfigError(f"expected finite numbers, got {value!r}", lineno)
        if row.above is not None and any(v <= row.above for v in values):
            raise ConfigError(row.message, lineno)
        found[section][row.field], lines[row.field] = parsed, lineno

    spec, run = found["target"], found["run"]
    if "kind" not in spec:
        raise ConfigError("missing target: section [target] must set `kind`")
    if spec["kind"] == "gaussian":
        if "precision_diag" not in spec:
            raise ConfigError("gaussian target requires precision_diag")
        d = len(spec["precision_diag"])
        if spec.get("dim", d) != d:
            raise ConfigError("dim does not match precision_diag length")
        if len(spec.get("mean", spec["precision_diag"])) != d:
            raise ConfigError("mean does not match precision_diag length")
    elif spec["kind"] == "logistic":
        for field in ("dataset", "ridge"):
            if field not in spec:
                raise ConfigError(f"logistic target requires {field}")
    else:
        raise ConfigError(f"unknown target kind {spec['kind']!r}", lines["kind"])
    for field, name in (("methods", "method"), ("epsilons", "epsilon")):
        if not run.get(field):
            raise ConfigError(f"at least one {name} is required (run.{field})")
    if ("delta_override" in run) != ("n_override" in run):
        lineno = lines.get("delta_override", lines.get("n_override"))
        raise ConfigError("delta and n_steps overrides must be given together", lineno)
    if "delta_override" in run and (run["delta_override"] <= 0 or run["n_override"] < 1):
        raise ConfigError("overrides must be positive", lines["delta_override"])
    return ExperimentConfig(target=TargetSpecification(**spec), **run, **found["init"])


def build_target(spec: TargetSpecification) -> TargetModel:
    if spec.kind == "gaussian":
        d = len(spec.precision_diag)
        mean = np.array(spec.mean) if spec.mean is not None else np.zeros(d)
        return make_gaussian(mean, SymMatrix.diagonal(spec.precision_diag), name=spec.name)
    features, labels = load_logistic_csv(spec.dataset)
    return make_logistic_ridge(features, labels, spec.ridge, name=spec.name)


# ---------------------------------------------------------------------------
# Running cells.


def _even_subsample(points: np.ndarray, cap: int) -> np.ndarray:
    n = points.shape[0]
    if n <= cap:
        return points
    idx = (np.arange(cap) * n) // cap
    return points[idx]


def tune_scaled(target: TargetModel, base_seed: int) -> ScalingConfig:
    """The scaling recipe for ``target``, with theta searched over the default
    probes of the generator seeded from ``base_seed`` and :data:`PROBE_SALT`."""
    probe_rng = np.random.default_rng(splitmix64(base_seed ^ PROBE_SALT))
    candidates, probes = default_theta_probes(target, probe_rng)
    return scaled_params(target, estimate_theta(target, candidates, probes))


@dataclass(frozen=True, eq=False)
class RunSetup:
    """Target, start point and chain configs shared by every cell of a config.

    ``scaled`` and ``unscaled`` are None when the setup was prepared
    without that method.
    """

    target: TargetModel
    init: InitSpec
    scaled: ScalingConfig | None
    unscaled: ScalingConfig | None

    def chain_config(self, method: str) -> ScalingConfig:
        return self.scaled if method == "scaled" else self.unscaled

    def plan(self, method: str, epsilon: float) -> PlanOutput:
        target, bound = self.target, self.init.dist_bound
        if method == "scaled":
            return plan_scaled(epsilon, self.scaled, target.dim, target.m, bound)
        return plan_unscaled(epsilon, target.kappa, target.dim, target.m, bound)

    def schedule(self, config: ExperimentConfig, method: str, epsilon: float) -> tuple[float, int, list[str]]:
        """Step size, step count and warnings of one cell.

        The config's delta/n_steps overrides win over the plan; the
        warnings then judge the override delta, and a theorem that does
        not apply becomes a warning.
        """
        if config.delta_override is not None:
            delta, n_steps = config.delta_override, config.n_override
            try:
                warnings = self.step_warnings(method, delta)
            except TheoremInapplicable as exc:
                warnings = [str(exc)]
            return delta, n_steps, warnings
        plan = self.plan(method, epsilon)
        return plan.delta, plan.n_steps, list(plan.warnings)

    def cell(
        self, config: ExperimentConfig, method: str, epsilon: float
    ) -> tuple[float, int, int, list[str]]:
        """Step size, step count, burn-in and warnings of one cell's chains
        (``schedule``, then ``cell_burn_in``)."""
        delta, n_steps, warnings = self.schedule(config, method, epsilon)
        return delta, n_steps, cell_burn_in(config, n_steps), warnings

    def step_warnings(self, method: str, delta: float) -> list[str]:
        """The planner's checks of ``method``'s guarantee, run on ``delta``."""
        if method == "scaled":
            target, bound = self.target, self.init.dist_bound
            return scaled_step_warnings(delta, self.scaled, target.dim, target.m, bound)
        return unscaled_step_warnings(delta)


def cell_burn_in(config: ExperimentConfig, n_steps: int) -> int:
    """The burn-in of a chain of n_steps steps: the config's, or by default
    ``min(n // 2, n - 1)``, as planner-driven runs are only a few relaxation
    times long, so the start-up transient is material. A thin that keeps no
    state after burn-in is a ``ConfigError``."""
    steps = config.burn_in if config.burn_in is not None else n_steps // 2
    steps = min(steps, n_steps - 1)
    if not 1 <= config.thin <= n_steps - steps:
        raise ConfigError(f"thin = {config.thin} keeps no state of n = {n_steps} steps after burn-in {steps}")
    return steps


def prepare_run(config: ExperimentConfig, methods: tuple[str, ...] | None = None) -> RunSetup:
    """Build the target and start point of ``config`` and the chain config
    of each method in ``methods`` (default: the config's)."""
    target = build_target(config.target)
    init = InitSpec.from_point(
        target,
        np.array(config.x0) if config.x0 is not None else None,
        config.dist_bound,
    )
    methods = config.methods if methods is None else methods
    scaled = tune_scaled(target, config.seed) if "scaled" in methods else None
    unscaled = unscaled_config(target) if "unscaled" in methods else None
    return RunSetup(target=target, init=init, scaled=scaled, unscaled=unscaled)


def config_cells(config: ExperimentConfig) -> list[tuple[str, float, tuple[np.random.Generator, ...]]]:
    """Each (method, epsilon) cell of ``config`` in run order, with its chains'
    generators: chain c of cell i draws from ``chain_seed(config.seed, i, c)``."""

    def rngs(i: int) -> tuple[np.random.Generator, ...]:
        return tuple(np.random.default_rng(chain_seed(config.seed, i, c)) for c in range(config.chains))

    cells = product(config.methods, config.epsilons)
    return [(method, epsilon, rngs(i)) for i, (method, epsilon) in enumerate(cells)]


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, record_timing: bool = False) -> list[ResultRow]:
    """Run every (method, epsilon) cell and collect result rows.

    Every cell is planned first, so an inapplicable plan raises before any
    chain runs. The chains of all cells then run as one batch
    (:func:`run_cells`), which hands over each cell as it ends: its
    ``vel_ratio`` is taken there, from the |v|^2 of its kept states, and its
    W2 evaluation submitted. A cell keeps its full positions only when the
    target has closed-form moments, for W2, and never its velocities, so a
    run without W2 holds no (chains, kept, d) array. A pool of min(cells,
    available CPUs) - 1 threads evaluates the cells in the order they end,
    overlapping the steps of longer cells (the matching, LAPACK and BLAS
    release the GIL); after the batch the calling thread evaluates, in cell
    order, every cell no pool thread has taken. With one CPU, or no W2 (no
    closed-form moments), there is no pool. Each evaluation reads only its
    own cell's chains and generator, so the rows do not depend on the number
    of threads. The pool is shut down before this returns or raises: an
    exception from the batch is raised as is, and the cells not yet taken
    are then not evaluated; else the first failing cell's exception, if any.
    Deterministic given the config seed. ``wall_ms`` stays zero unless ``record_timing`` is set,
    keeping the default output byte-stable across reruns; when set, a cell's
    ``wall_ms`` is its own evaluation time, in whichever thread ran it, plus
    the batch's wall time times the cell's share of chain steps (n x chains
    over the run's total). Evaluations overlap the batch and each other, so
    the cells' ``wall_ms`` can sum to more than the call's wall time.
    """
    setup = prepare_run(config)
    target, init = setup.target, setup.init
    summary = None if target.position_cov is None else GaussianSummary(target.minimizer, target.position_cov)

    cells = config_cells(config)
    plans = [setup.cell(config, method, epsilon) for method, epsilon, _ in cells]
    keep = "" if summary is None else "x"  # positions only for W2; vel_ratio reads |v|^2
    specs = [
        Cell(
            init, setup.chain_config(method), delta, n_steps, rngs, config.thin, burn_in,
            label=f"{method} eps={epsilon:g}", keep=keep,
        )
        for (method, epsilon, rngs), (delta, n_steps, burn_in, _) in zip(cells, plans)
    ]
    if summary is not None:  # W2 fits a covariance to each cell's pooled states
        for spec in specs:
            kept = len(spec.rngs) * ((spec.n_steps - spec.burn_in) // spec.thin)
            if kept < 2:
                raise ConfigError(f"cell '{spec.label}' keeps {kept} state, and its W2 needs at least 2")
    d = target.dim
    total_steps = sum(spec.n_steps * len(spec.rngs) for spec in specs)
    if summary is not None:  # shared by the evaluation threads, so imported on this one
        import_solvers()
    vel_ratios, positions, futures = [None] * len(cells), [None] * len(cells), [None] * len(cells)
    workers = 0 if summary is None else min(len(cells), available_cpus()) - 1
    pool = ThreadPoolExecutor(workers, thread_name_prefix="slmc-evaluate") if workers else None

    def hand_over(cell_index: int, run) -> None:
        """Take a finished cell's velocity ratio and submit its evaluation, if there is a pool."""
        u = specs[cell_index].config.u
        vel_ratios[cell_index] = float(run.speed_sq.mean() / (u * d))
        positions[cell_index] = run.xs
        if pool is not None:
            futures[cell_index] = pool.submit(evaluate, cell_index)

    def evaluate(cell_index: int) -> tuple[float, float, float]:
        """W2 to the target by moments and by exact matching, and the milliseconds taken."""
        start = time.monotonic()
        if summary is None:
            return float("nan"), float("nan"), (time.monotonic() - start) * 1e3
        pooled_x = positions[cell_index].reshape(-1, d)
        positions[cell_index] = None  # freed with pooled_x once the batch is done, before the matching
        w2_gauss = gaussian_w2(moment_summary(SampleCloud.from_points(pooled_x)), summary)
        sub = _even_subsample(pooled_x, EMPIRICAL_W2_CAP)
        del pooled_x
        eval_rng = np.random.default_rng(chain_seed(config.seed, cell_index, EVAL_CHAIN_SLOT))
        reference = sample_exact_positions(target, sub.shape[0], eval_rng)
        w2_emp = empirical_w2(SampleCloud.from_points(sub), SampleCloud.from_points(reference))
        return w2_gauss, w2_emp, (time.monotonic() - start) * 1e3

    try:
        start = time.monotonic()
        run_cells(target, specs, hand_over)
        batch_ms = (time.monotonic() - start) * 1e3
        for cell_index, future in enumerate(futures):  # the cells no pool thread has taken
            if future is None or future.cancel():
                futures[cell_index] = future = Future()
                try:
                    future.set_result(evaluate(cell_index))
                except Exception as exc:
                    future.set_exception(exc)
    finally:
        if pool is not None:  # if the batch raised, the cells not yet taken are not evaluated
            pool.shutdown(cancel_futures=True)
    evaluations = [future.result() for future in futures]
    rows = []
    for (method, epsilon, _), (delta, n_steps, _, warnings), (w2_gauss, w2_emp, eval_ms), vel_ratio in zip(
        cells, plans, evaluations, vel_ratios
    ):
        chain_config = setup.chain_config(method)
        share = n_steps * config.chains / total_steps
        rows.append(
            ResultRow(
                target=target.name,
                method=method,
                kappa=target.kappa,
                kappa_hat=chain_config.kappa_hat,
                theta=chain_config.theta,
                epsilon=epsilon,
                delta=delta,
                n=n_steps,
                grad_calls=n_steps * config.chains,
                w2_gauss=w2_gauss,
                w2_empirical=w2_emp,
                vel_ratio=vel_ratio,
                wall_ms=eval_ms + batch_ms * share if record_timing else 0.0,
                warnings=tuple(warnings),
            )
        )
    return rows


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write result rows with the fixed header, 9-significant-digit floats, LF endings."""
    if not rows:
        raise InvalidInput("refusing to write an empty result CSV")
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            cells = ((f.type, getattr(row, f.name)) for f in _COLUMNS)
            fh.write(",".join(f"{v:.9g}" if t == "float" else str(v) for t, v in cells) + "\n")


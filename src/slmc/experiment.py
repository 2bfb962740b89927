"""Experiment harness: config parsing, chain orchestration, CSV results.

A run covers every (method, epsilon) cell of the config. Seeding is
fully reproducible from the CSV alone: chain c of cell i draws from a
generator seeded with ``base_seed XOR splitmix64(i * 65536 + c)``; the
evaluation draws of a cell use chain slot 0xFFFF and the Hessian
oscillation probes use :data:`PROBE_SALT`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigError, InvalidInput, TheoremInapplicable
from .metrics import GaussianSummary, SampleCloud, empirical_w2, gaussian_w2, moment_summary
from .sampler import Cell, run_cells, run_chain
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
CSV_HEADER = (
    "target,method,kappa,kappa_hat,theta,epsilon,delta,n,"
    "grad_calls,w2_gauss,w2_empirical,vel_ratio,wall_ms"
)
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


# ---------------------------------------------------------------------------
# Config parsing: [section] headers, `key = value` lines, `#` comments.

_SCHEMA = {
    "target": {"kind", "name", "dim", "precision_diag", "mean", "dataset", "ridge"},
    "init": {"x0", "dist_bound"},
    "run": {
        "methods",
        "epsilons",
        "seed",
        "chains",
        "delta",
        "n_steps",
        "burn_in",
        "thin",
        "out",
    },
}


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _floats(value: str, lineno: int) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list: {exc}", lineno) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse experiment config text, filling defaults (chains=4, seed=0)."""
    entries = _parse_lines(text)

    def take(section: str, key: str) -> tuple[str, int] | None:
        return entries.get((section, key))

    kind_entry = take("target", "kind")
    if kind_entry is None:
        raise ConfigError("missing target: section [target] must set `kind`")
    kind = kind_entry[0].lower()
    if kind not in ("gaussian", "logistic"):
        raise ConfigError(f"unknown target kind {kind!r}", kind_entry[1])

    spec_kwargs: dict = {"kind": kind}
    if (entry := take("target", "name")) is not None:
        spec_kwargs["name"] = entry[0]
    if (entry := take("target", "dim")) is not None:
        spec_kwargs["dim"] = _int(entry)
    if (entry := take("target", "precision_diag")) is not None:
        spec_kwargs["precision_diag"] = _floats(*entry)
    if (entry := take("target", "mean")) is not None:
        spec_kwargs["mean"] = _floats(*entry)
    if (entry := take("target", "dataset")) is not None:
        spec_kwargs["dataset"] = entry[0]
    if (entry := take("target", "ridge")) is not None:
        spec_kwargs["ridge"] = _float(entry)
    target = TargetSpecification(**spec_kwargs)
    _validate_target_spec(target, entries)

    methods_entry = take("run", "methods")
    methods = tuple(
        tok.strip().lower() for tok in (methods_entry[0] if methods_entry else "").split(",") if tok.strip()
    )
    if not methods:
        raise ConfigError("at least one method is required (run.methods)")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}", methods_entry[1])

    eps_entry = take("run", "epsilons")
    epsilons = _floats(*eps_entry) if eps_entry else ()
    if not epsilons:
        raise ConfigError("at least one epsilon is required (run.epsilons)")
    if any(e <= 0 for e in epsilons):
        raise ConfigError("epsilons must be positive", eps_entry[1])

    kwargs: dict = {"target": target, "methods": methods, "epsilons": epsilons}
    if (entry := take("run", "seed")) is not None:
        kwargs["seed"] = _int(entry)
    if (entry := take("run", "chains")) is not None:
        kwargs["chains"] = _int(entry)
        if kwargs["chains"] < 1:
            raise ConfigError("chains must be positive", entry[1])
    delta_entry = take("run", "delta")
    n_entry = take("run", "n_steps")
    if (delta_entry is None) != (n_entry is None):
        lineno = (delta_entry or n_entry)[1]
        raise ConfigError("delta and n_steps overrides must be given together", lineno)
    if delta_entry is not None:
        kwargs["delta_override"] = _float(delta_entry)
        kwargs["n_override"] = _int(n_entry)
        if kwargs["delta_override"] <= 0 or kwargs["n_override"] < 1:
            raise ConfigError("overrides must be positive", delta_entry[1])
    if (entry := take("run", "burn_in")) is not None:
        kwargs["burn_in"] = _int(entry)
    if (entry := take("run", "thin")) is not None:
        kwargs["thin"] = _int(entry)
    if (entry := take("run", "out")) is not None:
        kwargs["out_dir"] = entry[0]
    if (entry := take("init", "x0")) is not None:
        kwargs["x0"] = _floats(*entry)
    if (entry := take("init", "dist_bound")) is not None:
        kwargs["dist_bound"] = _float(entry)
    return ExperimentConfig(**kwargs)


def _int(entry: tuple[str, int]) -> int:
    value, lineno = entry
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {value!r}", lineno) from exc


def _float(entry: tuple[str, int]) -> float:
    value, lineno = entry
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {value!r}", lineno) from exc


def _validate_target_spec(spec: TargetSpecification, entries) -> None:
    if spec.kind == "gaussian":
        if spec.precision_diag is None:
            raise ConfigError("gaussian target requires precision_diag")
        if spec.dim is not None and spec.dim != len(spec.precision_diag):
            raise ConfigError("dim does not match precision_diag length")
        if spec.mean is not None and len(spec.mean) != len(spec.precision_diag):
            raise ConfigError("mean does not match precision_diag length")
    else:
        if spec.dataset is None:
            raise ConfigError("logistic target requires dataset")
        if spec.ridge is None:
            raise ConfigError("logistic target requires ridge")


def build_target(spec: TargetSpecification) -> TargetModel:
    if spec.kind == "gaussian":
        d = len(spec.precision_diag)
        mean = np.array(spec.mean) if spec.mean is not None else np.zeros(d)
        return make_gaussian(mean, SymMatrix.diagonal(spec.precision_diag), name=spec.name)
    features, labels = load_logistic_csv(spec.dataset)
    return make_logistic_ridge(features, labels, spec.ridge, name=spec.name)


# ---------------------------------------------------------------------------
# Running cells.


def target_summary(target: TargetModel) -> GaussianSummary:
    if target.position_cov is None:
        raise InvalidInput(f"target {target.name!r} has no closed-form moments")
    return GaussianSummary(mean=target.minimizer, cov=target.position_cov)


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

    def cell(
        self, config: ExperimentConfig, method: str, epsilon: float
    ) -> tuple[float, int, int, list[str]]:
        """Step size, step count, burn-in and warnings of one cell.

        The config's delta/n_steps overrides win over the plan; the
        warnings then judge the override delta, and a theorem that does
        not apply becomes a warning. Burn-in defaults to
        ``min(n // 2, n - 1)``: planner-driven runs are only a few
        relaxation times long, so the start-up transient is material.
        """
        if config.delta_override is not None:
            delta, n_steps = config.delta_override, config.n_override
            try:
                warnings = self.step_warnings(method, delta)
            except TheoremInapplicable as exc:
                warnings = [str(exc)]
        else:
            plan = self.plan(method, epsilon)
            delta, n_steps, warnings = plan.delta, plan.n_steps, list(plan.warnings)
        burn_in = config.burn_in if config.burn_in is not None else n_steps // 2
        return delta, n_steps, min(burn_in, n_steps - 1), warnings

    def step_warnings(self, method: str, delta: float) -> list[str]:
        """The planner's checks of ``method``'s guarantee, run on ``delta``."""
        if method == "scaled":
            target, bound = self.target, self.init.dist_bound
            return scaled_step_warnings(delta, self.scaled, target.dim, target.m, bound)
        return unscaled_step_warnings(delta)


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


def run_experiment(config: ExperimentConfig, record_timing: bool = False) -> list[ResultRow]:
    """Run every (method, epsilon) cell and collect result rows.

    Every cell is planned first, so an inapplicable plan raises before any
    chain runs. The chains of all cells then run as one batch
    (:func:`run_cells`), and each cell is evaluated in turn. Deterministic
    given the config seed. ``wall_ms`` stays zero unless ``record_timing``
    is set, keeping the default output byte-stable across reruns; when set,
    a cell's ``wall_ms`` is its own evaluation time plus the batch's wall
    time times the cell's share of chain steps (n x chains over the run's
    total).
    """
    setup = prepare_run(config)
    target, init = setup.target, setup.init
    summary = target_summary(target) if target.position_cov is not None else None

    cells = list(product(config.methods, config.epsilons))
    plans = [setup.cell(config, method, epsilon) for method, epsilon in cells]
    specs = []
    for cell_index, ((method, epsilon), (delta, n_steps, burn_in, _)) in enumerate(zip(cells, plans)):
        rngs = tuple(
            np.random.default_rng(chain_seed(config.seed, cell_index, chain_index))
            for chain_index in range(config.chains)
        )
        label = f"{method} eps={epsilon:g}"
        chain_config = setup.chain_config(method)
        specs.append(Cell(init, chain_config, delta, n_steps, rngs, config.thin, burn_in, label=label))
    start = time.monotonic()
    runs = run_cells(target, specs)
    batch_ms = (time.monotonic() - start) * 1e3
    d = target.dim
    vel_ratios = [
        float((run.vs.reshape(-1, d) ** 2).sum(axis=1).mean() / (spec.config.u * d))
        for run, spec in zip(runs, specs)
    ]
    positions = [run.xs for run in runs]
    del runs  # free the velocities before the W2 evaluation
    total_steps = sum(spec.n_steps * len(spec.rngs) for spec in specs)

    rows = []
    for cell_index, ((method, epsilon), (delta, n_steps, _, warnings)) in enumerate(zip(cells, plans)):
        start = time.monotonic()
        chain_config = setup.chain_config(method)
        pooled_x = positions[cell_index].reshape(-1, d)
        positions[cell_index] = None  # freed once this cell's W2 is done
        if summary is not None:
            w2_gauss = gaussian_w2(moment_summary(SampleCloud.from_points(pooled_x)), summary)
            sub = _even_subsample(pooled_x, EMPIRICAL_W2_CAP)
            eval_rng = np.random.default_rng(
                chain_seed(config.seed, cell_index, EVAL_CHAIN_SLOT)
            )
            reference = sample_exact_positions(target, sub.shape[0], eval_rng)
            w2_emp = empirical_w2(
                SampleCloud.from_points(sub), SampleCloud.from_points(reference)
            )
        else:
            w2_gauss = float("nan")
            w2_emp = float("nan")

        share = n_steps * config.chains / total_steps
        wall_ms = (time.monotonic() - start) * 1e3 + batch_ms * share if record_timing else 0.0
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
                vel_ratio=vel_ratios[cell_index],
                wall_ms=wall_ms,
                warnings=tuple(warnings),
            )
        )
    return rows


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write result rows with the fixed header, 9-significant-digit floats, LF endings."""
    if not rows:
        raise InvalidInput("refusing to write an empty result CSV")

    def fmt(value: float) -> str:
        return f"{value:.9g}"

    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            cells = [
                row.target,
                row.method,
                fmt(row.kappa),
                fmt(row.kappa_hat),
                fmt(row.theta),
                fmt(row.epsilon),
                fmt(row.delta),
                str(row.n),
                str(row.grad_calls),
                fmt(row.w2_gauss),
                fmt(row.w2_empirical),
                fmt(row.vel_ratio),
                fmt(row.wall_ms),
            ]
            fh.write(",".join(cells) + "\n")


def trace_w2(
    init: InitSpec,
    target: TargetModel,
    config: ScalingConfig,
    delta: float,
    n_steps: int,
    rng: np.random.Generator,
    every: int,
) -> list[tuple[int, float]]:
    """Convergence curve support: W2-to-target of the trailing half of the
    trajectory, logged every ``every`` steps. Closed-form targets only."""
    summary = target_summary(target)
    run = run_chain(init, target, config, delta, n_steps, rng)
    points = []
    for stop in range(every, n_steps + 1, every):
        window = run.xs[stop // 2 : stop]
        if window.shape[0] < 2:
            continue
        est = moment_summary(SampleCloud.from_points(window))
        points.append((stop, gaussian_w2(est, summary)))
    return points

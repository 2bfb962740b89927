"""The benchmark's pinned workloads, their set-up path and their output checks.

Each workload is an ``ExperimentConfig`` for ``slmc.experiment.run_experiment``
(the engine behind ``slmc compare``), made from the workload seed alone. The
logistic workload also writes its generated dataset as a CSV file into the
run's scratch directory, because the program reads datasets from disk.

``size="toy"`` shrinks every workload to a few seconds or less for the
smoke test; the full size is what the benchmark measures. The toy
gauss-d2-planned keeps 8 chains and drops the eps = 0.5 cell, because
fewer samples would make ``vel_ratio`` too noisy for its band.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from slmc.errors import TheoremInapplicable
from slmc.experiment import (
    PROBE_SALT,
    ExperimentConfig,
    TargetSpecification,
    build_target,
    emit_csv,
    splitmix64,
)
from slmc.sampler import make_step_cache
from slmc.targets import InitSpec
from slmc.tuner import (
    default_theta_probes,
    estimate_theta,
    plan_scaled,
    plan_unscaled,
    scaled_params,
    unscaled_config,
)

#: Accepted band for a row's ``vel_ratio`` (mean |v|^2 over its stationary
#: value u*d). Observed over 20 seeds of gauss-d2-planned, the noisiest
#: workload: 0.66 to 1.32, about 1 +- 0.13 per row.
VEL_RATIO_BAND = (0.4, 2.0)

NAMES = ("gauss-d2-planned", "gauss-d512-dense", "logistic-d20-fixed")


@dataclass(frozen=True)
class Workload:
    config: ExperimentConfig
    closed_form: bool  # the target has closed-form moments, so W2 is evaluated


def make_workload(name: str, seed: int, scratch: str, size: str = "full") -> Workload:
    """Build the named workload's config from ``seed``; ``scratch`` receives data files."""
    toy = size == "toy"
    if name == "gauss-d2-planned":
        spec = TargetSpecification(kind="gaussian", precision_diag=(1.0, 4.0))
        config = ExperimentConfig(
            target=spec,
            methods=("scaled", "unscaled"),
            epsilons=(1.0,) if toy else (1.0, 0.5),
            seed=seed,
            chains=8,
        )
        return Workload(config, closed_form=True)
    if name == "gauss-d512-dense":
        d = 16 if toy else 512
        spec = TargetSpecification(
            kind="gaussian", precision_diag=tuple(np.geomspace(1.0, 100.0, d).tolist())
        )
        config = ExperimentConfig(
            target=spec,
            methods=("scaled", "unscaled"),
            epsilons=(1.0,),
            seed=seed,
            chains=2,
            delta_override=0.05,
            n_override=100 if toy else 600,
        )
        return Workload(config, closed_form=True)
    if name == "logistic-d20-fixed":
        rows, d = (200, 5) if toy else (2000, 20)
        path = os.path.join(scratch, "logistic.csv")
        write_logistic_dataset(path, rows, d, seed)
        spec = TargetSpecification(kind="logistic", dataset=path, ridge=1.0)
        config = ExperimentConfig(
            target=spec,
            methods=("scaled", "unscaled"),
            epsilons=(1.0,),
            seed=seed,
            chains=2,
            delta_override=0.05,
            n_override=1000 if toy else 10_000,
        )
        return Workload(config, closed_form=False)
    raise ValueError(f"unknown workload {name!r}")


def write_logistic_dataset(path: str, rows: int, d: int, seed: int) -> None:
    """Features N(0, 1/d); labels sign(a.w + noise) for a seeded w ~ N(0, I)."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows, d)) / math.sqrt(d)
    weights = rng.standard_normal(d)
    margin = features @ weights + 0.5 * rng.standard_normal(rows)
    labels = np.where(margin >= 0.0, 1.0, -1.0)
    np.savetxt(path, np.column_stack([features, labels]), delimiter=",", fmt="%.17g")


def setup_once(config: ExperimentConfig):
    """The work ``run_experiment`` does before its first chain step, through
    public calls: target build, theta search, the first cell's plan and one
    step-cache build. Returns the cache."""
    target = build_target(config.target)
    init = InitSpec.from_point(
        target,
        np.array(config.x0) if config.x0 is not None else None,
        config.dist_bound,
    )
    scaled = None
    if "scaled" in config.methods:
        probe_rng = np.random.default_rng(splitmix64(config.seed ^ PROBE_SALT))
        candidates, probes = default_theta_probes(target, probe_rng)
        scaled = scaled_params(target, estimate_theta(target, candidates, probes))
    method, epsilon = config.methods[0], config.epsilons[0]
    try:
        if method == "scaled":
            plan = plan_scaled(epsilon, scaled, target.dim, target.m, init.dist_bound)
        else:
            plan = plan_unscaled(epsilon, target.kappa, target.dim, target.m, init.dist_bound)
    except TheoremInapplicable:
        if config.delta_override is None:
            raise
        plan = None  # with overrides, run_experiment turns this into a warning
    delta = plan.delta if config.delta_override is None else config.delta_override
    chain_config = scaled if method == "scaled" else unscaled_config(target)
    return make_step_cache(chain_config, delta)


def check_rows(workload: Workload, rows) -> list[str]:
    """Checks that any correct sampler passes for any seed; returns the failures."""
    config = workload.config
    errors = []
    cells = len(config.methods) * len(config.epsilons)
    if len(rows) != cells:
        errors.append(f"{len(rows)} rows for {cells} cells")
    lo, hi = VEL_RATIO_BAND
    for row in rows:
        label = f"{row.method} eps={row.epsilon:g}"
        if row.grad_calls != row.n * config.chains:
            errors.append(f"{label}: grad_calls {row.grad_calls} != n*chains {row.n * config.chains}")
        w2 = (row.w2_gauss, row.w2_empirical)
        if workload.closed_form and not all(math.isfinite(v) for v in w2):
            errors.append(f"{label}: W2 columns not finite on a Gaussian target: {w2}")
        if not workload.closed_form and not all(math.isnan(v) for v in w2):
            errors.append(f"{label}: W2 columns not NaN on a target without closed form: {w2}")
        if not lo <= row.vel_ratio <= hi:
            errors.append(f"{label}: vel_ratio {row.vel_ratio:.4g} outside [{lo}, {hi}]")
    return errors


def csv_bytes(rows, path: str) -> bytes:
    """The rows as ``emit_csv`` writes them, plus each row's warnings."""
    emit_csv(rows, path)
    with open(path, "rb") as fh:
        data = fh.read()
    return data + repr([row.warnings for row in rows]).encode()

"""Scaling recipe and step-size/iteration planners.

The scaled recipe anchors the dynamics at a point y_hat of low Hessian
oscillation: with m_hat the smallest Hessian eigenvalue at y_hat it sets
u = 2/m_hat, A = u * hessian(y_hat) and gamma = 1, which improves the
effective condition number kappa_hat = L/m_hat and, when the oscillation
theta is below 1/2, yields an iteration count linear instead of
quadratic in the condition number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, TheoremInapplicable
from .spd import SymMatrix
from .targets import TargetModel

#: Probes drawn on each sphere of :func:`default_theta_probes`.
PROBES_PER_RADIUS = 64


@dataclass(frozen=True, eq=False)
class ThetaEstimate:
    """Result of the Hessian-oscillation search: theta, anchor, local curvature."""

    theta: float
    y_hat: np.ndarray
    m_hat: float


@dataclass(frozen=True, eq=False)
class ScalingConfig:
    """The triple (A, u, gamma) plus the tuning data that produced it."""

    A: SymMatrix
    u: float
    gamma: float
    theta: float
    m_hat: float
    kappa_hat: float
    y_hat: np.ndarray

    def __post_init__(self):
        if not (self.u > 0.0 and self.gamma > 0.0):
            raise InvalidInput("u and gamma must be positive")
        if self.theta < 0.0:
            raise InvalidInput("theta must be nonnegative")
        if self.A.extremes[0] <= 0.0:
            raise InvalidInput("scaling matrix A must be SPD")


@dataclass(frozen=True, eq=False)
class PlanOutput:
    """Planner verdict: step size, iteration count and applicability flags."""

    delta: float
    n_steps: int
    applicable: bool
    warnings: list[str] = field(default_factory=list)


def estimate_theta(
    target: TargetModel,
    candidate_ys: list[np.ndarray],
    probe_xs: list[np.ndarray],
) -> ThetaEstimate:
    """Search candidate anchors for the worst-case relative Hessian oscillation.

    For each candidate y the inner value is
    max over probes x of |H(x) - H(y)|_2 / lambda_min(H(y));
    the returned estimate minimizes that value over candidates (ties go
    to the first index). Because the probe set is finite the estimate is
    a lower bound on the true oscillation. Targets whose Hessian is
    flagged constant short-circuit to exactly zero and read no probe, so
    their probe set may be empty.

    The probes are read in one pass: one ``hess_oracle`` call on the
    (k, d) batch of all k probes (for the logistic target, one blocked
    product W @ Q; see ``targets.make_logistic_ridge``), whose (k, d, d)
    result must be finite and of that shape, else ``InvalidInput``; then
    one stacked ``eigvalsh`` of the k differences per candidate. Each
    candidate's Hessian is a point call, so m_hat keeps the point
    Hessian's bits, and theta is exact to the rounding of the batch.
    """
    if len(candidate_ys) == 0:
        raise InvalidInput("candidate set must be nonempty")
    if target.hess_constant:
        y0 = np.asarray(candidate_ys[0], dtype=float)
        m_hat = target.hess_oracle(y0).extremes[0]
        return ThetaEstimate(theta=0.0, y_hat=y0, m_hat=m_hat)
    if len(probe_xs) == 0:
        raise InvalidInput("probe set must be nonempty")
    k, d = len(probe_xs), target.dim
    try:
        probe_hessians = np.asarray(target.hess_oracle(np.array(probe_xs, dtype=float)))
    except (ValueError, TypeError, IndexError) as exc:
        raise InvalidInput(f"hess_oracle fails on the ({k}, d) probe batch: {exc}") from exc
    if probe_hessians.shape != (k, d, d):
        raise InvalidInput(
            f"hess_oracle maps the ({k}, d) probe batch to shape {probe_hessians.shape}"
        )
    if not np.isfinite(probe_hessians).all():
        raise InvalidInput("hess_oracle gives non-finite probe Hessians")

    best_value = math.inf
    best_y = None
    best_m = None
    for y in candidate_ys:
        y = np.asarray(y, dtype=float)
        h_y = target.hess_oracle(y).mat
        m_y = float(np.linalg.eigvalsh(h_y)[0])
        if m_y <= 0.0:
            raise InvalidInput("candidate anchor has a non-SPD Hessian")
        value = float(np.abs(np.linalg.eigvalsh(probe_hessians - h_y)).max()) / m_y
        if value < best_value:
            best_value, best_y, best_m = value, y, m_y
    return ThetaEstimate(theta=best_value, y_hat=best_y, m_hat=best_m)


def default_theta_probes(
    target: TargetModel, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Default anchor/probe sets: the minimizer, plus points on spheres around it.

    Probe radii are {1, 2, 4} * sqrt(d/m), the scale on which the
    stationary distribution concentrates. A target with a constant Hessian
    gets no probes and draws nothing from ``rng``: its theta is exactly zero.
    """
    base = math.sqrt(target.dim / target.m)
    candidates = [target.minimizer.copy()]
    probes = []
    if target.hess_constant:
        return candidates, probes
    for radius in (1.0, 2.0, 4.0):
        z = rng.standard_normal((PROBES_PER_RADIUS, target.dim))
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        shell = target.minimizer + (radius * base) * (z / norms[:, None])
        probes.extend(list(shell))
    return candidates, probes


def scaled_params(target: TargetModel, theta_result: ThetaEstimate) -> ScalingConfig:
    """Assemble the scaled configuration A = u * hessian(y_hat), u = 2/m_hat, gamma = 1."""
    if theta_result.m_hat <= 0.0:
        raise InvalidInput("m_hat must be positive")
    h_anchor = target.hess_oracle(theta_result.y_hat)
    # The local curvature can never fall below the global modulus; clamp
    # away eigensolver round-off so kappa_hat <= kappa holds exactly.
    m_hat = max(theta_result.m_hat, target.m)
    u = 2.0 / m_hat
    if h_anchor.is_diagonal:  # so is u * H, kept as its entries
        a = SymMatrix.diagonal(u * h_anchor.diag)
    else:
        a = SymMatrix(u * h_anchor.mat)
    if theta_result.theta > 0.5:
        warnings.warn(
            f"theta = {theta_result.theta:.3g} exceeds 1/2: the convergence "
            "guarantee does not apply, though the sampler still runs",
            RuntimeWarning,
            stacklevel=2,
        )
    return ScalingConfig(
        A=a,
        u=u,
        gamma=1.0,
        theta=float(theta_result.theta),
        m_hat=m_hat,
        kappa_hat=target.L / m_hat,
        y_hat=np.asarray(theta_result.y_hat, dtype=float),
    )


def unscaled_config(target: TargetModel) -> ScalingConfig:
    """Identity-scaling baseline: A = I, gamma = 2, u = 1/L."""
    return ScalingConfig(
        A=SymMatrix.diagonal(np.ones(target.dim)),
        u=1.0 / target.L,
        gamma=2.0,
        theta=0.0,
        m_hat=target.m,
        kappa_hat=target.kappa,
        y_hat=target.minimizer.copy(),
    )


def _checked_scale(epsilon: float, d: int, m: float, dist_bound: float) -> float:
    if not (epsilon > 0.0 and np.isfinite(epsilon)):
        raise InvalidInput("epsilon must be a positive real")
    if d < 1:
        raise InvalidInput("dimension must be positive")
    if not (m > 0.0):
        raise InvalidInput("m must be positive")
    if dist_bound < 0.0:
        raise InvalidInput("distance bound must be nonnegative")
    return d / m + dist_bound**2


def _steps_from_bound(n_real: float) -> int:
    # One step beyond the ceiling so the count strictly clears the bound
    # even when the transcendental evaluation rounds down.
    return math.ceil(n_real) + 1


def plan_scaled(
    epsilon: float, config: ScalingConfig, d: int, m: float, dist_bound: float
) -> PlanOutput:
    """Step size and iteration count for the scaled recipe at accuracy epsilon.

    delta = eps (1-2 theta)/kappa_hat * sqrt(5/73728) * sqrt(1/(d/m + D^2))
    n     = kappa_hat/(eps (1-2 theta)^2) * sqrt(18432/5) * sqrt(d/m + D^2)
            * log(16 (2 d/m + D^2)/eps),  rounded up.

    Requires theta < 1/2. The ``applicable`` flag additionally checks the
    planned delta against :func:`scaled_step_warnings`.
    """
    scale = _checked_scale(epsilon, d, m, dist_bound)
    gap = _oscillation_gap(config.theta)
    kap = config.kappa_hat
    delta = (epsilon * gap / kap) * math.sqrt(5.0 / 73728.0) * math.sqrt(1.0 / scale)
    n_real = (
        (kap / (epsilon * gap**2))
        * math.sqrt(18432.0 / 5.0)
        * math.sqrt(scale)
        * math.log(16.0 * (2.0 * d / m + dist_bound**2) / epsilon)
    )
    notes = scaled_step_warnings(delta, config, d, m, dist_bound)
    return PlanOutput(
        delta=delta,
        n_steps=_steps_from_bound(n_real),
        applicable=not notes,
        warnings=notes,
    )


def _oscillation_gap(theta: float) -> float:
    if theta >= 0.5:
        raise TheoremInapplicable(
            f"theta = {theta:.3g} >= 1/2: no step-size guarantee exists"
        )
    return 1.0 - 2.0 * theta


def scaled_step_warnings(
    delta: float, config: ScalingConfig, d: int, m: float, dist_bound: float
) -> list[str]:
    """Why the scaled recipe's guarantee may fail at step ``delta``, one
    note per failed check: the per-step contraction bound
    2 delta (1-2 theta) < 1 and the stationary-energy step cap
    delta <= (1-2 theta)/(2 kappa_hat) * sqrt(5 (8d/m + 4D^2)/(8 e_K))
    with e_K = 36 (d/m + D^2). Raises ``TheoremInapplicable`` when
    theta >= 1/2.
    """
    gap = _oscillation_gap(config.theta)
    notes = []
    if 2.0 * delta * gap >= 1.0:
        notes.append(
            f"delta = {delta:.3e} breaks the per-step contraction bound 2*delta*(1-2*theta) < 1"
        )
    e_k = 36.0 * (d / m + dist_bound**2)
    delta_cap = (gap / (2.0 * config.kappa_hat)) * math.sqrt(
        5.0 * (8.0 * d / m + 4.0 * dist_bound**2) / (8.0 * e_k)
    )
    if delta > delta_cap:
        notes.append(f"delta = {delta:.3e} exceeds the stationary-energy cap {delta_cap:.3e}")
    return notes


def unscaled_step_warnings(delta: float) -> list[str]:
    """Why the baseline's guarantee may fail at step ``delta``: the
    per-step contraction bound 2 delta < 1."""
    if 2.0 * delta < 1.0:
        return []
    return [f"delta = {delta:.3e} breaks the per-step contraction bound 2*delta < 1"]


def plan_unscaled(
    epsilon: float, kappa: float, d: int, m: float, dist_bound: float
) -> PlanOutput:
    """Step size and iteration count for the identity-scaling baseline.

    delta = eps/(104 kappa) * sqrt(1/(d/m + D^2))
    n     = 52 kappa^2/eps * sqrt(d/m + D^2) * log(24 (d/m + D^2)/eps),
    rounded up. Note the quadratic dependence on the condition number.
    """
    scale = _checked_scale(epsilon, d, m, dist_bound)
    if kappa < 1.0:
        raise InvalidInput("condition number must be at least 1")
    delta = (epsilon / (104.0 * kappa)) * math.sqrt(1.0 / scale)
    n_real = (52.0 * kappa**2 / epsilon) * math.sqrt(scale) * math.log(24.0 * scale / epsilon)
    notes = unscaled_step_warnings(delta)
    return PlanOutput(
        delta=delta,
        n_steps=_steps_from_bound(n_real),
        applicable=not notes,
        warnings=notes,
    )

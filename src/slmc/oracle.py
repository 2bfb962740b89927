"""A deterministic reference for the analytic step kernel.

With the gradient g frozen, one step of size delta is the linear SDE

    dz = (F z + b) dt + G dB,   z = (x, v),
    F = [[0, I], [0, -gamma A]],   b = (0, -u g),   G G^T = Q = diag(0, 2 gamma u A),

so its law is Gaussian with mean e^{F delta} z + int_0^delta e^{F t} b dt
and covariance int_0^delta e^{F t} Q e^{F^T t} dt. The mean is one ``expm``
of the augmented generator [[F, b], [0, 0]]; the covariance comes from the
``expm`` of Van Loan's block [[-F, Q], [0, F^T]] (C. F. Van Loan, Computing
integrals involving the matrix exponential, IEEE TAC 23(3), 1978). Both are
taken over h = delta / 2^k with ||F||_1 h <= 1/2, where the -F block cannot
blow up, and then doubled k times.

The reference works on the dense A and never on its eigenvalues, so it
shares no code with the per-mode closed forms it checks (``sampler._modes``,
reached through ``kernel_moments``) and has no sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import ChainState, kernel_moments
from .spd import SymMatrix
from .tuner import ScalingConfig

#: Entrywise relative error up to which a case passes. The closed forms are exact
#: to rounding (``sampler._cov_xx_shape`` included, by its series below s = 1);
#: what is left is the reference's own error, from the expm scaling and squaring
#: over eigenvalues spread across seven decades: up to 2.3e-11 over the 1,000
#: ``kernel_validation_cases`` of seeds 0-99, so 1e-10 leaves a margin of ~4.
TOLERANCE = 1e-10


def exact_step_moments(
    state: ChainState, grad: np.ndarray, config: ScalingConfig, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean (2d,) and covariance (2d, 2d) of z = (x, v) after one frozen-gradient step."""
    from scipy.linalg import expm

    d = state.dim
    n = 2 * d
    a = config.A.mat
    f = np.zeros((n, n))
    f[:d, d:] = np.eye(d)
    f[d:, d:] = -config.gamma * a
    k = max(0, math.ceil(math.log2(2.0 * delta * np.abs(f).sum(axis=0).max())))
    h = delta / 2**k

    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = f * h
    aug[d:n, n] = -config.u * h * np.asarray(grad, dtype=float)
    e = expm(aug)
    phi, c = e[:n, :n], e[:n, n]

    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -f * h
    block[d:n, n + d :] = 2.0 * config.gamma * config.u * h * a
    block[n:, n:] = f.T * h
    cov = phi @ expm(block)[:n, n:]

    for _ in range(k):
        c = phi @ c + c
        cov = phi @ cov @ phi.T + cov
        phi = phi @ phi
    return phi @ np.concatenate([state.x, state.v]) + c, 0.5 * (cov + cov.T)


@dataclass(frozen=True, eq=False)
class KernelCase:
    """One randomized comparison setup."""

    label: str
    config: ScalingConfig
    state: ChainState
    grad: np.ndarray
    delta: float


@dataclass(frozen=True, eq=False)
class CaseReport:
    """Largest relative errors of ``kernel_moments`` against the reference: mean
    entries relative to max(1, |mean|), covariance entries to sqrt(S_ii S_jj)."""

    case: KernelCase
    mean_error: float
    cov_error: float

    @property
    def passed(self) -> bool:
        return self.mean_error <= TOLERANCE and self.cov_error <= TOLERANCE


def kernel_validation_cases(seed: int, n_cases: int = 10) -> list[KernelCase]:
    """Randomized cases: d cycles over {1,2,4}, delta alternates 0.1/0.5, A is a
    random SPD matrix with eigenvalues log-uniform in [1e-4, 1e3], so that
    s = gamma a delta spans the closed forms' series branch and stiff modes."""
    rng = np.random.default_rng(seed)
    dims = [1, 2, 4]
    deltas = [0.1, 0.5]
    cases = []
    for i in range(n_cases):
        d = dims[i % len(dims)]
        delta = deltas[i % len(deltas)]
        eigs = np.exp(rng.uniform(math.log(1e-4), math.log(1e3), size=d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = SymMatrix((q * eigs) @ q.T)
        u = float(rng.uniform(0.5, 2.5))
        config = ScalingConfig(
            A=a, u=u, gamma=1.0, theta=0.0, m_hat=1.0, kappa_hat=1.0, y_hat=np.zeros(d)
        )
        state = ChainState(x=rng.standard_normal(d), v=rng.standard_normal(d))
        grad = rng.standard_normal(d)
        cases.append(KernelCase(f"case{i:02d}-d{d}-delta{delta:g}", config, state, grad, delta))
    return cases


def check_case(case: KernelCase) -> CaseReport:
    """Compare ``kernel_moments`` entrywise against ``exact_step_moments``."""
    mean, cov = exact_step_moments(case.state, case.grad, case.config, case.delta)
    moments = kernel_moments(case.state, case.grad, case.config, case.delta)
    mean_error = np.abs(moments.joint_mean() - mean) / np.maximum(1.0, np.abs(mean))
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    cov_error = np.abs(moments.joint_cov().mat - cov) / scale
    return CaseReport(case, float(mean_error.max()), float(cov_error.max()))


def run_kernel_validation(seed: int = 0, n_cases: int = 10) -> list[CaseReport]:
    """Check the first ``n_cases`` randomized cases of ``seed``."""
    return [check_case(case) for case in kernel_validation_cases(seed, n_cases)]

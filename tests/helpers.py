"""Shared test utilities."""

import numpy as np

from slmc.spd import SymMatrix
from slmc.targets import make_logistic_ridge
from slmc.tuner import ScalingConfig


def random_spd(rng, dim, lo=0.5, hi=10.0):
    """Random SPD matrix with eigenvalues drawn uniformly in [lo, hi]."""
    eigs = rng.uniform(lo, hi, size=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return SymMatrix((q * eigs) @ q.T)


def random_logistic(seed, rows, d, ridge, scale=1.0):
    """Logistic-ridge target on N(0, scale^2) features with random {-1, +1} labels.

    ``seed`` is an int or a Generator; a Generator is advanced, so a test can
    keep drawing from it afterwards.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows, d)) * scale
    labels = np.where(rng.standard_normal(rows) > 0, 1.0, -1.0)
    return make_logistic_ridge(features, labels, ridge=ridge)


def make_config(a: SymMatrix, u=1.0, gamma=1.0, theta=0.0):
    """ScalingConfig with placeholder tuning fields, for kernel-level tests."""
    return ScalingConfig(
        A=a,
        u=u,
        gamma=gamma,
        theta=theta,
        m_hat=1.0,
        kappa_hat=1.0,
        y_hat=np.zeros(a.dim),
    )


class ZeroRng:
    """Generator stand-in whose normal draws are all zero."""

    def standard_normal(self, size=None, out=None):
        if out is not None:
            out[...] = 0.0
            return out
        if size is None:
            return 0.0
        return np.zeros(size)

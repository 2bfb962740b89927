"""Strongly log-concave target densities with gradient and Hessian oracles.

A target is minus the log of the density of interest: a twice
continuously differentiable f with an L-Lipschitz gradient and strong
convexity modulus m > 0. Both built-ins (Gaussian and logistic-ridge)
carry analytic constants, a known minimizer, and oracles for f, grad f
and the Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInput, MinimizerNotFound, NotPositiveDefinite
from .spd import SymMatrix, spd_apply_fn

_GRAD_AT_MIN_TOL = 1e-8
#: Entries per block of a batched logistic Hessian (see ``make_logistic_ridge``).
_HESS_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class TargetModel:
    """A log-concave target with oracle access and known constants.

    ``value_oracle``, ``grad_oracle`` and ``hess_oracle`` evaluate f,
    grad f and the Hessian (as a SymMatrix) at a point. ``grad_oracle``
    also maps a (C, d) batch of points to their (C, d) gradients, row by
    row, and construction checks this on a (1, d) batch. ``hess_oracle``
    maps a (k, d) batch to a (k, d, d) array of symmetric Hessians, which
    may be read-only and may differ from the point Hessians in rounding;
    construction does not check this, its caller (``tuner.estimate_theta``)
    does, so that building a target costs no Hessian pass. ``m`` and ``L``
    are the strong-convexity and gradient-Lipschitz constants,
    ``minimizer`` the unique minimum of f. ``hess_constant`` marks
    targets whose Hessian does not depend on the evaluation point.
    ``position_cov`` is the exact stationary covariance of the position
    marginal when it is known in closed form (Gaussian targets), used by
    diagnostics; it is None otherwise.
    """

    dim: int
    name: str
    value_oracle: Callable[[np.ndarray], float]
    grad_oracle: Callable[[np.ndarray], np.ndarray]
    hess_oracle: Callable[[np.ndarray], SymMatrix | np.ndarray]
    m: float
    L: float
    minimizer: np.ndarray
    hess_constant: bool = False
    position_cov: SymMatrix | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dimension must be positive")
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise InvalidInput("strong-convexity constant m must be positive")
        if not (self.L >= self.m and np.isfinite(self.L)):
            raise InvalidInput("smoothness constant L must satisfy L >= m")
        x_star = np.asarray(self.minimizer, dtype=float)
        if x_star.shape != (self.dim,):
            raise InvalidInput("minimizer has wrong shape")
        if not np.isfinite(x_star).all():  # a NaN gradient there would pass the norm check
            raise InvalidInput("minimizer has non-finite entries")
        try:
            g = np.asarray(self.grad_oracle(x_star[None]))
        except (ValueError, TypeError, IndexError) as exc:
            raise InvalidInput(f"grad_oracle fails on a (1, d) batch: {exc}") from exc
        if g.shape != (1, self.dim):
            raise InvalidInput(f"grad_oracle maps a (1, d) batch to shape {g.shape}")
        grad_norm = float(np.linalg.norm(g))
        if grad_norm > _GRAD_AT_MIN_TOL * (1.0 + self.L):
            raise InvalidInput(
                f"|grad f| = {grad_norm:.3e} at the claimed minimizer"
            )
        object.__setattr__(self, "minimizer", x_star)

    @property
    def kappa(self) -> float:
        return self.L / self.m

    def grad_in_frame(self, vectors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """y -> grad(y V^T) V, the gradient in y = x V for an orthogonal V, on points or
        batches as ``grad_oracle``. An oracle's own ``in_frame(V)`` builds it for less (the
        logistic one folds V into its design); a wrapped or replaced oracle has none."""
        if hasattr(self.grad_oracle, "in_frame"):
            return self.grad_oracle.in_frame(vectors)
        grad, back = self.grad_oracle, np.ascontiguousarray(vectors.T)  # rows round alike
        return lambda y: grad(y @ back) @ vectors


@dataclass(frozen=True, eq=False)
class InitSpec:
    """Deterministic chain start: position x0 and a bound D >= |x0 - x*|."""

    x0: np.ndarray
    dist_bound: float

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise InvalidInput("x0 has non-finite entries")
        if not (self.dist_bound >= 0.0 and np.isfinite(self.dist_bound)):
            raise InvalidInput("distance bound must be a nonnegative real")
        object.__setattr__(self, "x0", x0)

    @classmethod
    def from_point(
        cls, target: TargetModel, x0: np.ndarray | None = None, dist_bound: float | None = None
    ) -> "InitSpec":
        """Build an init for a target, defaulting D to |x0 - x*| exactly."""
        x0 = target.minimizer if x0 is None else np.asarray(x0, dtype=float)
        if x0.shape != (target.dim,):
            raise InvalidInput("x0 has wrong dimension for this target")
        dist = float(np.linalg.norm(x0 - target.minimizer))
        if dist_bound is None:
            dist_bound = dist
        elif dist_bound < dist:
            raise InvalidInput(
                f"distance bound {dist_bound:g} below actual |x0 - x*| = {dist:g}"
            )
        return cls(x0=x0, dist_bound=float(dist_bound))


def make_gaussian(
    mean: np.ndarray, precision: SymMatrix, name: str | None = None
) -> TargetModel:
    """Gaussian target f(x) = (x-mean)^T P (x-mean) / 2 for SPD precision P.

    The Hessian is the constant P, so m and L are its extreme
    eigenvalues and the stationary position covariance is P^{-1}; a (k, d)
    batch of points maps to P repeated k times, a read-only (k, d, d) view.
    A diagonal P is applied elementwise.
    """
    mean = np.asarray(mean, dtype=float)
    d = precision.dim
    if mean.shape != (d,):
        raise InvalidInput("mean has wrong dimension for the precision matrix")
    lo, hi = precision.extremes
    if lo <= 0.0:
        raise InvalidInput(f"precision matrix is not SPD (lambda_min = {lo:.3e})")
    p, diag = (None, precision.diag) if precision.is_diagonal else (precision.mat, None)

    def value(x: np.ndarray) -> float:
        r = x - mean
        return 0.5 * float(r @ (p @ r if diag is None else diag * r))

    def grad(x: np.ndarray) -> np.ndarray:
        r = x - mean
        return r @ p if diag is None else r * diag  # row-wise, as p is symmetric

    def hess(x: np.ndarray) -> SymMatrix | np.ndarray:
        if np.ndim(x) == 2:
            return np.broadcast_to(precision.mat, (x.shape[0], d, d))
        return precision

    return TargetModel(
        dim=d,
        name=name or f"gaussian-d{d}",
        value_oracle=value,
        grad_oracle=grad,
        hess_oracle=hess,
        m=lo,
        L=hi,
        minimizer=mean.copy(),
        hess_constant=True,
        position_cov=spd_apply_fn(precision, lambda w: 1.0 / w),
    )


def make_logistic_ridge(
    features: np.ndarray,
    labels: np.ndarray,
    ridge: float,
    name: str | None = None,
    max_newton_iter: int = 200,
) -> TargetModel:
    """Ridge-regularized logistic loss, a target with a nonconstant Hessian.

        f(x) = sum_i log(1 + exp(-y_i a_i^T x)) + ridge/2 |x|^2

    Constants are the analytic bounds m = ridge and
    L = ridge + max_eig(sum_i a_i a_i^T)/4; these are valid (conservative)
    and deterministic, unlike numerical estimates of the extremal Hessian
    eigenvalues. The minimizer is located by damped Newton iteration to
    gradient norm <= 1e-10.

    The oracles keep one copy of the design, the C-contiguous (d, rows)
    array B = (y_i a_i)^T, so the margins of a point or a (C, d) batch
    are z = x @ B; in y = x V the target is again logistic, with design V^T B
    (the gradient's ``in_frame``). The gradient is ridge x - s @ B^T with
    s = sigma(-z) = 1/(1 + exp(z)); exp overflows to inf above z ~ 709
    and then gives s = 0 exactly, with the overflow warning silenced.
    The Hessian is (B * w) @ B^T + ridge I with w = sigma(z) sigma(-z)
    = e/(1 + e)^2, e = exp(-|z|) (as y_i^2 = 1), which cannot overflow;
    f itself uses logaddexp.

    A (k, d) batch of points gets its k Hessians from one product W @ Q:
    W holds the (k, rows) weights w, and row i of Q the upper triangle of
    b_i b_i^T, the d(d+1)/2 products b_ir b_ic, r <= c; each row of W @ Q
    is one Hessian's upper triangle, mirrored into a (k, d, d) array. Both
    factors are built in blocks of R = 2^15 // (d(d+1)/2) rows (at least 1)
    and 2^15 // R probes, so no (k, rows) or (rows, d(d+1)/2) array is held
    whole. The sums run in another order than the point Hessian's, so the
    two agree to rounding (~1e-16 of max|H|), not bit for bit.
    """
    a = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if a.ndim != 2:
        raise InvalidInput("features must be a 2-D array")
    n, d = a.shape
    if y.shape != (n,):
        raise InvalidInput("labels must match the number of feature rows")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("features contain non-finite entries")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInput("labels must take values in {-1, +1}")
    if not (ridge > 0.0 and np.isfinite(ridge)):
        raise InvalidInput("ridge penalty must be positive")

    gram = a.T @ a
    gram_top = float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1]) if n else 0.0
    m = float(ridge)
    big_l = float(ridge + 0.25 * gram_top)
    constant = not np.any(a)
    ya_t = np.multiply(a.T, y, order="C")  # column i is y_i a_i
    ridge_eye = ridge * np.eye(d)

    def value(x: np.ndarray) -> float:
        z = x @ ya_t
        return float(np.logaddexp(0.0, -z).sum() + 0.5 * ridge * (x @ x))

    def gradient(design: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def grad(x: np.ndarray) -> np.ndarray:
            s = x @ design
            with np.errstate(over="ignore"):
                np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            return ridge * x - s @ design.T
        grad.in_frame = lambda vectors: gradient(vectors.T @ design)  # C-contiguous
        return grad

    grad = gradient(ya_t)

    tri = d * (d + 1) // 2
    upper = np.triu_indices(d)
    rows_per_block = max(1, min(n, _HESS_BLOCK // tri))
    probes_per_block = max(1, _HESS_BLOCK // rows_per_block)

    def hess(x: np.ndarray) -> SymMatrix | np.ndarray:
        if np.ndim(x) == 2:
            return hess_stack(x)
        e = np.exp(-np.abs(x @ ya_t))
        w = e / np.square(1.0 + e)
        return SymMatrix((ya_t * w) @ ya_t.T + ridge_eye)

    def hess_stack(xs: np.ndarray) -> np.ndarray:
        k = xs.shape[0]
        packed = np.zeros((k, tri))  # upper triangles, row by row
        for lo in range(0, n, rows_per_block):
            b = ya_t[:, lo : lo + rows_per_block]
            q = b[upper[0]]  # (tri, rows): column i holds b_i b_i^T's upper triangle
            q *= b[upper[1]]
            for p in range(0, k, probes_per_block):
                w = xs[p : p + probes_per_block] @ b
                np.abs(w, out=w)
                np.negative(w, out=w)
                np.exp(w, out=w)  # e = exp(-|z|), then w = e/(1 + e)^2 in place
                w /= np.square(1.0 + w)
                packed[p : p + probes_per_block] += w @ q.T
        out = np.empty((k, d, d))
        out[:, upper[0], upper[1]] = packed
        out[:, upper[1], upper[0]] = packed
        out.reshape(k, d * d)[:, :: d + 1] += ridge  # the diagonals
        return out

    minimizer = _newton_minimize(value, grad, hess, d, max_newton_iter)
    return TargetModel(
        dim=d,
        name=name or f"logistic-n{n}-d{d}",
        value_oracle=value,
        grad_oracle=grad,
        hess_oracle=hess,
        m=m,
        L=big_l,
        minimizer=minimizer,
        hess_constant=constant,
    )


#: A Newton decrement below this fraction of |f| is one the line search cannot resolve.
_UNRESOLVED = 1.5e-8  # ~sqrt(eps)


def _newton_minimize(value, grad, hess, dim: int, max_iter: int) -> np.ndarray:
    x = np.zeros(dim)
    for _ in range(max_iter):
        g = grad(x)
        if np.linalg.norm(g) <= 1e-10:
            return x
        step = np.linalg.solve(hess(x).mat, g)
        # Backtracking keeps the iteration globally safe on skewed data.
        t, f0, slope = 1.0, value(x), float(g @ step)
        for _ in range(40):
            if value(x - t * step) <= f0 - 0.25 * t * slope:
                break
            t *= 0.5
        x = x - t * step
    # Near the optimum the line search compares values it cannot resolve, and
    # it can stall above the tolerance. Once the Newton decrement g^T H^-1 g
    # is that small, full steps still converge: take up to 5 while |g| falls.
    g = grad(x)
    for _ in range(5):
        if np.linalg.norm(g) <= 1e-10:
            return x
        step = np.linalg.solve(hess(x).mat, g)
        if float(g @ step) > _UNRESOLVED * max(1.0, abs(value(x))):
            break
        trial = x - step
        g_trial = grad(trial)
        if not np.linalg.norm(g_trial) < np.linalg.norm(g):
            break
        x, g = trial, g_trial
    if np.linalg.norm(g) <= 1e-10:
        return x
    raise MinimizerNotFound(
        f"Newton did not reach gradient norm 1e-10 in {max_iter} iterations"
    )


def grad_check(target: TargetModel, point: np.ndarray) -> float:
    """Max relative error of the analytic oracles against central differences.

    The gradient is checked coordinate-wise with step h = 1e-5 (1 + |x_i|)
    and the Hessian column-wise against differenced gradients; errors are
    normalized by 1 + |analytic|.
    """
    x = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInput("point has non-finite entries")
    g = target.grad_oracle(x)
    h_mat = target.hess_oracle(x).mat
    worst = 0.0
    for i in range(target.dim):
        h = 1e-5 * (1.0 + abs(x[i]))
        e = np.zeros(target.dim)
        e[i] = h
        fd = (target.value_oracle(x + e) - target.value_oracle(x - e)) / (2.0 * h)
        worst = max(worst, abs(g[i] - fd) / (1.0 + abs(g[i])))
        gd = (target.grad_oracle(x + e) - target.grad_oracle(x - e)) / (2.0 * h)
        col_err = np.abs(h_mat[:, i] - gd) / (1.0 + np.abs(h_mat[:, i]))
        worst = max(worst, float(col_err.max()))
    return worst


def sample_exact_positions(
    target: TargetModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact draws from the target's position marginal (closed-form targets only).

    A diagonal ``position_cov`` scales the draws by its roots; any other
    is factored by Cholesky. Raises ``NotPositiveDefinite`` when the
    covariance is not positive definite; no jitter is added.
    """
    cov = target.position_cov
    if cov is None:
        raise InvalidInput(f"target {target.name!r} has no closed-form sampler")
    if cov.is_diagonal:
        variances = cov.diag
        if not (variances > 0.0).all():
            raise NotPositiveDefinite("position covariance has a non-positive variance")
        return target.minimizer + rng.standard_normal((count, target.dim)) * np.sqrt(variances)
    try:
        chol = np.linalg.cholesky(cov.mat)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"position covariance does not factor: {exc}") from exc
    z = rng.standard_normal((count, target.dim))
    return target.minimizer + z @ chol.T


def load_logistic_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a headerless CSV dataset: feature columns, then a {-1,+1} label column."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidInput(f"could not parse dataset {path}: {exc}") from exc
    if raw.shape[1] < 2:
        raise InvalidInput("dataset needs at least one feature column plus labels")
    features, labels = raw[:, :-1], raw[:, -1]
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise InvalidInput("label column must take values in {-1, +1}")
    return features, labels

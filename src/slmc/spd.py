"""Symmetric matrices and functions of their spectrum.

A ``SymMatrix`` is the one place a matrix is checked and symmetrized. It
holds a dense d x d array, or, for a diagonal made by
``SymMatrix.diagonal``, only its d entries, so that a diagonal target
or scaling costs O(d) memory and set-up. It keeps its own
eigendecomposition: ``eig`` runs one full symmetric eigensolve on first
use and every later reader shares the result, so each matrix is
decomposed at most once. Matrix functions such as inverses and square
roots are assembled from it as ``V diag(fn(w)) V^T``, or, for a diagonal,
applied to its entries; at the moderate dimensions this package targets
(d <= 4096) one eigendecomposition is cheaper and more flexible than
scheme-specific algorithms. A diagonal is read only by ``is_diagonal``
and ``diag``, in coordinate order, and so is never decomposed; any
matrix's extreme eigenvalues are read by ``extremes``. Nothing here adds
jitter: a matrix outside the domain of a function is an error.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInput, SingularMatrix

#: Largest supported dimension, dense or diagonal; larger inputs are rejected.
MAX_DIM = 4096

_SYM_RTOL = 1e-12


class EigenPair(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


class SymMatrix:
    """A symmetric matrix, checked on construction and read-only.

    ``SymMatrix(M)`` stores a dense matrix: M must already be symmetric to
    within 1e-12 relative tolerance, and the stored array is ``(M + M^T)/2``.
    ``SymMatrix.diagonal(entries)`` stores a diagonal matrix as its entry
    vector alone; its dense ``mat`` is built only when first read.
    """

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)  # only read: the stored array is new
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
        _check_entries(m)
        scratch = np.subtract(m, m.T)
        asym = float(np.abs(scratch, out=scratch).max())
        scale = max(1.0, float(m.max()), -float(m.min()))
        if asym > _SYM_RTOL * scale:
            raise InvalidInput(f"matrix is not symmetric: max|M - M^T| = {asym:.3e}")
        sym = np.add(m, m.T, out=scratch)
        sym *= 0.5
        sym.setflags(write=False)
        self._dense, self._entries = sym, None

    @classmethod
    def diagonal(cls, entries) -> "SymMatrix":
        """The diagonal matrix with ``entries`` on its diagonal, stored as a
        read-only copy of that vector."""
        e = np.array(entries, dtype=float)
        if e.ndim != 1:
            raise InvalidInput(f"expected a vector of diagonal entries, got shape {e.shape}")
        _check_entries(e)
        e.setflags(write=False)
        out = cls.__new__(cls)
        out._dense, out._entries = None, e
        return out

    @property
    def mat(self) -> np.ndarray:
        """The dense d x d array, read-only; a diagonal's is built on first read and kept."""
        if self._dense is None:
            dense = np.diag(self._entries)
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def diag(self) -> np.ndarray:
        """The main diagonal, read-only: a diagonal's stored entries, a view of a dense matrix's."""
        return self._entries if self._entries is not None else np.diagonal(self._dense)

    @property
    def dim(self) -> int:
        return self.diag.size

    @cached_property
    def eig(self) -> EigenPair:
        """Full symmetric eigendecomposition, eigenvalues ascending, read-only;
        computed on first use and kept."""
        values, vectors = np.linalg.eigh(self.mat)
        values.setflags(write=False)
        vectors.setflags(write=False)
        return EigenPair(values, vectors)

    @property
    def extremes(self) -> tuple[float, float]:
        """(lambda_min, lambda_max): a diagonal's least and greatest entries, with no sort,
        else the ends of ``eig.values``."""
        if self.is_diagonal:
            return float(self.diag.min()), float(self.diag.max())
        values = self.eig.values
        return float(values[0]), float(values[-1])

    @cached_property
    def is_diagonal(self) -> bool:
        """Whether every off-diagonal entry is zero; kept, and O(1) for ``diagonal``'s matrices."""
        if self._entries is not None:
            return True
        return np.count_nonzero(self._dense) == np.count_nonzero(self.diag)


def _check_entries(m: np.ndarray) -> None:
    """Reject a dimension outside 1..MAX_DIM and any non-finite entry."""
    d = m.shape[0]
    if d == 0 or d > MAX_DIM:
        raise InvalidInput(f"dimension {d} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix has non-finite entries")


def spd_apply_fn(m: SymMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> SymMatrix:
    """Apply a scalar function to a symmetric matrix through its spectrum.

    ``fn`` receives the eigenvalue vector and must return the transformed
    eigenvalues as a vector of the same shape, else ``InvalidInput`` is
    raised; it must act elementwise. For a diagonal ``m`` the eigenvalues
    are its entries in their own order, and the result is the diagonal
    ``fn(diag)``. Else they are ascending, and the result is
    ``V diag(fn(w)) V^T``, built from the decomposition kept on ``m``.

    Raises ``SingularMatrix`` when ``fn`` produces a non-finite value on
    any eigenvalue, e.g. inverting a singular matrix.
    """
    values = m.diag if m.is_diagonal else m.eig.values
    with np.errstate(all="ignore"):
        w = np.asarray(fn(values), dtype=float)
    if w.shape != values.shape:
        raise InvalidInput(f"fn returned shape {w.shape} for {values.shape} eigenvalues")
    if not np.all(np.isfinite(w)):
        raise SingularMatrix("matrix function undefined on part of the spectrum")
    if m.is_diagonal:
        return SymMatrix.diagonal(w)
    vectors = m.eig.vectors
    return SymMatrix((vectors * w) @ vectors.T)


"""Small dense linear-algebra helpers used throughout the package.

Conventions: matrices are float64 numpy arrays; every algebraic assembly is
re-symmetrized to suppress drift; definiteness is decided on the symmetrized
matrix with a norm-relative eigenvalue threshold.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DimensionMismatch, NotPositiveDefinite, SingularGain

# Relative Frobenius tolerance for accepting an input matrix as symmetric.
SYM_TOL = 1e-10
# Eigenvalue threshold scale for definiteness tests.
DEF_TOL = 1e-12


def as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    return arr


def as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


def symmetrize(x: np.ndarray) -> np.ndarray:
    """0.5 (x + x^T) for a matrix, or per matrix of a stack (..., n, n)."""
    return 0.5 * (x + x.swapaxes(-1, -2))


def require_symmetric(x: np.ndarray, name: str) -> np.ndarray:
    """Accept x as symmetric within SYM_TOL and return its symmetrized form."""
    x = as_matrix(x, name)
    if x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {x.shape}")
    skew = np.linalg.norm(x - x.T)
    if skew > SYM_TOL * (1.0 + np.linalg.norm(x)):
        raise DimensionMismatch(f"{name} is not symmetric (skew norm {skew:.3g})")
    return symmetrize(x)


def min_eigenvalue(x: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(x))[0])


def definiteness_threshold(x: np.ndarray):
    """DEF_TOL * (1 + ||x||_F) for a matrix, or per matrix of a stack (..., n, n)."""
    if x.ndim == 2:  # the plain norm is cheaper; the tuner calls this thousands of times
        return DEF_TOL * (1.0 + float(np.linalg.norm(x)))
    return DEF_TOL * (1.0 + np.linalg.norm(x, axis=(-2, -1)))


def require_spd(x: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetric positive definite; returns the symmetrized matrix."""
    x = require_symmetric(x, name)
    me = min_eigenvalue(x)
    if me <= definiteness_threshold(x):
        raise NotPositiveDefinite(name, me)
    return x


def require_psd(x: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetric positive semidefinite; returns the symmetrized matrix."""
    x = require_symmetric(x, name)
    me = min_eigenvalue(x)
    if me < -definiteness_threshold(x):
        raise NotPositiveDefinite(name, me)
    return x


def spd_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for symmetric positive definite a via Cholesky.

    Never forms a^-1; raises SingularGain when the factorization fails, which
    is the caller's signal that a gain matrix left the positive cone.
    """
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularGain(str(exc)) from exc
    return cho_solve(factor, b, check_finite=False)


def block_diag(blocks) -> np.ndarray:
    """Dense block-diagonal assembly of square blocks."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    total = sum(b.shape[0] for b in blocks)
    out = np.zeros((total, total))
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos:pos + k, pos:pos + k] = b
        pos += k
    return out


def trapezoid(values: np.ndarray, dt: float) -> float:
    """Composite trapezoid of uniformly sampled scalar values."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    return float(dt * (values[0] * 0.5 + values[1:-1].sum() + values[-1] * 0.5))

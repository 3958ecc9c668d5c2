"""Small dense linear-algebra helpers used throughout the package, and its
one classic RK4 step.

Conventions: matrices are float64 numpy arrays; every algebraic assembly is
re-symmetrized to suppress drift; definiteness is decided on the symmetrized
matrix with a norm-relative eigenvalue threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

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


def frobenius_norms(x: np.ndarray) -> np.ndarray:
    """||x||_F per matrix of a stack (..., n, n), each equal bit for bit to
    np.linalg.norm of that matrix alone (when it is C-ordered or symmetric).

    np.linalg.norm of a matrix is sqrt of the BLAS dot of its entries, and a
    row-by-column matmul is that same dot; np.linalg.norm over axes (-2, -1)
    sums in another order and differs in the last bits.
    """
    flat = x.reshape(x.shape[:-2] + (1, x.shape[-2] * x.shape[-1]))
    return np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2)))[..., 0, 0]


def definiteness_threshold(x: np.ndarray):
    """DEF_TOL * (1 + ||x||_F) for a matrix, or per matrix of a stack (..., n, n),
    the same bits either way."""
    if x.ndim == 2:  # the plain norm is cheaper for one matrix
        return DEF_TOL * (1.0 + float(np.linalg.norm(x)))
    return DEF_TOL * (1.0 + frobenius_norms(x))


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


def rk4_step(field, y: np.ndarray, dt: float, stages, out: np.ndarray) -> None:
    """One classic RK4 step of dy/dt = field(s, y_s) from y, in place.

    field(s, y_s) returns a new array holding the derivative at stage
    s = 0..3 of the step, evaluated at the stage input y_s; the step uses
    it as scratch. The stage inputs y, y + dt/2 d1, y + dt/2 d2 and
    y + dt d3 are written to stages, four arrays shaped like y (such as one
    array (4,) + y.shape), and y + dt/6 (((d1 + 2 d2) + 2 d3) + d4) to out,
    which may be y itself but must not overlap stages. Every value has the
    bits of that expression evaluated out of place.
    """
    y1, y2, y3, y4 = stages
    h2 = 0.5 * dt
    np.copyto(y1, y)
    d1 = field(0, y1)
    np.multiply(d1, h2, y2)
    y2 += y
    d2 = field(1, y2)
    np.multiply(d2, h2, y3)
    y3 += y
    d3 = field(2, y3)
    np.multiply(d3, dt, y4)
    y4 += y
    d4 = field(3, y4)
    d2 += d2  # 2 d2 exactly, as is d3 + d3
    d2 += d1
    d3 += d3
    d2 += d3
    d2 += d4
    d2 *= dt / 6.0
    np.add(y, d2, out)

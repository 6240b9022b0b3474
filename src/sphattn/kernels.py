"""Channel-attention activation and the induced empirical/population kernels.

The activation with channel weights tau = (tau_0, ..., tau_L) is

    sigma_tau(x, x') = sum_k tau_k * P_k(<x, x'>),

a positive-definite zonal kernel on the unit sphere.  Averaging activation
products over m random unit directions q_r gives the empirical kernel

    Khat(x, x') = (1/m) * sum_r sigma_tau(x, q_r) * sigma_tau(q_r, x'),

whose expectation over uniform directions is, by the Funk-Hecke formula,

    K(x, x') = sum_k tau_k^2 / N(d, k) * P_k(<x, x'>) ,

which for tau in finalized form (tau_k = sqrt(N(d, k)) on the kept
channels, 0 elsewhere) is the sum of P_k over the kept channels, and
population_gram's sum_{k <= ell_hat} P_k when they are 0..ell_hat.  All
gram matrices here are assembled from dot products alone; explicit harmonic
bases are never needed.
"""

from __future__ import annotations

import numpy as np

from . import harmonics
from .harmonics import gegenbauer_weighted_matrix, gegenbauer_weighted_sum

__all__ = [
    "finalized_weights",
    "oracle_weights",
    "activation",
    "activation_matrix",
    "population_gram",
    "empirical_gram",
    "normalized_gram",
    "gram_spectrum",
]


def _require_unit_rows(X, name: str) -> np.ndarray:
    """X as a float matrix of unit rows; raises unless every row is within UNIT_TOL of norm 1.

    Rows farther than DOT_TOL / 4 from norm 1 are divided by their norms in a
    copy, so that the dot products of two checked rows stay in the walk's
    band (harmonics' tolerance comment); X itself is returned, never
    written, when every row is within DOT_TOL / 4, as sample_sphere's are.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # row sums of squares without an n x d temporary, which would raise peak memory
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    # |norm - 1| is largest at the smallest or the largest norm, and min and
    # max pass a NaN on, which compares false, so rows with a NaN or infinite
    # norm are caught too; |norm - 1| is formed only when some row is off by
    # more than DOT_TOL / 4
    lo, hi = norms.min(initial=1.0), norms.max(initial=1.0)
    if max(1.0 - lo, hi - 1.0) <= harmonics.DOT_TOL / 4:
        return X
    off = np.abs(norms - 1.0)
    if not off.max() <= harmonics.UNIT_TOL:
        i = int(np.argmax(off))
        raise ValueError(f"{name} row {i} is not unit-norm (|norm - 1| = {off[i]:.3e})")
    # a row divided by 1.0 is the row itself, bit for bit
    return X / np.where(off > harmonics.DOT_TOL / 4, norms, 1.0)[:, None]


def _require_unit_pair(X, Q) -> tuple:
    """Points X and directions Q as unit-row matrices of the same dimension (_require_unit_rows)."""
    X, Q = _require_unit_rows(X, "X"), _require_unit_rows(Q, "Q")
    if X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: X has d={X.shape[1]}, Q has d={Q.shape[1]}")
    return X, Q


def finalized_weights(d: int, mask) -> np.ndarray:
    """Channel weights after selection: sqrt(N(d, k)) where mask[k], else 0."""
    mask = np.asarray(mask, dtype=bool)
    return np.where(mask, np.sqrt(harmonics._dims(d, mask.size - 1)), 0.0)


def oracle_weights(d: int, ell0: int) -> np.ndarray:
    """Finalized weights with channels 0..ell0 kept, bypassing selection: length ell0 + 1."""
    harmonics._check_integer(ell0, "target degree ell0")
    return finalized_weights(d, np.ones(int(ell0) + 1, dtype=bool))


def activation(x, x_prime, tau, d: int) -> float:
    """sigma_tau(x, x') for a single pair of unit vectors of length d; work linear in L."""
    for name, v in (("x", x), ("x_prime", x_prime)):
        if np.shape(v) != (d,):
            raise ValueError(f"{name} must be one vector of length d = {d}, got {np.shape(v)}")
    x = _require_unit_rows(x, "x")[0]
    x_prime = _require_unit_rows(x_prime, "x_prime")[0]
    return float(gegenbauer_weighted_sum(np.dot(x, x_prime), d, tau))


def activation_matrix(X, Q, tau) -> np.ndarray:
    """Matrix of activation values sigma_tau(x_i, q_r), shape (n, m).

    The dot products and the recurrence run in cache-sized row blocks; only
    the output is allocated at full size.
    """
    X, Q = _require_unit_pair(X, Q)
    return gegenbauer_weighted_matrix(X, Q, X.shape[1], tau)


def population_gram(X, X_prime, ell_hat: int) -> np.ndarray:
    """Population kernel matrix K(x_i, x'_j) = sum_{k <= ell_hat} P_k(<x_i, x'_j>).

    When X and X_prime are the same points the result is symmetric positive
    semidefinite with rank at most cumulative_dim(d, ell_hat); the diagonal
    entries equal ell_hat + 1 since P_k(1) = 1.
    """
    harmonics._check_integer(ell_hat, "degree cutoff ell_hat")
    same = X_prime is None or X_prime is X
    X = _require_unit_rows(X, "X")
    Xp = X if same else _require_unit_rows(X_prime, "X_prime")
    if X.shape[1] != Xp.shape[1]:
        raise ValueError("X and X_prime live in different dimensions")
    K = gegenbauer_weighted_matrix(X, Xp, X.shape[1], np.ones(int(ell_hat) + 1))
    if same:
        K = 0.5 * (K + K.T)  # exact symmetry, one triangle decides each pair
    return K


def empirical_gram(X, X_prime, Q, tau) -> np.ndarray:
    """Width-averaged activation-product kernel matrix.

    Entry (i, j) is (1/m) * sum_r sigma_tau(x_i, q_r) * sigma_tau(q_r, x'_j).
    With X_prime equal to (or None for) X this is A @ A.T / m for the
    activation matrix A, hence symmetric PSD by construction.
    """
    Q = _require_unit_rows(Q, "Q")
    m = Q.shape[0]
    if m == 0:
        raise ValueError("empirical kernel needs at least one direction (m >= 1)")
    A = activation_matrix(X, Q, tau)
    if X_prime is None or X_prime is X:
        return (A @ A.T) / m
    B = activation_matrix(X_prime, Q, tau)
    return (A @ B.T) / m


def normalized_gram(K: np.ndarray, n: int) -> np.ndarray:
    """Gram matrix divided by the sample count."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    return K / n


# Relative symmetry slack tolerated before a matrix is rejected, and the
# relative size below which a negative eigenvalue is treated as rounding.
SYM_TOL = 1e-10
EIG_CLAMP = 1e-8


def gram_spectrum(K_n: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric PSD matrix, sorted non-increasing.

    The input is symmetrized as (K + K.T)/2 before decomposition (it must
    already be symmetric to within SYM_TOL relative).  Negative eigenvalues
    no smaller than -EIG_CLAMP * lambda_max are clamped to zero; anything
    more negative means the input was not PSD and raises.  For eigenvectors
    call np.linalg.eigh.
    """
    K_n = np.asarray(K_n, dtype=float)
    if K_n.ndim != 2 or K_n.shape[0] != K_n.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K_n.shape}")
    if not np.all(np.isfinite(K_n)):
        raise ValueError("gram matrix has non-finite entries")
    scale = np.max(np.abs(K_n))
    if scale > 0 and np.max(np.abs(K_n - K_n.T)) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals = np.sort(np.linalg.eigvalsh(0.5 * (K_n + K_n.T)))[::-1]
    floor = -EIG_CLAMP * max(vals[0], 0.0)
    if vals[-1] < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {vals[-1]:.3e} below {floor:.3e}"
        )
    return np.where(vals < 0.0, 0.0, vals)

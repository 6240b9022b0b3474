"""Channel-attention activation and the induced empirical/population kernels.

The activation with channel weights tau = (tau_0, ..., tau_L) is

    sigma_tau(x, x') = sum_k tau_k * P_k(<x, x'>),

a positive-definite zonal kernel on the unit sphere.  Averaging activation
products over m random unit directions q_r gives the empirical kernel

    Khat(x, x') = (1/m) * sum_r sigma_tau(x, q_r) * sigma_tau(q_r, x'),

whose expectation over uniform directions is the population kernel

    K(x, x') = sum_{k <= ell_hat} P_k(<x, x'>)

when tau is in finalized form (tau_k = sqrt(N(d, k)) on the kept channels,
0 elsewhere).  All gram matrices here are assembled from dot products alone;
explicit harmonic bases are never needed.
"""

from __future__ import annotations

import numpy as np

from .harmonics import gegenbauer_weighted_matrix, gegenbauer_weighted_sum, harmonic_dim

# Row-norm slack accepted before an input is rejected as non-unit.
UNIT_TOL = 1e-8

__all__ = [
    "UNIT_TOL",
    "finalized_weights",
    "activation",
    "activation_matrix",
    "population_gram",
    "empirical_gram",
    "normalized_gram",
    "gram_spectrum",
]


def _require_unit_rows(X: np.ndarray, name: str) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    norms = np.linalg.norm(X, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > UNIT_TOL):
        i = int(np.argmax(off))
        raise ValueError(f"{name} row {i} is not unit-norm (|norm - 1| = {off[i]:.3e})")
    return X


def finalized_weights(d: int, mask) -> np.ndarray:
    """Channel weights after selection: sqrt(N(d, k)) where mask[k], else 0."""
    mask = np.asarray(mask, dtype=bool)
    return np.array(
        [np.sqrt(harmonic_dim(d, k)) if mask[k] else 0.0 for k in range(mask.size)]
    )


def oracle_weights(d: int, ell0: int, L: int | None = None) -> np.ndarray:
    """Finalized weights with channels 0..ell0 kept, bypassing selection.

    If L is given the vector is padded with zeros up to length L + 1.
    """
    length = (ell0 if L is None else L) + 1
    mask = np.arange(length) <= ell0
    return finalized_weights(d, mask)


def activation(x, x_prime, tau, d: int) -> float:
    """sigma_tau(x, x') for a single pair of unit vectors; work linear in L."""
    x = _require_unit_rows(x, "x")[0]
    x_prime = _require_unit_rows(x_prime, "x_prime")[0]
    return float(gegenbauer_weighted_sum(np.dot(x, x_prime), d, tau))


def activation_matrix(X, Q, tau) -> np.ndarray:
    """Matrix of activation values sigma_tau(x_i, q_r), shape (n, m).

    The dot products and the recurrence run in cache-sized row blocks; only
    the output is allocated at full size.
    """
    X = _require_unit_rows(X, "X")
    Q = _require_unit_rows(Q, "Q")
    if X.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: X has d={X.shape[1]}, Q has d={Q.shape[1]}")
    return gegenbauer_weighted_matrix(X, Q, X.shape[1], tau)


def population_gram(X, X_prime, ell_hat: int) -> np.ndarray:
    """Population kernel matrix K(x_i, x'_j) = sum_{k <= ell_hat} P_k(<x_i, x'_j>).

    When X and X_prime are the same points the result is symmetric positive
    semidefinite with rank at most cumulative_dim(d, ell_hat); the diagonal
    entries equal ell_hat + 1 since P_k(1) = 1.
    """
    if ell_hat < 0:
        raise ValueError(f"ell_hat must be >= 0, got {ell_hat}")
    X = _require_unit_rows(X, "X")
    same = X_prime is None or X_prime is X
    Xp = X if same else _require_unit_rows(X_prime, "X_prime")
    if X.shape[1] != Xp.shape[1]:
        raise ValueError("X and X_prime live in different dimensions")
    K = gegenbauer_weighted_matrix(X, Xp, X.shape[1], np.ones(ell_hat + 1))
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


def gram_spectrum(K_n: np.ndarray, return_vectors: bool = False):
    """Eigenvalues of a symmetric PSD matrix, sorted non-increasing.

    The input is symmetrized as (K + K.T)/2 before decomposition (it must
    already be symmetric to within SYM_TOL relative).  Negative eigenvalues
    no smaller than -EIG_CLAMP * lambda_max are clamped to zero; anything
    more negative means the input was not PSD and raises.

    With return_vectors=True also returns the orthonormal eigenvector matrix
    with columns in the same sorted order.
    """
    K_n = np.asarray(K_n, dtype=float)
    if K_n.ndim != 2 or K_n.shape[0] != K_n.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K_n.shape}")
    if not np.all(np.isfinite(K_n)):
        raise ValueError("gram matrix has non-finite entries")
    scale = np.max(np.abs(K_n))
    if scale > 0 and np.max(np.abs(K_n - K_n.T)) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    S = 0.5 * (K_n + K_n.T)
    if return_vectors:
        vals, vecs = np.linalg.eigh(S)
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
    else:
        vals = np.sort(np.linalg.eigvalsh(S))[::-1]
        vecs = None
    lam_max = max(vals[0], 0.0)
    floor = -EIG_CLAMP * lam_max
    if vals[-1] < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {vals[-1]:.3e} below {floor:.3e}"
        )
    vals = np.where(vals < 0.0, 0.0, vals)
    return (vals, vecs) if return_vectors else vals

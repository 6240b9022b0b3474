"""Stage two of training: gradient descent on the second-layer weights.

With channel weights frozen after selection, the network is linear in the
second-layer weights a:

    f(a, x) = (1/sqrt(m)) * sum_r a_r * sigma_tau(x, q_r) ,

so on the training set f(a, S) = Z.T @ a with the fixed feature matrix
Z[r, i] = sigma_tau(x_i, q_r) / sqrt(m), and one gradient step on the
quadratic loss is

    a(t+1) = a(t) - (eta / n) * Z @ (yhat(t) - y),          yhat(t) = Z.T @ a(t).

Because the dynamics are linear, the residual u(t) = yhat(t) - y obeys the
exact closed-form recursion u(t+1) = (I - eta * Khat_n) u(t) with
Khat_n = Z.T Z / n, i.e. u(t) = (I - eta * Khat_n)^t (-y).  That closed form
is implemented independently in :func:`closed_form_residual` and serves as
the strongest correctness oracle for the trainer.

The activation is a polynomial of degree ell_hat in <x, q>, so Z has the
exact factorization Z = U @ V.T through the monomials of the points and the
directions, with p columns.  When that costs fewer flops, :func:`train` runs
the same update on those factors at O((m + n) * p) per step and never
allocates Z; the factors are verified against the recurrence in a streamed
pass, and a failed check warns and falls back to the m x n matrix (see the
exact low-rank fast path below).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    _monomial_powers,
    _monomial_table,
    _power_coefficients,
    gegenbauer_blocks,
)
from .kernels import _require_unit_pair, activation_matrix
from .targets import LabeledDataset

__all__ = [
    "DivergenceError",
    "TrainerState",
    "TrainingTrace",
    "feature_matrix",
    "predict",
    "gd_step",
    "train",
    "closed_form_residual",
    "trace_to_csv",
]

# Residual growth by more than this factor over DIVERGENCE_WINDOW steps
# aborts training; linear GD only does that when eta * lambda_max >= 2.
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_WINDOW = 5

class DivergenceError(RuntimeError):
    """Residuals are growing; the learning rate exceeds the stable range."""


@dataclass
class TrainerState:
    """Second-layer weights, step counter, and the frozen feature matrix.

    Z is the m x n feature matrix on the plain path and None on the factored
    path of :func:`train`, which never forms it; feature_matrix(X, Q, tau)
    rebuilds it when needed.
    """

    a: np.ndarray
    t: int
    eta: float
    Z: np.ndarray | None


@dataclass
class TrainingTrace:
    """Per-step diagnostics; index t runs from 0 (initialization) to T.

    loss is the mean squared residual against the noisy responses,
    (1/n) * ||yhat(t) - y||^2, which is non-increasing for stable step
    sizes.  clean_loss measures against the noise-free target values and is
    the statistical quantity of interest.  weights holds optional snapshots.
    """

    loss: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    clean_loss: list = field(default_factory=list)
    weights: list | None = None


def feature_matrix(X, Q, tau_final) -> np.ndarray:
    """Fixed stage-two feature matrix Z of shape (m, n).

    Z.T @ Z reproduces the empirical kernel matrix exactly.
    """
    A = activation_matrix(Q, X, tau_final)  # (m, n)
    A /= np.sqrt(A.shape[0])
    return A


def predict(a, X, Q, tau_final) -> np.ndarray:
    """Network values (1/sqrt(m)) * sum_r a_r * sigma_tau(x, q_r) on rows of X.

    When tau has no channel above degree 1, sigma_tau(x, q) = tau_0 +
    tau_1 * <x, q> and the sum is exactly (tau_0 * sum(a) +
    tau_1 * X @ (Q.T @ a)) / sqrt(m).  Otherwise it is computed as
    (1/sqrt(m)) * sum_k tau_k * (P_k(X @ Q.T) @ a) over cache-sized row blocks
    of X, so evaluation sets of any size never materialize an m-by-n matrix;
    each output entry contracts one full row of m directions, independent of
    the blocking.
    """
    a = np.asarray(a, dtype=float)
    X, Q = _require_unit_pair(X, Q)
    tau = np.asarray(tau_final, dtype=float)
    m = Q.shape[0]
    if a.shape != (m,):
        raise ValueError(f"weights have shape {a.shape}, expected ({m},)")
    if not np.any(tau[2:]):
        out = np.full(X.shape[0], tau[0] * np.sum(a))
        if tau.size > 1:
            out += tau[1] * (X @ (Q.T @ a))
        out /= np.sqrt(m)
        return out
    out = np.empty(X.shape[0])
    base = tau[0] * np.sum(a)  # P_0 = 1
    for rows, degrees in gegenbauer_blocks(X, Q, X.shape[1], tau.size - 1):
        acc = out[rows]
        acc[...] = base
        for k, P in degrees:
            if tau[k] != 0.0:
                acc += tau[k] * (P @ a)
    out /= np.sqrt(m)
    return out


def gd_step(state: TrainerState, y) -> TrainerState:
    """One exact gradient step on the quadratic loss; increments t.

    Needs the state's feature matrix: a state from the factored path of
    :func:`train` (Z is None) is rejected.
    """
    if state.Z is None:
        raise ValueError(
            "gd_step needs the feature matrix, but state.Z is None (a state from "
            "train's factored path); set state.Z = feature_matrix(X, Q, tau) first"
        )
    if state.eta <= 0:
        raise ValueError(f"learning rate must be positive, got {state.eta}")
    y = np.asarray(y, dtype=float)
    n = y.size
    resid = state.Z.T @ state.a - y
    if not np.all(np.isfinite(resid)):
        raise DivergenceError(
            f"non-finite residual at step {state.t}; "
            f"eta = {state.eta:g} likely exceeds 2 / lambda_max of the kernel"
        )
    a_next = state.a - (state.eta / n) * (state.Z @ resid)
    return TrainerState(a=a_next, t=state.t + 1, eta=state.eta, Z=state.Z)


def _record(trace: TrainingTrace, resid, clean_resid, a, keep_weights) -> None:
    n = resid.size
    trace.loss.append(float(resid @ resid) / n)
    trace.residual_norm.append(float(np.linalg.norm(resid)))
    trace.clean_loss.append(float(clean_resid @ clean_resid) / n)
    if keep_weights:
        trace.weights.append(a.copy())


def _check_divergence(norms: list, t: int) -> None:
    if len(norms) > DIVERGENCE_WINDOW:
        prev = norms[-1 - DIVERGENCE_WINDOW]
        if prev > 0 and norms[-1] > DIVERGENCE_FACTOR * prev:
            raise DivergenceError(
                f"residual norm grew {norms[-1] / prev:.2f}x over "
                f"{DIVERGENCE_WINDOW} steps at step {t}; reduce eta"
            )


# --- exact low-rank fast path -------------------------------------------------
#
# With frozen channels the activation is a polynomial of degree ell_hat in
# t = <x, q>:  sigma_tau(t) = sum_k tau_k P_k(t) = sum_j g_j t^j,  g = tau @ C,
# where C[k, j] is the coefficient of t^j in P_k.  Expanding each power by the
# multinomial theorem, <x, q>^j = sum_{|alpha| = j} w_alpha x^alpha q^alpha,
# factors the feature matrix exactly as Z = U @ V.T with
#
#     U[r, (j, alpha)] = g_j * w_alpha * q_r^alpha / sqrt(m)     (m x p)
#     V[i, (j, alpha)] = x_i^alpha                               (n x p)
#
# over the degrees j with g_j != 0, so p = sum_j C(j + d - 1, d - 1).  (The
# expansion lives in harmonics; stage one uses it too.)  A thin
# QR, U = QL @ R, gives Z = QL @ B with orthonormal QL and B = R @ V.T, and
# the GD loop runs on (QL, B) at O((m + n) * p) per step.  Z itself is never
# formed: the factors are verified against the Gegenbauer recurrence in a
# streamed pass over row blocks, which shares no code with the expansion.
# The expansion loses digits at high degree; when the relative Frobenius
# residual exceeds _FACTOR_RTOL, "auto" warns and falls back to the plain
# loop on the m x n matrix, and "always" raises.
#
# "auto" picks the path with the smaller floating-point operation count
# (_factored_is_cheaper).  Both paths walk the recurrence over all m * n pairs
# once, the plain path to build Z and the factored path to check its factors,
# so that term cancels; the model counts flops only and was not fitted to
# timings.

# Also the error bar that stage one's expansion must meet a priori (selection).
_FACTOR_RTOL = 1e-10


def _factor_width(d: int, g: np.ndarray) -> int:
    """Number of monomials x^alpha over the degrees j with g_j != 0."""
    return sum(math.comb(int(j) + d - 1, d - 1) for j in np.flatnonzero(g))


def _factored_is_cheaper(m: int, n: int, p: int, T: int) -> bool:
    """Whether T factored steps at width p cost fewer flops than T plain steps.

    Beyond the shared recurrence walk, the factored path pays the check's
    block products B.T @ QL.T (2 m n p), the QR of U (2 m p^2), B = R @ V.T
    (2 n p^2) and 4 n p per step; the plain path pays 4 m n per step.
    """
    return p * (m * n + (m + n) * p + 2 * T * n) < 2 * T * m * n


def _exact_factors(X: np.ndarray, Q: np.ndarray, g: np.ndarray):
    """(U, Vt) with U @ Vt = Z, from the monomial expansion of sum_j g_j t^j.

    U is m x p and Vt is p x n; both are built one monomial per row.
    """
    m, d = Q.shape
    J = int(np.flatnonzero(g)[-1]) if np.any(g) else 0
    us, vs = [np.zeros((0, m))], [np.zeros((0, X.shape[0]))]
    for (j, Mq), (_, Mx) in zip(_monomial_powers(Q.T, J), _monomial_powers(X.T, J)):
        if g[j] != 0.0:
            us.append(Mq * (g[j] / np.sqrt(m) * _monomial_table(d, j)[0])[:, None])
            vs.append(Mx)
    return np.concatenate(us).T, np.concatenate(vs)


def _factor_residual(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, QL, B) -> float:
    """Relative Frobenius error of QL @ B against Z, with Z from the recurrence.

    Walks Z.T = sum_k tau_k P_k(X @ Q.T) / sqrt(m) in gegenbauer_blocks row
    blocks and compares each with the same rows of B.T @ QL.T; besides the
    walk's own buffers it allocates two blocks.
    """
    m = Q.shape[0]
    err2 = ref2 = 0.0
    zbuf = pbuf = None
    for rows, degrees in gegenbauer_blocks(X, Q, X.shape[1], tau.size - 1):
        h = rows.stop - rows.start
        if zbuf is None:
            zbuf, pbuf = np.empty((h, m)), np.empty((h, m))
        z, pred = zbuf[:h], pbuf[:h]
        z[...] = tau[0]
        for k, P in degrees:
            if tau[k] != 0.0:
                np.multiply(P, tau[k], out=pred)
                z += pred
        z /= np.sqrt(m)
        np.matmul(B[:, rows].T, QL.T, out=pred)
        ref2 += float(np.vdot(z, z))
        z -= pred
        err2 += float(np.vdot(z, z))
    if ref2 > 0.0:
        return math.sqrt(err2 / ref2)
    return 0.0 if err2 == 0.0 else math.inf


def _try_factor(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, g: np.ndarray,
                strict: bool = False):
    """Verified exact factors (QL, B) of Z, or None after a RuntimeWarning.

    g = _power_coefficients(d, tau) are the power coefficients of sigma_tau.
    With strict, a failed verification raises RuntimeError instead.
    """
    U, Vt = _exact_factors(X, Q, g)
    QL, R = np.linalg.qr(U)
    B = R @ Vt
    resid = _factor_residual(X, Q, tau, QL, B)
    if resid <= _FACTOR_RTOL:
        return QL, B
    msg = (
        f"exact low-rank factors failed verification: relative residual "
        f"{resid:.3e} > {_FACTOR_RTOL:g} at factor width p = {U.shape[1]}"
    )
    if strict:
        raise RuntimeError(msg)
    warnings.warn(msg + "; falling back to the m x n feature matrix", RuntimeWarning,
                  stacklevel=3)
    return None


def train(
    dataset: LabeledDataset,
    Q,
    tau_final,
    eta: float,
    T: int,
    record_weights: bool = False,
    lowrank: str = "auto",
):
    """Run T gradient steps from a(0) = 0, recording the loss trace.

    Parameters
    ----------
    lowrank : "auto" runs the same update on verified exact factors of the
        feature matrix when that costs fewer flops for these m, n, T and
        factor width p (the number of monomials in the expansion of
        sigma_tau), and otherwise, or with a RuntimeWarning when
        verification fails, on the m x n matrix itself; "never" forces the
        plain matrix; "always" requires the factored path and raises
        RuntimeError if verification fails.

    Returns (TrainerState, TrainingTrace); the state's Z is None on the
    factored path.  Raises DivergenceError when the residuals blow up
    (learning rate beyond the stable range).
    """
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    if lowrank not in ("auto", "never", "always"):
        raise ValueError(f"unknown lowrank mode {lowrank!r}")
    if eta <= 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    X, Q = _require_unit_pair(dataset.S, Q)
    tau = np.asarray(tau_final, dtype=float)
    m, n = Q.shape[0], X.shape[0]
    y = np.asarray(dataset.y, dtype=float)
    f_star = np.asarray(dataset.f_star_S, dtype=float)
    trace = TrainingTrace(weights=[] if record_weights else None)

    factors = None
    if lowrank != "never":
        d = X.shape[1]
        g = _power_coefficients(d, tau)
        if lowrank == "always" or _factored_is_cheaper(m, n, _factor_width(d, g), T):
            factors = _try_factor(X, Q, tau, g, strict=lowrank == "always")

    # one loop for both paths: a(t) = QL @ c(t) on the factors of Z = QL @ B,
    # and a(t) = c(t) with B = Z on the plain path
    Z = feature_matrix(X, Q, tau) if factors is None else None
    QL, B = factors if factors is not None else (None, Z)

    def weights(c):
        return c if QL is None else QL @ c

    c = np.zeros(B.shape[0])
    yhat = np.zeros(n)
    _record(trace, -y, -f_star, weights(c), record_weights)
    for t in range(1, T + 1):
        resid = yhat - y
        if not np.all(np.isfinite(resid)):
            raise DivergenceError(
                f"non-finite residual at step {t - 1}; "
                f"eta = {eta:g} likely exceeds 2 / lambda_max of the kernel"
            )
        c = c - (eta / n) * (B @ resid)
        yhat = B.T @ c
        _record(trace, yhat - y, yhat - f_star, weights(c) if record_weights else None,
                record_weights)
        _check_divergence(trace.residual_norm, t)
    state = TrainerState(a=weights(c), t=T, eta=float(eta), Z=Z)
    return state, trace


def closed_form_residual(K_hat_n, y, eta: float, t: int, method: str = "auto") -> np.ndarray:
    """Exact GD residual -(I - eta * Khat_n)^t y, independent of the trainer.

    method "power" applies the matrix t times; "spectral" goes through the
    eigendecomposition (preferred for very large t); "auto" switches at
    t = 10^4.  The input must be symmetric.
    """
    K = np.asarray(K_hat_n, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    scale = float(np.max(np.abs(K))) if K.size else 0.0
    if scale > 0 and np.max(np.abs(K - K.T)) > 1e-10 * scale:
        raise ValueError("kernel matrix is not symmetric")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    y = np.asarray(y, dtype=float)
    if method == "auto":
        method = "power" if t <= 10_000 else "spectral"
    if method == "power":
        u = -y.copy()
        for _ in range(t):
            u = u - eta * (K @ u)
        return u
    if method == "spectral":
        S = 0.5 * (K + K.T)
        vals, vecs = np.linalg.eigh(S)
        decay = (1.0 - eta * vals) ** t
        return -(vecs @ (decay * (vecs.T @ y)))
    raise ValueError(f"unknown method {method!r}")


def trace_to_csv(trace: TrainingTrace, path) -> None:
    """Write the trace with columns t, loss, residual_norm."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "loss", "residual_norm"])
        for t, (lo, rn) in enumerate(zip(trace.loss, trace.residual_norm)):
            writer.writerow([t, repr(lo), repr(rn)])

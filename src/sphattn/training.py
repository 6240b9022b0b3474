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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .harmonics import gegenbauer_blocks
from .kernels import _require_unit_rows, activation_matrix
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
    """Second-layer weights, step counter, and the frozen feature matrix."""

    a: np.ndarray
    t: int
    eta: float
    Z: np.ndarray


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

    Computed as (1/sqrt(m)) * sum_k tau_k * (P_k(X @ Q.T) @ a) over
    cache-sized row blocks of X, so evaluation sets of any size never
    materialize an m-by-n matrix; each output entry contracts one full row of
    m directions, independent of the blocking.
    """
    a = np.asarray(a, dtype=float)
    X = _require_unit_rows(X, "X")
    Q = _require_unit_rows(Q, "Q")
    tau = np.asarray(tau_final, dtype=float)
    m = Q.shape[0]
    if a.shape != (m,):
        raise ValueError(f"weights have shape {a.shape}, expected ({m},)")
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
    """One exact gradient step on the quadratic loss; increments t."""
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
# The activation keeps only channels of degree <= ell_hat, so every row of Z
# is a degree-ell_hat polynomial of the sample points and rank(Z) is at most
# the total harmonic dimension of the kept channels.  A seeded Gaussian
# sketch captures that range exactly (up to rounding); after verifying the
# factorization residual, the same GD arithmetic runs on the factors at
# O((m + n) * rank) per step instead of O(m * n).  Falls back to the plain
# loop whenever the verification fails.

_SKETCH_SEED = 0x5EED  # fixed: train stays a pure function of its arguments
_FACTOR_RTOL = 1e-10
_LOWRANK_MIN_ENTRIES = 1 << 22
_LOWRANK_MIN_STEPS = 16


def _rank_cap(d: int, tau_final) -> int:
    from .harmonics import harmonic_dim

    return int(
        sum(harmonic_dim(d, k) for k, w in enumerate(np.asarray(tau_final)) if w != 0.0)
    )


def _try_factor(Z: np.ndarray, rank_cap: int):
    m, n = Z.shape
    s = min(rank_cap + 8, m, n)
    rng = np.random.default_rng(_SKETCH_SEED)
    omega = rng.standard_normal((n, s))
    QL, _ = np.linalg.qr(Z @ omega)  # (m, s) orthonormal
    B = QL.T @ Z  # (s, n)
    # blockwise Frobenius residual of Z - QL @ B, no m-by-n temporary
    err2 = 0.0
    ref2 = 0.0
    step = max(1, (1 << 22) // max(m, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        diff = Z[:, lo:hi] - QL @ B[:, lo:hi]
        err2 += float(np.sum(diff * diff))
        ref2 += float(np.sum(Z[:, lo:hi] ** 2))
    if err2 > (_FACTOR_RTOL**2) * max(ref2, 1e-300):
        return None
    return QL, B


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
    lowrank : "auto" uses the verified factored evaluation of the same update
        when the feature matrix is large and provably low rank; "never"
        forces the plain per-step matrix products; "always" requires the
        factored path and raises if verification fails.

    Returns (TrainerState, TrainingTrace).  Raises DivergenceError when the
    residuals blow up (learning rate beyond the stable range).
    """
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    if lowrank not in ("auto", "never", "always"):
        raise ValueError(f"unknown lowrank mode {lowrank!r}")
    if eta <= 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    Z = feature_matrix(dataset.S, Q, tau_final)
    m, n = Z.shape
    y = np.asarray(dataset.y, dtype=float)
    f_star = np.asarray(dataset.f_star_S, dtype=float)
    trace = TrainingTrace(weights=[] if record_weights else None)

    factors = None
    if lowrank != "never":
        cap = _rank_cap(dataset.d, tau_final)
        # worthwhile once the factorization passes (a handful of sweeps over
        # Z) cost less than T plain steps (two sweeps each)
        big = m * n >= _LOWRANK_MIN_ENTRIES and T >= _LOWRANK_MIN_STEPS
        if lowrank == "always" or (big and cap + 8 < min(m, n) // 4):
            factors = _try_factor(Z, cap)
            if factors is None and lowrank == "always":
                raise RuntimeError("low-rank factorization failed verification")

    # one loop for both paths: a(t) = QL @ c(t) on the factors of Z = QL @ B,
    # and a(t) = c(t) with B = Z on the plain path
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

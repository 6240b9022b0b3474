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
directions, with p columns; the factors, the a-priori rounding bound that
accepts them and its tolerance are the monomial expansion's, in harmonics.
:func:`train` picks its path from the shapes alone: when a rule priced from
timings of both paths expects the factors to take less time for these m, n,
p, T and degrees, it never allocates Z and runs on the thin QR factors
Z = QL @ B, with QL kept as the QR's Householder reflectors and applied
only to the weights.  Only when the bound, which costs O((m + n) * p), is too loose
are the factors checked against the recurrence in a streamed pass over Z,
and a failed check warns and falls back to the m x n matrix (see the exact
low-rank fast path below).

On the factors, GD is a spectral filter of B.  With the thin SVD
B.T = H diag(s) W.T (w = min(p, m, n) columns), beta = H.T @ y and
rho = 1 - eta * s^2 / n, the residual's component along H is
e(t) = -beta * rho^t and the rest of y is never fitted, so every step's
loss, clean loss and weights have a closed form.  When T >= w the whole
trace comes from a thin QR of B.T and the SVD of its w x w triangle at
O(n * w^2) plus O(T * w), in blocks of t, and no step is taken; fewer steps
run the same loop as the plain path on (QL, B).
A step that is not stable (some |rho_i| > 1) also runs the loop, which
raises DivergenceError where it always has.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .harmonics import _block_rows, gegenbauer_blocks, gegenbauer_weighted_matrix
from .kernels import _require_unit_pair
# activation_matrix is not called here; the name stays bound because
# perfbench/tracer.py wraps it in this module.
from .kernels import activation_matrix  # noqa: F401
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
    """Second-layer weights, step counter and step size.

    The same on every path of :func:`train`; the feature matrix the weights
    act on is feature_matrix(X, Q, tau) of the training points.
    """

    a: np.ndarray
    t: int
    eta: float


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

    Z.T @ Z reproduces the empirical kernel matrix exactly.  The rows are
    checked as every entry point checks them, points first, so an error
    names an X or Q row and a dot product's (point, direction) index.
    """
    X, Q = _require_unit_pair(X, Q)
    Z = gegenbauer_weighted_matrix(Q, X, X.shape[1], tau_final)  # walked over the rows of Q
    Z /= np.sqrt(Z.shape[0])
    return Z


def predict(a, X, Q, tau_final) -> np.ndarray:
    """Network values (1/sqrt(m)) * sum_r a_r * sigma_tau(x, q_r) on rows of X.

    With tau trimmed to its last nonzero channel ell_hat, the values are
    tau @ V / sqrt(m) for the degree projections V[k, i] = sum_r
    P_k(<x_i, q_r>) * a_r, stage one's sum with the two sides swapped, and
    harmonics._degree_projections(X, Q, a, ell_hat) computes them on stage
    one's route, rule and rounding bound: the monomial expansion at
    O((len(X) + m) * p_h * p_l), or the recurrence over cache-sized row
    blocks of X.  Neither allocates an array of len(X) x m.
    """
    a = np.asarray(a, dtype=float)
    X, Q = _require_unit_pair(X, Q)
    tau = np.asarray(tau_final, dtype=float)
    m = Q.shape[0]
    if a.shape != (m,):
        raise ValueError(f"weights have shape {a.shape}, expected ({m},)")
    ell_hat = int(np.flatnonzero(tau)[-1]) if np.any(tau) else 0
    return tau[: ell_hat + 1] @ harmonics._degree_projections(X, Q, a, ell_hat) / np.sqrt(m)


def _check_step_size(eta) -> None:
    if not 0 < eta < math.inf:
        raise ValueError(f"learning rate must be positive and finite, got {eta}")


def gd_step(state: TrainerState, Z, y) -> TrainerState:
    """One exact gradient step on the quadratic loss with feature matrix Z; increments t.

    Z is the m x n matrix feature_matrix(X, Q, tau) of the training points.
    """
    _check_step_size(state.eta)
    y = np.asarray(y, dtype=float)
    n = y.size
    resid = Z.T @ state.a - y
    if not np.all(np.isfinite(resid)):
        raise DivergenceError(
            f"non-finite residual at step {state.t}; "
            f"eta = {state.eta:g} likely exceeds 2 / lambda_max of the kernel"
        )
    a_next = state.a - (state.eta / n) * (Z @ resid)
    return TrainerState(a=a_next, t=state.t + 1, eta=state.eta)


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
# The activation is a polynomial of degree ell_hat in t = <x, q>, and the
# monomial expansion in harmonics factors the feature matrix exactly as
# Z = U @ Vt (_exact_factors), with p = _factor_width(d, g) rows in Vt; the
# factors, the a-priori bound that accepts them (_certificate) and its
# derivation live there.  A thin QR, U = QL @ R, gives Z = QL @ B with
# orthonormal QL and B = R @ Vt.  Neither Z nor QL is formed: the QR is kept
# as its Householder reflectors (_householder), and only the weights
# a = QL @ c, where they are asked for, go through them (_reflect).  The GD
# state is c, and Z enters only through B.
# With T >= w = min(p, m, n) the trace comes in closed form from the thin
# SVD of B (_spectral_trace); fewer steps run the GD loop on B at
# O(n * w) per step.
#
# Closed form.  With B.T = H diag(s) Wt, c(t) = Wt.T @ z(t) and a(t) = QL @
# c(t), one step maps s z - beta to rho (s z - beta), so from z(0) = 0
#
#     e(t) = s z(t) - beta = -beta rho^t,       z(t) = beta (1 - rho^t) / s,
#
# with z_i = 0 where s_i = 0.  The residual yhat - y is H e(t) - y_perp,
# y_perp = y - H beta, and yhat - f* is H (e(t) + delta) - f_perp, with
# delta = H.T (y - f*) and f_perp = f* - H H.T f*.  Hence
#
#     n loss(t) = ||e(t)||^2 + ||y_perp||^2,
#     n clean_loss(t) = ||e(t) + delta||^2 + ||f_perp||^2,
#
# sums of non-negative terms, so nothing cancels.  The SVD comes from a QR
# first (Chan, ACM TOMS 8, 1982): B.T = Qb Rb, kept as reflectors like U's,
# and the SVD Rb = Us diag(s) Wt of the small triangle, so H = Qb Us.  Then
# Qb.T y holds Us beta in its first min(n, w) entries and y_perp, in Qb's
# coordinates, in the rest, and alike for f*: ||y_perp||^2 is the sum of
# squares of those entries, and no n x w matrix beyond the QR's is made.
# rho^t is the power, not exp(t log1p(-eta s^2 / n)): rho < 0 is stable
# for 1 < eta s^2 / n < 2.
# Rows of t go in blocks of about BLOCK_ENTRIES // w, so the extra memory is
# O(BLOCK_ENTRIES) whatever T; only the recorded weights, T + 1 vectors of
# m, grow with T, as on the loop.
#
# Check.  When the certificate exceeds harmonics._FACTOR_RTOL, the factors
# are checked against the Gegenbauer recurrence in a streamed pass over row
# blocks, which shares no code with the expansion (_factor_residual); that
# costs an m x n walk, and only ill-conditioned expansions pay it (with
# oracle channels, from degree 10 at d = 2, 9 at d = 3 and 8 at d = 4).  When
# the walk's relative Frobenius residual exceeds the tolerance too, train
# warns (the residual, the bound and p) and falls back to the plain loop on
# the m x n matrix.
#
# Speed.  train takes the path that _factored_is_cheaper prices lower, in
# nanoseconds on one core, from timings of train on both paths (best of 3,
# one BLAS thread, 424 shapes; the grid and the fit are in CHANGES.md):
# - plain: 85 us of set-up, the recurrence walk that builds Z at 3.3 ns per
#   entry and degree, m n (L + 1) with L = len(tau) - 1, then per step 14 us
#   of loop work (the residual check, the record, the divergence check and
#   the calls) and 0.74 ns per entry of Z for the two matrix-vector products;
# - factored: 240 us of set-up; per monomial value, 23 + 0.2 w ns in U (the
#   expansion and the thin QR) and 13 ns in Vt (the expansion and
#   B = R @ V.T), with w = min(p, m) the width of QL; then min(T, p, m, n)
#   steps at the same 14 us plus 0.43 ns per entry of B (w x n).  With
#   T >= min(p, m, n) no step is taken, and those min(p, m, n) steps price
#   the SVD of B.T, about n w^2, which the closed form costs instead; its
#   O(T w) evaluation, about 20 ns per entry, costs less per t than a plain
#   step, so it is left out.
# The certificate costs O((m + n) p) and is inside the set-up; a certificate
# that fails adds the walk, which the rule does not foresee, since only
# ill-conditioned expansions fail it.  On the grid the rule took the slower
# path at 10 of 424 points, by at most 1.45x (d = 8, L = 3, p = 165, m = 4000,
# n = 500, T = 10).
# The switch to the closed form at T >= w = min(p, m, n) is measured too
# (n = 60..8000 crossed with w = 3..495): the break-even lies between 0.35 w
# steps (w = 495) and 2.1 w steps (w <= 7, n = 8000).

def _factored_is_cheaper(m: int, n: int, p: int, T: int, L: int) -> bool:
    """Whether train on the factors at width p is priced below the m x n matrix.

    L is the top degree of tau (len(tau) - 1), which the plain walk runs to;
    the costs are measured (see above).
    """
    w = min(p, m)
    plain = 85e3 + m * n * (3.3 * (L + 1) + 0.74 * T) + 14e3 * T
    factored = 240e3 + p * (m * (23 + 0.2 * w) + 13 * n) + min(T, w, n) * (14e3 + 0.43 * n * w)
    return factored < plain


def _householder(U: np.ndarray):
    """(R, F): the thin QR U = QL @ R with QL kept as F, its Householder reflectors.

    F = (h, scales) comes from np.linalg.qr(U, mode="raw"), with R's
    diagonal in h overwritten by the reflectors' unit leading entries:
    v_j = h[j, j:] below j zeros and H_j = I - scales[j] v_j v_j^T, so that
    Q = H_0 H_1 ... H_(k-1), k = min(m, p), and QL is its first k columns.
    R (k x p) is the reduced mode's R bit for bit; QL, m x k, is not formed.
    """
    h, scales = np.linalg.qr(U, mode="raw")
    R = np.triu(h.T[: scales.size])
    h[np.diag_indices(scales.size)] = 1.0
    return R, (h, scales)


def _reflect(F, Y, transpose: bool = False) -> np.ndarray:
    """Q @ y, or Q.T @ y with transpose, for every vector y along Y's last axis.

    Q is the m x m orthogonal factor held by the reflectors F of _householder.
    A last axis shorter than m is padded with zeros, so k entries c give
    QL @ c.  The reflectors are applied one at a time to a copy of Y,
    O(m k) per vector.
    """
    h, scales = F
    Y = np.asarray(Y, dtype=float)
    out = np.zeros(Y.shape[:-1] + (h.shape[1],))
    out[..., : Y.shape[-1]] = Y
    for j in range(scales.size) if transpose else reversed(range(scales.size)):
        v = h[j, j:]
        out[..., j:] -= np.multiply.outer(scales[j] * (out[..., j:] @ v), v)
    return out


def _factor_residual(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, F, B) -> float:
    """Relative Frobenius error of QL @ B against Z, with Z from the recurrence.

    F holds QL as reflectors (_householder); QL.T is formed from them once.
    Walks Z.T = sum_k tau_k P_k(X @ Q.T) / sqrt(m) in gegenbauer_blocks row
    blocks and compares each with the same rows of B.T @ QL.T; besides the
    walk's own buffers and QL it allocates two blocks.
    """
    m = Q.shape[0]
    QLt = _reflect(F, np.eye(B.shape[0], m))  # row i is QL @ e_i
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
        np.matmul(B[:, rows].T, QLt, out=pred)
        ref2 += float(np.vdot(z, z))
        z -= pred
        err2 += float(np.vdot(z, z))
    if ref2 > 0.0:
        return math.sqrt(err2 / ref2)
    return 0.0 if err2 == 0.0 else math.inf


def _try_factor(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, g: np.ndarray):
    """Certified exact factors (F, B) of Z = QL @ B, or None after a RuntimeWarning.

    F holds QL as the reflectors of _householder.

    g = harmonics._power_coefficients(d, tau) are the power coefficients of
    sigma_tau.
    The factors are accepted on the a-priori bound (_certificate) and, only
    when that exceeds harmonics._FACTOR_RTOL, on the walk's residual
    (_factor_residual).
    """
    U, Vt = harmonics._exact_factors(X, Q, g)
    R, F = _householder(U)
    B = R @ Vt
    bound = harmonics._certificate(X.shape[1], tau, g, U, Vt, B)
    # NaN compares false and goes to the walk
    if bound <= harmonics._FACTOR_RTOL:
        return F, B
    resid = _factor_residual(X, Q, tau, F, B)
    if resid <= harmonics._FACTOR_RTOL:
        return F, B
    warnings.warn(
        f"exact low-rank factors failed verification: relative residual "
        f"{resid:.3e} > {harmonics._FACTOR_RTOL:g} at factor width p = {U.shape[1]} "
        f"(a-priori bound {bound:.3e}); falling back to the m x n feature matrix",
        RuntimeWarning, stacklevel=3,
    )
    return None


def train(
    dataset: LabeledDataset,
    Q,
    tau_final,
    eta: float,
    T: int,
    record_weights: bool = False,
):
    """Run T gradient steps from a(0) = 0, recording the loss trace.

    The path follows from the shapes alone (_factored_is_cheaper): the
    same update runs on exact factors of the feature matrix when that is
    priced below the m x n matrix for these m, n, T, degrees and factor
    width p (the number of monomials in the expansion of sigma_tau), and
    on the matrix itself otherwise.  The factors are accepted on an
    a-priori rounding bound, or, where that bound exceeds 1e-10, on a
    streamed check against the recurrence; when both fail, train warns
    (RuntimeWarning, naming the residual, the bound and p) and runs on the
    m x n matrix.  On the factors with T >= min(p, m, n), no step is
    taken: the trace comes in closed form from the SVD of the factors.

    Returns (TrainerState, TrainingTrace), alike on every path.  Raises
    ValueError unless eta is positive and finite and T a positive integer,
    and DivergenceError when the residuals blow up (learning rate beyond the
    stable range).
    """
    harmonics._check_integer(T, "step count", 1)
    T = int(T)
    _check_step_size(eta)
    X, Q = _require_unit_pair(dataset.S, Q)
    tau = np.asarray(tau_final, dtype=float)
    m, n = Q.shape[0], X.shape[0]
    y = np.asarray(dataset.y, dtype=float)
    f_star = np.asarray(dataset.f_star_S, dtype=float)
    trace = TrainingTrace(weights=[] if record_weights else None)

    g = harmonics._power_coefficients(X.shape[1], tau)
    cheaper = _factored_is_cheaper(m, n, harmonics._factor_width(X.shape[1], g), T, tau.size - 1)
    factors = _try_factor(X, Q, tau, g) if cheaper else None

    # a(t) = QL @ c(t) on the factors of Z = QL @ B, QL held by the reflectors
    # F, and a(t) = c(t) with B = Z on the plain path
    F, B = factors if factors is not None else (None, feature_matrix(X, Q, tau))
    a = None
    if F is not None and T >= min(B.shape):
        a = _spectral_trace(F, B, y, f_star, eta, T, trace)
    if a is None:
        a = _gd_loop(F, B, y, f_star, eta, T, trace)
    return TrainerState(a=a, t=T, eta=float(eta)), trace


def _gd_loop(F, B, y, f_star, eta: float, T: int, trace: TrainingTrace) -> np.ndarray:
    """T gradient steps on c, a = QL @ c (a = c when F is None); returns a(T).

    On the factors, the recorded c(t) become weights as one block at the end.
    """
    n = y.size
    keep = trace.weights is not None
    # resid = yhat - y, formed once per step for the check, the record and the gradient
    c = np.zeros(B.shape[0])
    resid = -y
    _record(trace, resid, -f_star, c, keep)
    for t in range(1, T + 1):
        if not np.all(np.isfinite(resid)):
            raise DivergenceError(
                f"non-finite residual at step {t - 1}; "
                f"eta = {eta:g} likely exceeds 2 / lambda_max of the kernel"
            )
        c = c - (eta / n) * (B @ resid)
        yhat = B.T @ c
        resid = yhat - y
        _record(trace, resid, yhat - f_star, c, keep)
        _check_divergence(trace.residual_norm, t)
    if F is None:
        return c
    if keep:
        trace.weights[:] = list(_reflect(F, np.array(trace.weights)))
    return _reflect(F, c)


def _spectral_trace(F, B, y, f_star, eta: float, T: int, trace: TrainingTrace):
    """The loop's whole trace in closed form on the thin SVD of B; returns a(T).

    F holds QL as reflectors.  Returns None, recording nothing, when a step
    is unstable (|rho_i| > 1) or y is not finite; the loop then runs and
    raises where it does.
    """
    n = y.size
    Rb, Fb = _householder(B.T)  # B.T = Qb Rb, Qb's first k = min(n, w) columns
    Us, s, Wt = np.linalg.svd(Rb, full_matrices=False)  # B.T = H diag(s) Wt, H = Qb Us
    rho = 1.0 - (eta / n) * s**2
    if not (np.all(np.abs(rho) <= 1.0) and np.all(np.isfinite(y))):
        return None
    # rows y and f*: Qb.T splits each into its part along H and the rest
    yf = _reflect(Fb, np.stack([y, f_star]), transpose=True)
    (beta, beta_f), rest = yf[:, : s.size] @ Us, yf[:, s.size :]
    delta = beta - beta_f
    y_perp2, f_perp2 = (float(r @ r) for r in rest)
    # z(t) = beta (1 - rho^t) / s, and 0 where s = 0; c(t) = Wt.T @ z(t)
    gain = np.divide(beta, s, out=np.zeros_like(s), where=s > 0)
    rows = _block_rows(T + 1, s.size)
    for lo in range(0, T + 1, rows):
        P = rho ** np.arange(lo, min(lo + rows, T + 1))[:, None]  # rho^t, one row per t
        if trace.weights is not None:
            trace.weights.extend(_reflect(F, (gain * (1.0 - P)) @ Wt))
        P *= beta  # -e(t)
        nloss = np.einsum("tw,tw->t", P, P) + y_perp2
        np.subtract(delta, P, out=P)  # e(t) + delta
        nclean = np.einsum("tw,tw->t", P, P) + f_perp2
        trace.loss.extend((nloss / n).tolist())
        trace.residual_norm.extend(np.sqrt(nloss).tolist())
        trace.clean_loss.extend((nclean / n).tolist())
    return _reflect(F, Wt.T @ (gain * (1.0 - rho**T)))


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

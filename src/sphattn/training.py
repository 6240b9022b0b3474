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
directions, with p columns.  :func:`train` picks its path from the shapes
alone: when a rule priced from timings of both paths expects the factors to
take less time for these m, n, p, T and degrees, it never allocates Z and
runs on the thin QR factors Z = QL @ B.  The factors are accepted on an
a-priori rounding bound that costs O((m + n) * p); only when that bound is
too loose are they checked against the recurrence in a streamed pass over
Z, and a failed check warns and falls back to the m x n matrix (see the
exact low-rank fast path below).

On the factors, GD is a spectral filter of B.  With the thin SVD
B.T = H diag(s) W.T (w = min(p, m, n) columns), beta = H.T @ y and
rho = 1 - eta * s^2 / n, the residual's component along H is
e(t) = -beta * rho^t and the rest of y is never fitted, so every step's
loss, clean loss and weights have a closed form.  When T >= w the whole
trace comes from one SVD at O(n * w^2) plus O(T * w), in blocks of t, and no
step is taken; fewer steps run the same loop as the plain path on (QL, B).
A step that is not stable (some |rho_i| > 1) also runs the loop, which
raises DivergenceError where it always has.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    _block_rows,
    _gegenbauer_coefficients,
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
# QR, U = QL @ R, gives Z = QL @ B with orthonormal QL and B = R @ V.T.  Z
# itself is never formed.  With T >= w = min(p, m, n) the trace comes in
# closed form from the thin SVD of B (_spectral_trace); fewer steps run the
# GD loop on (QL, B) at O((m + n) * p) per step.
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
# sums of non-negative terms, so nothing cancels.  rho^t is the power, not
# exp(t log1p(-eta s^2 / n)): rho < 0 is stable for 1 < eta s^2 / n < 2.
# Rows of t go in blocks of about BLOCK_ENTRIES // w, so the extra memory is
# O(BLOCK_ENTRIES) whatever T; only the recorded weights, T + 1 vectors of
# m, grow with T, as on the loop.
#
# Certificate.  The factors are accepted on an a-priori bound on the relative
# error ||QL @ B - Z||_F / ||Z||_F that costs O((m + n) * p) (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3 and
# 19).  With u = eps / 2 the unit roundoff, hats on computed quantities and
# ||Z||_F = ||B||_F (QL is orthonormal), split
#
#     QL^ B^ - Z = QL^ (B^ - R^ Vt^) + (QL^ R^ - U^) Vt^ + (U^ Vt^ - U Vt)
#
# and bound each term to first order in u, using || |U| |Vt| ||_F <=
# ||U||_F ||Vt||_F:
# - the expansion.  C comes from a three-term recurrence whose two terms
#   have the same sign in every coefficient (that of t^(k+1-2i) is
#   (-1)^i in both), so nothing cancels, three roundings per step leave each
#   C[k, j] within 3 ell_hat u of itself, and g = tau @ C
#   is within (4 ell_hat + 1) u * Gbar_j, Gbar = |tau| @ |C|.  An entry of U
#   takes ell_hat + 3 more roundings (the monomial's j - 1 products, sqrt(m),
#   the quotient and the two products), an entry of Vt at most ell_hat - 1.
#   With Ubar, U with Gbar_j in place of g_j, the last term is at most
#   (6 ell_hat + 3) u ||Ubar||_F ||Vt||_F;
# - the thin QR.  Householder QR (LAPACK geqrf/orgqr) gives
#   ||U^ - QL^ R^||_F <= gamma(m p) ||U||_F in the worst case, but its
#   rounding errors do not add up like that: for d = 2..20, ell_hat up to
#   14, p up to 495 and m from 500 to 2000, the computed residual stayed
#   below 5 eps ||U||_F.  The bound takes p u for it, an estimate of the
#   observed size and not a worst case, so the middle term is at most
#   p u ||U||_F ||Vt||_F;
# - B = R @ V.T.  Inner products of length p: |B^ - R^ Vt^| <= p u |R| |Vt|
#   entrywise, and ||R||_F = ||U||_F, so the first term is at most
#   p u ||U||_F ||Vt||_F.
#
# Since ||U||_F <= ||Ubar||_F the sum is (2 p + 6 ell_hat + 3) u, rounded up to
#
#     bound = (p + 3 ell_hat + 2) * eps * ||Ubar||_F * ||Vt||_F / ||B||_F .
#
# It runs 20 to 10^4 times above the walk's measured residual (the test
# grid asserts it is never below): 7e-15 at the sweep shape (d = 6,
# ell_hat = 1), 1e-11 at d = 8, ell_hat = 4, 2e-10 at d = 2, ell_hat = 10.
# When it exceeds _FACTOR_RTOL the factors are checked against the
# Gegenbauer recurrence in a streamed pass over row blocks, which shares no
# code with the expansion (_factor_residual); that costs an m x n walk, and
# only ill-conditioned expansions pay it (with oracle channels, from degree
# 10 at d = 2, 9 at d = 3 and 8 at d = 4).  When the walk's relative
# Frobenius residual exceeds _FACTOR_RTOL too, train warns (the residual,
# the bound and p) and falls back to the plain loop on the m x n matrix.
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

# Also the error bar that stage one's expansion must meet a priori (selection).
_FACTOR_RTOL = 1e-10


def _factor_width(d: int, g: np.ndarray) -> int:
    """Number of monomials x^alpha over the degrees j with g_j != 0."""
    return sum(math.comb(int(j) + d - 1, d - 1) for j in np.flatnonzero(g))


def _factored_is_cheaper(m: int, n: int, p: int, T: int, L: int) -> bool:
    """Whether train on the factors at width p is priced below the m x n matrix.

    L is the top degree of tau (len(tau) - 1), which the plain walk runs to;
    the costs are measured (see above).
    """
    w = min(p, m)
    plain = 85e3 + m * n * (3.3 * (L + 1) + 0.74 * T) + 14e3 * T
    factored = 240e3 + p * (m * (23 + 0.2 * w) + 13 * n) + min(T, w, n) * (14e3 + 0.43 * n * w)
    return factored < plain


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


def _certificate(d: int, tau: np.ndarray, g: np.ndarray, U, Vt, B) -> float:
    """The a-priori bound on ||QL @ B - Z||_F / ||Z||_F derived above, in O((m + n) p)."""
    J = np.flatnonzero(g)
    if J.size == 0:
        return 0.0  # tau == 0: Z and QL @ B are both exactly 0
    ref = float(np.linalg.norm(B))
    if not ref > 0.0:
        return math.inf
    # ||Ubar||_F from the column norms of U, each degree's block scaled by Gbar_j / |g_j|
    Gbar = np.abs(tau) @ np.abs(_gegenbauer_coefficients(d, tau.size - 1))
    scale = np.repeat(Gbar[J] / np.abs(g[J]), [math.comb(int(j) + d - 1, d - 1) for j in J])
    ubar = math.sqrt(float(scale**2 @ np.einsum("rc,rc->c", U, U)))
    eps = np.finfo(float).eps
    return (U.shape[1] + 3 * int(J[-1]) + 2) * eps * ubar * float(np.linalg.norm(Vt)) / ref


def _try_factor(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, g: np.ndarray):
    """Certified exact factors (QL, B) of Z, or None after a RuntimeWarning.

    g = _power_coefficients(d, tau) are the power coefficients of sigma_tau.
    The factors are accepted on the a-priori bound (_certificate) and, only
    when that exceeds _FACTOR_RTOL, on the walk's residual
    (_factor_residual).
    """
    U, Vt = _exact_factors(X, Q, g)
    QL, R = np.linalg.qr(U)
    B = R @ Vt
    bound = _certificate(X.shape[1], tau, g, U, Vt, B)
    # NaN compares false and goes to the walk
    if bound <= _FACTOR_RTOL:
        return QL, B
    resid = _factor_residual(X, Q, tau, QL, B)
    if resid <= _FACTOR_RTOL:
        return QL, B
    warnings.warn(
        f"exact low-rank factors failed verification: relative residual "
        f"{resid:.3e} > {_FACTOR_RTOL:g} at factor width p = {U.shape[1]} "
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

    Returns (TrainerState, TrainingTrace); the state's Z is None on the
    factored path.  Raises DivergenceError when the residuals blow up
    (learning rate beyond the stable range).
    """
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    if eta <= 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    X, Q = _require_unit_pair(dataset.S, Q)
    tau = np.asarray(tau_final, dtype=float)
    m, n = Q.shape[0], X.shape[0]
    y = np.asarray(dataset.y, dtype=float)
    f_star = np.asarray(dataset.f_star_S, dtype=float)
    trace = TrainingTrace(weights=[] if record_weights else None)

    g = _power_coefficients(X.shape[1], tau)
    cheaper = _factored_is_cheaper(m, n, _factor_width(X.shape[1], g), T, tau.size - 1)
    factors = _try_factor(X, Q, tau, g) if cheaper else None

    # a(t) = QL @ c(t) on the factors of Z = QL @ B, and a(t) = c(t) with B = Z
    # on the plain path
    Z = feature_matrix(X, Q, tau) if factors is None else None
    QL, B = factors if factors is not None else (None, Z)
    a = None
    if QL is not None and T >= min(B.shape):
        a = _spectral_trace(QL, B, y, f_star, eta, T, trace)
    if a is None:
        a = _gd_loop(QL, B, y, f_star, eta, T, trace)
    return TrainerState(a=a, t=T, eta=float(eta), Z=Z), trace


def _gd_loop(QL, B, y, f_star, eta: float, T: int, trace: TrainingTrace) -> np.ndarray:
    """T gradient steps on c, a = QL @ c (a = c when QL is None); returns a(T)."""
    n = y.size
    keep = trace.weights is not None

    def weights(c):
        return c if QL is None else QL @ c

    # resid = yhat - y, formed once per step for the check, the record and the gradient
    c = np.zeros(B.shape[0])
    resid = -y
    _record(trace, resid, -f_star, weights(c), keep)
    for t in range(1, T + 1):
        if not np.all(np.isfinite(resid)):
            raise DivergenceError(
                f"non-finite residual at step {t - 1}; "
                f"eta = {eta:g} likely exceeds 2 / lambda_max of the kernel"
            )
        c = c - (eta / n) * (B @ resid)
        yhat = B.T @ c
        resid = yhat - y
        _record(trace, resid, yhat - f_star, weights(c) if keep else None, keep)
        _check_divergence(trace.residual_norm, t)
    return weights(c)


def _spectral_trace(QL, B, y, f_star, eta: float, T: int, trace: TrainingTrace):
    """The loop's whole trace in closed form on the thin SVD of B; returns a(T).

    Returns None, recording nothing, when a step is unstable (|rho_i| > 1)
    or y is not finite; the loop then runs and raises where it does.
    """
    n = y.size
    H, s, Wt = np.linalg.svd(B.T, full_matrices=False)  # B.T = H diag(s) Wt
    rho = 1.0 - (eta / n) * s**2
    if not (np.all(np.abs(rho) <= 1.0) and np.all(np.isfinite(y))):
        return None
    beta, beta_f = H.T @ y, H.T @ f_star
    delta = beta - beta_f
    y_perp = y - H @ beta
    f_perp = f_star - H @ beta_f
    y_perp2, f_perp2 = float(y_perp @ y_perp), float(f_perp @ f_perp)
    # z(t) = beta (1 - rho^t) / s, and 0 where s = 0; c(t) = Wt.T @ z(t)
    gain = np.divide(beta, s, out=np.zeros_like(s), where=s > 0)
    rows = _block_rows(T + 1, s.size)
    for lo in range(0, T + 1, rows):
        P = rho ** np.arange(lo, min(lo + rows, T + 1))[:, None]  # rho^t, one row per t
        if trace.weights is not None:
            trace.weights.extend(((gain * (1.0 - P)) @ Wt) @ QL.T)
        P *= beta  # -e(t)
        nloss = np.einsum("tw,tw->t", P, P) + y_perp2
        np.subtract(delta, P, out=P)  # e(t) + delta
        nclean = np.einsum("tw,tw->t", P, P) + f_perp2
        trace.loss.extend((nloss / n).tolist())
        trace.residual_norm.extend(np.sqrt(nloss).tolist())
        trace.clean_loss.extend((nclean / n).tolist())
    return QL @ (Wt.T @ (gain * (1.0 - rho**T)))


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

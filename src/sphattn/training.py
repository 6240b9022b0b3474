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
exact factorization Z = U @ F.T through the monomials of the directions and
the points, with p columns, and Z.T Z = F M F.T with the p x p middle
matrix M = U.T U; the factors, the a-priori rounding bound that accepts
them and its tolerance are the monomial expansion's, in harmonics.
:func:`train` picks its path from the shapes alone: when a rule priced from
timings of both paths expects the factors to take less time for these m, n,
p, T and degrees, it never allocates Z.  It takes M from the directions'
monomial Gram and the thin QR F = QF R of the points' monomials, and runs
GD in closed form on the eigenpairs of the small N = R M R.T: every step's
loss and clean loss, and the weights a(T), for any T, with no step taken.
When the bound, which costs nothing but the shapes, exceeds the tolerance,
train warns and runs the plain loop on the m x n matrix (see the factored
path below).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import harmonics
from .harmonics import _block_rows
from .kernels import _require_symmetric, _require_unit_pair, activation_matrix
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
    the statistical quantity of interest.  No weights are kept; a(T) is in
    train's TrainerState.  factors holds train's factors on the factored
    path (_try_factor) and is None on the plain one; a training trial's
    kernel gap reads their Gram M instead of forming it again.  factors is
    left out of repr and ==.
    """

    loss: list = field(default_factory=list)
    residual_norm: list = field(default_factory=list)
    clean_loss: list = field(default_factory=list)
    factors: _Factors | None = field(default=None, repr=False, compare=False)


def feature_matrix(X, Q, tau_final) -> np.ndarray:
    """Fixed stage-two feature matrix Z = activation_matrix(X, Q, tau).T / sqrt(m), shape (m, n).

    Z.T @ Z reproduces the empirical kernel matrix exactly.  Z is the
    transpose of the n x m activation matrix, scaled in place, so no second
    m x n array is made; its rows are checked and its errors named as
    activation_matrix checks and names them.
    """
    A = activation_matrix(X, Q, tau_final)
    A /= np.sqrt(A.shape[1])
    return A.T


def predict(a, X, Q, tau_final) -> np.ndarray:
    """Network values (1/sqrt(m)) * sum_r a_r * sigma_tau(x, q_r) on rows of X.

    With tau trimmed to its last nonzero channel ell_hat, the values are
    tau @ V / sqrt(m) for the degree projections V[k, i] = sum_r
    P_k(<x_i, q_r>) * a_r, stage one's sum with the two sides swapped, and
    harmonics._degree_projections(X, Q, a, ell_hat) computes them on stage
    one's route, rule and rounding bound: the monomial expansion at
    O((len(X) + m) * p_h * p_l), or the recurrence over cache-sized row
    blocks of X.  Neither allocates an array of len(X) x m.  tau @ V is
    summed per row (einsum), so at ell_hat <= 1, where V is too, a value
    hangs on its own row alone; above, block GEMMs round with the others.
    """
    a = np.asarray(a, dtype=float)
    X, Q = _require_unit_pair(X, Q)
    tau = harmonics._check_weights(tau_final)
    m = Q.shape[0]
    if a.shape != (m,):
        raise ValueError(f"weights have shape {a.shape}, expected ({m},)")
    ell_hat = int(np.flatnonzero(tau)[-1]) if np.any(tau) else 0
    V = harmonics._degree_projections(X, Q, a, ell_hat)
    return np.einsum("k,ki->i", tau[: ell_hat + 1], V) / np.sqrt(m)


def _non_finite(t: int, eta: float) -> DivergenceError:
    return DivergenceError(
        f"non-finite residual at step {t}; "
        f"eta = {eta:g} likely exceeds 2 / lambda_max of the kernel"
    )


def gd_step(state: TrainerState, Z, y) -> TrainerState:
    """One exact gradient step on the quadratic loss with feature matrix Z; increments t.

    Z is the m x n matrix feature_matrix(X, Q, tau) of the training points.
    """
    harmonics._check_range(state.eta, "learning rate")
    y = np.asarray(y, dtype=float)
    n = y.size
    resid = Z.T @ state.a - y
    if not np.all(np.isfinite(resid)):
        raise _non_finite(state.t, state.eta)
    a_next = state.a - (state.eta / n) * (Z @ resid)
    return TrainerState(a=a_next, t=state.t + 1, eta=state.eta)


def _record(trace: TrainingTrace, resid, clean_resid) -> None:
    n = resid.size
    trace.loss.append(float(resid @ resid) / n)
    trace.residual_norm.append(float(np.linalg.norm(resid)))
    trace.clean_loss.append(float(clean_resid @ clean_resid) / n)


def _check_divergence(norms: list, t: int) -> None:
    """Raise when norms[t], the residual norm after step t, grew too much over the window."""
    if t >= DIVERGENCE_WINDOW:
        prev = norms[t - DIVERGENCE_WINDOW]
        if prev > 0 and norms[t] > DIVERGENCE_FACTOR * prev:
            raise DivergenceError(
                f"residual norm grew {norms[t] / prev:.2f}x over "
                f"{DIVERGENCE_WINDOW} steps at step {t}; reduce eta"
            )


# --- the factored path ---------------------------------------------------------
#
# The monomial expansion in harmonics factors the feature matrix exactly as
# Z = U @ F.T, over p = _factor_width(d, g) monomials of the kept degrees,
# and the kernel as Z.T Z = F M F.T with the p x p middle matrix M = U.T U
# (harmonics._middle_matrix, from the Gram of the directions' monomials).
# With the thin QR F = QF R of the points' monomials (harmonics._points_qr),
# the kernel's nonzero eigenpairs are those of the k x k matrix
# N = R M R.T, k = min(n, p): from N = Us diag(lam) Us.T, Z.T Z =
# H diag(lam) H.T with H = QF Us.  Neither Z nor U nor QF is formed.
#
# Closed form.  From a(0) = 0, GD keeps a(t) = U c(t) with c(t) = R.T Us
# z(t), and one step maps z to z + (eta / n) (beta - lam z), beta = H.T y, so
#
#     z(t) = gain(t) beta,    gain_i(t) = (1 - rho_i^t) / lam_i,    rho = 1 - eta lam / n,
#
# with gain_i(t) = eta t / n, its limit, where rho_i = 1 (lam_i = 0, or too
# small to move 1 - eta lam_i / n); gain is continuous in lam and at most
# eta t / n, so nothing divides by a small lam.  The residual yhat - y is
# H e(t) - y_perp, with e(t) = lam z(t) - beta = -rho^t beta and
# y_perp = y - H beta, and yhat - f* is H (e(t) + delta) - f_perp, with
# delta = beta - H.T f* and f_perp = f* - H H.T f*.  Hence
#
#     n loss(t) = ||rho^t beta||^2 + ||y_perp||^2,
#     n clean_loss(t) = ||delta - rho^t beta||^2 + ||f_perp||^2,
#
# sums of non-negative terms, so nothing cancels.  y and f* are appended to
# F's columns in the QR, whose reflectors map them to QF.T y = Us beta in
# R's first k rows and to a triangle below, whose rows' sums of squares are
# ||y_perp||^2 and ||f_perp||^2.  The weights are only formed at T, as
# a(T) = U c(T) = Phi.T @ (S R.T Us z(T)) / sqrt(m), one GEMM.  N is PSD
# in exact arithmetic (M = U.T U), so its negative eigenvalues are
# rounding, within the bound below, and are set to 0.
# rho^t is the power, not exp(t log1p(-eta lam / n)): rho < 0 is stable for
# 1 < eta lam / n < 2.  Rows of t go in blocks of about BLOCK_ENTRIES // k,
# so the extra memory is O(BLOCK_ENTRIES) whatever T; only the trace's
# lists, T + 1 numbers each, grow with T, as on the loop.  When a step is
# unstable (some |rho_i| > 1) or y is not finite, the plain loop's two
# checks run on the closed form's residual norms, so DivergenceError comes
# at the same step with the same message.
#
# Check.  harmonics._spectrum_error bounds the rounding of N / n's
# eigenvalues, relative to (sum_k |tau_k|)^2, from d, tau and n alone.  When
# it exceeds harmonics._FACTOR_RTOL, nothing is formed: train warns (the
# bound, the tolerance and p) and runs the plain loop on the m x n matrix.
#
# Speed.  train takes the path that _factored_is_cheaper prices lower, in
# nanoseconds on one core, from timings of train on both paths (one BLAS
# thread, 424 shapes; the grid and the fit are in CHANGES.md):
# - plain: 140 us of set-up, the recurrence walk that builds Z at 3.6 ns per
#   entry and degree, m n (L + 1) with L = len(tau) - 1, then per step 8.6 us
#   of loop work (the residual check, the record, the divergence check and
#   the calls) and 0.86 ns per entry of Z for the two matrix-vector products;
# - factored: 300 us of set-up; per monomial of a direction, 5.5 + 0.03 p
#   ns (its value and its row of the Gram M); per monomial of a point,
#   17 + 0.15 p ns (its value and its column of the QR); 0.3 k^3 for the
#   eigh of N and the products around it; and 16 (k + 8) ns per t of the
#   trace.  No step is taken, so T costs only the trace.
# Fitted by non-negative least squares on relative error and rounded; the
# prices lie within 0.36 to 1.55 times the measured times, which drifted by
# up to 2x between runs of one shape on a shared host.  On the grid the rule
# took the slower path at 14 of 424 points, by at most 1.66x (d = 8, p = 45,
# m = 200, n = 60, T = 30: 1.16 ms factored against 0.70 ms plain).  Every
# step count pays for the whole factorization, so with few steps and
# n > m, where the points' QR outweighs the directions' Gram, the factors
# cost up to twice what a few steps on them would; when m << n that sends
# the path to the m x n matrix (d = 8, p = 165, m = 200, n = 4000, T = 10:
# 20 ms plain, 43 ms factored).

def _factored_is_cheaper(m: int, n: int, p: int, T: int, L: int) -> bool:
    """Whether train on the factors at width p is priced below the m x n matrix.

    L is the top degree of tau (len(tau) - 1), which the plain walk runs to;
    the costs are measured (see above).
    """
    k = min(p, n)
    plain = 140e3 + m * n * (3.6 * (L + 1) + 0.86 * T) + 8.6e3 * T
    factored = (300e3 + p * (m * (5.5 + 0.03 * p) + n * (17 + 0.15 * p))
                + 0.3 * k**3 + 16 * T * (k + 8))
    return factored < plain


@dataclass(frozen=True)
class _Factors:
    """The factored path's spectrum and maps (see above), made once per train call.

    N = Us diag(lam) Us.T with lam clipped at 0; coef, whose product
    Phi.T @ (coef @ z) with the directions' kept monomials Phi gives the
    weights U R.T Us z; proj's rows beta and H.T f*; perp2 = (||y_perp||^2,
    ||f_perp||^2); and M = U.T U, the p x p middle matrix from the Gram of
    the directions' monomials (harmonics._middle_matrix).
    """

    lam: np.ndarray
    coef: np.ndarray
    Phi: np.ndarray
    proj: np.ndarray
    perp2: np.ndarray
    M: np.ndarray


def _try_factor(X: np.ndarray, Q: np.ndarray, tau: np.ndarray, g: np.ndarray, Y: np.ndarray):
    """The factored path's _Factors, or None after a RuntimeWarning.

    g = harmonics._power_coefficients(d, tau) are the power coefficients of
    sigma_tau, and Y's two rows are y and f*.  The bound is checked first;
    when it exceeds harmonics._FACTOR_RTOL, nothing is formed.
    """
    n, d = X.shape
    bound = harmonics._spectrum_error(d, tau, g, n, 2)
    if not bound <= harmonics._FACTOR_RTOL:  # NaN too
        warnings.warn(
            f"exact low-rank factors rejected: a-priori bound {bound:.3e} on the kernel's "
            f"eigenvalues > {harmonics._FACTOR_RTOL:g} at factor width "
            f"p = {harmonics._factor_width(d, g)}; falling back to the m x n feature matrix",
            RuntimeWarning, stacklevel=3,
        )
        return None
    Phi, scale, M = harmonics._middle_matrix(Q, g)
    p, k = scale.size, min(n, scale.size)
    RY = harmonics._points_qr(X, np.flatnonzero(g).tolist(), *Y)
    R = RY[:k, :p]
    lam, Us = np.linalg.eigh(R @ M @ R.T)
    coef = (scale / np.sqrt(Q.shape[0]))[:, None] * (R.T @ Us)
    perp2 = np.einsum("ij,ij->j", RY[k:, p:], RY[k:, p:])
    return _Factors(np.maximum(lam, 0.0), coef, Phi, RY[:k, p:].T @ Us, perp2, M)


def train(
    dataset: LabeledDataset,
    Q,
    tau_final,
    eta: float,
    T: int,
):
    """Run T gradient steps from a(0) = 0, recording the loss trace.

    The path follows from the shapes alone (_factored_is_cheaper): the
    same dynamics run on exact factors of the feature matrix when that is
    priced below the m x n matrix for these m, n, T, degrees and factor
    width p (the number of monomials in the expansion of sigma_tau), and
    on the matrix itself otherwise.  On the factors no step is taken: the
    trace and a(T) come in closed form from the eigenpairs of a p x p
    middle matrix.  The factors are accepted on an a-priori rounding bound;
    when it exceeds 1e-10, train warns (RuntimeWarning, naming the bound
    and p) and runs on the m x n matrix.

    Returns (TrainerState, TrainingTrace): a(T) and every step's losses,
    alike on every path but for the trace's factors; no weights before
    step T are kept.  Raises ValueError unless eta is positive and finite,
    T a positive integer and tau a non-empty 1-d sequence, and
    DivergenceError when the residuals blow up (learning rate beyond the
    stable range), at the same step on every path.
    """
    harmonics._check_integer(T, "step count", 1)
    T = int(T)
    harmonics._check_range(eta, "learning rate")
    X, Q = _require_unit_pair(dataset.S, Q)
    tau = harmonics._check_weights(tau_final)
    m, n = Q.shape[0], X.shape[0]
    y = np.asarray(dataset.y, dtype=float)
    f_star = np.asarray(dataset.f_star_S, dtype=float)
    trace = TrainingTrace()

    g = harmonics._power_coefficients(X.shape[1], tau)
    cheaper = _factored_is_cheaper(m, n, harmonics._factor_width(X.shape[1], g), T, tau.size - 1)
    trace.factors = _try_factor(X, Q, tau, g, np.stack([y, f_star])) if cheaper else None
    if trace.factors is None:
        a = _gd_loop(feature_matrix(X, Q, tau), y, f_star, eta, T, trace)
    else:
        a = _spectral_trace(trace.factors, y, eta, T, trace)
    return TrainerState(a=a, t=T, eta=float(eta)), trace


def _gd_loop(Z, y, f_star, eta: float, T: int, trace: TrainingTrace) -> np.ndarray:
    """T gradient steps on the m x n feature matrix Z; returns a(T)."""
    n = y.size
    # resid = yhat - y, formed once per step for the check, the record and the gradient
    a = np.zeros(Z.shape[0])
    resid = -y
    _record(trace, resid, -f_star)
    for t in range(1, T + 1):
        if not np.all(np.isfinite(resid)):
            raise _non_finite(t - 1, eta)
        a = a - (eta / n) * (Z @ resid)
        yhat = Z.T @ a
        resid = yhat - y
        _record(trace, resid, yhat - f_star)
        _check_divergence(trace.residual_norm, t)
    return a


def _spectral_trace(factors: _Factors, y, eta: float, T: int, trace: TrainingTrace) -> np.ndarray:
    """The loop's whole trace in closed form on _try_factor's factors; returns a(T)."""
    lam, coef, Phi = factors.lam, factors.coef, factors.Phi
    (beta, beta_f), (y_perp2, f_perp2) = factors.proj, factors.perp2
    n, k = y.size, lam.size
    rho = 1.0 - (eta / n) * lam
    checked = not (np.all(np.abs(rho) <= 1.0) and np.all(np.isfinite(y)))
    delta = beta - beta_f
    norms = trace.residual_norm
    rows = _block_rows(T + 1, k)
    # an unstable rho^t may overflow in the block that holds the step that raises
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T + 1, rows):
            t = np.arange(lo, min(lo + rows, T + 1))
            P = rho ** t[:, None]  # rho^t, one row per t
            P *= beta  # -e(t)
            nloss = np.einsum("tw,tw->t", P, P) + y_perp2
            np.subtract(delta, P, out=P)  # e(t) + delta
            nclean = np.einsum("tw,tw->t", P, P) + f_perp2
            trace.loss.extend((nloss / n).tolist())
            norms.extend(np.sqrt(nloss).tolist())
            trace.clean_loss.extend((nclean / n).tolist())
            # the plain loop's checks at steps lo..t[-1], in its order
            for s in range(max(lo, 1), t[-1] + 1) if checked else ():
                if not math.isfinite(norms[s - 1]):
                    raise _non_finite(s - 1, eta)
                _check_divergence(norms, s)
        # a(T) = Phi.T @ (coef @ (gain(T) beta))
        gain = np.divide(1.0 - rho**T, lam, out=np.full(k, T * (eta / n)), where=rho != 1.0)
        return ((gain * beta) @ coef.T) @ Phi


def closed_form_residual(K_hat_n, y, eta: float, t: int) -> np.ndarray:
    """Exact GD residual u(t) = (I - eta * Khat_n)^t (-y), independent of the trainer.

    The literal recursion u(s+1) = u(s) - eta * Khat_n @ u(s) from u(0) = -y,
    t matrix-vector products.  Khat_n must be finite and symmetric
    (kernels.SYM_TOL), 0 <= eta < inf and t an integer >= 0.
    """
    K = _require_symmetric(K_hat_n, "kernel matrix")
    harmonics._check_range(eta, "learning rate", zero_ok=True)
    harmonics._check_integer(t, "step count")
    u = -np.asarray(y, dtype=float)
    for _ in range(int(t)):
        u = u - eta * (K @ u)
    return u


def trace_to_csv(trace: TrainingTrace, path) -> None:
    """Write the trace with columns t, loss, residual_norm."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "loss", "residual_norm"])
        for t, (lo, rn) in enumerate(zip(trace.loss, trace.residual_norm)):
            writer.writerow([t, repr(lo), repr(rn)])

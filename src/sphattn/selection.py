"""Stage one of training: one-step gradient updates and channel thresholding.

Both one-step closed forms are evaluated matrix-free through the addition
theorem, which turns every product of harmonic-basis matrices into a weighted
Gegenbauer sum of dot products:

    second layer   a1_r     = (1/(n*sqrt(m))) * sum_i g_L(<q_r, x_i>) * y_i,
                   g_L(t)   = sum_{k<=L} N(d, k) * P_k(t),
    channel k      raw_k    = (1/(n*sqrt(m))) * N(d, k)
                              * sum_{i,r} y_i * P_k(<x_i, q_r>) * a1_r.

Both are contractions of the same (L+1) x m array of degree projections

    V[k, r] = sum_i P_k(<q_r, x_i>) * y_i,

namely a1 = (N @ V) / (n*sqrt(m)) and raw = N * (V @ a1) / (n*sqrt(m)) with
N[k] = N(d, k).  V comes from the exact monomial expansion of P_k: with
C[k, j] the coefficient of t^j in P_k, w_alpha the multinomial weights and
phi_k(x) the p_k = C(k + d, d) monomials x^alpha of degree <= k,

    G = sum_i y_i phi_h(x_i) phi_l(x_i)^T,   h = ceil(L/2), l = floor(L/2),
    u[j, r] = sum_{beta, gamma} w_beta q_r^beta G[beta, gamma] w_gamma q_r^gamma,
    V = C @ u,

the sum over the monomials beta of degree ceil(j/2) and gamma of degree
floor(j/2), as <q, x>^j = <q, x>^ceil(j/2) <q, x>^floor(j/2).  That is two
streamed GEMM passes, over the points and over the directions, at
O((m + n) * p_h * p_l) multiply-adds.  Where that is not cheaper than the
Gegenbauer recurrence over the m x n dot products, or its a-priori rounding
bound (in harmonics) is too loose, V comes from one blocked pass of that
recurrence instead (see the path rule below).  Neither route stores an m x n array, and the unit-row check
rejects a dot product outside the [-1, 1] band for both, as the walk would.

The raw channel weights are then thresholded: channel k survives when
raw_k >= 2 * epsilon0 (inclusive), and every surviving channel is rescaled
to sqrt(N(d, k)).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import harmonics
# gegenbauer_weighted_sum is not called here; the name stays bound because
# perfbench/tracer.py wraps it in this module.
from .harmonics import gegenbauer_blocks, gegenbauer_weighted_sum, harmonic_dim  # noqa: F401
from .kernels import UNIT_TOL, _require_unit_pair, finalized_weights
from .targets import LabeledDataset

__all__ = [
    "EmptySelectionError",
    "SelectionResult",
    "one_step_updates",
    "one_step_second_layer",
    "one_step_channel_weights",
    "threshold_channels",
    "select_channels",
]


class EmptySelectionError(RuntimeError):
    """No channel cleared the threshold; there is no usable activation."""

    def __init__(self, tau_raw, epsilon0):
        self.tau_raw = np.asarray(tau_raw, dtype=float)
        self.epsilon0 = float(epsilon0)
        super().__init__(
            f"no channel weight reached 2*epsilon0 = {2 * epsilon0:g} "
            f"(max raw weight {float(np.max(self.tau_raw)):g})"
        )


@dataclass
class SelectionResult:
    """Raw one-step weights, the surviving mask, and finalized weights."""

    tau_raw: np.ndarray
    mask: np.ndarray
    tau_final: np.ndarray
    ell_hat: int
    epsilon0: float

    def to_json_dict(self) -> dict:
        return {
            "tau_raw": [float(v) for v in self.tau_raw],
            "mask": [bool(v) for v in self.mask],
            "ell_hat": int(self.ell_hat),
            "epsilon0": float(self.epsilon0),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _check_inputs(dataset: LabeledDataset, Q: np.ndarray, L: int) -> np.ndarray:
    if L != int(L) or L < 0:
        raise ValueError(f"maximum channel degree must be a non-negative integer, got {L}")
    # screened as the walk over the rows of Q meets them
    X, Q = _require_unit_pair(dataset.S, Q, q_rows=True)
    if X.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("need at least one sample and one direction")
    return Q


# --- which route computes V ----------------------------------------------------
#
# Speed.  Both routes are priced in entries of elementwise work on one core.
# The walk costs L + 1 per dot product: the product itself, a BLAS dot whose
# cost barely moves with d, then L recurrence steps and sums against y.  The
# expansion (harmonics._power_sums) costs, per point on either side, p_h
# monomial values and p_h p_l multiply-adds in its two GEMMs, p_k =
# C(k + d, d), h = ceil(L / 2), l = floor(L / 2), plus _CALL_ENTRIES per
# numpy call: about d (h - 1) + L + 5 per block of _expansion_width(d, L)
# points in each pass, and the set-up about one block's worth more.  The
# call term keeps small inputs on the walk, and the GEMM term high d: at
# d = 30, L = 4, p_h = p_l = 496.  The weights come from timings of both
# routes over 545 shapes (d = 2..30, L = 1..6, m and n = 5..4000; best of
# 3 or 5, one BLAS thread, two runs; CHANGES.md has the summary).  Fitted
# by least squares, the walk took 1.3 to 1.6 ns per dot product and degree,
# and the expansion 0.04 to 0.05 ns per multiply-add, 1.3 to 1.6 ns per
# monomial value and 3 to 3.5 us per call.  The weights below are the round
# values whose choices came closest to the faster route at every shape: on
# average 0.4% slower than it, and at most 1.5x (at 0.1 ms).  The walk's
# own calls (about 6 L per block of BLOCK_ENTRIES dot products) are left
# out; the call weight, half the fitted one, makes up for them.
#
# Accuracy.  The expansion is taken when harmonics._expansion_error, its
# a-priori bound relative to ||y||_1 (derived with the expansion's other
# bounds in harmonics), is at most harmonics._FACTOR_RTOL, whatever n.

# A numpy call on a small block, with the Python loop around it, net of the
# walk's own calls, in entries of elementwise work.
_CALL_ENTRIES = 1000

# A multiply-add in the expansion's GEMMs, in entries of elementwise work.
_MAC_ENTRIES = 1 / 48

# The bound's rho = max_r |q_r| * max_i |x_i| for rows that passed the unit check.
_RHO = (1.0 + UNIT_TOL) ** 2


def _expansion_is_cheaper(m: int, n: int, d: int, L: int) -> bool:
    """Whether the expansion's GEMMs, monomial values and calls cost less than the walk."""
    h, l = harmonics._half_degrees(L)
    ph, pl = math.comb(h + d, d), math.comb(l + d, d)
    width = harmonics._expansion_width(d, L)
    blocks = -(-m // width) + -(-n // width)
    calls = (blocks + 1) * (d * max(h - 1, 0) + L + 5)
    cost = (m + n) * (ph * pl * _MAC_ENTRIES + ph) + _CALL_ENTRIES * calls
    return cost < m * n * (L + 1)


def _degree_projections(dataset: LabeledDataset, Q: np.ndarray, L: int) -> np.ndarray:
    """V[k, r] = sum_i P_k(<q_r, x_i>) * y_i for k = 0..L.

    From the monomial expansion when it is cheaper and accurate (see above),
    otherwise in one blocked pass of the recurrence.
    """
    X = np.asarray(dataset.S, dtype=float)
    y = np.asarray(dataset.y, dtype=float)
    (m, d), n = Q.shape, y.size
    accurate = harmonics._expansion_error(d, L, _RHO) <= harmonics._FACTOR_RTOL
    if accurate and _expansion_is_cheaper(m, n, d, L):
        return harmonics._gegenbauer_coefficients(d, L) @ harmonics._power_sums(Q, X, y, L)
    V = np.empty((L + 1, m))
    V[0] = np.sum(y)  # P_0 = 1
    for rows, degrees in gegenbauer_blocks(Q, X, d, L):
        for k, P in degrees:
            V[k, rows] = P @ y
    return V


def _counts(d: int, L: int) -> np.ndarray:
    return np.array([harmonic_dim(d, k) for k in range(L + 1)], dtype=float)


def one_step_updates(dataset: LabeledDataset, Q, L: int):
    """Both one-step updates from zero, (a1, tau_raw), from one computation of V.

    a1 is the m-vector of second-layer weights, linear in y; tau_raw holds
    the raw channel weights for degrees 0..L, quadratic in y.
    """
    Q = _check_inputs(dataset, Q, L)
    V = _degree_projections(dataset, Q, L)
    N = _counts(dataset.d, L)
    scale = dataset.n * np.sqrt(Q.shape[0])
    a1 = (N @ V) / scale
    return a1, N * (V @ a1) / scale


def one_step_second_layer(dataset: LabeledDataset, Q, L: int) -> np.ndarray:
    """One gradient step on the second-layer weights from zero.

    Returns the m-vector a1 given above; linear in the responses y.
    """
    return one_step_updates(dataset, Q, L)[0]


def one_step_channel_weights(dataset: LabeledDataset, Q, a1, L: int) -> np.ndarray:
    """One gradient step on the channel weights from zero, given a1.

    Returns the raw weights for degrees 0..L.  Quadratic in y through a1:
    scaling y by s scales every entry by s^2.
    """
    Q = _check_inputs(dataset, Q, L)
    a1 = np.asarray(a1, dtype=float)
    m = Q.shape[0]
    if a1.shape != (m,):
        raise ValueError(f"a1 has shape {a1.shape}, expected ({m},)")
    V = _degree_projections(dataset, Q, L)
    return _counts(dataset.d, L) * (V @ a1) / (dataset.n * np.sqrt(m))


def threshold_channels(tau_raw, epsilon0: float, d: int) -> SelectionResult:
    """Keep channels with raw weight >= 2*epsilon0 and rescale them.

    Raises EmptySelectionError when nothing survives.  A selected channel
    sitting above an unselected one is legal but unusual, so it warns.
    """
    if epsilon0 <= 0:
        raise ValueError(f"threshold must be positive, got {epsilon0}")
    tau_raw = np.asarray(tau_raw, dtype=float)
    mask = tau_raw >= 2.0 * epsilon0
    if not np.any(mask):
        raise EmptySelectionError(tau_raw, epsilon0)
    ell_hat = int(np.max(np.nonzero(mask)[0]))
    if not np.all(mask[: ell_hat + 1]):
        warnings.warn(
            "selected channels are not contiguous from degree 0; "
            f"mask={mask.astype(int).tolist()}",
            stacklevel=2,
        )
    return SelectionResult(
        tau_raw=tau_raw,
        mask=mask,
        tau_final=finalized_weights(d, mask),
        ell_hat=ell_hat,
        epsilon0=float(epsilon0),
    )


def select_channels(dataset: LabeledDataset, Q, L: int, epsilon0: float) -> SelectionResult:
    """Full stage one: both one-step updates followed by thresholding."""
    _, tau_raw = one_step_updates(dataset, Q, L)
    return threshold_channels(tau_raw, epsilon0, dataset.d)

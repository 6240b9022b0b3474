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
N[k] = N(d, k).  V is harmonics._degree_projections(Q, X, y, L), the same
sum that gives the network's predictions with the two sides swapped: two
streamed GEMM passes of the exact monomial expansion of P_k, at
O((m + n) * p_h * p_l) multiply-adds with p_h = C(ceil(L/2) + d, d), where
harmonics' rule prices them below the Gegenbauer recurrence over the m x n
dot products and their a-priori rounding bound is tight enough, and one
blocked pass of that recurrence otherwise.  Neither route stores an m x n
array, and both run on the rows the unit-row check returns.

The raw channel weights are then thresholded: channel k survives when
raw_k >= 2 * epsilon0 (inclusive), and every surviving channel is rescaled
to sqrt(N(d, k)).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import harmonics
# gegenbauer_weighted_sum is not called here; the name stays bound because
# perfbench/tracer.py wraps it in this module.
from .harmonics import gegenbauer_weighted_sum  # noqa: F401
from .kernels import _require_unit_pair, finalized_weights
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


def _check_inputs(dataset: LabeledDataset, Q: np.ndarray, L: int) -> tuple:
    harmonics._check_integer(L, "maximum channel degree")
    X, Q = _require_unit_pair(dataset.S, Q)
    if X.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("need at least one sample and one direction")
    return X, Q


def one_step_updates(dataset: LabeledDataset, Q, L: int):
    """Both one-step updates from zero, (a1, tau_raw), from one computation of V.

    a1 is the m-vector of second-layer weights, linear in y; tau_raw holds
    the raw channel weights for degrees 0..L, quadratic in y.
    """
    X, Q = _check_inputs(dataset, Q, L)
    V = harmonics._degree_projections(Q, X, dataset.y, L)
    N = harmonics._dims(dataset.d, L)
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
    X, Q = _check_inputs(dataset, Q, L)
    a1 = np.asarray(a1, dtype=float)
    m = Q.shape[0]
    if a1.shape != (m,):
        raise ValueError(f"a1 has shape {a1.shape}, expected ({m},)")
    V = harmonics._degree_projections(Q, X, dataset.y, L)
    return harmonics._dims(dataset.d, L) * (V @ a1) / (dataset.n * np.sqrt(m))


def threshold_channels(tau_raw, epsilon0: float, d: int) -> SelectionResult:
    """Keep channels with raw weight >= 2*epsilon0 and rescale them.

    Raises ValueError unless epsilon0 is positive and finite, and
    EmptySelectionError when nothing survives.  A selected channel
    sitting above an unselected one is legal but unusual, so it warns.
    """
    harmonics._check_range(epsilon0, "threshold")
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

"""Synthetic spherical-polynomial targets and noisy labeled datasets.

A target of degree ell0 is built from one unit direction w_k and one scalar
coefficient c_k per degree k <= ell0:

    f*(x) = sum_k c_k * P_k(<x, w_k>).

Each zonal term is a degree-k harmonic polynomial of x, so f* lies in the
span of harmonics up to degree ell0 and its norms come in closed form:
the kernel-space (RKHS) norm is sqrt(sum_k c_k^2) and the squared L2 norm
under the uniform sphere measure is sum_k c_k^2 / N(d, k).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    _check_integer, _check_range, _clamp_domain, _dims, child_generators, gegenbauer_all,
    sample_sphere,
)
from .kernels import _require_unit_rows

__all__ = [
    "ZonalTarget",
    "LabeledDataset",
    "make_target",
    "eval_target",
    "rkhs_norm",
    "l2_norm_sq",
    "gen_dataset",
    "dataset_to_csv",
    "dataset_metadata",
    "save_dataset",
]


@dataclass
class ZonalTarget:
    """Degree-ell0 spherical polynomial with known coefficients.

    directions has one unit row per degree 0..ell0, coeffs one scalar each.
    """

    d: int
    ell0: int
    coeffs: np.ndarray
    directions: np.ndarray


@dataclass
class LabeledDataset:
    """Unit-sphere features S, clean values f_star_S, noisy responses y."""

    S: np.ndarray
    f_star_S: np.ndarray
    y: np.ndarray
    sigma0: float

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def d(self) -> int:
        return self.S.shape[1]


def make_target(d: int, ell0: int, coeffs, seed) -> ZonalTarget:
    """Draw one uniform direction per degree and attach the coefficients.

    The top coefficient must be nonzero so the target genuinely has degree
    ell0.  Deterministic under seed.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _check_integer(ell0, "target degree ell0")
    ell0 = int(ell0)
    if coeffs.shape != (ell0 + 1,):
        raise ValueError(f"need {ell0 + 1} coefficients, got shape {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"coefficients must be finite, got {coeffs.tolist()}")
    if coeffs[ell0] == 0.0:
        raise ValueError("top-degree coefficient is zero; the target would have lower degree")
    directions = sample_sphere(ell0 + 1, d, seed)
    return ZonalTarget(d=d, ell0=ell0, coeffs=coeffs, directions=directions)


def eval_target(target: ZonalTarget, X) -> np.ndarray:
    """Evaluate f* on the rows of X.

    Each value depends on its row alone, bit for bit: the dot products
    <x_i, w_k> come from one einsum, which sums each row's products over the
    coordinates on their own, where a matrix product would round
    differently with the number of rows.  They are checked against the
    [-1, 1] band once, and each direction's dots are walked by the
    recurrence up to its own degree k only, for P_k(<x, w_k>).
    """
    X = _require_unit_rows(X, "X")
    d, c = target.d, target.coeffs
    if X.shape[1] != d:
        raise ValueError(f"points have d={X.shape[1]}, target has d={d}")
    dots = np.einsum("ij,kj->ki", X, target.directions)  # row k: <x_i, w_k>
    _clamp_domain(dots.T, "dot product", out=dots.T)  # an error names (point, degree)
    out = np.full(X.shape[0], c[0])  # P_0 = 1
    for k in np.flatnonzero(c[1:]) + 1:  # zero coefficients add nothing
        out += c[k] * gegenbauer_all(dots[k], d, k)[k]
    return out


def rkhs_norm(target: ZonalTarget) -> float:
    """Kernel-space norm of the zonal construction, sqrt(sum_k c_k^2)."""
    return float(np.sqrt(np.sum(target.coeffs**2)))


def l2_norm_sq(target: ZonalTarget) -> float:
    """E[f*^2] under the uniform sphere measure: sum_k c_k^2 / N(d, k)."""
    # Python's sum adds the terms in order, which np.sum does not
    return float(sum(target.coeffs**2 / _dims(target.d, target.coeffs.size - 1)))


def gen_dataset(target: ZonalTarget, n: int, sigma0: float, seed) -> LabeledDataset:
    """Uniform features, clean values, and Gaussian noise of scale sigma0.

    Gaussian noise is the sub-Gaussian instance used throughout; its variance
    proxy is sigma0^2 exactly.  Deterministic under seed: the feature and
    noise streams are the seed sequence's next two children (what spawn(2)
    would give), derived without advancing it, so a seed passed twice gives
    the same dataset twice.  The seed is None, an int, a sequence of ints or
    a SeedSequence (harmonics.as_seed_sequence).
    """
    _check_integer(n, "dataset size", 1)
    n = int(n)
    _check_range(sigma0, "noise scale", zero_ok=True)
    feat_rng, noise_rng = child_generators(seed, 2)
    S = sample_sphere(n, target.d, feat_rng)
    # Exact duplicate rows are a probability-zero event under the continuous
    # uniform draw; seeing one means something is broken upstream.  Rows
    # whose first coordinates differ are distinct, so the full-row comparison
    # (np.unique over rows, a lexicographic sort that costs ms per dataset)
    # runs only when two first coordinates tie.
    first = np.sort(S[:, 0])
    if np.any(first[1:] == first[:-1]):
        _, counts = np.unique(S, axis=0, return_counts=True)
        if np.any(counts > 1):
            raise RuntimeError("duplicate feature rows in a continuous uniform sample")
    f_star_S = eval_target(target, S)
    noise = sigma0 * noise_rng.standard_normal(n) if sigma0 > 0 else 0.0
    return LabeledDataset(S=S, f_star_S=f_star_S, y=f_star_S + noise, sigma0=float(sigma0))


def dataset_to_csv(dataset: LabeledDataset, path) -> None:
    """Columnar CSV with header x_0..x_{d-1}, f_star, y."""
    d = dataset.d
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j}" for j in range(d)] + ["f_star", "y"])
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(v)) for v in dataset.S[i]]
                + [repr(float(dataset.f_star_S[i])), repr(float(dataset.y[i]))]
            )


def dataset_metadata(target: ZonalTarget, sigma0: float, seed) -> dict:
    """JSON-ready sidecar describing how a dataset was generated."""
    return {
        "d": int(target.d),
        "ell0": int(target.ell0),
        "coeffs": [float(c) for c in target.coeffs],
        "directions": [[float(v) for v in row] for row in target.directions],
        "sigma0": float(sigma0),
        "seed": int(seed) if isinstance(seed, (int, np.integer)) else repr(seed),
    }


def save_dataset(dataset: LabeledDataset, target: ZonalTarget, seed, csv_path, meta_path) -> None:
    dataset_to_csv(dataset, csv_path)
    with open(meta_path, "w") as fh:
        json.dump(dataset_metadata(target, dataset.sigma0, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")

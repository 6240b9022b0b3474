"""Kernel-complexity functionals, critical radii, and risk measurement.

For a non-increasing eigenvalue sequence lam of a normalized kernel matrix
(or of the integral operator, listed with multiplicity) the kernel
complexity at scale eps is

    R(eps) = sqrt( (1/n) * sum_i min(lam_i, eps^2) ).

The critical radius solves sigma0 * R(eps) = eps^2.  In s = eps^2 the
squared left side is concave and piecewise linear, the lower envelope of its
linear pieces, so the fixed point is the smallest of the pieces' positive
roots: a closed form, with no search (see critical_radius).  For a rank-r
kernel it is eps^2 = sigma0^2 * r / n whenever that value sits below the
smallest nonzero eigenvalue, which pins the expected risk scale r / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import _check_integer, as_seed_sequence, harmonic_dim, sample_sphere
from .targets import ZonalTarget, eval_target

__all__ = [
    "KernelSpectrum",
    "empirical_spectrum",
    "population_spectrum",
    "kernel_complexity",
    "population_complexity",
    "critical_radius",
    "mc_risk",
    "empirical_loss",
    "complexity_curve_csv",
]

MC_CHUNKS = 32  # fixed chunk count keeps estimates independent of parallelism
# Rows per predictor call in mc_risk: 20000 samples are one batch, and at
# 1e6 samples each 31250-row chunk is its own, so the samples are never all
# in memory at once.
MC_BATCH_ROWS = 1 << 15


@dataclass
class KernelSpectrum:
    """Non-increasing, non-negative, finite eigenvalues with their normalization n.

    Zero eigenvalues may be left out: no functional here depends on them.
    """

    eigenvalues: np.ndarray
    n: int

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError(f"need a non-empty 1-d spectrum, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < 0) or np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        _check_integer(self.n, "normalization count n", 1)
        self.eigenvalues = lam


def empirical_spectrum(K_n: np.ndarray) -> KernelSpectrum:
    """Spectrum of a normalized gram matrix (clamped, sorted)."""
    from .kernels import gram_spectrum

    vals = gram_spectrum(K_n)
    return KernelSpectrum(eigenvalues=vals, n=vals.size)


def population_spectrum(d: int, ell_hat: int, n: int) -> KernelSpectrum:
    """Analytic operator spectrum: 1/N(d, k) with multiplicity N(d, k), k <= ell_hat.

    Only the r = cumulative_dim(d, ell_hat) nonzero eigenvalues, with n
    carried in KernelSpectrum.n: the n - r zeros past the rank change no sum
    of min(lam, eps^2).  Generated from (d, ell_hat) directly, never from a
    large gram matrix.
    """
    _check_integer(ell_hat, "degree cutoff ell_hat")
    _check_integer(n, "normalization count n", 1)
    # N(d, k) does not decrease with k, so the values come out non-increasing
    dims = [harmonic_dim(d, k) for k in range(int(ell_hat) + 1)]
    lam = np.repeat(1.0 / np.asarray(dims, dtype=float), dims)
    return KernelSpectrum(eigenvalues=lam, n=n)


def kernel_complexity(spectrum: KernelSpectrum, eps: float) -> float:
    """R(eps) = sqrt((1/n) * sum_i min(lambda_i, eps^2))."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lam = spectrum.eigenvalues
    return float(np.sqrt(np.sum(np.minimum(lam, eps**2)) / spectrum.n))


def population_complexity(d: int, ell_hat: int, n: int, eps: float) -> float:
    """Closed form over degrees: sqrt((1/n) * sum_k N(d,k) * min(1/N(d,k), eps^2))."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    _check_integer(ell_hat, "degree cutoff ell_hat")
    _check_integer(n, "normalization count n", 1)
    total = 0.0
    for k in range(int(ell_hat) + 1):
        N = harmonic_dim(d, k)
        total += N * min(1.0 / N, eps**2)
    return float(np.sqrt(total / n))


def critical_radius(spectrum: KernelSpectrum, sigma0: float) -> float:
    """The eps > 0 with sigma0 * R(eps) = eps^2, in closed form; 0.0 for a zero spectrum.

    With s = eps^2 and a = sigma0^2 / n the equation reads s^2 = h(s), h(s) =
    a * sum_i min(lam_i, s).  h is the lower envelope of the lines
    l_k(s) = a * (k s + T_k), k = 0..len(lam), with T_k the sum of the
    eigenvalues from index k on: l_k replaces the k largest terms of the sum
    by s, so l_k >= h everywhere, with equality where exactly k eigenvalues
    exceed s.  The positive root s_k = (a k + sqrt((a k)^2 + 4 a T_k)) / 2 of
    s^2 = l_k(s) is therefore never below the fixed point, and equals it for
    the active piece: eps^2 = min_k s_k.  No term cancels, so eps^2 is exact
    to a few roundings.  Zero eigenvalues are dropped first: past the rank r,
    T_k = 0 and s_k = a k only grows.
    """
    if not 0 < sigma0 < np.inf:
        raise ValueError(f"noise scale must be positive and finite, got {sigma0}")
    lam = spectrum.eigenvalues[spectrum.eigenvalues > 0]
    a = sigma0**2 / spectrum.n
    ak = a * np.arange(lam.size + 1)
    tail = np.append(np.cumsum(lam[::-1])[::-1], 0.0)  # T_k, summed smallest first
    return float(np.sqrt(np.min(0.5 * (ak + np.sqrt(ak * ak + 4.0 * a * tail)))))


def mc_risk(predictor, target: ZonalTarget, num_samples: int, seed):
    """Monte Carlo estimate of E[(predictor(x) - f*(x))^2] on fresh uniform points.

    Returns (estimate, standard_error).  Sampling is split into MC_CHUNKS
    chunks, each drawn from its own seed derived from `seed`, so the estimate
    is deterministic and independent of how chunks might be scheduled.
    Consecutive whole chunks are stacked into batches of at most
    MC_BATCH_ROWS rows (a larger chunk is a batch of its own), and the
    predictor and f* are evaluated once per batch, so no call sees more rows
    than the larger of MC_BATCH_ROWS and one chunk.  The predictor must map
    each row of its (rows, d) input to one value independently of the other
    rows.
    The chunks, their seeds and the order of the sums are those of a
    chunk-by-chunk loop; only the batching of the evaluations differs.
    """
    if num_samples < 2:
        raise ValueError(f"need at least 2 samples, got {num_samples}")
    seqs = as_seed_sequence(seed).spawn(MC_CHUNKS)
    base, extra = divmod(num_samples, MC_CHUNKS)
    batches: list[list] = []
    rows = 0
    for c, seq in enumerate(seqs):
        size = base + (1 if c < extra else 0)
        if size == 0:
            continue
        if not batches or rows + size > MC_BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append((size, seq))
        rows += size
    total = 0.0
    total_sq = 0.0
    for batch in batches:
        X = np.concatenate([sample_sphere(size, target.d, seq) for size, seq in batch])
        err = np.asarray(predictor(X), dtype=float) - eval_target(target, X)
        bounds = np.cumsum([size for size, _ in batch])[:-1]
        for sq in np.split(err * err, bounds):  # one slice per chunk, in chunk order
            total += float(np.sum(sq))
            total_sq += float(np.sum(sq * sq))
    mean = total / num_samples
    var = max(total_sq / num_samples - mean * mean, 0.0)
    stderr = float(np.sqrt(var / num_samples))
    return mean, stderr


def empirical_loss(predictions, f_star_S) -> float:
    """Mean squared deviation from the clean target values (not the noisy y)."""
    predictions = np.asarray(predictions, dtype=float)
    f_star_S = np.asarray(f_star_S, dtype=float)
    if predictions.shape != f_star_S.shape:
        raise ValueError(
            f"length mismatch: predictions {predictions.shape}, clean values {f_star_S.shape}"
        )
    diff = predictions - f_star_S
    return float(diff @ diff) / diff.size


def complexity_curve_csv(eps_grid, R_empirical, R_population, path) -> None:
    """Write a complexity curve with columns eps, R_empirical, R_population."""
    import csv

    eps_grid = np.asarray(eps_grid, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "R_empirical", "R_population"])
        for e, re_, rp in zip(eps_grid, R_empirical, R_population):
            writer.writerow([repr(float(e)), repr(float(re_)), repr(float(rp))])

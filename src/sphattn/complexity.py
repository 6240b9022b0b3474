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

import itertools
from dataclasses import dataclass

import numpy as np

from . import harmonics
from .harmonics import _check_integer, _dims, _fill_sphere, child_generators
# sample_sphere is not called here; the name stays bound because
# perfbench/tracer.py wraps it in this module.
from .harmonics import sample_sphere  # noqa: F401
from .kernels import _require_unit_rows, normalized_gram, population_gram
from .targets import ZonalTarget, eval_target

__all__ = [
    "KernelSpectrum",
    "empirical_spectrum",
    "empirical_spectrum_from_points",
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


def empirical_spectrum_from_points(X, ell_hat: int) -> KernelSpectrum:
    """Spectrum of population_gram(X, None, ell_hat) / n for the n unit rows of X.

    Formed from the monomial expansion's factors when their a-priori
    rounding bound is at most harmonics._FACTOR_RTOL of the trace ell_hat + 1
    and the factor width p = sum of C(j + d - 1, d - 1) over the degrees j
    kept is at most n: a thin QR of the n x p monomial matrix and an
    eigvalsh of p x p, O(n p^2) time and O(n p) memory, with the p values
    listed and the zeros past them left out.  Each value then lies within
    that bound of the gram's; one below minus the bound raises ValueError
    (the kernel is not PSD), and the rest of the negatives, rounding, are
    set to 0.  Otherwise it is empirical_spectrum(normalized_gram(
    population_gram(X, None, ell_hat), n)), the n x n gram and its eigvalsh,
    with gram_spectrum's PSD rule.  The rows are checked as population_gram
    checks them, with the same errors.
    """
    _check_integer(ell_hat, "degree cutoff ell_hat")
    X = _require_unit_rows(X, "X")
    factored = harmonics._gram_eigenvalues(X, int(ell_hat))
    if factored is None:
        return empirical_spectrum(normalized_gram(population_gram(X, None, ell_hat), len(X)))
    lam, tol = factored
    if lam[0] < -tol:
        raise ValueError(
            f"kernel is not PSD: eigenvalue {lam[0]:.3e} below -{tol:.3e}, the factors' bound"
        )
    return KernelSpectrum(eigenvalues=np.maximum(lam[::-1], 0.0), n=len(X))


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
    dims = _dims(d, int(ell_hat))
    lam = np.repeat(1.0 / dims, dims)
    return KernelSpectrum(eigenvalues=lam, n=n)


def kernel_complexity(spectrum: KernelSpectrum, eps: float) -> float:
    """R(eps) = sqrt((1/n) * sum_i min(lambda_i, eps^2)).

    eps must be positive but may be inf, the limit R = sqrt(trace / n), so
    eps is not one of harmonics._check_range's finite scalars.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lam = spectrum.eigenvalues
    return float(np.sqrt(np.sum(np.minimum(lam, eps**2)) / spectrum.n))


def population_complexity(d: int, ell_hat: int, n: int, eps: float) -> float:
    """R(eps) of the analytic spectrum: kernel_complexity(population_spectrum(d, ell_hat, n), eps).

    That is sqrt((1/n) * sum_k N(d, k) * min(1/N(d, k), eps^2)) over k <= ell_hat.
    """
    return kernel_complexity(population_spectrum(d, ell_hat, n), eps)


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
    harmonics._check_range(sigma0, "noise scale")
    lam = spectrum.eigenvalues[spectrum.eigenvalues > 0]
    a = sigma0**2 / spectrum.n
    ak = a * np.arange(lam.size + 1)
    tail = np.append(np.cumsum(lam[::-1])[::-1], 0.0)  # T_k, summed smallest first
    return float(np.sqrt(np.min(0.5 * (ak + np.sqrt(ak * ak + 4.0 * a * tail)))))


def mc_risk(predictor, target: ZonalTarget, num_samples: int, seed):
    """Monte Carlo estimate of E[(predictor(x) - f*(x))^2] on fresh uniform points.

    Returns (estimate, standard_error).  Sampling is split into MC_CHUNKS
    chunks, each drawn from its own child of the seed's SeedSequence, so the
    estimate is deterministic and independent of how chunks might be
    scheduled.  The seed is None, an int, a sequence of ints or a
    SeedSequence (harmonics.as_seed_sequence); the children are those
    seq.spawn(MC_CHUNKS) would make, but the seed is not advanced: a
    SeedSequence passed twice gives the same estimate twice.  Consecutive
    whole chunks are stacked into batches of at most MC_BATCH_ROWS rows (a
    larger chunk is a batch of its own), and the predictor and f* are
    evaluated once per batch, so no call sees more rows than the larger of
    MC_BATCH_ROWS and one chunk.  The predictor must map each row of its
    (rows, d) input to one value independently of the other rows.
    The chunks, their seeds and the order of the sums are those of a
    chunk-by-chunk loop, bit for bit; only the batching differs.  Per batch
    the points are normalized in one pass and each run of equal-size chunks
    is summed in one reduction, so a call costs its normal draws and its
    predictor plus a fixed setup for the 32 chunk generators
    (harmonics.child_generators): 0.10 ms for an int seed, 0.18 ms for a
    trial's (medians of 15 x 200 calls, one core of a 2-vCPU host).
    """
    _check_integer(num_samples, "sample count", 2)
    num_samples = int(num_samples)
    rngs = child_generators(seed, MC_CHUNKS)
    base, extra = divmod(num_samples, MC_CHUNKS)
    batches: list[list[int]] = []
    rows = 0
    for c in range(MC_CHUNKS):
        size = base + (1 if c < extra else 0)
        if size == 0:
            break
        if not batches or rows + size > MC_BATCH_ROWS:
            batches.append([])
            rows = 0
        batches[-1].append(size)
        rows += size
    total = 0.0
    total_sq = 0.0
    for batch in batches:
        X = _fill_sphere(np.empty((sum(batch), target.d)), [(size, next(rngs)) for size in batch])
        err = np.asarray(predictor(X), dtype=float) - eval_target(target, X)
        sq = err * err
        lo = 0
        for size, run in itertools.groupby(batch):  # chunk sizes base + 1, then base
            count = len(list(run))
            chunks = sq[lo : lo + size * count].reshape(count, size)
            lo += size * count
            sums = np.add.reduce(chunks, axis=1).tolist()
            sums_sq = np.add.reduce(chunks * chunks, axis=1).tolist()
            for s, s2 in zip(sums, sums_sq):  # in chunk order, as Python floats
                total += s
                total_sq += s2
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

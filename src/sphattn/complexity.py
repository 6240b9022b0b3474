"""Kernel-complexity functionals, critical radii, and risk measurement.

For a non-increasing eigenvalue sequence lam of a normalized kernel matrix
(or of the integral operator, listed with multiplicity) the kernel
complexity at scale eps is

    R(eps) = sqrt( (1/n) * sum_i min(lam_i, eps^2) ).

sigma0 * R(eps) is a sub-root function of eps^2, so the fixed-point equation
sigma0 * R(eps) = eps^2 has a unique positive solution (the critical
radius) whenever R is not identically zero; it is found by bisection on the
sign of sigma0 * R(eps) - eps^2.  For a rank-r kernel the radius has the
closed form eps^2 = sigma0^2 * r / n whenever that value sits below the
smallest nonzero eigenvalue, which pins the expected risk scale r / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import as_seed_sequence, harmonic_dim, sample_sphere
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


@dataclass
class KernelSpectrum:
    """Non-increasing, non-negative eigenvalues with their normalization n."""

    eigenvalues: np.ndarray
    n: int
    source: str = "empirical"

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.size == 0:
            raise ValueError("empty spectrum")
        if np.any(lam < 0) or np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be non-negative and non-increasing")
        self.eigenvalues = lam


def empirical_spectrum(K_n: np.ndarray) -> KernelSpectrum:
    """Spectrum of a normalized gram matrix (clamped, sorted)."""
    from .kernels import gram_spectrum

    vals = gram_spectrum(K_n)
    return KernelSpectrum(eigenvalues=vals, n=vals.size, source="empirical")


def population_spectrum(d: int, ell_hat: int, n: int) -> KernelSpectrum:
    """Analytic operator spectrum: 1/N(d, k) with multiplicity N(d, k), k <= ell_hat.

    Padded with zeros past the kernel rank; generated from (d, ell_hat)
    directly, never from a large gram matrix.
    """
    if n < 1:
        raise ValueError(f"normalization count must be >= 1, got {n}")
    vals: list[float] = []
    for k in range(ell_hat + 1):
        N = harmonic_dim(d, k)
        vals.extend([1.0 / N] * N)
    lam = np.sort(np.asarray(vals))[::-1]
    if lam.size < n:
        lam = np.concatenate([lam, np.zeros(n - lam.size)])
    return KernelSpectrum(eigenvalues=lam, n=n, source="population")


def kernel_complexity(spectrum: KernelSpectrum, eps: float) -> float:
    """R(eps) = sqrt((1/n) * sum_i min(lambda_i, eps^2))."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lam = spectrum.eigenvalues
    return float(np.sqrt(np.sum(np.minimum(lam, eps**2)) / spectrum.n))


def population_complexity(d: int, ell_hat: int, n: int, eps: float) -> float:
    """Closed form over degrees: sqrt((1/n) * sum_k N(d,k) * min(1/N(d,k), eps^2))."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = 0.0
    for k in range(ell_hat + 1):
        N = harmonic_dim(d, k)
        total += N * min(1.0 / N, eps**2)
    return float(np.sqrt(total / n))


def critical_radius(complexity, sigma0: float, bracket_hi: float | None = None) -> float:
    """Smallest eps > 0 with sigma0 * R(eps) = eps^2, by bisection.

    `complexity` maps eps to R(eps) and must be sub-root (non-negative,
    non-decreasing, R(eps)/eps non-increasing), which every spectrum-derived
    R here is by construction.  Returns 0.0 for R identically zero.  The
    residual |sigma0 * R(eps) - eps^2| at the returned point is at most
    1e-12 * max(1, eps^2).
    """
    if sigma0 <= 0:
        raise ValueError(f"noise scale must be positive, got {sigma0}")

    def gap(eps: float) -> float:
        return sigma0 * complexity(eps) - eps * eps

    if complexity(1.0) == 0.0:  # R vanishes identically for a zero spectrum
        return 0.0
    lo = 1e-8
    if bracket_hi is None:
        bracket_hi = float(np.sqrt(sigma0 * complexity(1e8)) + 1.0)
    hi = bracket_hi
    if gap(hi) >= 0:
        raise ValueError("no sign change in the bracket; complexity is not sub-root?")
    # For a sub-root R the gap is positive for all small enough eps > 0;
    # shrink the lower end if the default is already past the fixed point.
    while gap(lo) <= 0:
        lo /= 16.0
        if lo < 1e-200:
            return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if abs(gap(mid)) <= 1e-12 * max(1.0, mid * mid):
            return mid
    eps = 0.5 * (lo + hi)
    if abs(gap(eps)) > 1e-12 * max(1.0, eps * eps):
        raise ArithmeticError("bisection failed to reach the fixed-point tolerance")
    return eps


def mc_risk(predictor, target: ZonalTarget, num_samples: int, seed):
    """Monte Carlo estimate of E[(predictor(x) - f*(x))^2] on fresh uniform points.

    Returns (estimate, standard_error).  Sampling is split into MC_CHUNKS
    chunks with seeds derived from `seed`, so the estimate is deterministic
    and independent of how chunks might be scheduled.
    """
    if num_samples < 2:
        raise ValueError(f"need at least 2 samples, got {num_samples}")
    seqs = as_seed_sequence(seed).spawn(MC_CHUNKS)
    base, extra = divmod(num_samples, MC_CHUNKS)
    total = 0.0
    total_sq = 0.0
    for c, seq in enumerate(seqs):
        size = base + (1 if c < extra else 0)
        if size == 0:
            continue
        X = sample_sphere(size, target.d, seq)
        err = np.asarray(predictor(X), dtype=float) - eval_target(target, X)
        sq = err * err
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

"""Kernel complexity curves and the critical-radius fixed point.

The complexity R(eps) = sqrt((1/n) sum min(lambda_i, eps^2)) is sub-root, so
sigma0 * R has a unique positive fixed point against eps^2, which
critical_radius solves exactly from the spectrum.  For a rank-r kernel with
smallest nonzero eigenvalue lambda_min the fixed point has the closed form
eps^2 = sigma0^2 * r / n whenever that lies below lambda_min; that value is
the statistical scale of the regression risk, r / n up to the noise level.
"""

import numpy as np

from sphattn import (
    critical_radius,
    cumulative_dim,
    empirical_spectrum_from_points,
    population_complexity,
    population_spectrum,
    sample_sphere,
)

d, ell_hat, n, sigma0 = 3, 2, 900, 1.0
rank = cumulative_dim(d, ell_hat)

print(f"d={d}, degrees <= {ell_hat} (rank {rank}), n={n}, sigma0={sigma0}")
print("\n eps      R_pop(eps)   min(lam, eps^2) regime")
for eps in (0.01, 0.05, 0.1, 0.3, 1.0, 3.0):
    R = population_complexity(d, ell_hat, n, eps)
    regime = "eps^2 below all eigenvalues" if eps**2 <= 1 / 5 else (
        "saturated at trace" if eps**2 >= 1 else "mixed")
    print(f" {eps:5.2f}   {R:.6f}   {regime}")

eps_pop = critical_radius(population_spectrum(d, ell_hat, n), sigma0)
print(f"\npopulation critical radius squared: {eps_pop**2:.12f}")
print(f"closed form sigma0^2 * r / n:       {sigma0**2 * rank / n:.12f}")

X = sample_sphere(n, d, seed=4)
# the gram's nonzero eigenvalues, from the p x p middle matrix of the points'
# monomials (p = 10 here) rather than an n x n eigendecomposition
spec = empirical_spectrum_from_points(X, ell_hat)
eps_emp = critical_radius(spec, sigma0)
print(f"gram-matrix critical radius squared: {eps_emp**2:.6f} (tracks the analytic value)")
print(f"  from {spec.eigenvalues.size} eigenvalues, {int((spec.eigenvalues > 1e-6).sum())} above 1e-6")

print("\nradius scales linearly in sigma0 in the low-rank regime:")
for s in (0.5, 1.0, 2.0):
    e = critical_radius(population_spectrum(d, ell_hat, 40000), s)
    print(f"  sigma0 = {s}: eps^2 = {e**2:.3e}   (sigma0^2 r / n = {s**2 * rank / 40000:.3e})")

"""Stage one: learnable channel selection by one-step gradient updates.

One gradient step on the second layer followed by one gradient step on the
channel weights produces raw per-degree scores.  For a target of degree
ell0 the score of channel k concentrates near c_k^2 / N(d, k) for k <= ell0,
while redundant channels carry only a small positive bias of order
N(d, k) * E[y^2] / n plus noise.  Thresholding at 2 * epsilon0 keeps the
informative channels and rescales them to sqrt(N(d, k)).

The bias term matters: it grows with the channel dimension N(d, k), so
recovery needs n well above N(d, L) * N(d, ell0).  The second part of the
script shows both a comfortable regime and the bias floor itself.
"""

import numpy as np

from sphattn import (
    gen_dataset,
    harmonic_dim,
    make_target,
    one_step_updates,
    sample_sphere,
    select_channels,
)

d, ell0, L, n, m, sigma0 = 5, 1, 3, 3000, 3000, 0.1
target = make_target(d, ell0, [1.0, 1.0], seed=0)
dataset = gen_dataset(target, n, sigma0, seed=1)
Q = sample_sphere(m, d, seed=2)

a1, tau_raw = one_step_updates(dataset, Q, L)  # both steps from one monomial expansion
print(f"d={d}, ell0={ell0}, L={L}, n=m={n}")
print("raw channel weights: ", np.round(tau_raw, 4))
print("ideal informative values c_k^2/N(d,k):",
      np.round([1 / harmonic_dim(d, k) for k in range(ell0 + 1)], 4))
bias = [harmonic_dim(d, k) * np.mean(dataset.y**2) / n for k in range(L + 1)]
print("predicted diagonal bias per channel:  ", np.round(bias, 4))

result = select_channels(dataset, Q, L, epsilon0=0.05)
print("\nthreshold 2*eps0 = 0.1")
print("mask:", result.mask.astype(int), " highest kept degree:", result.ell_hat)
print("finalized weights:", np.round(result.tau_final, 4))

print("\nThe redundant-channel bias floor, measured vs predicted:")
for n_big in (1000, 4000, 16000):
    ds = gen_dataset(target, n_big, sigma0, seed=3)
    _, tr = one_step_updates(ds, Q, L)
    pred = harmonic_dim(d, L) * np.mean(ds.y**2) / n_big
    print(f"  n = {n_big:6d}: tau_raw[{L}] = {tr[L]:+.4f}   bias prediction = {pred:.4f}")
print("redundant weights decay like 1/n toward zero, as the theory requires")

"""Spherical-harmonic dimension counts and Gegenbauer polynomial evaluation.

The degree-k Gegenbauer polynomial in ambient dimension d, written P_k here,
is normalized so that P_0 = 1 and P_k(1) = 1 for every k; with that
normalization |P_k(t)| <= 1 on [-1, 1], which makes the forward three-term
recurrence

    P_{k+1}(t) = ((2k + d - 2) * t * P_k(t) - k * P_{k-1}(t)) / (k + d - 2)

numerically stable without renormalization.  For d = 3 these are the classical
Legendre polynomials, for d = 2 the Chebyshev polynomials cos(k * arccos t).

The recurrence is written once, in :func:`gegenbauer_blocks`' walk: rows of a
dot-product matrix are taken in blocks of about BLOCK_ENTRIES entries, and
each degree slice is computed in place in preallocated buffers that fit in
L2 cache and handed to the caller, who contracts it before the next one.
The full stack, weighted sums, activation matrices, both one-step selection
updates and network predictions are all reductions over that walk.
"""

from __future__ import annotations

import math

import numpy as np

# Dot products of normalized vectors may exceed 1 by a few ulp; values within
# this band are clamped to [-1, 1], values outside it are rejected.
DOT_TOL = 1e-12

__all__ = [
    "DOT_TOL",
    "harmonic_dim",
    "cumulative_dim",
    "BLOCK_ENTRIES",
    "gegenbauer_all",
    "gegenbauer_blocks",
    "gegenbauer_weighted_sum",
    "gegenbauer_weighted_matrix",
    "sample_sphere",
    "as_seed_sequence",
]


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Wrap ints (or anything default_rng accepts) as a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _check_dim(d: int) -> None:
    if d != int(d) or d < 2:
        raise ValueError(f"ambient dimension must be an integer >= 2, got {d}")


def harmonic_dim(d: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics in R^d.

    Computed exactly in integer arithmetic as
    ((2*ell + d - 2) / ell) * C(ell + d - 3, d - 2) for ell >= 1, and 1 for
    ell = 0.  The division is exact; Python integers cannot overflow.
    """
    _check_dim(d)
    if ell != int(ell) or ell < 0:
        raise ValueError(f"degree must be a non-negative integer, got {ell}")
    if ell == 0:
        return 1
    num = (2 * ell + d - 2) * math.comb(ell + d - 3, d - 2)
    q, r = divmod(num, ell)
    if r != 0:  # cannot happen: the quotient is a dimension count
        raise ArithmeticError(f"non-integral harmonic dimension for d={d}, ell={ell}")
    return q


def cumulative_dim(d: int, ell: int) -> int:
    """Total dimension of all harmonic spaces of degree 0..ell inclusive.

    This is the rank of the degree-truncated kernel built from channels
    0..ell, so cumulative_dim(d, ell0) is the rank of the kernel matched to
    a degree-ell0 target.
    """
    return sum(harmonic_dim(d, k) for k in range(int(ell) + 1))


def _clamp_domain(t: np.ndarray, what: str = "argument", row0: int = 0, out=None) -> np.ndarray:
    """Clamp values within DOT_TOL of [-1, 1] into the interval; reject others.

    `row0` offsets the row index reported for a rejected entry of a block cut
    from a larger matrix; `out` clamps into a given array (t itself allowed).
    """
    # NaN compares false, so non-finite entries are caught here as well
    if t.size and not (t.min() >= -1.0 - DOT_TOL and t.max() <= 1.0 + DOT_TOL):
        idx = np.argwhere(~(np.abs(t) <= 1.0 + DOT_TOL))[0]
        val = t[tuple(idx)]
        if t.ndim:
            idx[0] += row0
        where = f" at index {tuple(int(i) for i in idx)}" if t.ndim else ""
        raise ValueError(f"{what} outside [-1, 1] tolerance band{where}: {val!r}")
    return np.clip(t, -1.0, 1.0, out=out)


# Entries per row block of a Gegenbauer walk.  The dot-product block and the
# three recurrence slices (512 KB each at this size) stay in a 4 MB L2 cache.
# Fixed, so that sums over blocks, and every report, are bit-stable.
BLOCK_ENTRIES = 1 << 16


def _degrees(t: np.ndarray, bufs: list, d: int, L: int):
    """Yield (k, P_k(t)) for k = 1..L; P_0 = 1 is left to the caller.

    P_2, P_3, ... are written in place into the three buffers in turn, so a
    yielded slice is valid only until the walk resumes.
    """
    if L < 1:
        return
    yield 1, t
    prev, cur = None, t  # degree k-1 and k; None stands for P_0 = 1
    for k in range(1, L):
        nxt = bufs[(k - 1) % 3]
        # (k + d - 2) * P_{k+1} = (2k + d - 2) * t * P_k - k * P_{k-1}
        np.multiply(t, 2 * k + d - 2, out=nxt)
        nxt *= cur
        if prev is None:
            nxt -= k
        else:
            # P_{k-1}'s own buffer from k = 3 on, a free one at k = 2
            spare = bufs[k % 3]
            np.multiply(prev, k, out=spare)
            nxt -= spare
        nxt /= k + d - 2
        prev, cur = cur, nxt
        yield k + 1, cur


def _walk(nrows: int, ncols: int, fill, d: int, L: int):
    """Row blocks of an nrows x ncols dot-product matrix with their degree slices.

    fill(lo, hi, out) returns the clamped dot products of rows lo:hi, either
    written into `out` or as a view of a matrix the caller holds.
    """
    rows = min(max(1, BLOCK_ENTRIES // max(ncols, 1)), max(nrows, 1))
    t_buf = np.empty((rows, ncols))
    bufs = [np.empty((rows, ncols)) for _ in range(0 if L < 2 else 1 if L == 2 else 3)]
    for lo in range(0, nrows, rows):
        hi = min(lo + rows, nrows)
        t = fill(lo, hi, t_buf[: hi - lo])
        yield slice(lo, hi), _degrees(t, [b[: hi - lo] for b in bufs], d, L)


def _check_degree(L: int) -> None:
    if L != int(L) or L < 0:
        raise ValueError(f"maximum degree must be a non-negative integer, got {L}")


def gegenbauer_blocks(A, B, d: int, L: int):
    """Walk P_k(A @ B.T) in cache-sized row blocks; the one Gegenbauer primitive.

    Yields (rows, degrees) per block of max(1, BLOCK_ENTRIES // len(B)) rows
    of A, where `rows` is the slice of A's rows covered and `degrees` yields
    (k, P_k(A[rows] @ B.T)) for k = 1..L; P_0 = 1 is not yielded.  Every dot
    product is checked against the [-1, 1] tolerance band before use.  The
    slices live in buffers reused in place, so a caller consumes each slice
    before asking for the next; no array larger than one block is allocated.
    """
    _check_dim(d)
    _check_degree(L)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"need two matrices with equal row length, got {A.shape} and {B.shape}")

    def fill(lo, hi, out):
        np.matmul(A[lo:hi], B.T, out=out)
        return _clamp_domain(out, "dot product", row0=lo, out=out)

    return _walk(A.shape[0], B.shape[0], fill, d, L)


def _given_blocks(t: np.ndarray, d: int, L: int):
    """The walk over an already clamped array of any shape, viewed as rows."""
    t2 = t.reshape((math.prod(t.shape[:-1]), t.shape[-1]) if t.ndim >= 2 else (t.size, 1))
    return t2, _walk(t2.shape[0], t2.shape[1], lambda lo, hi, out: t2[lo:hi], d, L)


def gegenbauer_all(t, d: int, L: int) -> np.ndarray:
    """Evaluate P_0(t), ..., P_L(t) by the forward recurrence.

    Parameters
    ----------
    t : scalar or ndarray with values in [-1, 1] (up to a 1e-12 tolerance)
    d : ambient dimension, >= 2
    L : maximum degree, >= 0

    Returns
    -------
    ndarray of shape (L + 1,) + shape(t); entry [k] is P_k evaluated at t.
    A matrix of pairwise dot products gives the stack of P_k applied
    entrywise, and every slice keeps the symmetry of a symmetric input.
    Work is linear in L.
    """
    _check_dim(d)
    _check_degree(L)
    t = _clamp_domain(np.asarray(t, dtype=float))
    out = np.empty((L + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    t2, blocks = _given_blocks(t, d, L)
    flat = out.reshape((L + 1,) + t2.shape)
    for rows, degrees in blocks:
        for k, P in degrees:
            flat[k, rows] = P
    return out


def _weighted_sum(blocks, out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fill out[rows] = sum_k w[k] * P_k block by block; zero weights skipped."""
    scratch = None
    for rows, degrees in blocks:
        acc = out[rows]
        acc[...] = w[0]
        for k, P in degrees:
            if w[k] != 0.0:
                if scratch is None:
                    scratch = np.empty(P.shape)
                tmp = scratch[: P.shape[0]]
                np.multiply(P, w[k], out=tmp)
                acc += tmp
    return out


def _check_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d sequence")
    return w


def gegenbauer_weighted_sum(G, d: int, weights) -> np.ndarray:
    """Evaluate sum_k weights[k] * P_k(G) entrywise without storing the stack.

    Runs :func:`gegenbauer_all`'s recurrence over cache-sized row blocks of
    G, so memory beyond the output is a few blocks for any number of
    degrees.  Used for kernel values at given dot products.
    """
    _check_dim(d)
    w = _check_weights(weights)
    G = _clamp_domain(np.asarray(G, dtype=float), what="dot product")
    t2, blocks = _given_blocks(G, d, w.size - 1)
    return _weighted_sum(blocks, np.empty(t2.shape), w).reshape(G.shape)


def gegenbauer_weighted_matrix(A, B, d: int, weights) -> np.ndarray:
    """The matrix sum_k weights[k] * P_k(A @ B.T), built block by block.

    Only the output is allocated at full size; the dot products are formed
    one row block at a time.
    """
    w = _check_weights(weights)
    blocks = gegenbauer_blocks(A, B, d, w.size - 1)
    return _weighted_sum(blocks, np.empty((len(A), len(B))), w)


def sample_sphere(n: int, d: int, seed) -> np.ndarray:
    """Draw n points uniformly on the unit sphere in R^d.

    Standard-normal rows are normalized to unit length.  A zero-norm draw
    (probability zero, but possible with a pathological generator state) is
    redrawn.  Identical (seed, n, d) reproduce the matrix bit for bit; `seed`
    may be anything accepted by numpy's default_rng.
    """
    _check_dim(d)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1)
    while np.any(norms == 0.0):
        zero = norms == 0.0
        X[zero] = rng.standard_normal((int(np.sum(zero)), d))
        norms = np.linalg.norm(X, axis=1)
    return X / norms[:, None]

"""Spherical-harmonic dimension counts and Gegenbauer polynomial evaluation.

The degree-k Gegenbauer polynomial in ambient dimension d, written P_k here,
is normalized so that P_0 = 1 and P_k(1) = 1 for every k; with that
normalization |P_k(t)| <= 1 on [-1, 1], which makes the forward three-term
recurrence

    P_{k+1}(t) = ((2k + d - 2) * t * P_k(t) - k * P_{k-1}(t)) / (k + d - 2)

numerically stable without renormalization.  For d = 3 these are the classical
Legendre polynomials, for d = 2 the Chebyshev polynomials cos(k * arccos t).

Two evaluation routes share this module.  The walk, :func:`gegenbauer_blocks`,
holds the one copy of the recurrence on values: rows of a dot-product matrix
are taken in blocks of about BLOCK_ENTRIES entries, and each degree slice is
computed in place in preallocated buffers that fit in L2 cache and handed to
the caller, who contracts it before the next one.  The full stack, weighted
sums and activation matrices reduce over that walk, and it is the fallback
and the test oracle of the degree projections below.

The monomial expansion runs the same recurrence on coefficient vectors
(:func:`_gegenbauer_coefficients`), so that P_k(t) = sum_j C[k, j] t^j, and
expands each power of a dot product by the multinomial theorem,
<a, b>^j = sum_{|alpha| = j} w_alpha a^alpha b^alpha.  Sums over pairs then
split into sums over the rows of each side.  The degree projections
V[k, r] = sum_i P_k(<a_r, b_i>) w_i (:func:`_degree_projections`), which
give stage one its one-step updates and the network its predictions, come
from sums (:func:`_power_sums`) that split each power in half, <a, b>^j =
<a, b>^ceil(j/2) <a, b>^floor(j/2), so that one Gram matrix of the
monomials of degree <= ceil(L/2) against those of degree <= floor(L/2)
serves every degree: two GEMMs at O((len(A) + len(B)) * p_h * p_l), with
p_h = C(ceil(L/2) + d, d) (45 at d = 8, L = 4).  The other users take all p
monomials of the kept degrees, and meet in a p x p middle matrix: stage
two and the kernel gap's paired kernel (:func:`_paired_kernel`) read the
Gram of the directions' monomials (:func:`_middle_matrix`), which a
training trial forms once for both, and stage two and the population
gram's spectrum (:func:`_gram_eigenvalues`) the QR of the points'
monomials (:func:`_points_qr`).  Everything the expansion
decides lives here: both routes of the degree projections and of the
paired kernel, the rule that prices the degree projections' expansion
against the walk, the tolerance _FACTOR_RTOL and the three rounding bounds
compared with it, derived above it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The two input tolerances.  A row passes the unit check
# (kernels._require_unit_rows) when its norm is within UNIT_TOL of 1; the
# check divides the rows farther than DOT_TOL / 4 from norm 1 by their norms
# and leaves the others as they are.  Dot products handed to the walk may
# exceed 1 by rounding; values within DOT_TOL are clamped to [-1, 1], values
# outside it are rejected.  No route screens the dot products of two checked
# rows, because they cannot leave the band for d up to 2248.  With
# u = 2^-53 the computed norm of a d-vector is off by at most (d/2 + 2) u
# relative, so a kept row has true norm at most 1 + DOT_TOL / 4 + (d/2 + 2) u,
# and a divided one 1 + (d/2 + 3) u.  A computed d-term dot product, in any
# order of summation, differs from the exact one by at most gamma_d |a| |b|,
# gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 3), so by Cauchy-Schwarz |fl<a, b>| <= 1 + DOT_TOL / 2
# + (2d + 6) u up to second-order terms: inside the band while (2d + 6) u <=
# DOT_TOL / 2, that is d <= 2248.  Every experiment configuration in this
# repository has d <= 8; the tests reach d = 1200.
DOT_TOL = 1e-12
UNIT_TOL = 1e-8

__all__ = [
    "harmonic_dim",
    "cumulative_dim",
    "gegenbauer_all",
    "gegenbauer_blocks",
    "gegenbauer_weighted_sum",
    "gegenbauer_weighted_matrix",
    "sample_sphere",
]


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """The seed as a SeedSequence: None, an int, a sequence of ints or a SeedSequence (as is).

    A Generator or BitGenerator, which default_rng takes, holds no entropy to
    derive children from, and raises TypeError, as any other type does.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(seed)
    except TypeError:
        raise TypeError("seed must be None, an int, a sequence of ints or a SeedSequence, "
                        f"not {type(seed).__name__}") from None


# SeedSequence's hash constants.  NumPy's compatibility policy (NEP 19) keeps
# SeedSequence's output fixed, and the tests pin child_generators' words
# against SeedSequence.spawn.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = start..start + count: count hashmix steps' multipliers."""
    ks = range(start, start + count + 1)
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in ks], dtype=np.uint64)


def _hashmix(value, h, h_next):
    """SeedSequence's hashmix step on uint64 arrays of 32-bit words."""
    value = (value ^ h) * h_next & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of two uint64 arrays of 32-bit words."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _word_count(x) -> int:
    """The number of 32-bit words SeedSequence makes of a valid entropy or spawn key."""
    if isinstance(x, np.ndarray) and x.dtype == np.uint32:
        return x.size
    if isinstance(x, str):  # the strings SeedSequence accepts: "0x" hex or decimal
        x = int(x, 16) if x.startswith("0x") else int(x)
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_word_count(v) for v in x)


@functools.cache
def _state_words_type() -> type:
    """The ISeedSequence that hands PCG64 one child's generate_state(4, uint64) words.

    Made on first use: NumPy loads numpy.random only when something draws,
    and importing it with this module would add about 20 ms to
    `import sphattn`.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds generate_state(4, uint64) only, not ({n_words}, {dtype})")
            return self.words

    return StateWords


def child_generators(seed, count: int):
    """Yield default_rng(child) for the next `count` children of the seed, without spawning.

    With seq = as_seed_sequence(seed) and k = seq.n_children_spawned, child i
    is SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (k + i,),
    pool_size=seq.pool_size), the i-th of seq.spawn(count); its generator
    draws the same numbers, but seq is not advanced, so a second call yields
    the same generators again.  A child's entropy words are seq's entropy
    padded with zeros to the pool, seq's spawn key and the child index.
    SeedSequence mixes words into the pool in order, pool_size hash steps
    each, and hashes 0 for those short entropy lacks, so seq.pool is every
    child's pool before its last word; only that word's mixing and
    generate_state(4, uint64) run here, as array operations over all
    children.  Generators are built one at a time, as they are asked for.
    """
    seq = as_seed_sequence(seed)
    first, pool_size = seq.n_children_spawned, seq.pool_size
    if first + count > 1 << 32:
        raise ValueError(f"child index {first + count - 1} does not fit one 32-bit word")
    shared = max(_word_count(seq.entropy), pool_size) + _word_count(seq.spawn_key)
    h = _hash_constants(_INIT_A, _MULT_A, pool_size * shared, pool_size)
    # the child index, mixed into every pool word: (count, pool_size)
    index = np.arange(first, first + count, dtype=np.uint64)[:, None]
    pools = _mix(seq.pool.astype(np.uint64), _hashmix(index, h[:-1], h[1:]))
    # generate_state(4, uint64): 8 words cycling over the pool, paired low word first
    h = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    state = _hashmix(pools[:, np.arange(8) % pool_size], h[:-1], h[1:])
    state = state.astype("<u4", order="C").view("<u8").astype(np.uint64)
    state_words = _state_words_type()
    for child in state:
        yield np.random.Generator(np.random.PCG64(state_words(child)))


def _check_integer(value, what: str, least: int = 0) -> None:
    """Reject a value that is not an integer >= least; 2.0 passes, 2.5, nan, inf and True do not."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and value == int(value) and value >= least
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{what} must be an integer >= {least}, got {value}")


def _check_range(value, what: str, zero_ok: bool = False) -> None:
    """Reject a value outside 0 < value < inf, or 0 <= value < inf with zero_ok; nan is outside."""
    if not ((0 <= value if zero_ok else 0 < value) and value < math.inf):
        bound = ">= 0" if zero_ok else "positive"
        raise ValueError(f"{what} must be {bound} and finite, got {value}")


def _check_dim(d: int) -> None:
    _check_integer(d, "ambient dimension", 2)


def harmonic_dim(d: int, ell: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics in R^d.

    Computed exactly in integer arithmetic as
    ((2*ell + d - 2) / ell) * C(ell + d - 3, d - 2) for ell >= 1, and 1 for
    ell = 0.  The division is exact; Python integers cannot overflow.
    """
    _check_dim(d)
    _check_integer(ell, "degree")
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
    _check_integer(ell, "degree")
    return sum(_dims(d, int(ell)).tolist())  # Python ints, which cannot overflow


@functools.cache
def _dims(d: int, L: int) -> np.ndarray:
    """N(d, k) for k = 0..L, read-only and cached: the one vector of harmonic_dim's values.

    Integer; past the int64 range NumPy stores exact Python ints instead.
    """
    dims = np.array([harmonic_dim(d, k) for k in range(L + 1)])
    dims.flags.writeable = False
    return dims


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


def _block_rows(nrows: int, ncols: int) -> int:
    """Rows per block of a walk over an nrows x ncols matrix."""
    return min(max(1, BLOCK_ENTRIES // max(ncols, 1)), max(nrows, 1))


def _walk(nrows: int, ncols: int, fill, d: int, L: int):
    """Row blocks of an nrows x ncols dot-product matrix with their degree slices.

    fill(lo, hi, out) returns the clamped dot products of rows lo:hi, either
    written into `out` or as a view of a matrix the caller holds.
    """
    rows = _block_rows(nrows, ncols)
    t_buf = np.empty((rows, ncols))
    bufs = [np.empty((rows, ncols)) for _ in range(0 if L < 2 else 1 if L == 2 else 3)]
    for lo in range(0, nrows, rows):
        hi = min(lo + rows, nrows)
        t = fill(lo, hi, t_buf[: hi - lo])
        yield slice(lo, hi), _degrees(t, [b[: hi - lo] for b in bufs], d, L)


def _as_pair(A, B) -> tuple:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"need two matrices with equal row length, got {A.shape} and {B.shape}")
    return A, B


def _dot_fill(A: np.ndarray, B: np.ndarray):
    """fill(lo, hi, out) for the walk: A[lo:hi] @ B.T in `out`, band-checked and clamped."""

    def fill(lo, hi, out):
        np.matmul(A[lo:hi], B.T, out=out)
        return _clamp_domain(out, "dot product", row0=lo, out=out)

    return fill


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
    _check_integer(L, "maximum degree")
    A, B = _as_pair(A, B)
    return _walk(A.shape[0], B.shape[0], _dot_fill(A, B), d, L)


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
    _check_integer(L, "maximum degree")
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
    if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
        raise ValueError("weights must be a non-empty 1-d sequence of finite numbers")
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


@functools.cache
def _gegenbauer_coefficients(d: int, L: int) -> np.ndarray:
    """C[k, j], the coefficient of t^j in P_k(t), for k, j = 0..L; read-only and cached.

    The three-term recurrence run on coefficient vectors; C is lower
    triangular and P_k has only powers of the parity of k.
    """
    C = np.zeros((L + 1, L + 1))
    C[0, 0] = 1.0
    if L >= 1:
        C[1, 1] = 1.0
    for k in range(1, L):
        # (k + d - 2) * P_{k+1} = (2k + d - 2) * t * P_k - k * P_{k-1}
        C[k + 1, 1:] = (2 * k + d - 2) * C[k, :-1]
        C[k + 1] -= k * C[k - 1]
        C[k + 1] /= k + d - 2
    C.flags.writeable = False
    return C


def _power_coefficients(d: int, tau: np.ndarray) -> np.ndarray:
    """g with sum_k tau_k P_k(t) = sum_j g_j t^j."""
    return tau @ _gegenbauer_coefficients(d, tau.size - 1)


def _monomial_count(d: int, j: int) -> int:
    """Number of degree-j monomials in d variables, C(j + d - 1, d - 1)."""
    return math.comb(j + d - 1, d - 1)


@functools.lru_cache(maxsize=None)
def _monomial_table(d: int, j: int) -> tuple:
    """The degree-j monomials in d variables as (weight, alpha), one per row.

    For v = 0..d-1 in turn, the degree-(j-1) monomials in the variables 0..v,
    which are the first _monomial_count(v + 1, j - 1) of their own order,
    each times x_v.
    So the monomials in the variables 0..v again come first, and each
    exponent vector comes once.  weight = j! / prod(alpha!) is the
    multinomial coefficient.
    """
    if j == 0:
        return np.ones(1), np.zeros((1, d), np.intp)
    prev = _monomial_table(d, j - 1)[1]
    parts = []
    for v in range(d):
        part = prev[: _monomial_count(v + 1, j - 1)].copy()
        part[:, v] += 1
        parts.append(part)
    alpha = np.concatenate(parts)
    fact = math.factorial(j)
    weight = np.array(
        [fact // math.prod(math.factorial(e) for e in row) for row in alpha.tolist()],
        dtype=float,
    )
    return weight, alpha


def _monomial_powers(At: np.ndarray, J: int, out=None) -> np.ndarray:
    """M[i] = prod_l At[l] ** alpha_i[l] for the monomials alpha_i of degrees 0..J.

    At holds one point per column (d x cols).  M has C(J + d, d) rows: the
    degree-j monomials in _monomial_table's order, stacked by degree from
    row C(j - 1 + d, d), so the block of degree-j rows that ends in x_v is a
    leading slice of the degree-(j - 1) rows times x_v, itself row 1 + v.
    With `out`, a flat array of at least C(J + d, d) * cols entries, M is a
    view of it.
    """
    d, cols = At.shape
    rows = math.comb(J + d, d)
    M = np.empty((rows, cols)) if out is None else out[: rows * cols].reshape(rows, cols)
    M[0] = 1.0
    if J >= 1:
        M[1 : d + 1] = At
    prev, lo = 1, d + 1  # first rows of degrees j - 1 and j
    for j in range(2, J + 1):
        hi, k = lo, 1  # k = C(j - 1 + v, v), the degree-(j - 1) monomials in x_0..x_v
        for v in range(d):
            np.multiply(M[prev : prev + k], M[1 + v], out=M[hi : hi + k])
            hi += k
            k = k * (j + v) // (v + 1)
        prev, lo = lo, hi
    return M


def _half_degrees(L: int) -> tuple:
    """(h, l) = (ceil(L / 2), floor(L / 2)): t^j = t^ceil(j / 2) * t^floor(j / 2)."""
    return (L + 1) // 2, L // 2


def _expansion_width(d: int, L: int) -> int:
    """Points per block of :func:`_power_sums`: about BLOCK_ENTRIES / 2 monomial values."""
    return max(1, BLOCK_ENTRIES // (2 * math.comb(_half_degrees(L)[0] + d, d)))


def _power_sums(A, B, y, L: int) -> np.ndarray:
    """u[j, r] = sum_i <a_r, b_i>^j * y_i for j = 0..L, without forming A @ B.T.

    Half-degree Gram products: <a, b>^j = <a, b>^c <a, b>^f with
    c = ceil(j / 2) and f = floor(j / 2), and <a, b>^k = sum_{|alpha| = k}
    w_alpha a^alpha b^alpha.  With phi(x) the monomials of x of degrees
    0..h, h = ceil(L / 2) (p_h = C(h + d, d) of them), and phi_l(x) its
    leading p_l = C(l + d, d) rows (degrees 0..l, l = floor(L / 2)), one
    pass over blocks of B's rows accumulates the blocks G[c, f] of the
    p_h x p_l Gram sum_i y_i phi(b_i) phi_l(b_i)^T that the sums read:
    degree c against its partner degrees f = c - 1 and f = c, up to l, so
    at L = 4 the (0, 1), (0, 2), (1, 2) and (2, 0) blocks are never formed.
    The weights are folded in once after that pass, G[c, f] w_c w_f^T, and
    one pass over blocks of A's rows gives u[j, r] = phi(a_r)_c^T G[c, f]
    phi(a_r)_f on the degree-c and degree-f blocks.  Both are GEMMs, at
    most (len(A) + len(B)) p_h p_l multiply-adds in all.  Each block holds
    about BLOCK_ENTRIES / 2 monomial values, in buffers reused in place, so
    memory grows with neither len(A) nor len(B) beyond u itself.  At L <= 1
    the monomials are 1 and the coordinates, and the same sums are
    u[0] = sum_i y_i and u[1] = A @ (B.T @ y), the last one row at a time
    (einsum), so that, unlike BLAS, it gives each row the value it gives
    alone.  The caller checks the rows (kernels._require_unit_rows) and the
    accuracy (:func:`_expansion_error`).
    """
    A, B = _as_pair(A, B)
    if L <= 1:
        u = np.empty((L + 1, len(A)))
        u[0] = np.sum(y)
        if L == 1:
            np.einsum("ij,j->i", A, B.T @ y, out=u[1])
        return u
    d = A.shape[1]
    h, l = _half_degrees(L)
    start = [math.comb(k + d - 1, d) for k in range(h + 2)]  # first row of degree k
    ph, pl = start[h + 1], start[l + 1]
    # per degree c: its rows, its partner degrees f = c - 1 and c up to l, and their columns
    spans = []
    for c in range(h + 1):
        fs = range(max(c - 1, 0), min(c, l) + 1)
        spans.append((slice(start[c], start[c + 1]), fs, slice(start[fs[0]], start[fs[-1] + 1])))
    width = min(_expansion_width(d, L), max(len(A), len(B), 1))
    mono, part = np.empty(ph * width), np.empty(ph * width)

    def blocks(P):
        for lo in range(0, len(P), width):
            cols = slice(lo, lo + width)
            yield cols, _monomial_powers(P[cols].T, h, mono)

    G = np.zeros((ph, pl))
    for cols, M in blocks(B):
        My = np.multiply(M[:pl], y[cols], out=part[: pl * M.shape[1]].reshape(pl, -1))
        for rows, _, partners in spans:
            G[rows, partners] += M[rows] @ My[partners].T  # phi_l(b): phi(b)'s leading rows
    w = np.concatenate([_monomial_table(d, j)[0] for j in range(h + 1)])
    G *= w[:, None]
    G *= w[:pl]
    u = np.empty((L + 1, len(A)))
    for cols, M in blocks(A):
        k = M.shape[1]
        for c, (rows, fs, partners) in enumerate(spans):
            lo, hi = partners.start, partners.stop
            W = np.matmul(G[rows, partners].T, M[rows],
                          out=part[: (hi - lo) * k].reshape(hi - lo, k))
            for f in fs:
                np.einsum("ij,ij->j", W[start[f] - lo : start[f + 1] - lo],
                          M[start[f] : start[f + 1]], out=u[c + f, cols])
    return u


# --- the expansion's users, tolerance and rounding bounds ----------------------
#
# sigma_tau(t) = sum_k tau_k P_k(t) = sum_j g_j t^j, g = tau @ C
# (_power_coefficients), has four users.  Each takes the expansion only where
# an a-priori bound on its rounding error is at most _FACTOR_RTOL, and else
# the Gegenbauer walk, which shares no code with it.  Over the degrees j with
# g_j != 0, p = _factor_width(d, g) monomials in all, the feature matrix
# factors as Z = U @ F^T with U[r, (j, alpha)] = g_j w_alpha q_r^alpha /
# sqrt(m) and F[i, (j, alpha)] = x_i^alpha, so every pair sum goes through the
# p x p middle matrix M = U^T U = S (Phi Phi^T) S / m of the directions'
# monomials Phi and S = diag(g_j w_alpha) (_monomial_scale, _middle_matrix);
# U itself, m x p, is never formed.  The users:
# - the degree projections V = C @ u, u from _power_sums (stage one's, and
#   predict's with the two sides swapped);
# - the kernel gap, (1/m) sum_r sigma_tau(<x_a, q_r>) sigma_tau(<x_b, q_r>)
#   = v_a^T M v_b (_paired_kernel);
# - stage two's kernel Z^T Z = F M F^T: with the thin QR F = QF R of the
#   points' monomials (_points_qr), its nonzero eigenpairs are those of the
#   p x p matrix R M R^T, on which training._try_factor runs GD in closed form;
# - the spectrum of the population gram K / n, K = sum_{k <= L} P_k(X X^T),
#   tau = 1: K = F D F^T with D = diag(g_j w_alpha), so its nonzero
#   eigenvalues are those of R D R^T / n, R from the same QR
#   (_gram_eigenvalues).  D is indefinite where g is (g = [0.875, -0.5,
#   -2.25, 2.5, 4.375] at d = 3, L = 4), R D R^T is not: K is PSD.  As m grows
#   M tends to D, so the m = infinity trainer is stage two's with D for M.
# The bounds are first order in the unit roundoff u = eps / 2 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3 and
# 19), with L the top degree, and share three facts:
# - mass: sum_{|alpha| = j} w_alpha |x^alpha q^alpha| = (sum_l |x_l q_l|)^j
#   <= rho^j, rho = |x| |q| (1 for unit rows), so the terms the expansion
#   adds up have absolute values of at most sum_j Gbar_j rho^j, with the
#   coefficient mass Gbar = |tau| @ |C| (_coefficient_mass); the walk's
#   value is at most sum_k |tau_k|, as |P_k| <= 1;
# - coefficients: the two terms of the recurrence on coefficient vectors have
#   the same sign in every coefficient (that of t^(k+1-2i) is (-1)^i in both),
#   so three roundings per step leave each C[k, j] within 3 L u of itself,
#   and g = tau @ C within (4 L + 1) u Gbar_j;
# - monomials: x^alpha takes j - 1 products.
# Per use:
# - the degree projections (_expansion_error), relative to ||y||_1, which
#   bounds |V|; written for stage one's sides, and the same with them swapped.
#   _power_sums gives u[j, r] = sum_{beta, gamma} q_r^beta
#   (w_beta G[beta, gamma] w_gamma) q_r^gamma, with G[beta, gamma] = sum_i y_i
#   x_i^beta x_i^gamma, over the monomials beta of degree c = ceil(j / 2) and
#   gamma of degree f = floor(j / 2).  Its terms w_beta w_gamma y_i
#   (x_i q_r)^beta (x_i q_r)^gamma have absolute values adding up to at most
#   rho^j ||y||_1 (the mass fact at degrees c and f).  Each term takes n
#   roundings in G's sum and fewer than p_h p_l in the contraction, which
#   adds up fewer terms than that, in whatever order (at L <= 1, B.T @ y is
#   G and the product with A the contraction); p_k = C(k + d, d)
#   counts the monomials of degree <= k, h = ceil(L / 2), l = floor(L / 2).
#   eps = 2u covers the O(L) products and the L + 1 terms of V = C @ u, so
#   V[k] is within (n + p_h p_l) eps G ||y||_1, G = max_k sum_j |C[k, j]|
#   rho^j (the mass of each tau = e_k).  The walk's n-point sum rounds
#   alike, so it counts as one term: (1 + p_h p_l) eps G, whatever n;
#   1.3e-12 at the criterion-5 shape (d = 8, L = 4, p_h = p_l = 45,
#   G = 2.9), 2e-11 at d = 20, L = 4.  Chebyshev coefficients grow like
#   (1 + sqrt(2))^L, so d = 2 walks from L = 10 on (3.3e-10).
# - the kernel gap (_kernel_error), relative to (sum_k |tau_k|)^2.  The terms
#   add up to at most (sum_j Gbar_j)^2, and each takes 4 L + 2 roundings in
#   each scale g_j w_alpha (covering g), L - 1 in each monomial of q and of
#   x, one product and the m-term sum in the Gram (which the walk makes too,
#   counted as one), the quotient by m and two products scaling it, 2
#   products and two p-term contractions, 12 L + 7 + 2 p in all, so the
#   bound is (p + 6 L + 4) eps (sum_j Gbar_j / sum_k |tau_k|)^2: 4e-15 at
#   the sweep shape, 5e-13 at d = 8, L = 4, and with oracle channels above
#   _FACTOR_RTOL from degree 8 at d = 2..6 and 7 at d = 8.
# - the two spectra (_spectrum_error), on each eigenvalue of F W F^T / n with
#   the middle matrix W = D (the population gram, tau = 1) or W = M (stage
#   two's kernel), relative to (sum_k |tau_k|)^e, which bounds the kernel's
#   diagonal: e = 1 for D (the trace L + 1, as each P_k(1) = 1) and e = 2
#   for M (|sigma_tau| <= sum_k |tau_k|, squared).  Weyl's inequality moves
#   each eigenvalue by at most ||dK||_2 / n <= max_ik |dK_ik| for a
#   perturbation dK of the kernel matrix, and the factors perturb it in four
#   places, each within a multiple of Gsum^e, Gsum = sum_{j kept} Gbar_j
#   rho^j.  First, the entries: for D, x^alpha takes j - 1 products on each
#   side and D_(j, alpha) (4 L + 2) u Gbar_j w_alpha, so by the mass fact
#   every entry of F D F^T is within 6 L u Gsum of K's; for M, the kernel
#   gap's terms less its contraction (2 + 2 p), 12 L + 5 u Gsum^2.  Second,
#   the QR: the computed R is the exact factor of F + E for an orthonormal
#   QF, with ||E e_c|| <= eta ||F e_c|| column by column (Higham, Theorem
#   19.4), so R W R^T has the nonzero eigenvalues of (F + E) W (F + E)^T.
#   That differs from F W F^T by at most (2 eta + eta^2) n Gsum^e in norm:
#   for D, with S = |D|^(1/2), ||F S||_F^2 = sum_i sum_j |g_j| |x_i|^(2 j)
#   <= n Gsum (the mass fact with x' = x); for M = U^T U, ||E U^T||_F <= eta
#   sum_c ||F e_c|| ||U e_c|| <= eta sqrt(n) Gsum by Cauchy-Schwarz on the
#   same sum over the points and its like over the directions, and
#   ||F U^T||_F = ||Z||_F <= sqrt(n) Gsum.  The worst case eta = gamma(n p)
#   grows with n and would send large n back to the n x n route that the
#   factors avoid; the bound takes the probabilistic size sqrt(n p) u of
#   Higham & Mary (SIAM J. Sci. Comput. 41, 2019), not a worst case.  On
#   d = 3..8, L = 2..4 and n = 1e3..4e5 the columnwise residual of numpy's QR
#   stayed below 7 eps and the loss of orthogonality below 83 eps, against
#   sqrt(n p) u = 50..2100 eps.  Third, forming R W R^T / n rounds each entry
#   within p + 2 (D) or 2 p + 1 (M) u of the same sum in absolute values, a
#   matrix of norm at most Gsum^e (||R S||_F^2 / n for D, and for M, as
#   |U^T U| <= |U|^T |U|, (sum_c ||R e_c|| ||U e_c||)^2 / n).  Fourth, eigh
#   and eigvalsh are backward stable: their values are exact for a matrix
#   within c u ||R W R^T / n||_2 <= c u Gsum^e, with c taken as p.  Together,
#   to first order, (sqrt(n p) + e (p + 3 L + 2) - 1) eps (Gsum / sum_k
#   |tau_k|)^e, which for M rounds 12 L + 3 p + 6 u up to 12 L + 4 p + 6.
#   For D: 2.4e-14 at the complexity-curve job (d = 3, L = 2, n = 400),
#   1.4e-13 at n = 20000, 4.3e-13 at d = 8, L = 4, n = 1000.  For M, with
#   oracle channels: 1.8e-14 to 5.8e-14 at the sweep shapes (d = 6, L = 1,
#   n = 500..8000), 1.8e-12 at d = 8, L = 4, n = 1000.  The mass is squared,
#   so at n = 8000 stage two keeps its factors up to degree 6 at every
#   d = 2..8 and takes the m x n matrix from degree 7 (at n = 400, from
#   degree 8 at d = 3, 4; at n = 20000, from 6 at d = 2).  The mass grows
#   fastest at small d (like (1 + sqrt(2))^L at d = 2), and for D at
#   d = 2..4 the bound exceeds _FACTOR_RTOL from degree 12 at n = 400 and
#   from degree 10 at n = 20000.  Rows off the sphere move the population gram's
#   eigenvalues further, which its PSD check adds: the kernel on x_i / |x_i|
#   is PSD, and K differs from it by at most sum_j Gbar_j ((1 + delta)^j - 1)
#   per entry, delta = max_i ||x_i|^2 - 1|.  Z^T Z is PSD on any rows, so
#   stage two's negative eigenvalues are rounding, within the bound, and are
#   clipped to 0.

# Users read it here at call time, so one patch reaches all of them.
_FACTOR_RTOL = 1e-10

_EPS = np.finfo(float).eps


def _kept_degrees(d: int, g: np.ndarray) -> tuple:
    """(J, counts): the degrees j with g_j != 0 and their numbers of monomials."""
    J = np.flatnonzero(g)
    return J, [_monomial_count(d, int(j)) for j in J]


def _factor_width(d: int, g: np.ndarray) -> int:
    """Number of monomials x^alpha over the degrees j with g_j != 0."""
    return sum(_kept_degrees(d, g)[1])


def _kept_monomials(P: np.ndarray, J: list) -> np.ndarray:
    """The monomials p_i^alpha of the rows of P over the degrees J, one per row (p x len(P))."""
    M = _monomial_powers(P.T, J[-1] if J else 0)
    if J and J == list(range(len(J))):  # every degree up to the top: all of M, uncopied
        return M
    d = P.shape[1]  # else only the rows of the degrees J
    rows = [np.arange(math.comb(j - 1 + d, d), math.comb(j + d, d)) for j in J]
    return M[np.concatenate(rows + [np.zeros(0, int)])]


def _monomial_scale(d: int, g: np.ndarray) -> np.ndarray:
    """g_j w_alpha over the p kept monomials (g_j != 0), in _kept_monomials' order."""
    J = np.flatnonzero(g)
    return np.concatenate([g[j] * _monomial_table(d, j)[0] for j in J] + [np.zeros(0)])


def _middle_matrix(Q: np.ndarray, g: np.ndarray) -> tuple:
    """The directions' side of the factors: (Phi, scale, M), see above.

    Phi holds the p kept monomials of Q's rows (_kept_monomials, one row per
    monomial, one column per direction), scale = diag(S) = g_j w_alpha
    (_monomial_scale), and M = S (Phi Phi^T) S / m is U^T U, p x p, from
    Phi's Gram.  So U @ c = Phi.T @ (scale * c) / sqrt(m).
    """
    m, d = Q.shape
    Phi = _kept_monomials(Q, np.flatnonzero(g).tolist())
    scale = _monomial_scale(d, g)
    M = Phi @ Phi.T
    M *= scale[:, None] / m
    M *= scale
    return Phi, scale, M


def _points_qr(X: np.ndarray, J: list, *columns) -> np.ndarray:
    """R of the thin QR [F, columns] = Q @ R, F the kept monomials of X's rows (n x p).

    np.linalg.qr(mode="r"); with no columns, F = QF @ R.  Appended columns
    go through the same Householder reflectors, so in R's first k =
    min(n, p) rows they hold QF.T @ column, and below, in a triangle, their
    parts off QF's span, whose squared norms are those rows' sums of
    squares (Golub & Van Loan, Matrix Computations, 4th ed., 2013, 5.3).
    Neither QF nor the reflectors are kept.
    """
    F = _kept_monomials(X, J).T
    return np.linalg.qr(np.column_stack([F, *columns]) if columns else F, mode="r")


def _coefficient_mass(d: int, tau: np.ndarray, rho: float = 1.0) -> np.ndarray:
    """Gbar_j rho^j with Gbar = |tau| @ |C|; tau may hold one weight vector per row."""
    L = tau.shape[-1] - 1
    return (np.abs(tau) @ np.abs(_gegenbauer_coefficients(d, L))) * rho ** np.arange(L + 1)


@functools.cache
def _expansion_error(d: int, L: int, rho: float) -> float:
    """The degree projections' bound on V, relative to ||w||_1 (see above); cached per shape."""
    G = np.max(np.sum(_coefficient_mass(d, np.eye(L + 1), rho), axis=1))
    h, l = _half_degrees(L)
    return (1 + math.comb(h + d, d) * math.comb(l + d, d)) * _EPS * float(G)


def _kernel_error(d: int, tau: np.ndarray, g: np.ndarray) -> float:
    """The kernel gap's bound on the Gram route, relative to (sum |tau|)^2 (see above)."""
    J, counts = _kept_degrees(d, g)
    if J.size == 0:
        return 0.0  # tau == 0: every route gives exactly 0
    ratio = float(np.sum(_coefficient_mass(d, tau))) / float(np.sum(np.abs(tau)))
    return (sum(counts) + 6 * int(J[-1]) + 4) * _EPS * ratio**2


def _spectrum_error(d: int, tau: np.ndarray, g: np.ndarray, n: int, e: int) -> float:
    """The bound on each eigenvalue of F W F^T / n, relative to (sum |tau|)^e (see above).

    e = 1 for the population gram's W = D (tau = 1), e = 2 for stage two's
    W = M; g holds tau's power coefficients.
    """
    J, counts = _kept_degrees(d, g)
    if J.size == 0:
        return 0.0  # tau == 0: the kernel is exactly 0
    p, L = sum(counts), tau.size - 1
    ratio = float(np.sum(_coefficient_mass(d, tau, _RHO)[J])) / float(np.sum(np.abs(tau)))
    return (math.sqrt(n * p) + e * (p + 3 * L + 2) - 1) * _EPS * ratio**e


def _gram_eigenvalues(X: np.ndarray, ell_hat: int):
    """Eigenvalues of K / n, K = sum_{k <= ell_hat} P_k(X @ X.T), from the expansion's factors.

    Returns (lam, tol): the p eigenvalues of R D R^T / n in ascending order
    (see above), of which those of K / n past the first p are zero, and the
    bound tol on how far each lies from K / n's, rounding plus the rows'
    distance from the sphere; a value below -tol shows a kernel that is not
    PSD.  Returns None, forming nothing, when the rounding bound exceeds
    _FACTOR_RTOL of the trace, or when p > n: then the QR costs more than an
    eigvalsh of K, and F holds more entries than K (measured with one BLAS
    thread at d = 6..20, ell_hat = 2..4 and p / n = 0.1..5: the factors took
    0.02 to 0.6 times the n x n route's time for p / n <= 0.62, and 1.2 to
    4.2 times from p / n = 1.05 on).  X's rows passed the unit check.
    """
    n, d = X.shape
    tau = np.ones(ell_hat + 1)
    g = _power_coefficients(d, tau)
    rtol = _spectrum_error(d, tau, g, n, 1)
    if _factor_width(d, g) > n or rtol > _FACTOR_RTOL:
        return None
    J = np.flatnonzero(g).tolist()
    R = _points_qr(X, J)
    lam = np.linalg.eigvalsh((R * _monomial_scale(d, g)) @ R.T / n)
    delta = float(np.max(np.abs(np.einsum("ij,ij->i", X, X) - 1.0)))
    grown = np.expm1(np.log1p(delta) * np.array(J))  # (1 + delta)^j - 1
    return lam, rtol * (ell_hat + 1) + float(_coefficient_mass(d, tau)[J] @ grown)


# --- which route computes V ---------------------------------------------------
#
# _degree_projections(A, B, w, L) gives V[k, r] = sum_i P_k(<a_r, b_i>) w_i.
# Stage one takes it with A = Q, B = X and w = y; predict with A = X, B = Q
# and w = a, and returns tau @ V / sqrt(m).  The rule and the bound below are
# symmetric in the two sides, so both users share them.
#
# Speed.  Both routes are priced in entries of elementwise work on one core.
# The walk costs L + 1 per dot product: the product itself, a BLAS dot whose
# cost barely moves with d, then L recurrence steps and sums against w.  The
# expansion (_power_sums) costs, per point on either side, p_h monomial values
# and p_h p_l multiply-adds in its two GEMMs, p_k = C(k + d, d),
# h = ceil(L / 2), l = floor(L / 2), plus _CALL_ENTRIES per numpy call: about
# d (h - 1) + L + 5 per block of _expansion_width(d, L) points in each pass,
# and the set-up about one block's worth more.  The call term keeps small
# inputs on the walk, and the GEMM term high d: at d = 30, L = 4,
# p_h = p_l = 496.  The weights come from timings of both routes over 545
# shapes (d = 2..30, L = 1..6, m and n = 5..4000; best of 3 or 5, one BLAS
# thread, two runs; CHANGES.md has the summary).  Fitted by least squares,
# the walk took 1.3 to 1.6 ns per dot product and degree, and the expansion
# 0.04 to 0.05 ns per multiply-add, 1.3 to 1.6 ns per monomial value and 3 to
# 3.5 us per call.  The weights below are the round values whose choices came
# closest to the faster route at every shape: on average 0.4% slower than
# it, and at most 1.5x (at 0.1 ms).  The walk's own calls (about 6 L per
# block of BLOCK_ENTRIES dot products) are left out; the call weight, half
# the fitted one, makes up for them.  At L <= 1 the expansion, a sum and two
# matrix-vector products, beat the walk at every shape timed (d = 3 and 6, 1
# to 31 points against 5 to 8000: 21 to 42 us against 33 to 60), so it is
# taken at any size, and predict's value on a row does not hang on the rows beside it.
#
# Accuracy.  The expansion is taken when _expansion_error, its a-priori bound
# relative to ||w||_1 (derived above), is at most _FACTOR_RTOL, whatever the
# number of points.  As |V[k, r]| <= ||w||_1, predict's error is within the
# same bound relative to sum_k |tau_k| ||a||_1 / sqrt(m).

# A numpy call on a small block, with the Python loop around it, net of the
# walk's own calls, in entries of elementwise work.
_CALL_ENTRIES = 1000

# A multiply-add in the expansion's GEMMs, in entries of elementwise work.
_MAC_ENTRIES = 1 / 48

# The bound's rho = max_r |a_r| * max_i |b_i| for rows that passed the unit check.
_RHO = (1.0 + UNIT_TOL) ** 2


def _expansion_is_cheaper(m: int, n: int, d: int, L: int) -> bool:
    """Whether the expansion's GEMMs, monomial values and calls cost less than the walk."""
    h, l = _half_degrees(L)
    ph, pl = math.comb(h + d, d), math.comb(l + d, d)
    width = _expansion_width(d, L)
    blocks = -(-m // width) + -(-n // width)
    calls = (blocks + 1) * (d * max(h - 1, 0) + L + 5)
    cost = (m + n) * (ph * pl * _MAC_ENTRIES + ph) + _CALL_ENTRIES * calls
    return L <= 1 or cost < m * n * (L + 1)


def _degree_projections(A, B, w, L: int) -> np.ndarray:
    """V[k, r] = sum_i P_k(<a_r, b_i>) * w_i for k = 0..L, shape (L + 1, len(A)).

    From the monomial expansion when it is cheaper and accurate (see above),
    otherwise in one blocked pass of the recurrence over the rows of A.  The
    caller checks the rows (kernels._require_unit_rows).
    """
    A, B = _as_pair(A, B)
    w = np.asarray(w, dtype=float)
    (m, d), n = A.shape, w.size
    accurate = _expansion_error(d, L, _RHO) <= _FACTOR_RTOL
    if accurate and _expansion_is_cheaper(m, n, d, L):
        return _gegenbauer_coefficients(d, L) @ _power_sums(A, B, w, L)
    V = np.empty((L + 1, m))
    V[0] = np.sum(w)  # P_0 = 1
    for rows, degrees in gegenbauer_blocks(A, B, d, L):
        for k, P in degrees:
            V[k, rows] = P @ w
    return V


def _paired_kernel(A, B, Q, tau, gram=None) -> np.ndarray:
    """Empirical kernel on paired rows: (1/m) sum_r sigma_tau(<a_i, q_r>) sigma_tau(<b_i, q_r>).

    On the middle matrix M = U^T U of the expansion's factors
    (_middle_matrix), v_a,i^T M v_b,i at O(m p^2), when _kernel_error
    allows; else by two walks over the m directions.  gram, when given, is
    that M for these Q and tau (stage two's), and the Gram route reads it
    instead of forming it again.
    """
    d = Q.shape[1]
    g = _power_coefficients(d, tau)
    if _kernel_error(d, tau, g) <= _FACTOR_RTOL:
        if gram is None:
            gram = _middle_matrix(Q, g)[2]
        V = _kept_monomials(np.concatenate([A, B]), np.flatnonzero(g).tolist())
        V_a, V_b = V[:, : len(A)], V[:, len(A) :]
        return np.einsum("ci,ci->i", V_a, gram @ V_b)
    dots_q_a = gegenbauer_weighted_sum(A @ Q.T, d, tau)
    dots_q_b = gegenbauer_weighted_sum(B @ Q.T, d, tau)
    return np.sum(dots_q_a * dots_q_b, axis=1) / Q.shape[0]


def sample_sphere(n: int, d: int, seed) -> np.ndarray:
    """Draw n points uniformly on the unit sphere in R^d.

    Standard-normal rows are normalized to unit length.  A zero-norm draw
    (probability zero, but possible with a pathological generator state) is
    redrawn.  Identical (seed, n, d) reproduce the matrix bit for bit; `seed`
    may be anything accepted by numpy's default_rng.
    """
    _check_dim(d)
    _check_integer(n, "sample count", 1)
    n = int(n)
    return _fill_sphere(np.empty((n, d)), [(n, np.random.default_rng(seed))])


def _fill_sphere(X: np.ndarray, blocks) -> np.ndarray:
    """Fill the C-contiguous (n, d) array X with uniform points on the sphere, in place.

    `blocks` lists (rows, generator) pairs whose rows sum to n; each block of
    consecutive rows of X is sample_sphere(rows, d, generator), bit for bit.
    The norms are kernels._require_unit_rows', sqrt(einsum("ij,ij->i", X, X)),
    which sums each row's squares on its own and forms no n x d temporary,
    so a row's norm does not depend on the rows beside it.  They are taken
    once over all of X, and the rows are divided in place; a zero row is
    redrawn from the generator of its block.
    """
    lo = 0
    for rows, rng in blocks:
        rng.standard_normal(out=X[lo : lo + rows])
        lo += rows
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    if not norms.all():
        lo = 0
        for rows, rng in blocks:
            block, block_norms = X[lo : lo + rows], norms[lo : lo + rows]
            while not block_norms.all():
                zero = block_norms == 0.0
                block[zero] = rng.standard_normal((int(np.sum(zero)), X.shape[1]))
                block_norms[:] = np.sqrt(np.einsum("ij,ij->i", block, block))
            lo += rows
    X /= norms[:, None]
    return X

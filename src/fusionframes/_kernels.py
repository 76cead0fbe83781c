"""Numeric kernels: Jacobi eigensolver, one-sided Jacobi SVD, xorshift64* fills.

The two Jacobi kernels are vectorized with numpy: they visit the pairs in
the round-robin ordering of Brent and Luk, whose every step is a set of
n/2 disjoint pairs, so one step rotates all of them at once.  A step
gathers the p and q halves of its pairs as one stacked array
X = (x_p, x_q), forms X * (c, c) + X_swapped * (-s, s) and scatters it
back, with the same IEEE operations as c x_p - s x_q and s x_p + c x_q
taken half by half, so the results are those of the per-pair formulas
bit for bit.  The PRNG is plain Python on Python integers masked to 64
bits, the update equations of the generator module: one scalar
xorshift64* step for single draws, and the normal fill, which inlines the
same step in its loop, collects its values in a list and stores them into
the output array in one assignment.  The normal fill takes ln and sqrt
from ``math.log`` and ``math.sqrt``, the functions the generator's
contract names.

All kernels are pure: inputs are never aliased to outputs except where a
buffer is explicitly documented as modified in place.
"""

import functools
import math

import numpy as np

# Recorded by the benchmark harness (perfbench/run.py); no kernel is compiled.
HAVE_NUMBA = False

# xorshift64* / splitmix64 constants (see generator module for the contract)
_MASK = (1 << 64) - 1
_XS_MULT = 2685821657736338717
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


# Turns the sines s of a step into the (-s, s) of its stacked halves; -s is exact.
_SIGNS = np.array([[-1.0], [1.0]])
_SIGNS.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _round_robin(n):
    """Brent-Luk round-robin schedule for indices 0..n-1, cached per n.

    Returns a tuple of steps (P, flat) of read-only integer arrays.  P is
    2 x k: its rows p = P[0] and q = P[1] hold the step's k disjoint pairs,
    p < q elementwise, so P[::-1] holds them swapped.  ``flat`` is 4 x k:
    the flat indices of a_pp, a_qq, a_pq and a_qp of the matrix A in the
    work array of ``jacobi_eigh`` (row j of an n x 2n C-ordered array holds
    column j of A).  Every pair p < q occurs in exactly one step.  That is
    n - 1 steps for even n and n steps for odd n (one index sits out each
    step); none for n <= 1.
    """
    size = n + n % 2  # odd n: a phantom index n, whose pairs are dropped
    half = size // 2
    ring = np.arange(size)
    steps = []
    for _ in range(size - 1):
        lo = np.minimum(ring[:half], ring[::-1][:half])
        hi = np.maximum(ring[:half], ring[::-1][:half])
        p, q = lo[hi < n], hi[hi < n]
        pairs = np.array([p, q])
        flat = np.array([p * (2 * n + 1), q * (2 * n + 1), q * 2 * n + p, p * 2 * n + q])
        for idx in (pairs, flat):
            idx.flags.writeable = False
        steps.append((pairs, flat))
        ring = np.concatenate([ring[:1], ring[-1:], ring[1:-1]])
    return tuple(steps)


def _rotation(d, off):
    """Cosine and sine of the Jacobi rotations that annihilate ``off`` for
    pairs whose diagonal difference is ``d`` (elementwise arrays).

    t = tan(theta) is the smaller root of t^2 + (d / off) t - 1 = 0, taken
    as sgn(d) off / (|d|/2 + hypot(d/2, off)) so that no division by
    ``off`` can overflow; pairs with off = 0 get the identity.
    """
    half = 0.5 * d
    den = np.abs(half) + np.hypot(half, off)
    t = np.where(d >= 0.0, off, -off) / np.where(den > 0.0, den, 1.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def jacobi_eigh(a, sweep_tol, max_sweeps):
    """Jacobi diagonalization of the symmetric matrix ``a`` (modified in
    place).  Returns (diagonal, accumulated rotations); eigenvalues are
    unsorted.  Sweeps use the round-robin ordering and stop once the
    off-diagonal Frobenius norm drops below sweep_tol times the Frobenius
    norm of the input.  Each step rotates its n/2 disjoint pairs at once:
    one gather, one update and one scatter of the stacked p and q columns
    of A and V, and the same for the rows of A."""
    n = a.shape[0]
    scale = np.sqrt(np.sum(a * a))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    # Row j of ``work`` is column j of A followed by column j of V, so the
    # rotations of the columns of A and V act on rows of ``work``, and
    # those of the rows of A on columns of ``top`` (the transpose of A).
    work = np.hstack([a.T, np.eye(n)])
    top = work[:, :n]
    upper = np.triu_indices(n, 1)[::-1]
    steps = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.square(top[upper])))
        if off <= sweep_tol * scale:
            break
        for pq, flat in steps:
            entries = work.take(flat)
            c, s = _rotation(entries[1] - entries[0], entries[2])
            s = s * _SIGNS
            x = work[pq]
            work[pq] = x * c[:, None] + x[::-1] * s[:, :, None]
            x = top[:, pq]
            top[:, pq] = x * c + x[:, ::-1] * s
            work.put(flat[2:], 0.0)  # a_pq, a_qp: zero in exact arithmetic
    a[...] = top.T
    return a.diagonal().copy(), work[:, n:].T


def onesided_jacobi(b, v, pair_tol, max_sweeps):
    """One-sided Jacobi orthogonalization of the columns of ``b`` (m >= n
    expected for efficiency, not required).  ``b`` and ``v`` are modified in
    place; on exit b = B0 @ v with pairwise-orthogonal columns, so the SVD
    of the original B0 is read off from column norms.  Sweeps use the
    round-robin ordering; a pair is rotated only when
    |gamma| > pair_tol * sqrt(alpha * beta), and the sweeps stop after one
    that rotates nothing.  Each step gathers its stacked p and q columns
    once, takes alpha, beta and gamma in one reduction, and rotates them in
    one update and one scatter."""
    m = b.shape[0]
    # Row j of ``work`` is column j of b followed by column j of v.
    work = np.hstack([b.T, v.T])
    steps = _round_robin(b.shape[1])
    for _ in range(max_sweeps):
        rotated = False
        for pq, _ in steps:
            x = work[pq]
            bx = x[:, :, :m]
            gram = np.einsum("aij,bij->abi", bx, bx)
            alpha, beta, gamma = gram[0, 0], gram[1, 1], gram[0, 1]
            act = np.abs(gamma) > pair_tol * np.sqrt(alpha * beta)
            if not act.any():
                continue
            rotated = True
            # Pairs that pass the test get off = 0, hence the identity.
            c, s = _rotation(beta - alpha, np.where(act, gamma, 0.0))
            work[pq] = x * c[:, None] + x[::-1] * (s * _SIGNS)[:, :, None]
        if not rotated:
            break
    b[...] = work[:, :m].T
    v[...] = work[:, m:].T


def splitmix64(z):
    """One splitmix64 step on the integer ``z``: returns (output, advanced state)."""
    z = (z + _SM_GAMMA) & _MASK
    x = ((z ^ (z >> 30)) * _SM_M1) & _MASK
    x = ((x ^ (x >> 27)) * _SM_M2) & _MASK
    return x ^ (x >> 31), z


def xorshift64star(s):
    """One xorshift64* step on the integer state ``s``: returns (output,
    advanced state)."""
    s ^= s >> 12
    s ^= (s << 25) & _MASK
    s ^= s >> 27
    return (s * _XS_MULT) & _MASK, s


def fill_normals(state, out, have_spare, spare):
    """Fill the 1-D float64 array ``out`` with standard normals via the polar
    method, ln and sqrt taken by ``math.log`` and ``math.sqrt``.

    The spare variate of each accepted pair is emitted before new uniforms
    are drawn, so interleaved calls continue one well-defined stream.
    Returns (new state, have_spare, spare).
    """
    s = state
    values = []
    left = out.size
    while left:
        if have_spare:
            values.append(spare)
            have_spare = False
            left -= 1
            continue
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        x = 2.0 * ((((s * _XS_MULT) & _MASK) >> 11) * _INV53) - 1.0
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        y = 2.0 * ((((s * _XS_MULT) & _MASK) >> 11) * _INV53) - 1.0
        r2 = x * x + y * y
        if r2 >= 1.0 or r2 == 0.0:
            continue
        f = math.sqrt(-2.0 * math.log(r2) / r2)
        values.append(x * f)
        spare = y * f
        have_spare = True
        left -= 1
    out[:] = values
    return s, have_spare, spare

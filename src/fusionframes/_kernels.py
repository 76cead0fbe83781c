"""Numeric kernels: Jacobi eigensolver, one-sided Jacobi SVD, xorshift64* fills.

The two Jacobi kernels are vectorized with numpy: they visit the pairs in
the round-robin ordering of Brent and Luk, whose every step is a set of
n/2 disjoint pairs, so one step rotates all of them with a few array
operations.  The PRNG fills are scalar loops, JIT-compiled with numba when
it is importable and interpreted otherwise; a test pins the two modes to
bit-identical outputs.

All kernels are pure: inputs are never aliased to outputs except where a
buffer is explicitly documented as modified in place.
"""

import functools

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# xorshift64* / splitmix64 constants (see generator module for the contract)
_SH11 = np.uint64(11)
_SH12 = np.uint64(12)
_SH25 = np.uint64(25)
_SH27 = np.uint64(27)
_SH30 = np.uint64(30)
_SH31 = np.uint64(31)
_XS_MULT = np.uint64(2685821657736338717)
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


@functools.lru_cache(maxsize=None)
def _round_robin(n):
    """Brent-Luk round-robin schedule for indices 0..n-1, cached per n.

    Returns a tuple of steps (p, q): read-only integer index arrays with
    p < q elementwise whose pairs are disjoint within a step, and every
    pair p < q occurs in exactly one step.  That is n - 1 steps for even n
    and n steps for odd n (one index sits out each step); none for n <= 1.
    """
    size = n + n % 2  # odd n: a phantom index n, whose pairs are dropped
    half = size // 2
    ring = np.arange(size)
    steps = []
    for _ in range(size - 1):
        lo = np.minimum(ring[:half], ring[::-1][:half])
        hi = np.maximum(ring[:half], ring[::-1][:half])
        step = (lo[hi < n], hi[hi < n])
        for idx in step:
            idx.flags.writeable = False
        steps.append(step)
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
    unsorted.  Sweeps use the round-robin ordering, each step rotating n/2
    disjoint pairs at once, and stop once the off-diagonal Frobenius norm
    drops below sweep_tol times the Frobenius norm of the input."""
    n = a.shape[0]
    scale = np.sqrt(np.sum(a * a))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    # The rotations act on the columns of A and V alike: stack V under A.
    work = np.vstack([a, np.eye(n)])
    top = work[:n]
    upper = np.triu_indices(n, 1)
    steps = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.square(top[upper])))
        if off <= sweep_tol * scale:
            break
        for p, q in steps:
            c, s = _rotation(top[q, q] - top[p, p], top[p, q])
            wp = work[:, p]
            wq = work[:, q]
            work[:, p] = c * wp - s * wq
            work[:, q] = s * wp + c * wq
            c = c[:, None]
            s = s[:, None]
            ap = top[p]
            aq = top[q]
            top[p] = c * ap - s * aq
            top[q] = s * ap + c * aq
            top[p, q] = 0.0  # zero in exact arithmetic: drop the rounding residue
            top[q, p] = 0.0
    a[...] = top
    return a.diagonal().copy(), work[n:]


def onesided_jacobi(b, v, pair_tol, max_sweeps):
    """One-sided Jacobi orthogonalization of the columns of ``b`` (m >= n
    expected for efficiency, not required).  ``b`` and ``v`` are modified in
    place; on exit b = B0 @ v with pairwise-orthogonal columns, so the SVD
    of the original B0 is read off from column norms.  Sweeps use the
    round-robin ordering; a pair is rotated only when
    |gamma| > pair_tol * sqrt(alpha * beta), and the sweeps stop after one
    that rotates nothing."""
    m = b.shape[0]
    # Row j of ``work`` is column j of b followed by column j of v.
    work = np.hstack([b.T, v.T])
    steps = _round_robin(b.shape[1])
    for _ in range(max_sweeps):
        rotated = False
        for p, q in steps:
            wp = work[p]
            wq = work[q]
            bp = wp[:, :m]
            bq = wq[:, :m]
            alpha = np.einsum("ij,ij->i", bp, bp)
            beta = np.einsum("ij,ij->i", bq, bq)
            gamma = np.einsum("ij,ij->i", bp, bq)
            act = np.abs(gamma) > pair_tol * np.sqrt(alpha * beta)
            if not act.any():
                continue
            rotated = True
            # Pairs that pass the test get off = 0, hence the identity.
            c, s = _rotation(beta - alpha, np.where(act, gamma, 0.0))
            c = c[:, None]
            s = s[:, None]
            work[p] = c * wp - s * wq
            work[q] = s * wp + c * wq
        if not rotated:
            break
    b[...] = work[:, :m].T
    v[...] = work[:, m:].T


@njit(cache=True)
def splitmix64(z):
    """One splitmix64 step: returns (output, advanced state)."""
    z = z + _SM_GAMMA
    x = z
    x = (x ^ (x >> _SH30)) * _SM_M1
    x = (x ^ (x >> _SH27)) * _SM_M2
    return x ^ (x >> _SH31), z


@njit(cache=True)
def fill_u64(state, out):
    """Fill ``out`` (uint64) from the xorshift64* stream; returns new state."""
    s = state
    for i in range(out.size):
        s ^= s >> _SH12
        s ^= s << _SH25
        s ^= s >> _SH27
        out[i] = s * _XS_MULT
    return s


@njit(cache=True)
def fill_uniforms(state, out):
    """Fill ``out`` (float64) with uniforms in [0, 1); returns new state."""
    s = state
    for i in range(out.size):
        s ^= s >> _SH12
        s ^= s << _SH25
        s ^= s >> _SH27
        out[i] = ((s * _XS_MULT) >> _SH11) * _INV53
    return s


@njit(cache=True)
def fill_normals(state, out, have_spare, spare):
    """Fill ``out`` (float64) with standard normals via the polar method.

    The spare variate of each accepted pair is emitted before new uniforms
    are drawn, so interleaved calls continue one well-defined stream.
    Returns (new state, have_spare, spare).
    """
    s = state
    i = 0
    n = out.size
    while i < n:
        if have_spare:
            out[i] = spare
            have_spare = False
            i += 1
            continue
        s ^= s >> _SH12
        s ^= s << _SH25
        s ^= s >> _SH27
        u = ((s * _XS_MULT) >> _SH11) * _INV53
        s ^= s >> _SH12
        s ^= s << _SH25
        s ^= s >> _SH27
        v = ((s * _XS_MULT) >> _SH11) * _INV53
        x = 2.0 * u - 1.0
        y = 2.0 * v - 1.0
        r2 = x * x + y * y
        if r2 >= 1.0 or r2 == 0.0:
            continue
        f = np.sqrt(-2.0 * np.log(r2) / r2)
        out[i] = x * f
        spare = y * f
        have_spare = True
        i += 1
    return s, have_spare, spare


if not HAVE_NUMBA:  # pragma: no cover
    # numpy warns on wrapping uint64 arithmetic; the wrap is intentional.
    def _quiet(fn):
        def wrapped(*args):
            with np.errstate(over="ignore"):
                return fn(*args)

        return wrapped

    splitmix64 = _quiet(splitmix64)
    fill_u64 = _quiet(fill_u64)
    fill_uniforms = _quiet(fill_uniforms)
    fill_normals = _quiet(fill_normals)

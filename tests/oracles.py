"""Independent numpy-only oracles for the test suite.

Everything here routes through numpy.linalg (LAPACK) and never through
the package's own Jacobi/factorization code, so each comparison is a
genuine two-route check.  The suite module ships similar helpers for the
CLI corpus; this copy stays package-free on purpose.

The one exception is the last section: a frozen copy of the Jacobi
kernels as they were written before their steps were fused, one
rotation formula per pair half.  It is a bit-for-bit oracle for
``_kernels.jacobi_eigh`` and ``_kernels.onesided_jacobi``, not a second
code path of the package.
"""

import math

import numpy as np


def oracle_lower_bound(s, k, cut=1e-10):
    """Optimal constant A with A * K K.T <= S, plus a minimizing unit
    direction of the ratio <S f, f> / ||K.T f||^2.

    Reduction: on the null space of S the ratio forces A = 0 whenever K.T
    couples to it; otherwise restrict both quadratic forms to the positive
    eigenspace of S and solve the generalized eigenproblem there.
    Returns (A, direction); A = +inf for K = 0, direction None when no
    minimizer exists (K = 0) or A = 0 certificate comes from the null side.
    """
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    w, v = np.linalg.eigh(s)
    scale = max(float(w.max(initial=0.0)), 0.0)
    if np.linalg.norm(k) == 0:
        return math.inf, None
    pos = w > cut * max(scale, 1e-300)
    null = v[:, ~pos]
    if null.size:
        coupled = k.T @ null
        _, sv, vt = np.linalg.svd(coupled)
        if sv.size and sv[0] > 1e-10 * np.linalg.norm(k):
            f = null @ vt[0]
            return 0.0, f / np.linalg.norm(f)
    if not np.any(pos):
        return 0.0, None
    q = v[:, pos]
    wq = w[pos]
    inv_root = 1.0 / np.sqrt(wq)
    gt = q.T @ (k @ k.T) @ q
    mid = (gt * inv_root).T * inv_root
    lam, u = np.linalg.eigh(0.5 * (mid + mid.T))
    top = max(float(lam[-1]), 0.0)
    if top == 0.0:
        return math.inf, None
    f = q @ (inv_root * u[:, -1])
    return 1.0 / top, f / np.linalg.norm(f)


def rayleigh_infimum(s, k, directions):
    """Infimum of <S f, f> / ||K.T f||^2 over the rows of ``directions``,
    skipping rows essentially annihilated by K.T.

    Both quadratic forms are evaluated as sums of squares (through the
    eigh square root of S), which is cancellation-free: the plain f.T S f
    bilinear form loses ~1e-7 of accuracy on near-null directions of
    ill-conditioned S and would produce spuriously small ratios.
    """
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    f = np.asarray(directions, float)
    w, v = np.linalg.eigh(s)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rf = f @ root
    num = np.einsum("ni,ni->n", rf, rf)
    ktf = f @ k
    den = np.einsum("ni,ni->n", ktf, ktf)
    keep = den > 1e-12 * np.einsum("ni,ni->n", f, f) * max(np.linalg.norm(k) ** 2, 1e-300)
    if not np.any(keep):
        return math.inf
    return float(np.min(num[keep] / den[keep]))


def chain_range_margins(s, k, a, b, cut=1e-10, keep_below_cut=False):
    """Exact margins of parts (2) and (3) of the chain check, over B, for
    bounds (a, b): Q spans range K (the left singular vectors of K above
    ``cut`` times the largest), and the singular values r of S Q are the
    extremes of ||S f|| / ||f|| over range K.  Part (3) takes the r above
    ``cut`` times lambda_max(S), or every r with ``keep_below_cut``.
    Returns (0, 0) for K = 0, and a part-(3) margin of 0 when no r is
    taken."""
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    u, sv, _ = np.linalg.svd(k)
    kept = sv > cut * sv.max(initial=0.0)
    if not kept.any():
        return 0.0, 0.0
    r = np.linalg.svd(s @ u[:, kept], compute_uv=False)
    lo = a * sv[kept][-1] ** 2  # A ||K+||^-2
    range_margin = min(r[-1] - lo, b - r[0]) / b
    if not keep_below_cut:
        r = r[r > cut * np.linalg.eigvalsh(s)[-1]]
    if not r.size:
        return range_margin, 0.0
    with np.errstate(divide="ignore"):
        return range_margin, min(b / r[0] - 1.0, 1.0 - lo / r[-1])


def null_space(s, cut=1e-10):
    """Orthonormal basis of the (numerical) null space of a symmetric PSD
    matrix."""
    w, v = np.linalg.eigh(np.asarray(s, float))
    scale = max(float(w.max(initial=0.0)), 0.0)
    return v[:, w <= cut * max(scale, 1e-300)]


def minimal_norm_coefficients(columns, target):
    """Least-squares minimal-norm solution of ``columns @ x = target``."""
    x, *_ = np.linalg.lstsq(np.asarray(columns, float), np.asarray(target, float), rcond=None)
    return x


def random_rank_deficient(rng, rows, cols, rank):
    if rank == 0:
        return np.zeros((rows, cols))
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def random_unit_rows(rng, count, dim):
    f = rng.standard_normal((count, dim))
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return f / norms


# ---------------------------------------------------------------------------
# Per-pair Jacobi kernels: the fused kernels must match these bit for bit


def _per_pair_schedule(n):
    """Brent-Luk round robin as steps (p, q) of index arrays, p < q."""
    size = n + n % 2
    half = size // 2
    ring = np.arange(size)
    steps = []
    for _ in range(size - 1):
        lo = np.minimum(ring[:half], ring[::-1][:half])
        hi = np.maximum(ring[:half], ring[::-1][:half])
        steps.append((lo[hi < n], hi[hi < n]))
        ring = np.concatenate([ring[:1], ring[-1:], ring[1:-1]])
    return steps


def _per_pair_rotation(d, off):
    half = 0.5 * d
    den = np.abs(half) + np.hypot(half, off)
    t = np.where(d >= 0.0, off, -off) / np.where(den > 0.0, den, 1.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def per_pair_jacobi_eigh(a, sweep_tol, max_sweeps):
    n = a.shape[0]
    scale = np.sqrt(np.sum(a * a))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    work = np.vstack([a, np.eye(n)])
    top = work[:n]
    upper = np.triu_indices(n, 1)
    steps = _per_pair_schedule(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.square(top[upper])))
        if off <= sweep_tol * scale:
            break
        for p, q in steps:
            c, s = _per_pair_rotation(top[q, q] - top[p, p], top[p, q])
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
            top[p, q] = 0.0
            top[q, p] = 0.0
    a[...] = top
    return a.diagonal().copy(), work[n:]


def per_pair_onesided_jacobi(b, v, pair_tol, max_sweeps):
    m = b.shape[0]
    work = np.hstack([b.T, v.T])
    steps = _per_pair_schedule(b.shape[1])
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
            c, s = _per_pair_rotation(beta - alpha, np.where(act, gamma, 0.0))
            c = c[:, None]
            s = s[:, None]
            work[p] = c * wp - s * wq
            work[q] = s * wp + c * wq
        if not rotated:
            break
    b[...] = work[:, :m].T
    v[...] = work[:, m:].T

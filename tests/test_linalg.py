import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fusionframes import _kernels, linalg
from fusionframes.errors import InputError, NotPSDError


def test_qr_identity_unchanged():
    q, rank = linalg.qr_orthonormalize(np.eye(2))
    assert rank == 2
    np.testing.assert_allclose(q, np.eye(2))


def test_qr_single_column_normalized():
    q, rank = linalg.qr_orthonormalize(np.array([[1.0], [1.0]]))
    assert rank == 1
    np.testing.assert_allclose(q, np.array([[1.0], [1.0]]) / math.sqrt(2))


def test_qr_is_exact_under_power_of_two_scaling():
    m = np.random.default_rng(5).standard_normal((6, 4))
    q, rank = linalg.qr_orthonormalize(m)
    for e in (-600, -300, 300, 600):
        q_e, rank_e = linalg.qr_orthonormalize(np.ldexp(m, e))
        assert rank_e == rank
        np.testing.assert_array_equal(q_e, q)


def test_qr_proportional_columns_rank_one():
    q, rank = linalg.qr_orthonormalize(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert rank == 1
    # spans the same line
    target = np.array([1.0, 2.0]) / math.sqrt(5)
    assert min(np.linalg.norm(q[:, 0] - target), np.linalg.norm(q[:, 0] + target)) < 1e-12


def test_qr_zero_matrix():
    q, rank = linalg.qr_orthonormalize(np.zeros((3, 2)))
    assert rank == 0 and q.shape == (3, 0)


def test_qr_rejects_nonfinite():
    with pytest.raises(InputError):
        linalg.qr_orthonormalize(np.array([[np.nan], [0.0]]))


def test_sym_eig_diagonal():
    spec = linalg.sym_eig(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0])


def test_sym_eig_offdiagonal():
    spec = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_sym_eig_random_reconstruction():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.standard_normal((6, 6))
        s = a + a.T
        spec = linalg.sym_eig(s)
        scale = np.linalg.norm(s)
        assert np.linalg.norm(spec.reconstruct() - s) <= 1e-10 * scale
        assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(6)).max() < 1e-12
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh(s), atol=1e-11 * scale
        )


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InputError):
        linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pinv_identity():
    np.testing.assert_allclose(linalg.pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_diagonal_rank_deficient():
    np.testing.assert_allclose(
        linalg.pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pinv_of_tiny_matrix_is_exact():
    p = linalg.pseudo_inverse(np.array([[1e-300, 0.0], [0.0, 4e-300]]))
    np.testing.assert_allclose(p, np.diag([1e300, 2.5e299]), rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pinv_without_finite_reciprocal_is_an_input_error():
    with pytest.raises(InputError, match="no finite reciprocal"):
        linalg.pseudo_inverse(np.array([[1e-310, 0.0], [0.0, 0.0]]))


def test_pinv_penrose_random():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 3))
    p = linalg.pseudo_inverse(m)
    assert np.linalg.norm(m @ p @ m - m) <= 1e-10
    assert np.linalg.norm(p @ m @ p - p) <= 1e-10
    assert np.linalg.norm((m @ p) - (m @ p).T) <= 1e-10
    assert np.linalg.norm((p @ m) - (p @ m).T) <= 1e-10


def test_pinv_matches_inverse_when_invertible():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.standard_normal((5, 5)) + 3 * np.eye(5)
        p = linalg.pseudo_inverse(m)
        assert np.linalg.norm(m @ p - np.eye(5)) <= 1e-9


def test_pinv_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, cols = rng.integers(1, 7, size=2)
        m = rng.standard_normal((rows, cols))
        back = linalg.pseudo_inverse(linalg.pseudo_inverse(m))
        assert np.linalg.norm(back - m) <= 1e-8 * max(np.linalg.norm(m), 1e-300)


def test_sqrt_psd_diagonal():
    np.testing.assert_allclose(linalg.sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(linalg.sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)


def test_sqrt_psd_random_square():
    rng = np.random.default_rng(4)
    for _ in range(15):
        a = rng.standard_normal((6, 4))
        s = a @ a.T
        r = linalg.sqrt_psd(s)
        scale = np.linalg.norm(s)
        assert np.linalg.norm(r @ r - s) <= 1e-9 * scale
        assert np.linalg.norm(r @ s - s @ r) <= 1e-9 * scale  # commutes with s
        assert np.linalg.norm(r - r.T) <= 1e-12 * max(scale, 1.0)


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSDError):
        linalg.sqrt_psd(np.diag([1.0, -1.0]))


def test_psd_leq_trivial():
    eye = np.eye(2)
    assert linalg.psd_leq(eye, 2 * eye, 1e-12)
    assert not linalg.psd_leq(2 * eye, eye, 1e-12)
    assert linalg.psd_leq(np.diag([2.0, 1.0]), 2 * eye, 1e-12)


def test_psd_leq_dimension_mismatch():
    with pytest.raises(InputError):
        linalg.psd_leq(np.eye(2), np.eye(3), 1e-12)


def test_psd_leq_reflexive_transitive():
    rng = np.random.default_rng(5)
    tol = 1e-10
    for _ in range(20):
        mats = []
        base = rng.standard_normal((4, 4))
        s = base @ base.T
        mats.append(s)
        for _ in range(2):
            bump = rng.standard_normal((4, 2))
            s = s + bump @ bump.T
            mats.append(s)
        p, q, r = mats
        assert linalg.psd_leq(p, p, tol)
        assert linalg.psd_leq(p, q, tol) and linalg.psd_leq(q, r, tol)
        assert linalg.psd_leq(p, r, 2 * tol)


def test_svd_matches_numpy_values():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.standard_normal((rows, cols))
        s = linalg.singular_values(m)
        np.testing.assert_allclose(
            s, np.linalg.svd(m, compute_uv=False), atol=1e-11 * max(1.0, np.abs(m).max())
        )


@settings(max_examples=40, deadline=None)
@given(
    m=arrays(
        np.float64,
        (4, 3),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
@example(m=np.array([[1.5, 1.0, 0.0], [1e-8, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
@example(m=np.array([[5e-324, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
def test_pinv_penrose_hypothesis(m):
    # Backward-error bound: any pseudo-inverse computed in floating point
    # leaves Penrose residuals of order eps * kappa, where kappa is the
    # largest over the smallest kept singular value.  The first pinned
    # matrix keeps sigma = 5.5e-9 next to 1.8, and numpy.linalg.pinv also
    # leaves |MP - (MP)^T| = 4e-8 there.  MPM - M also contains the
    # singular values cut to zero.  The second pinned matrix keeps a
    # subnormal singular value whose reciprocal is beyond the float range.
    sv = np.linalg.svd(m, compute_uv=False)
    kept = sv[sv > linalg.DEFAULT_TOL * sv[0]]
    if kept.size and kept[-1] < 1.0 / np.finfo(float).max:
        with pytest.raises(InputError):
            linalg.pseudo_inverse(m)
        return
    p = linalg.pseudo_inverse(m)
    kappa = kept[0] / kept[-1] if kept.size else 1.0
    cut = np.linalg.norm(sv[kept.size :])
    bound = 100 * np.finfo(float).eps * kappa
    assert np.linalg.norm(m @ p @ m - m) <= cut + bound * np.linalg.norm(m)
    # MP is an orthogonal projector: its residual does not scale with M.
    assert np.linalg.norm((m @ p) - (m @ p).T) <= bound


@settings(max_examples=40, deadline=None)
@given(
    a=arrays(
        np.float64,
        (5, 5),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
)
def test_sqrt_of_gram_hypothesis(a):
    s = a @ a.T
    r = linalg.sqrt_psd(s)
    assert np.linalg.norm(r @ r - s) <= 1e-9 * max(np.linalg.norm(s), 1.0)


def test_matrix_json_roundtrip():
    m = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 5.0]])
    obj = linalg.matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 2
    np.testing.assert_array_equal(linalg.matrix_from_json(obj), m)


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]},  # wrong length
        {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, float("nan")]},
        {"rows": 0, "cols": 2, "data": []},
        {"rows": 2, "cols": 2},  # missing data
        {"rows": 2.5, "cols": 2, "data": [0.0] * 5},
        [1, 2, 3],
    ],
)
def test_matrix_json_rejects(obj):
    with pytest.raises(InputError):
        linalg.matrix_from_json(obj)


# ---------------------------------------------------------------------------
# Jacobi kernels against LAPACK on edge cases

_SIZES = [0, 1, 2, 3, 5, 8, 32]
_QUICK_SWEEPS = 25  # a quarter of linalg's sweep limit


def _edge_matrix(kind, n):
    """Symmetric test matrices; graded and rank-deficient ones are PSD."""
    rng = np.random.default_rng([n, len(kind)])
    if kind == "random":
        a = rng.standard_normal((n, n))
        return a + a.T
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "diagonal":
        return np.diag(rng.standard_normal(n))
    if kind == "identity":
        return np.eye(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kind == "graded":
        w = np.logspace(0, -12, n) if n > 1 else np.ones(n)
    else:  # rank-deficient
        w = np.where(np.arange(n) < n // 2, rng.uniform(1.0, 2.0, n), 0.0)
    a = (q * w) @ q.T
    return 0.5 * (a + a.T)


_KINDS = ["random", "zero", "diagonal", "identity", "graded", "rank-deficient"]


@pytest.mark.parametrize("n", list(range(10)) + [32])
def test_round_robin_schedule_covers_each_pair_once(n):
    seen = []
    for p, q in _kernels._round_robin(n):
        assert p.dtype.kind == "i" and q.dtype.kind == "i"
        assert np.all(p < q)
        assert len(set(p) | set(q)) == 2 * p.size  # disjoint within a step
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    assert len(_kernels._round_robin(n)) == (n if n % 2 else max(n - 1, 0))


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n", _SIZES)
def test_sym_eig_edge_cases_match_lapack(kind, n):
    a = _edge_matrix(kind, n)
    scale = np.linalg.norm(a)
    spec = linalg.sym_eig(a)
    assert spec.eigenvalues.shape == (n,) and spec.eigenvectors.shape == (n, n)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(a), rtol=0, atol=1e-13 * scale)
    assert np.linalg.norm(spec.reconstruct() - a) <= 1e-12 * scale
    v = spec.eigenvectors
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-13 * n
    work = a.copy()
    _kernels.jacobi_eigh(work, 1e-12, _QUICK_SWEEPS)
    assert np.linalg.norm(work - np.diag(np.diag(work))) <= 1e-12 * scale


@pytest.mark.parametrize("shape", ["square", "tall", "wide", "zero-columns"])
@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n", _SIZES)
def test_svd_edge_cases_match_lapack(shape, kind, n):
    a = _edge_matrix(kind, n)
    if shape == "tall":
        a = np.vstack([a, a[: min(n, 3)]])
    elif shape == "wide":
        a = np.hstack([a, a[:, : min(n, 3)]])
    elif shape == "zero-columns":
        a = np.zeros((n, 0))
    scale = np.linalg.norm(a)
    u, s, vt = linalg.svd(a)
    k = min(a.shape)
    assert u.shape == (a.shape[0], k) and s.shape == (k,) and vt.shape == (k, a.shape[1])
    np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-13 * scale)
    assert np.linalg.norm((u * s) @ vt - a) <= 1e-12 * scale
    side = vt.T if a.shape[0] >= a.shape[1] else u  # the accumulated rotations
    assert np.linalg.norm(side.T @ side - np.eye(k)) <= 1e-13 * max(k, 1)
    b = np.array(a if a.shape[0] >= a.shape[1] else a.T)
    v = np.eye(b.shape[1])
    _kernels.onesided_jacobi(b, v, 1e-14, _QUICK_SWEEPS)
    g = b.T @ b
    d = np.sqrt(np.diag(g))
    assert np.all(np.abs(g - np.diag(np.diag(g))) <= 1e-14 * np.outer(d, d))


@pytest.mark.parametrize("d", [[1e300, 1.0], [1.0, 1e-200], [1e-150, 1e-310], [3.0, 0.0]])
def test_svd_keeps_singular_values_far_below_the_largest(d):
    # each column norm is taken on its own scale, so none underflows to 0
    u, s, vt = linalg.svd(np.diag(d))
    np.testing.assert_array_equal(s, sorted(d, reverse=True))
    np.testing.assert_array_equal((u * s) @ vt, np.diag(d))
    if min(d) > 0:
        np.testing.assert_array_equal(u.T @ u, np.eye(2))


_EXTREME = {
    "subnormal-coupling": np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1e-320], [0.0, 1e-320, 4.0]]),
    "subnormal-wide-gap": np.array(
        [[1e300, 1e-320, 0.0], [1e-320, 1.0, 1e-320], [0.0, 1e-320, -1e300]]
    ),
    "huge": np.array([[1e300, 1e300], [1e300, -1e300]]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_EXTREME))
def test_extreme_entries_give_finite_results_without_warnings(name):
    a = _EXTREME[name]
    if name == "subnormal-wide-gap":
        expected = np.sort(np.diag(a))
    else:
        expected = np.linalg.eigvalsh(a / a.max()) * a.max()
    spec = linalg.sym_eig(a)
    np.testing.assert_allclose(spec.eigenvalues, expected, rtol=1e-14, atol=0)
    assert np.all(np.isfinite(spec.eigenvectors))
    # One-sided Jacobi works with squared column norms, so singular values
    # are accurate relative to the largest one, not each to itself.
    u, s, vt = linalg.svd(a)
    expected = np.sort(np.abs(expected))[::-1]
    np.testing.assert_allclose(s, expected, rtol=0, atol=1e-14 * expected[0])
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(vt))
    u, s_tall, vt = linalg.svd(np.vstack([a, a]))
    np.testing.assert_allclose(s_tall, np.sqrt(2.0) * s, rtol=0, atol=1e-14 * expected[0])
    if name == "subnormal-coupling":  # in range for the kernels themselves
        _kernels.jacobi_eigh(a.copy(), 1e-12, 100)
        _kernels.onesided_jacobi(a.copy(), np.eye(3), 1e-14, 100)


# ---------------------------------------------------------------------------
# Spectrum calculus against LAPACK

# Jacobi stops once the off-diagonal norm is below this fraction of ||S||,
# so it plays the part of eps in the backward-error bounds below.
_SWEEP_TOL = 1e-12


@pytest.mark.parametrize("kind", ["zero", "identity", "graded", "rank-deficient"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 32])
def test_spectrum_calculus_matches_lapack(kind, n):
    s = _edge_matrix(kind, n)
    spec = linalg.sym_eig(s)
    w, v = np.linalg.eigh(s)
    keep = w > linalg.DEFAULT_TOL * max(w[-1], 0.0)
    assert spec.rank() == np.count_nonzero(keep)
    norm_s = np.linalg.norm(s)
    dropped = np.linalg.norm(w[~keep])
    slack = 10 * _SWEEP_TOL * norm_s

    z = spec.null_basis()
    assert z.shape == (n, n - spec.rank())
    assert np.linalg.norm(z.T @ z - np.eye(z.shape[1])) <= 1e-13 * n
    if keep.any() and z.size:
        # Davis-Kahan: the angle to LAPACK's range is at most residual / gap
        gap = w[keep][0] - w[~keep][-1]
        assert np.linalg.norm(v[:, keep].T @ z) <= slack / gap

    p = spec.pinv()
    kappa = w[-1] / w[keep][0] if keep.any() else 1.0
    bound = 10 * _SWEEP_TOL * kappa
    norm_p = max(np.linalg.norm(p), 1e-300)
    assert np.linalg.norm(s @ p @ s - s) <= dropped + bound * norm_s
    assert np.linalg.norm(p @ s @ p - p) <= bound * norm_p
    assert np.linalg.norm(s @ p - (s @ p).T) <= bound
    assert np.linalg.norm(p - p.T) == 0.0
    lapack = np.linalg.pinv(s, rcond=linalg.DEFAULT_TOL, hermitian=True)
    assert np.linalg.norm(p - lapack) <= bound * max(np.linalg.norm(lapack), 1e-300)

    root = spec.power(0.5)
    assert np.linalg.norm(root @ root - s) <= dropped + slack
    assert np.linalg.eigvalsh(root)[0] >= -slack


def test_spectrum_pinv_without_finite_reciprocal_is_an_input_error():
    spec = linalg.sym_eig(np.diag([1e-310, 0.0]))
    assert spec.rank() == 1
    with pytest.raises(InputError):
        spec.pinv()
    np.testing.assert_allclose(spec.power(-0.5), np.diag([1e155, 0.0]), rtol=1e-14)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_norm_is_scale_safe(scale):
    x = scale * np.array([[3.0, 0.0], [0.0, 4.0]])
    assert linalg.norm(x) == pytest.approx(5.0 * scale, rel=1e-15)
    assert linalg.norm(np.zeros(3)) == 0.0


_CUT = linalg.DEFAULT_TOL


@pytest.mark.parametrize(
    "m, rank",
    [
        (np.diag([1.0, _CUT * (1 + 1e-6), 0.5]), 3),
        (np.diag([1.0, _CUT * (1 - 1e-6), 0.5]), 2),
        (np.diag([2.0, 2 * _CUT * (1 + 1e-6), 2 * _CUT * (1 - 1e-6), 0.0]), 2),
        (np.zeros((3, 3)), 0),
        (np.zeros((3, 0)), 0),
    ],
)
def test_one_rank_cut_for_rank_pinv_and_spectrum(m, rank):
    p = linalg.pseudo_inverse(m)
    assert p.shape == m.T.shape
    assert linalg.matrix_rank(m) == rank
    assert np.count_nonzero(np.linalg.svd(p, compute_uv=False)) == rank
    # the eigenvalue side of a 0-column input is its 0 x 0 Gram matrix
    square = m if m.shape[0] == m.shape[1] else m.T @ m
    assert linalg.sym_eig(square).rank() == rank


def test_spectrum_power_is_memoized_and_read_only():
    spec = linalg.sym_eig(np.diag([4.0, 1.0, 0.0]))
    root = spec.power(0.5)
    assert spec.power(0.5) is root and spec.pinv() is spec.power(-1)
    np.testing.assert_array_equal(root, np.diag([2.0, 1.0, 0.0]))
    for value in (root, spec.pinv(), spec.power(-0.5)):
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 1.0


def test_spectrum_power_beyond_the_float_range_is_never_memoized():
    spec = linalg.sym_eig(np.diag([1e-310, 0.0]))
    for _ in range(2):
        with pytest.raises(InputError, match="float range"):
            spec.power(-1.0)
    assert len(spec._memo) == 0


def test_spectrum_memo_is_bounded_oldest_first():
    spec = linalg.sym_eig(np.diag([2.0, 1.0]))
    first = spec.power(1.0)
    for i in range(100):
        spec.power(1.0 + (i + 1) / 128)
    assert len(spec._memo) == linalg._MEMO_SIZE
    last = spec.power(1.0 + 100 / 128)
    assert spec.power(1.0 + 100 / 128) is last
    again = spec.power(1.0)  # evicted, so computed anew with the same value
    assert again is not first
    np.testing.assert_array_equal(again, first)


def test_spectrum_memo_survives_concurrent_eviction():
    # without the memo's lock, evicting the oldest entry while another
    # thread stores one raises "dictionary changed size during iteration"
    import sys
    from concurrent.futures import ThreadPoolExecutor

    spec = linalg.sym_eig(np.diag([2.0, 1.0]))

    def fill(j):
        return all(spec.memoized((j, i), lambda: i) == i for i in range(3000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fill, j) for j in range(8)]
            assert all(fut.result(timeout=60) for fut in futures)
    finally:
        sys.setswitchinterval(interval)
    assert len(spec._memo) == linalg._MEMO_SIZE


# ---------------------------------------------------------------------------
# The dominant singular pair against mpmath and LAPACK


def _dominant_corpus():
    """(name, matrix): square, tall, wide, rank one, columns graded to 1e-15,
    clustered tops (sigma_2 = sigma_1 (1 - gap), gap 1e-8 ... 1e-15), entries
    near 1e+-300 and c I, with 1 to 32 rows or columns."""
    rng = np.random.default_rng(12)
    shapes = [(n, n) for n in range(1, 13) for _ in range(3)] + [(16, 16), (22, 22), (32, 32)]
    shapes += [(n + d, n) for n in (1, 2, 3, 5, 8) for d in (1, 4, 9)]
    shapes += [(32, 6), (22, 12)]
    shapes += [(c, r) for r, c in shapes[-17:]]  # the wide transposes
    cases = []
    for rows, cols in shapes:
        m = rng.standard_normal((rows, cols))
        cases.append((f"random-{rows}x{cols}", m))
        if rows <= 12 and cols <= 12:
            cases.append((f"rank-one-{rows}x{cols}",
                          np.outer(rng.standard_normal(rows), rng.standard_normal(cols))))
            cases.append((f"graded-{rows}x{cols}", m * np.logspace(0, -15, cols)))
    for n in (2, 3, 5, 8, 12):
        for gap in 10.0 ** -np.arange(8, 16):
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.9, n - 2)])
            cases.append((f"clustered-{n}-gap{gap:.0e}", (u * s) @ v.T))
    for n in (1, 3, 8):
        for scale in (1e300, 1e-300):
            cases.append((f"scaled-{n}-{scale:.0e}", scale * rng.standard_normal((n, n + 1))))
        for c in (0.7, 3.0, -1e300, 1e-300):
            cases.append((f"identity-{n}-{c:g}", c * np.eye(n)))
    return cases


_DOMINANT_CORPUS = _dominant_corpus()


def _mp_sigma_max(m):
    """sigma_max of the float matrix ``m`` from the eigenvalues of its Gram
    matrix on the smaller side, formed and solved at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        b = mpmath.matrix(m.tolist() if m.shape[0] >= m.shape[1] else m.T.tolist())
        return mpmath.sqrt(max(mpmath.eigsy(b.T * b, eigvals_only=True)))


def test_dominant_singular_value_matches_mpmath():
    # A Rayleigh quotient never exceeds sigma_max but by rounding.  LAPACK's
    # sigma_max itself errs by up to 3.5e-15 on the clustered tops at gap
    # 1e-14 (and by at most 5.1e-16 elsewhere here), so the comparison with
    # it leaves those out; they are held to the exact value instead.
    assert len(_DOMINANT_CORPUS) >= 240
    worst = []
    for name, m in _DOMINANT_CORPUS:
        sigma, v = linalg.dominant_singular(m)
        exact = _mp_sigma_max(m)
        err = float((sigma - exact) / exact)
        e = math.frexp(np.abs(m).max())[1]  # LAPACK on m scaled exactly into range
        lapack = math.ldexp(np.linalg.norm(np.ldexp(m, -e), 2), e)
        above_lapack = not name.startswith("clustered") and sigma > lapack * (1 + 1e-15)
        if abs(err) > 1e-14 or err > 1e-15 or above_lapack:
            worst.append((name, err, sigma / lapack - 1))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
        assert linalg.norm(m @ v) == pytest.approx(sigma, rel=1e-14)
    assert worst == [], worst


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "m, sigma",
    [
        (np.zeros((0, 0)), 0.0),
        (np.zeros((0, 3)), 0.0),
        (np.zeros((3, 0)), 0.0),
        (np.zeros((2, 3)), 0.0),
        (np.array([[-2.5]]), 2.5),
        (np.array([[5e-324]]), 5e-324),
        (np.full((3, 2), 1e300), 1e300 * math.sqrt(6.0)),
        (np.full((2, 3), -1e-300), 1e-300 * math.sqrt(6.0)),
        (np.array([[1e-300, 0.0], [0.0, 1e300]]), 1e300),
        (np.full((2, 2), 1e308), math.inf),  # beyond the float range
    ],
    ids=["0x0", "0x3", "3x0", "zero", "1x1", "subnormal", "1e300", "1e-300", "1e+-300", "inf"],
)
def test_dominant_singular_edge_cases(m, sigma):
    got, v = linalg.dominant_singular(m)
    assert got == pytest.approx(sigma, rel=1e-15, abs=0.0)
    assert v.shape == (m.shape[1],)
    assert np.linalg.norm(v) == pytest.approx(1.0 if m.shape[1] else 0.0, abs=1e-15)
    assert linalg.operator_norm(m) == got


def test_dominant_singular_value_of_c_identity_and_diagonal_is_exact():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8, 22, 32):
        for c in (1.0, -0.3, 7.0, 1e-300, 1e300):
            sigma, v = linalg.dominant_singular(c * np.eye(n))
            assert sigma == abs(c)
            np.testing.assert_array_equal(np.abs(v), np.eye(n)[0])
        d = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        top = int(np.argmax(np.abs(d)))
        for m in (np.diag(d), np.vstack([np.diag(d), np.zeros((2, n))]),
                  np.hstack([np.diag(d), np.zeros((n, 3))])):
            sigma, v = linalg.dominant_singular(m)
            assert sigma == abs(d[top])
            np.testing.assert_array_equal(np.abs(v), np.eye(m.shape[1])[top])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=arrays(
        np.float64,
        st.tuples(st.integers(1, 7), st.integers(1, 7)),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
def test_dominant_singular_value_matches_lapack_hypothesis(m):
    e = math.frexp(np.abs(m).max())[1]  # LAPACK on m scaled exactly into range
    lapack = math.ldexp(np.linalg.norm(np.ldexp(m, -e), 2), e)
    sigma, v = linalg.dominant_singular(m)
    assert abs(sigma - lapack) <= 1e-14 * lapack
    assert sigma <= lapack * (1 + 1e-15)
    assert linalg.norm(m @ v) == pytest.approx(sigma, rel=1e-14, abs=0.0)

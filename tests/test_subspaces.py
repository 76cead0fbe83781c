import math
import warnings

import numpy as np
import pytest

from fusionframes import _kernels, linalg
from fusionframes.errors import InputError
from fusionframes.generator import Rng
from fusionframes.subspaces import Subspace
from fusionframes.suite import random_orthogonal


def test_from_spanning_full_space():
    w = Subspace.from_spanning(np.eye(3))
    assert w.dim == 3
    np.testing.assert_allclose(w.projection(), np.eye(3), atol=1e-12)


def test_from_spanning_line():
    w = Subspace.from_spanning(np.array([[1.0], [1.0]]))
    assert w.dim == 1
    target = np.array([1.0, 1.0]) / math.sqrt(2)
    assert min(np.linalg.norm(w.basis[:, 0] - target), np.linalg.norm(w.basis[:, 0] + target)) < 1e-12


def test_from_spanning_zero_column():
    w = Subspace.from_spanning(np.zeros((2, 1)))
    assert w.is_zero() and w.dim == 0
    np.testing.assert_array_equal(w.projection(), np.zeros((2, 2)))


def test_projection_examples():
    np.testing.assert_allclose(
        Subspace.span([1.0, 0.0]).projection(), np.diag([1.0, 0.0]), atol=1e-14
    )
    np.testing.assert_allclose(
        Subspace.span([1.0, 1.0]).projection(), np.full((2, 2), 0.5), atol=1e-14
    )
    np.testing.assert_array_equal(Subspace.zero(2).projection(), np.zeros((2, 2)))


def test_projection_idempotent_trace():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = Subspace.from_spanning(rng.standard_normal((5, 3)))
        p = w.projection()
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.T) < 1e-12
        assert abs(np.trace(p) - w.dim) < 1e-10


def test_image_examples():
    w = Subspace.span([1.0, 0.0])
    same = w.image_under(np.eye(2))
    assert same.projection_distance(w) < 1e-12
    killed = Subspace.span([0.0, 1.0]).image_under(np.diag([1.0, 0.0]))
    assert killed.is_zero()
    swapped = w.image_under(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert swapped.projection_distance(Subspace.span([0.0, 1.0])) < 1e-12


def test_image_is_cut_relative_to_the_operator_norm():
    # ||T e2|| = 1e-11 ||T||: below the cut that decides T's own rank, so the
    # image collapses although T e2 alone is a nonzero vector
    t = np.diag([1.0, 1e-11])
    assert Subspace.span([0.0, 1.0]).image_under(t).is_zero()
    assert Subspace.span([0.0, 1.0]).image_under(np.diag([1.0, 1e-9])).dim == 1
    assert Subspace.from_spanning(t[:, [1]]).dim == 1


def test_span_dimension_is_decided_at_the_rank_cut():
    # graded spanning sets whose smallest singular value straddles the cut:
    # the span has exactly the dimension matrix_rank gives
    rng = Rng(61)
    for ratio in np.geomspace(3e-11, 3e-10, 10):
        for _ in range(30):
            n = rng.randint(2, 7)
            c = rng.randint(2, n + 2)
            r = min(n, c)
            sv = np.geomspace(1.0, ratio, r)
            m = random_orthogonal(rng, n)[:, :r] @ np.diag(sv) @ random_orthogonal(rng, c)[:r, :]
            assert Subspace.from_spanning(m).dim == linalg.matrix_rank(m), (ratio, n, c)


@pytest.fixture
def rotation_steps(monkeypatch):
    """The number of Jacobi steps that rotate at least one pair from here on."""
    steps = []
    rotation = _kernels._rotation

    def counted(d, off):
        steps.append(d.size)
        return rotation(d, off)

    monkeypatch.setattr(_kernels, "_rotation", counted)
    return steps


def test_proportional_rows_do_not_stall_the_svd(rotation_steps):
    # rows that agree up to a factor +-2^k (zero rows included) stay exactly
    # proportional under one-sided Jacobi: with more columns than rank it
    # runs to its sweep cap (hundreds of steps here), so the range rule
    # merges them first
    angles = np.linspace(0.0, 3.0, 6)
    w = Subspace.span(*[np.r_[np.cos(a), np.sin(a), np.zeros(4)] for a in angles])
    assert w.dim == 2
    assert len(rotation_steps) <= len(_kernels._round_robin(6))
    rotation_steps.clear()
    basis = Subspace(12, random_orthogonal(Rng(1), 12), _trusted=True)
    image = basis.image_under(np.diag([1.0] * 11 + [0.0]))
    assert image.dim == 11
    assert len(rotation_steps) <= len(_kernels._round_robin(12))
    rng = Rng(2)
    a = rng.normals(3, 6)
    b = rng.normals(4, 8)
    for m in (np.vstack([a, a]), np.vstack([a, -a]), np.vstack([a, 2.0 * a]),
              np.vstack([-a[1], a, 0.0 * a[0], 0.25 * a[0], -8.0 * a[2]]),
              np.vstack([b, b]), np.vstack([a * 2.0**-1000, a * 2.0**1000])):
        rotation_steps.clear()
        w = Subspace.from_spanning(m)
        assert len(rotation_steps) <= 2 * len(_kernels._round_robin(m.shape[1]))
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        rank = np.linalg.matrix_rank(m)
        assert w.dim == rank
        assert np.abs(w.projection() - u[:, :rank] @ u[:, :rank].T).max() < 1e-14


def test_image_dimension_mismatch():
    with pytest.raises(InputError):
        Subspace.span([1.0, 0.0]).image_under(np.eye(3))


def test_contains_examples():
    full = Subspace.full(2)
    e1 = Subspace.span([1.0, 0.0])
    e2 = Subspace.span([0.0, 1.0])
    assert full.contains(e1) and full.contains(e2)
    assert not e1.contains(e2)
    assert e1.contains(e1)
    assert e1.contains(Subspace.zero(2))


def test_contains_dimension_mismatch():
    with pytest.raises(InputError):
        Subspace.full(2).contains(Subspace.full(3))


def test_projection_transpose_factors_through_image():
    # pi_W T.T equals pi_W T.T pi_TW for arbitrary T and W
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        t = rng.standard_normal((n, n))
        if rng.integers(0, 2):
            r = int(rng.integers(1, n))
            t = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        w = Subspace.from_spanning(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
        tw = w.image_under(t)
        lhs = w.projection() @ t.T
        rhs = lhs @ tw.projection()
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(t))


def test_image_projection_is_projection():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = 5
        t = rng.standard_normal((n, n))
        w = Subspace.from_spanning(rng.standard_normal((n, 2)))
        p = w.image_under(t).projection()
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.T) < 1e-12


def test_mutual_containment_means_equality():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((5, 3))
        w = Subspace.from_spanning(m)
        # same span, different spanning set
        v = Subspace.from_spanning(m @ rng.standard_normal((3, 3)) + 0.0)
        if not (w.contains(v) and v.contains(w)):
            continue  # random recombination degenerated; skip
        assert w.dim == v.dim
        assert w.projection_distance(v) <= 1e-9


def test_json_roundtrip_and_reorthonormalization():
    w = Subspace.from_spanning(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]))
    back = Subspace.from_json(w.to_json())
    assert back.ambient_dim == 3 and back.dim == w.dim
    assert back.projection_distance(w) < 1e-10
    # non-orthonormal basis in the wire object is re-orthonormalized
    raw = {
        "ambient_dim": 2,
        "basis": {"rows": 2, "cols": 2, "data": [1.0, 2.0, 1.0, 2.0]},
    }
    loaded = Subspace.from_json(raw)
    assert loaded.dim == 1


def test_json_zero_subspace():
    z = Subspace.zero(3)
    back = Subspace.from_json(z.to_json())
    assert back.is_zero() and back.ambient_dim == 3


@pytest.mark.parametrize(
    "obj",
    [
        {"ambient_dim": 2},
        {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}},
        {"ambient_dim": 3, "basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}},
        {"ambient_dim": -1, "basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}},
    ],
)
def test_json_rejects(obj):
    with pytest.raises(InputError):
        Subspace.from_json(obj)


def test_direct_constructor_requires_orthonormal():
    with pytest.raises(InputError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_span_of_an_extreme_scale_vector_is_a_line(scale):
    # the squared entries underflow to 0 or overflow to inf unless the
    # SVD input is scaled first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = Subspace.span([scale, 0.0])
    assert w.dim == 1
    np.testing.assert_array_equal(np.abs(w.basis[:, 0]), [1.0, 0.0])

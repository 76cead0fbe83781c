from dataclasses import replace

import numpy as np
import pytest

from fusionframes import linalg, vector_frames
from fusionframes.errors import InputError
from fusionframes.fusion_systems import Member, Verdict, WeightedSubspaceSystem, coordinate_lines
from fusionframes.generator import Rng
from fusionframes.kfusion import kfusion_verify
from fusionframes.subspaces import Subspace
from fusionframes.suite import attach_local_frames, fusion_instance, verified_instance
from fusionframes.vector_frames import (
    VectorFrame,
    kframe_verify,
    local_to_global_check,
    vector_frame_bounds,
)

from oracles import null_space


def test_bounds_orthonormal_basis():
    rep = vector_frame_bounds(VectorFrame(3, list(np.eye(3))))
    assert rep.verdict is Verdict.PARSEVAL
    np.testing.assert_allclose([rep.lower, rep.upper], [1.0, 1.0])


def test_bounds_redundant_family():
    frame = VectorFrame(2, [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    rep = vector_frame_bounds(frame)
    assert rep.verdict is Verdict.FRAME
    np.testing.assert_allclose([rep.lower, rep.upper], [1.0, 2.0])


def test_bounds_deficient_family():
    rep = vector_frame_bounds(VectorFrame(2, [np.array([1.0, 0.0])]))
    assert rep.verdict is Verdict.BESSEL_ONLY
    assert rep.lower == 0.0


def test_kframe_matched_operator():
    frame = VectorFrame(2, [np.array([1.0, 0.0])])
    rep = kframe_verify(frame, np.diag([1.0, 0.0]))
    assert rep.is_kff
    assert rep.optimal_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.optimal_upper == pytest.approx(1.0, abs=1e-10)


def test_kframe_refuted_identity():
    frame = VectorFrame(2, [np.array([1.0, 0.0])])
    rep = kframe_verify(frame, np.eye(2))
    assert not rep.is_kff and rep.optimal_lower == 0.0


def test_kframe_identity_matches_plain_bounds():
    rng = Rng(61)
    for _ in range(15):
        n = rng.randint(2, 6)
        count = rng.randint(1, 8)
        frame = VectorFrame(n, [rng.normals(n) for _ in range(count)])
        plain = vector_frame_bounds(frame)
        rep = kframe_verify(frame, np.eye(n))
        assert rep.optimal_upper == plain.upper
        assert rep.is_kff == plain.verdict.is_frame()
        if rep.is_kff:
            assert rep.optimal_lower == pytest.approx(plain.lower, rel=1e-10)


def test_kframe_gamma_reconstructs():
    rng = Rng(62)
    np_rng = np.random.default_rng(620)
    for _ in range(10):
        n = rng.randint(2, 6)
        count = n + rng.randint(0, 4)
        vectors = [rng.normals(n) for _ in range(count)]
        frame = VectorFrame(n, vectors)
        k = rng.normals(n, n)
        rep = kframe_verify(frame, k)
        if not rep.is_kff:
            continue
        t = frame.synthesis_matrix()
        gamma_norm = np.linalg.svd(rep.gamma, compute_uv=False)[0]
        for _ in range(100):
            f = np_rng.standard_normal(n)
            coeffs = rep.gamma @ f
            assert np.linalg.norm(t @ coeffs - k @ f) <= 1e-9 * max(np.linalg.norm(k @ f), 1e-9)
            assert np.linalg.norm(coeffs) <= gamma_norm * np.linalg.norm(f) + 1e-9


def test_kframe_refuted_has_violating_direction():
    # refuted: every candidate constant is beaten along the null direction
    frame = VectorFrame(3, [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    k = np.eye(3)
    rep = kframe_verify(frame, k)
    assert not rep.is_kff
    nulls = null_space(frame.frame_operator())
    assert nulls.shape[1] == 1
    f = nulls[:, 0]
    assert np.linalg.norm(k.T @ f) > 0.9
    assert f @ (frame.frame_operator() @ f) < 1e-12


@pytest.mark.parametrize("ratio", [5e-10, 2e-10, 5e-11])
def test_vector_frame_verdict_is_decided_at_the_rank_cut(ratio):
    # lambda_min / lambda_max = ratio, against the cut at 1e-10
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    for frame in (VectorFrame(2, [np.array([1.0, 0.0]), np.array([0.0, np.sqrt(ratio)])]),
                  VectorFrame(3, [q[:, 0], 0.6 * q[:, 1], 0.8 * q[:, 1],
                                  np.sqrt(ratio) * q[:, 2]])):
        n = frame.ambient_dim
        bounds = vector_frame_bounds(frame)
        assert bounds.lower / bounds.upper == pytest.approx(ratio, rel=1e-6)
        full_rank = linalg.sym_eig(frame.frame_operator()).rank() == n
        assert full_rank == (ratio > 1e-10)
        assert bounds.verdict.is_frame() == full_rank == kframe_verify(frame, np.eye(n)).is_kff


def test_bounds_and_verification_share_one_eigendecomposition(monkeypatch):
    calls = []
    sym_eig = linalg.sym_eig
    monkeypatch.setattr(linalg, "sym_eig", lambda s: calls.append(1) or sym_eig(s))
    frame = VectorFrame(3, [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]),
                            np.array([0.0, 1.0, 1.0])])
    bounds = vector_frame_bounds(frame)
    rep = kframe_verify(frame, np.eye(3))
    assert len(calls) == 1
    assert rep.is_kff and bounds.verdict.is_frame()


def test_vector_frame_is_its_line_system():
    # a zero vector is a zero subspace: it adds nothing, and its coefficient is 0
    vectors = [np.array([3.0, 4.0]), np.zeros(2), np.array([0.0, -2.0])]
    frame = VectorFrame(2, vectors)
    lines = frame.line_system()
    assert lines is frame.line_system()
    assert [m.subspace.dim for m in lines.members] == [1, 0, 1]
    np.testing.assert_allclose(lines.weights, [5.0, 1.0, 2.0])
    t = frame.synthesis_matrix()
    np.testing.assert_allclose(frame.frame_operator(), t @ t.T, rtol=1e-15, atol=1e-14)
    rep = kframe_verify(frame, np.eye(2))
    assert rep.is_kff and np.all(rep.gamma[1] == 0.0)
    np.testing.assert_allclose(t @ rep.gamma, np.eye(2), atol=1e-14)
    with pytest.raises(InputError, match="below the normal float range"):
        vector_frame_bounds(VectorFrame(2, [np.array([1e-170, 0.0]), np.array([0.0, 1.0])]))


def test_local_to_global_worked_example():
    system = WeightedSubspaceSystem(
        [
            Member(
                Subspace.from_spanning(np.eye(3)[:, :2]),
                1.0,
                (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
            ),
            Member(Subspace.span([0.0, 0.0, 1.0]), 1.0, (np.array([0.0, 0.0, 1.0]),)),
        ]
    )
    rep = local_to_global_check(system)
    assert rep.c == pytest.approx(1.0) and rep.d == pytest.approx(1.0)
    assert rep.global_bounds.lower == pytest.approx(1.0)
    assert rep.global_bounds.upper == pytest.approx(1.0)
    assert rep.equivalent and rep.interval_ok


def test_local_to_global_duplicated_vector():
    system = WeightedSubspaceSystem(
        [
            Member(
                Subspace.span([1.0, 0.0]),
                1.0,
                (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            ),
            Member(Subspace.span([0.0, 1.0]), 1.0, (np.array([0.0, 1.0]),)),
        ]
    )
    rep = local_to_global_check(system)
    assert rep.local_lower[0] == pytest.approx(2.0)
    assert rep.local_upper[0] == pytest.approx(2.0)
    assert rep.c == pytest.approx(1.0) and rep.d == pytest.approx(2.0)
    assert rep.global_bounds.lower == pytest.approx(1.0)
    assert rep.global_bounds.upper == pytest.approx(2.0)
    assert rep.equivalent and rep.interval_ok


def test_local_to_global_random_systems():
    rng = Rng(63)
    for _ in range(25):
        system = attach_local_frames(fusion_instance(rng), rng)
        rep = local_to_global_check(system)
        assert not rep.local_failure
        assert rep.equivalent and rep.interval_ok


def _scaled_local_lines(scale):
    """The coordinate lines of R^3, each with the local frame {scale e_i}."""
    return WeightedSubspaceSystem([Member(Subspace(3, e[:, None]), 1.0, (scale * e,))
                                   for e in np.eye(3)])


@pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-6, 1e5])
def test_local_failure_does_not_depend_on_scale(scale):
    # a tight local frame with C = D = scale^2 spans every member at any scale
    system = _scaled_local_lines(scale)
    rep = local_to_global_check(system)
    assert rep.c == rep.d == pytest.approx(scale * scale, rel=1e-15)
    assert not rep.local_failure
    assert rep.equivalent and rep.interval_ok


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_interval_check_is_relative_at_any_scale(monkeypatch, scale):
    # a global upper bound twice the true one escapes [L C, U D] at any scale
    def doubled(frame, tol=1e-9):
        rep = vector_frame_bounds(frame, tol)
        return replace(rep, upper=2.0 * rep.upper) if frame.ambient_dim == 3 else rep

    system = _scaled_local_lines(scale)
    monkeypatch.setattr(vector_frames, "vector_frame_bounds", doubled)
    rep = local_to_global_check(system)
    assert not rep.local_failure and rep.equivalent
    assert not rep.interval_ok


def test_local_vector_outside_subspace_rejected():
    system = WeightedSubspaceSystem(
        [Member(Subspace.span([1.0, 0.0]), 1.0, (np.array([1.0, 0.5]),))]
    )
    with pytest.raises(InputError):
        local_to_global_check(system)


@pytest.mark.parametrize("weight, vector", [(1.0, [1.5e308, 1.5e308]), (1e160, [1e150, 1e150])],
                         ids=["norm", "weighted"])
def test_local_vector_beyond_the_float_range_is_an_input_error(weight, vector):
    # ||v|| or w v is beyond the float range: an InputError, and no RuntimeWarning
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 1.0]), weight,
                                            (np.array(vector),))])
    with pytest.raises(InputError, match="finite"):
        local_to_global_check(system)


@pytest.mark.parametrize("weight, ys, message", [
    (1.0, (1.0, 1e160), "member 1: local vector 1: norm 1e+160 has no finite square"),
    (1.0, (1.0, 1e-170), "member 1: local vector 1: norm 1e-170 has a square below the normal"),
    (1.0, (1.0, 1.5e308), "member 1: local vector 1: norm 1.5e+308 has no finite square"),
    (1e100, (1.0, 1e60), "member 1: local vector 1: weighted norm 1e+160 has no finite square"),
    (1.0, (1e154, 1e154), "member 1: local frame: the frame operator"),
    (10.0, (1e153, 1e153), "global frame: the frame operator"),
], ids=["local-overflow", "local-underflow", "local-inf", "global-overflow", "local-sum",
        "global-sum"])
def test_local_frame_errors_name_the_users_member_and_vector(weight, ys, message):
    # the local and global frames are line systems, whose own "member k" is
    # a line: the error names member i and local vector j of the input
    system = WeightedSubspaceSystem([
        Member(Subspace.span([1.0, 0.0]), 1.0, (np.array([1.0, 0.0]),)),
        Member(Subspace.span([0.0, 1.0]), weight, tuple(np.array([0.0, y]) for y in ys)),
    ])
    with pytest.raises(InputError) as info:
        local_to_global_check(system)
    assert str(info.value).startswith(message)


def test_missing_local_frame_rejected():
    system = coordinate_lines(2)
    with pytest.raises(InputError):
        local_to_global_check(system)


def test_non_spanning_local_frame_reports_failure():
    system = WeightedSubspaceSystem(
        [
            Member(
                Subspace.from_spanning(np.eye(3)[:, :2]),
                1.0,
                (np.array([1.0, 0.0, 0.0]),),  # only one vector for a plane
            ),
            Member(Subspace.span([0.0, 0.0, 1.0]), 1.0, (np.array([0.0, 0.0, 1.0]),)),
        ]
    )
    rep = local_to_global_check(system)
    assert rep.local_failure
    assert rep.c <= 1e-12
    assert rep.equivalent is None and rep.interval_ok is None


def test_flattened_system_inherits_operator_verification():
    # a verified pair with orthonormal local frames: the flattened weighted
    # family verifies for the same operator with the same bounds
    rng = Rng(64)
    for _ in range(10):
        system, k = verified_instance(rng)
        with_frames = WeightedSubspaceSystem(
            [
                Member(m.subspace, m.weight, tuple(m.subspace.basis.T))
                for m in system.members
                if m.subspace.dim > 0
            ]
        )
        flattened = [
            m.weight * v for m in with_frames.members for v in m.local_frame
        ]
        frame = VectorFrame(system.ambient_dim, flattened)
        rep_system = kfusion_verify(with_frames, k)
        rep_frame = kframe_verify(frame, k)
        assert rep_frame.is_kff == rep_system.is_kff
        if rep_frame.is_kff:
            assert rep_frame.optimal_lower == pytest.approx(
                rep_system.optimal_lower, rel=1e-8
            )
            assert rep_frame.optimal_upper == pytest.approx(
                rep_system.optimal_upper, rel=1e-8
            )


def test_vector_frame_validation():
    with pytest.raises(InputError):
        VectorFrame(2, [])
    with pytest.raises(InputError):
        VectorFrame(2, [np.array([1.0, 0.0, 0.0])])
    with pytest.raises(InputError):
        kframe_verify(VectorFrame(2, [np.array([1.0, 0.0])]), np.eye(3))


def _zero_member_system(vector):
    return WeightedSubspaceSystem([Member(Subspace.zero(2), 1.0, (np.array(vector),)),
                                   Member(Subspace.full(2), 1.0, tuple(np.eye(2)))])


@pytest.mark.parametrize("norm", [1e-10, 1e-300])
def test_every_nonzero_local_vector_of_a_zero_member_is_rejected(norm):
    # a nonzero vector lies wholly outside the zero subspace, however short
    with pytest.raises(InputError, match="outside the zero subspace"):
        local_to_global_check(_zero_member_system([norm, 0.0]))


def test_zero_local_vector_of_a_zero_member_is_accepted():
    rep = local_to_global_check(_zero_member_system([0.0, -0.0]))
    assert rep.c == rep.d == 1.0 and not rep.local_failure

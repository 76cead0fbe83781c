import json
import math

import numpy as np
import pytest

from fusionframes import linalg
from fusionframes.cli import main
from fusionframes.constructions import (
    PerturbationParams,
    basis_image_system,
    commuting_transform_construct,
    invertibility_consistency_check,
    operator_image_construct,
    perturbation_estimate,
    perturbation_predict,
    surjectivity_consistency_check,
    transform_system,
    within_predicted_bounds,
)
from fusionframes.errors import InadmissibleError, InputError, PreconditionError
from fusionframes.fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from fusionframes.generator import Flavor, GenSpec, Rng, generate
from fusionframes.kfusion import kfusion_verify
from fusionframes.subspaces import Subspace
from fusionframes.suite import (
    fusion_instance,
    nearby_orthogonal,
    random_orthogonal,
    verified_instance,
)

from oracles import random_unit_rows

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_transform_identity_keeps_system():
    system = coordinate_lines(2)
    out = transform_system(system, np.eye(2))
    for a, b in zip(out.members, system.members):
        assert a.subspace.projection_distance(b.subspace) < 1e-12
        assert a.weight == b.weight


def test_transform_swap():
    out = transform_system(coordinate_lines(2), SWAP)
    assert out.members[0].subspace.projection_distance(Subspace.span([0.0, 1.0])) < 1e-12
    assert out.members[1].subspace.projection_distance(Subspace.span([1.0, 0.0])) < 1e-12


def test_transform_collapses_to_zero():
    system = WeightedSubspaceSystem([Member(Subspace.span([0.0, 1.0]), 1.0)])
    out = transform_system(system, np.diag([1.0, 0.0]))
    assert out.members[0].subspace.is_zero()


def test_transform_dimension_mismatch():
    with pytest.raises(InputError):
        transform_system(coordinate_lines(2), np.eye(3))


def test_transform_invertible_preserves_structure():
    rng = Rng(40)
    for _ in range(10):
        system = fusion_instance(rng)
        n = system.ambient_dim
        t = random_orthogonal(rng, n) @ np.diag(1.0 + rng.normals(n) ** 2)
        out = transform_system(system, t)
        assert len(out) == len(system)
        for a, b in zip(out.members, system.members):
            assert a.weight == b.weight
            assert a.subspace.dim == b.subspace.dim


def test_commuting_transform_swap_worked_example():
    rep = commuting_transform_construct(coordinate_lines(2), np.eye(2), SWAP)
    assert not rep.vacuous
    assert rep.predicted_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.predicted_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.report.optimal_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.report.optimal_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.bounds_consistent


def test_commuting_transform_scaling_worked_example():
    rep = commuting_transform_construct(coordinate_lines(2), np.eye(2), 2.0 * np.eye(2))
    # the norm factors cancel: predictions stay at the Parseval bounds
    assert rep.predicted_lower == pytest.approx(1.0, rel=1e-12)
    assert rep.predicted_upper == pytest.approx(1.0, rel=1e-12)
    # scalar transforms leave every subspace in place
    assert rep.report.optimal_lower == pytest.approx(1.0, abs=1e-12)
    assert rep.report.optimal_upper == pytest.approx(1.0, abs=1e-12)
    assert rep.bounds_consistent


def test_commuting_transform_non_surjective_is_vacuous():
    rep = commuting_transform_construct(
        coordinate_lines(2), np.eye(2), np.diag([1.0, 0.0])
    )
    assert rep.vacuous
    assert not rep.hypotheses["surjective"].ok
    assert rep.predicted_lower is None and rep.bounds_consistent is None


def test_commuting_transform_orthogonal_instances():
    rng = Rng(41)
    for _ in range(15):
        system = fusion_instance(rng)
        n = system.ambient_dim
        rep = commuting_transform_construct(system, np.eye(n), random_orthogonal(rng, n))
        assert not rep.vacuous
        assert rep.bounds_consistent


def test_commuting_transform_polynomial_instances():
    rng = Rng(42)
    for _ in range(15):
        system, k = verified_instance(rng)
        n = system.ambient_dim
        c0 = (2.0 + rng.uniform()) * max(linalg.operator_norm(k), 1.0)
        t = c0 * np.eye(n) + np.asarray(k)
        rep = commuting_transform_construct(system, k, t)
        assert not rep.vacuous
        assert rep.bounds_consistent


def test_commuting_transform_refuted_precondition():
    system = WeightedSubspaceSystem([Member(Subspace.span([0.0, 1.0]), 1.0)])
    with pytest.raises(PreconditionError):
        commuting_transform_construct(system, np.diag([1.0, 0.0]), np.eye(2))


def test_surjectivity_check_invertible_consistent():
    rep = surjectivity_consistency_check(coordinate_lines(2), np.eye(2), SWAP)
    assert rep.branch == "verified-implies-surjective"
    assert rep.consistent


def test_surjectivity_check_rank_deficient_refuted():
    rep = surjectivity_consistency_check(
        coordinate_lines(2), np.eye(2), np.diag([1.0, 0.0])
    )
    assert rep.branch == "rank-deficient-refuted"
    assert rep.consistent
    assert not rep.verified


def test_surjectivity_check_requires_dense_range():
    with pytest.raises(PreconditionError):
        surjectivity_consistency_check(
            coordinate_lines(2), np.diag([1.0, 0.0]), np.eye(2)
        )


def test_surjectivity_sweeps():
    rng = Rng(43)
    for _ in range(100):
        system = fusion_instance(rng)
        n = system.ambient_dim
        k = np.eye(n) if rng.randint(0, 1) else random_orthogonal(rng, n)
        t = rng.normals(n, n)
        if rng.randint(0, 1):
            u = rng.normals(n)
            t = t @ (np.eye(n) - np.outer(u, u) / (u @ u))
        rep = surjectivity_consistency_check(system, k, t)
        assert rep.consistent is not False


def _graded_transforms(ratio):
    """T(R^n) for 120 operators T with sigma_min / sigma_max = ratio."""
    rng = Rng(47)
    for _ in range(40):
        for n in (3, 4, 6):
            sv = np.append(np.linspace(1.0, 0.3, n - 1), ratio)
            t = random_orthogonal(rng, n) @ np.diag(sv) @ random_orthogonal(rng, n)
            full = WeightedSubspaceSystem([(Subspace.full(n), 1.0)])
            yield n, surjectivity_consistency_check(full, np.eye(n), t)


@pytest.mark.parametrize("ratio", [5e-9, 1e-9, 3e-10, 1.5e-10])
def test_surjectivity_is_decided_at_the_rank_cut(ratio):
    # sigma_min / sigma_max = ratio is kept by the 1e-10 cut, which decides
    # T's rank and, relative to ||T||, forms the image T(R^n): so T(R^n) =
    # R^n verifies and T counts as surjective.
    for n, rep in _graded_transforms(ratio):
        assert rep.verified and rep.consistent, (n, rep.to_json())
        assert rep.details["surjective"]
        assert rep.sigma_min_ratio == pytest.approx(ratio, rel=1e-6)


@pytest.mark.parametrize("ratio", [8e-11, 5e-11])
def test_surjectivity_below_the_rank_cut_is_refuted(ratio):
    # the same cut drops sigma_min from T and from the image T(R^n), so
    # the image misses a dimension and the transformed system is refuted
    for n, rep in _graded_transforms(ratio):
        assert rep.consistent and not rep.verified, (n, rep.to_json())
        assert rep.branch == "rank-deficient-refuted"
        assert not rep.details["surjective"]


def test_invertibility_check_orthogonal():
    rep = invertibility_consistency_check(coordinate_lines(2), np.eye(2), SWAP)
    assert rep.branch == "both-verified"
    assert rep.consistent


def test_invertibility_check_singular_t():
    rep = invertibility_consistency_check(
        coordinate_lines(2), np.eye(2), np.diag([1.0, 0.0])
    )
    assert rep.branch == "singular-refuted"
    assert rep.consistent


def test_invertibility_check_vacuous_hypotheses():
    # non-commuting pair: nothing to assert
    k = np.array([[1.0, 1.0], [0.0, 1.0]])
    t = np.array([[1.0, 0.0], [1.0, 1.0]])
    rep = invertibility_consistency_check(coordinate_lines(2), k, t)
    assert rep.branch == "vacuous-hypotheses"
    assert rep.consistent is None


def test_invertibility_sweeps():
    rng = Rng(44)
    for _ in range(100):
        system = fusion_instance(rng)
        n = system.ambient_dim
        k = rng.normals(n, n)
        while linalg.matrix_rank(k) < n:
            k = rng.normals(n, n)
        t = rng.uniform(-1, 1) * np.eye(n) + rng.uniform(-1, 1) * k
        if rng.randint(0, 1):
            eig = np.linalg.eigvals(k)
            real = eig[np.abs(eig.imag) < 1e-10]
            if real.size:
                t = t @ (k - float(real[0].real) * np.eye(n))
        rep = invertibility_consistency_check(system, k, t)
        assert rep.consistent is not False


def test_basis_image_identity():
    system, rep = basis_image_system(np.eye(3))
    assert rep.is_kff
    assert rep.optimal_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.optimal_upper == pytest.approx(1.0, abs=1e-10)
    assert all(m.subspace.dim == 1 for m in system.members)


def test_basis_image_rank_deficient_worked_example():
    system, rep = basis_image_system(np.diag([1.0, 1.0, 0.0]))
    assert [m.subspace.dim for m in system.members] == [1, 1, 0]
    assert rep.is_kff
    assert rep.optimal_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.optimal_upper == pytest.approx(1.0, abs=1e-10)


def test_basis_image_column_below_the_cut_is_a_zero_subspace():
    # ||K e3|| = 1e-11 ||K|| is below the rank cut relative to ||K||
    system, rep = basis_image_system(np.diag([1.0, 2.0, 2e-11]))
    assert [m.subspace.dim for m in system.members] == [1, 1, 0]
    assert rep.is_kff


@pytest.mark.parametrize("n", [3, 64])
def test_columns_dropped_at_the_cut_leave_a_defect_below_the_tolerance(n):
    # every column but the first is just below the cut relative to ||K||;
    # together they leave a range defect near sqrt(n - 1) * 1e-10, which is
    # above the cut but far below the verdict tolerance
    k = np.diag([1.0] + [9.9e-11] * (n - 1))
    system, rep = basis_image_system(k)
    assert [m.subspace.dim for m in system.members] == [1] + [0] * (n - 1)
    assert 1e-10 < rep.residual <= math.sqrt(n - 1) * 1e-10 and rep.is_kff
    image = operator_image_construct(coordinate_lines(n), k)
    assert image.hypothesis_ok and image.consistent
    assert image.report.residual == rep.residual


def test_basis_image_random_always_verifies():
    rng = Rng(45)
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.normals(n, n)
        if rng.randint(0, 2) == 0:
            u = rng.normals(n)
            k = k @ (np.eye(n) - np.outer(u, u) / (u @ u))
        _, rep = basis_image_system(k)
        assert rep.is_kff


def test_operator_image_worked_example():
    system = coordinate_lines(3)
    k = np.diag([1.0, 1.0, 0.0])
    rep = operator_image_construct(system, k)
    assert rep.hypothesis_ok
    assert [m.subspace.dim for m in rep.transformed.members] == [1, 1, 0]
    assert rep.report.is_kff
    assert rep.report.optimal_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.report.optimal_upper == pytest.approx(1.0, abs=1e-10)


def test_operator_image_identity():
    system = coordinate_lines(2)
    rep = operator_image_construct(system, np.eye(2))
    assert rep.hypothesis_ok and rep.report.is_kff
    for a, b in zip(rep.transformed.members, system.members):
        assert a.subspace.projection_distance(b.subspace) < 1e-12


def test_operator_image_requires_frame():
    lonely = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    with pytest.raises(PreconditionError):
        operator_image_construct(lonely, np.eye(2))


def test_operator_image_compatible_instances():
    rng = Rng(46)
    for _ in range(50):
        n = rng.randint(2, 7)
        hi = max(1, n // 2)
        m_min = -(-n // hi)
        system, k = generate(
            GenSpec(
                seed=rng.u64(),
                ambient_dim=n,
                member_count=rng.randint(m_min, m_min + 2),
                flavor=Flavor.IMAGE_COMPATIBLE,
            )
        )
        rep = operator_image_construct(system, k)
        assert rep.hypothesis_ok
        assert rep.report.is_kff


def test_perturbation_predict_identity():
    assert perturbation_predict(1.0, 2.0, PerturbationParams(0.0)) == (1.0, 2.0)


def test_perturbation_predict_worked_example():
    a_new, b_new = perturbation_predict(1.0, 1.0, PerturbationParams(0.2))
    assert a_new == pytest.approx(0.64)
    assert b_new == pytest.approx(1.44)


def test_perturbation_predict_inadmissible():
    with pytest.raises(InadmissibleError):
        perturbation_predict(1.0, 1.0, PerturbationParams(0.0, 1.0, 0.0))
    with pytest.raises(InadmissibleError):
        perturbation_predict(0.25, 1.0, PerturbationParams(0.5, 0.0, 0.3))


def test_perturbation_params_validation():
    with pytest.raises(InputError):
        PerturbationParams(-0.1)
    with pytest.raises(InputError):
        PerturbationParams(0.1, mu=float("inf"))


def test_perturbation_estimate_equal_systems():
    system = coordinate_lines(3)
    params = perturbation_estimate(system, system)
    assert params.lambda1 == 0.0 and params.lambda2 == 0.0 and params.mu == 0.0


@pytest.mark.parametrize("theta", [0.01, 0.1, 0.3])
def test_perturbation_estimate_rotated_lines(theta):
    c, s = math.cos(theta), math.sin(theta)
    w = coordinate_lines(2)
    v = WeightedSubspaceSystem(
        [Member(Subspace.span([c, s]), 1.0), Member(Subspace.span([-s, c]), 1.0)]
    )
    params = perturbation_estimate(w, v)
    assert params.lambda1 == pytest.approx(math.sqrt(2.0) * math.sin(theta), abs=1e-9)


def test_perturbation_estimate_bounds_the_hypothesis():
    rng = Rng(47)
    np_rng = np.random.default_rng(470)
    for _ in range(8):
        system = fusion_instance(rng)
        n = system.ambient_dim
        q = nearby_orthogonal(rng, n, 0.05)
        perturbed = transform_system(system, q)
        params = perturbation_estimate(system, perturbed)
        dirs = random_unit_rows(np_rng, 10_000, n)
        d = np.zeros((n, n))
        for m1, m2 in zip(system.members, perturbed.members):
            delta = m1.subspace.projection() - m2.subspace.projection()
            d += m1.weight ** 2 * (delta @ delta)
        s = system.frame_operator()
        lhs = np.sqrt(np.einsum("ni,ij,nj->n", dirs, d, dirs).clip(min=0))
        rhs = params.lambda1 * np.sqrt(np.einsum("ni,ij,nj->n", dirs, s, dirs).clip(min=0))
        assert np.all(lhs <= rhs + 1e-9)


def test_perturbation_estimate_validation():
    system = coordinate_lines(2)
    other = coordinate_lines(3)
    with pytest.raises(InputError):
        perturbation_estimate(system, other)
    reweighted = coordinate_lines(2, weights=[1.0, 2.0])
    with pytest.raises(InputError):
        perturbation_estimate(system, reweighted)
    lonely = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    with pytest.raises(PreconditionError):
        perturbation_estimate(lonely, lonely)


def test_perturbation_soundness_end_to_end():
    rng = Rng(48)
    checked = 0
    for _ in range(20):
        system = fusion_instance(rng)
        n = system.ambient_dim
        use_k = rng.randint(0, 1) == 1
        k = rng.normals(n, n) if use_k else np.eye(n)
        base = kfusion_verify(system, k)
        assert base.is_kff
        q = nearby_orthogonal(rng, n, 0.02 + 0.04 * rng.uniform())
        perturbed = transform_system(system, q)
        params = perturbation_estimate(system, perturbed)
        a_ref = min(base.optimal_lower, base.optimal_upper)
        if not params.admissible(a_ref):
            continue
        a_new, b_new = perturbation_predict(a_ref, base.optimal_upper, params)
        rep = kfusion_verify(perturbed, k)
        slack = 1e-9 * max(1.0, b_new)
        assert rep.is_kff
        assert rep.optimal_lower >= a_new - slack
        assert rep.optimal_upper <= b_new + slack
        checked += 1
    assert checked >= 10


def test_isometric_adjoint_transform_verifies_on_range():
    # co-isometric transforms (orthogonal in finite dimension) preserve
    # verification; on the full range this is the commuting construct
    rng = Rng(49)
    for _ in range(10):
        system = fusion_instance(rng)
        n = system.ambient_dim
        t = random_orthogonal(rng, n)
        assert np.linalg.norm(t @ t.T - np.eye(n)) < 1e-10
        rep = commuting_transform_construct(system, np.eye(n), t)
        assert not rep.vacuous and rep.report.is_kff
        # restricted to the range of t (= everything), the bounds agree
        f_dirs = random_unit_rows(np.random.default_rng(5), 500, n)
        s2 = rep.transformed.frame_operator()
        quad = np.einsum("ni,ij,nj->n", f_dirs, s2, f_dirs)
        assert np.all(quad >= rep.report.optimal_lower - 1e-9)
        assert np.all(quad <= rep.report.optimal_upper + 1e-9)


def test_spans_and_images_never_use_gram_schmidt(monkeypatch):
    # qr_orthonormalize serves the instance builders only; every span,
    # image and construction decides its rank at the one SVD cut
    def refuse(*_):
        raise AssertionError("qr_orthonormalize called")

    monkeypatch.setattr(linalg, "qr_orthonormalize", refuse)
    w = Subspace.from_spanning(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0]]))
    assert w.dim == 2
    assert Subspace.span([1.0, 0.0, 0.0], [2.0, 0.0, 0.0]).dim == 1
    assert Subspace.from_json(w.to_json()).projection_distance(w) < 1e-12
    assert WeightedSubspaceSystem.from_json(coordinate_lines(3).to_json()).spectrum().rank() == 3
    assert w.image_under(np.diag([1.0, 1.0, 0.0])).dim == 2
    assert [m.subspace.dim for m in
            transform_system(coordinate_lines(3), np.diag([1.0, 0.0, 1.0])).members] == [1, 0, 1]
    assert basis_image_system(np.diag([1.0, 1.0, 0.0]))[1].is_kff
    lines = coordinate_lines(2)
    assert surjectivity_consistency_check(lines, np.eye(2), SWAP).consistent
    assert invertibility_consistency_check(lines, np.eye(2), SWAP).consistent
    assert commuting_transform_construct(lines, np.eye(2), SWAP).bounds_consistent
    assert operator_image_construct(coordinate_lines(3), np.diag([1.0, 1.0, 0.0])).consistent


# (K scale, T scale): TK overflows, and ||T+||^2 = 1e400 overflows
EXTREME_PAIRS = [(1e150, 1e200), (1e-150, 1e-200)]


@pytest.mark.parametrize("k_scale, t_scale", EXTREME_PAIRS, ids=["huge", "tiny"])
def test_commuting_transform_at_extreme_scale(k_scale, t_scale):
    system = coordinate_lines(3, [1.0, 2.0, 3.0])
    k, t = k_scale * np.eye(3), t_scale * np.diag([1.0, 2.0, 4.0])
    rep = commuting_transform_construct(system, k, t)
    assert rep.hypotheses["commutes"].ok and rep.hypotheses["commutes"].margin == 0.0
    assert not rep.vacuous and rep.bounds_consistent
    base = kfusion_verify(system, k)
    # ||T||^2 ||T+||^2 = (4 / 1)^2 whatever the scale of T
    assert rep.predicted_lower == base.optimal_lower / 16.0
    assert rep.predicted_upper == base.optimal_upper * 16.0
    inv = invertibility_consistency_check(system, k, t)
    assert inv.branch == "both-verified" and inv.consistent


@pytest.mark.parametrize("k_scale, t_scale", EXTREME_PAIRS, ids=["huge", "tiny"])
def test_transform_command_at_extreme_scale(tmp_path, capsys, k_scale, t_scale):
    paths = {}
    for name, obj in (("s", coordinate_lines(3, [1.0, 2.0, 3.0]).to_json()),
                      ("k", linalg.matrix_to_json(k_scale * np.eye(3))),
                      ("t", linalg.matrix_to_json(t_scale * np.eye(3)))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    argv = ["transform", "--system", str(paths["s"]), "--operator", str(paths["k"]),
            "--operator-t", str(paths["t"]), "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hypotheses"]["commutes"] == {"ok": True, "margin": 0.0}
    assert report["consistent"] is True


def test_within_predicted_bounds_is_the_interval_with_its_slack():
    # slack = tol * max(1, upper): 1e-3 here for upper 0.5, 2e-3 for upper 2
    report = kfusion_verify(coordinate_lines(2, [1.0, math.sqrt(2.0)]), np.eye(2))
    assert (report.optimal_lower, report.optimal_upper) == pytest.approx((1.0, 2.0))
    assert within_predicted_bounds(report, 1.0, 2.0, 1e-3)
    assert within_predicted_bounds(report, 1.0019, 1.9981, 1e-3)
    assert not within_predicted_bounds(report, 1.0021, 2.0, 1e-3)
    assert not within_predicted_bounds(report, 1.0, 1.9979, 1e-3)
    assert within_predicted_bounds(report, 1.0009, 0.5, 1e-3) is False  # upper 2 > 0.5 + 1e-3
    refuted = kfusion_verify(WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)]),
                             np.eye(2))
    assert not within_predicted_bounds(refuted, 0.0, 10.0, 1e-3)

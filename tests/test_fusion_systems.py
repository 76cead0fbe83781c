import math

import numpy as np
import pytest

from fusionframes.errors import InputError
from fusionframes.fusion_systems import (
    CoefficientBundle,
    Member,
    Verdict,
    WeightedSubspaceSystem,
    coordinate_lines,
)
from fusionframes.generator import Flavor, GenSpec, Rng, generate
from fusionframes.kfusion import kfusion_verify
from fusionframes.subspaces import Subspace

from oracles import random_unit_rows


def line_and_plane():
    return WeightedSubspaceSystem(
        [
            Member(Subspace.span([1.0, 0.0]), 1.0),
            Member(Subspace.full(2), 1.0),
        ]
    )


def test_analysis_coordinate_lines():
    bundle = coordinate_lines(2).analysis(np.array([3.0, 4.0]))
    np.testing.assert_allclose(bundle.blocks[0], [3.0, 0.0])
    np.testing.assert_allclose(bundle.blocks[1], [0.0, 4.0])


def test_analysis_zero_vector():
    bundle = line_and_plane().analysis(np.zeros(2))
    for b in bundle.blocks:
        np.testing.assert_array_equal(b, np.zeros(2))


def test_analysis_dimension_mismatch():
    with pytest.raises(InputError):
        coordinate_lines(2).analysis(np.ones(3))


def test_synthesis_examples():
    system = coordinate_lines(2)
    zero = system.synthesis(CoefficientBundle([np.zeros(2), np.zeros(2)]))
    np.testing.assert_array_equal(zero, np.zeros(2))
    out = system.synthesis(CoefficientBundle([np.array([3.0, 0.0]), np.array([0.0, 4.0])]))
    np.testing.assert_allclose(out, [3.0, 4.0])


def test_synthesis_shape_mismatch():
    with pytest.raises(InputError):
        coordinate_lines(2).synthesis(CoefficientBundle([np.zeros(2)]))


def test_frame_operator_examples():
    np.testing.assert_allclose(coordinate_lines(2).frame_operator(), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        line_and_plane().frame_operator(), np.diag([2.0, 1.0]), atol=1e-14
    )


def test_bounds_examples():
    rep = coordinate_lines(2).fusion_bounds()
    assert rep.verdict is Verdict.PARSEVAL
    np.testing.assert_allclose([rep.lower, rep.upper], [1.0, 1.0])

    rep = line_and_plane().fusion_bounds()
    assert rep.verdict is Verdict.FRAME
    np.testing.assert_allclose([rep.lower, rep.upper], [1.0, 2.0])

    lonely = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    rep = lonely.fusion_bounds()
    assert rep.verdict is Verdict.BESSEL_ONLY
    assert rep.lower == 0.0 and rep.upper == pytest.approx(1.0)


def test_tight_verdict():
    system = coordinate_lines(2, weights=[2.0, 2.0])
    rep = system.fusion_bounds()
    assert rep.verdict is Verdict.TIGHT
    np.testing.assert_allclose([rep.lower, rep.upper], [4.0, 4.0])


def test_adjointness_and_composition():
    rng = Rng(11)
    for _ in range(20):
        system, _ = generate(GenSpec(seed=rng.u64(), ambient_dim=5, member_count=3))
        n = system.ambient_dim
        f = rng.normals(n)
        bundle = system.analysis(f)
        s = system.frame_operator()
        # norm identity: ||analysis f||^2 = <S f, f>
        assert abs(bundle.norm() ** 2 - f @ (s @ f)) <= 1e-9 * max(f @ (s @ f), 1.0)
        # adjointness against an arbitrary admissible bundle
        blocks = [m.subspace.project(rng.normals(n)) for m in system.members]
        g = CoefficientBundle(blocks)
        lhs = system.synthesis(g) @ f
        rhs = sum(b1 @ b2 for b1, b2 in zip(g.blocks, bundle.blocks))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)
        # synthesis o analysis is the frame operator
        comp = np.column_stack([system.synthesis(system.analysis(e)) for e in np.eye(n)])
        assert np.linalg.norm(comp - s) <= 1e-10 * max(np.linalg.norm(s), 1.0)


def test_rayleigh_optimality_oracle():
    rng = Rng(12)
    system, _ = generate(
        GenSpec(seed=rng.u64(), ambient_dim=6, member_count=4, flavor=Flavor.FUSION_FRAME)
    )
    s = system.frame_operator()
    rep = system.fusion_bounds()
    w, v = np.linalg.eigh(s)
    directions = np.vstack(
        [random_unit_rows(np.random.default_rng(0), 10_000, 6), v[:, 0], v[:, -1]]
    )
    quad = np.einsum("ni,ij,nj->n", directions, s, directions)
    norms = np.einsum("ni,ni->n", directions, directions)
    ratios = quad / norms
    assert ratios.min() >= rep.lower - 1e-9
    assert ratios.max() <= rep.upper + 1e-9
    assert ratios.min() <= rep.lower * (1 + 1e-3)
    assert ratios.max() >= rep.upper * (1 - 1e-3)


def test_weight_scaling_squares_bounds():
    rng = Rng(13)
    for _ in range(10):
        system, _ = generate(GenSpec(seed=rng.u64(), ambient_dim=5, member_count=3))
        c = 0.5 + 2.0 * rng.uniform()
        b1 = system.fusion_bounds()
        b2 = system.scaled(c).fusion_bounds()
        assert b2.lower == pytest.approx(c ** 2 * b1.lower, rel=1e-9, abs=1e-12)
        assert b2.upper == pytest.approx(c ** 2 * b1.upper, rel=1e-9)


def test_every_system_is_bessel():
    rng = Rng(14)
    for _ in range(15):
        system, _ = generate(GenSpec(seed=rng.u64(), ambient_dim=6, member_count=4))
        rep = system.fusion_bounds()
        assert rep.upper <= float((system.weights ** 2).sum()) * (1 + 1e-12)


def test_bundle_membership_validation():
    system = coordinate_lines(2)
    good = CoefficientBundle([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    system.check_bundle(good)
    bad = CoefficientBundle([np.array([1.0, 1.0]), np.array([0.0, 2.0])])
    with pytest.raises(InputError):
        system.check_bundle(bad)


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1.5e308])
def test_bundle_membership_at_extreme_scale(scale):
    # the block norms and residuals are taken without squaring an entry; at
    # 1.5e308 the norm of a bad block is itself beyond the float range
    system = coordinate_lines(2)
    system.check_bundle(CoefficientBundle(scale * np.diag([1.0, 0.5])))
    with pytest.raises(InputError, match="relative residual 7.071e-01"):
        system.check_bundle(CoefficientBundle(scale * np.ones((2, 2))))


def test_weights_must_be_positive():
    with pytest.raises(InputError):
        WeightedSubspaceSystem([Member(Subspace.full(2), 0.0)])
    with pytest.raises(InputError):
        WeightedSubspaceSystem([Member(Subspace.full(2), -1.0)])


def test_weight_without_finite_square_is_an_input_error():
    system = coordinate_lines(2, [1e200, 1.0])  # representable, serializable
    assert system.to_json()["members"][0]["weight"] == 1e200
    with pytest.raises(InputError, match="finite square"):
        system.frame_operator()
    with pytest.raises(InputError, match="finite square"):
        system.fusion_bounds()


def test_weight_with_underflowing_square_is_an_input_error():
    system = coordinate_lines(2, [1e-170] * 2)  # w^2 = 1e-340 would zero S
    for call in (system.frame_operator, system.fusion_bounds,
                 lambda: kfusion_verify(system, np.eye(2))):
        with pytest.raises(InputError, match="square below the normal float range"):
            call()
    assert coordinate_lines(2, [1.5e-154] * 2).fusion_bounds().verdict is Verdict.TIGHT


def _rotated_lines(n, weights, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return WeightedSubspaceSystem([Member(Subspace.span(q[:, i]), w)
                                   for i, w in enumerate(weights)])


@pytest.mark.parametrize("ratio", [5e-10, 2e-10, 5e-11])
def test_frame_verdict_is_decided_at_the_rank_cut(ratio):
    # lambda_min / lambda_max = ratio, against the cut at 1e-10: the verdict
    # is Frame exactly when S has full rank, exactly when K = I verifies
    for system in (coordinate_lines(2, [1.0, math.sqrt(ratio)]),
                   coordinate_lines(3, [3.0, 3.0 * math.sqrt(ratio), 2.0]),
                   _rotated_lines(4, [1.0, 0.7, 0.5, math.sqrt(ratio)], 5)):
        n = system.ambient_dim
        bounds = system.fusion_bounds()
        assert bounds.lower / bounds.upper == pytest.approx(ratio, rel=1e-6)
        full_rank = system.spectrum().rank() == n
        assert full_rank == (ratio > 1e-10)
        assert bounds.verdict.is_frame() == full_rank == kfusion_verify(system, np.eye(n)).is_kff
        assert bounds.verdict is (Verdict.FRAME if full_rank else Verdict.BESSEL_ONLY)


def test_tol_decides_only_tight_and_parseval():
    near_one = coordinate_lines(2, [1.0, math.sqrt(0.6)])  # bounds 0.6 and 1
    assert near_one.fusion_bounds(0.45).verdict is Verdict.PARSEVAL
    assert near_one.fusion_bounds(0.3).verdict is Verdict.FRAME
    spread = coordinate_lines(2, [2.0, 2.0 * math.sqrt(0.4)])  # bounds 1.6 and 4
    assert spread.fusion_bounds(0.7).verdict is Verdict.TIGHT
    assert spread.fusion_bounds(0.5).verdict is Verdict.FRAME
    # a lower bound below the cut is no frame, however loose the tol
    deficient = coordinate_lines(2, [1.0, 1e-6])  # bounds 1e-12 and 1
    assert deficient.fusion_bounds(2.0).verdict is Verdict.BESSEL_ONLY


@pytest.mark.filterwarnings("error")
def test_frame_operator_beyond_the_float_range_is_an_input_error():
    w = 1.2e154  # w^2 = 1.44e308 is finite; two of them overlapping are not
    near = WeightedSubspaceSystem([Member(Subspace.full(2), w)])
    np.testing.assert_array_equal(near.frame_operator(), w * w * np.eye(2))
    both = WeightedSubspaceSystem([Member(Subspace.full(2), w),
                                   Member(Subspace.span([1.0, 1.0]), w)])
    with pytest.raises(InputError, match="frame operator"):
        both.frame_operator()


@pytest.mark.filterwarnings("error")
def test_analysis_and_synthesis_beyond_the_float_range_are_input_errors():
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1e145),
                                     Member(Subspace.full(2), 1e145)])
    f = np.array([1e19, 0.0])
    bundle = system.analysis(f)  # blocks 1e164: finite
    with pytest.raises(InputError, match="synthesis"):
        system.synthesis(bundle)  # sum_i w_i a_i = 2e309
    with pytest.raises(InputError, match="blocks"):
        system.analysis(np.array([1e170, 0.0]))


def test_members_share_ambient_dimension():
    with pytest.raises(InputError):
        WeightedSubspaceSystem(
            [Member(Subspace.full(2), 1.0), Member(Subspace.full(3), 1.0)]
        )


def test_system_json_roundtrip():
    system = WeightedSubspaceSystem(
        [
            Member(Subspace.span([1.0, 0.0, 0.0]), 0.5),
            Member(
                Subspace.span([0.0, 1.0, 0.0]),
                2.0,
                (np.array([0.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0])),
            ),
        ]
    )
    back = WeightedSubspaceSystem.from_json(system.to_json())
    assert back.ambient_dim == 3 and len(back) == 2
    assert back.members[1].weight == 2.0
    assert len(back.members[1].local_frame) == 2
    np.testing.assert_allclose(
        back.frame_operator(), system.frame_operator(), atol=1e-12
    )


@pytest.mark.parametrize(
    "obj",
    [
        {"ambient_dim": 2, "members": []},
        {"ambient_dim": 2},
        {"ambient_dim": 2, "members": [{"weight": 1.0}]},
        {
            "ambient_dim": 2,
            "members": [{"basis": {"rows": 3, "cols": 1, "data": [1.0, 0.0, 0.0]}, "weight": 1.0}],
        },
        {
            "ambient_dim": 2,
            "members": [{"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": "x"}],
        },
        {
            "ambient_dim": 2,
            "members": [
                {
                    "basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]},
                    "weight": 1.0,
                    "local_frame": [[1.0]],
                }
            ],
        },
    ],
)
def test_system_json_rejects(obj):
    with pytest.raises(InputError):
        WeightedSubspaceSystem.from_json(obj)


def test_spectrum_is_cached_and_read_only():
    system = line_and_plane()
    spec = system.spectrum()
    assert system.spectrum() is spec
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0], atol=1e-14)
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 0.0


def _analysis_cases():
    rng = Rng(53)
    systems = [generate(GenSpec(seed=rng.u64(), ambient_dim=rng.randint(2, 9),
                                member_count=rng.randint(1, 5)))[0] for _ in range(20)]
    systems.append(WeightedSubspaceSystem([Member(Subspace.zero(3), 2.0),
                                           Member(Subspace.span([1.0, 2.0, 0.0]), 0.5)]))
    systems.append(WeightedSubspaceSystem([Member(Subspace.full(1), 3.0),
                                           Member(Subspace.zero(1), 1.0)]))
    return [(system, rng.normals(system.ambient_dim)) for system in systems]


def test_analysis_matches_the_per_member_formula():
    for system, f in _analysis_cases():
        bundle = system.analysis(f)
        bound = 1e-13 * np.linalg.norm(f) * system.weights.max()
        assert len(bundle) == len(system)
        for m, block in zip(system.members, bundle.blocks):
            u = m.subspace.basis
            np.testing.assert_allclose(block, m.weight * (u @ (u.T @ f)), rtol=0, atol=bound)


def test_analysis_operator_is_cached_and_read_only():
    system, _ = _analysis_cases()[0]
    phi = system.analysis_operator()
    assert phi is system.analysis_operator()
    assert phi.shape == (len(system) * system.ambient_dim, system.ambient_dim)
    for value in (phi, system.weights):
        with pytest.raises(ValueError):
            value[0] = 0.0


@pytest.mark.parametrize("blocks", [[[1.0, 0.0], [1.0]], [[np.nan, 0.0]], []],
                         ids=["ragged", "nan", "empty"])
def test_bundle_input_is_validated(blocks):
    with pytest.raises(InputError):
        CoefficientBundle(blocks)


def test_bundles_are_read_only():
    user = np.array([[1.0, 0.0], [0.0, 2.0]])
    bundles = [CoefficientBundle(user), coordinate_lines(2).analysis([3.0, 4.0])]
    for bundle in bundles:
        for view in (bundle.blocks[0], bundle.stacked()):
            with pytest.raises(ValueError):
                view[0] = 5.0
    user[0, 0] = 7.0  # the bundle holds its own copy
    assert bundles[0].blocks[0][0] == 1.0

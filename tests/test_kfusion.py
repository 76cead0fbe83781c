import math

import numpy as np
import pytest

from fusionframes import linalg
from fusionframes.errors import InputError, PreconditionError, RangeInclusionError
from fusionframes.fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from fusionframes.generator import GenSpec, Rng, generate
from fusionframes.kfusion import (
    atomic_decompose,
    douglas_factor,
    frame_operator_atomic_check,
    frame_operator_chain_check,
    kfusion_verify,
    range_transfer_check,
    refutation_witness,
)
from fusionframes.subspaces import Subspace
from fusionframes.suite import refuted_instance, verified_instance

from oracles import minimal_norm_coefficients, oracle_lower_bound


def test_douglas_identity_case():
    d = np.diag([1.0, 0.0])
    t = douglas_factor(d, d)
    np.testing.assert_allclose(t, d, atol=1e-12)


def test_douglas_disjoint_ranges_rejected():
    with pytest.raises(RangeInclusionError) as exc:
        douglas_factor(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert exc.value.residual > 0.5


def test_douglas_construct_then_recover():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        v = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        t0 = rng.standard_normal((v.shape[1], n))
        u = v @ t0
        t = douglas_factor(u, v)
        assert np.linalg.norm(v @ t - u) <= 1e-9 * max(np.linalg.norm(u), 1e-300)
        # minimal norm: the recovered factor never beats the pseudo-inverse route
        assert np.linalg.norm(t) <= np.linalg.norm(t0) * (1 + 1e-9) + 1e-12


def test_douglas_row_count_mismatch():
    with pytest.raises(InputError):
        douglas_factor(np.eye(2), np.eye(3))


def test_verify_single_line_matched_operator():
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    rep = kfusion_verify(system, np.diag([1.0, 0.0]))
    assert rep.is_kff
    assert rep.optimal_lower == pytest.approx(1.0, abs=1e-10)
    assert rep.optimal_upper == pytest.approx(1.0, abs=1e-10)


def test_verify_refuted_orthogonal_line():
    system = WeightedSubspaceSystem([Member(Subspace.span([0.0, 1.0]), 1.0)])
    rep = kfusion_verify(system, np.diag([1.0, 0.0]))
    assert not rep.is_kff
    assert rep.optimal_lower == 0.0
    assert rep.residual > 0.5
    assert rep.factor_t is None


def test_verify_identity_equals_fusion_bounds():
    rng = Rng(21)
    for _ in range(15):
        system, _ = generate(GenSpec(seed=rng.u64(), ambient_dim=5, member_count=3))
        bounds = system.fusion_bounds()
        rep = kfusion_verify(system, np.eye(5))
        assert rep.optimal_upper == bounds.upper
        if bounds.verdict.is_frame():
            assert rep.is_kff
            assert rep.optimal_lower == pytest.approx(bounds.lower, rel=1e-10)
        else:
            assert not rep.is_kff and rep.optimal_lower == 0.0


def test_verify_douglas_bound_matches_oracle():
    rng = Rng(22)
    for _ in range(30):
        system, k = verified_instance(rng)
        rep = kfusion_verify(system, k)
        assert rep.is_kff
        oracle, _ = oracle_lower_bound(system.frame_operator(), k)
        if math.isfinite(oracle):
            assert rep.optimal_lower == pytest.approx(oracle, rel=1e-9)


def test_factor_recomposes_operator():
    rng = Rng(23)
    for _ in range(20):
        system, k = verified_instance(rng)
        rep = kfusion_verify(system, k)
        root = linalg.sqrt_psd(system.frame_operator())
        assert np.linalg.norm(root @ rep.factor_t - k) <= 1e-8 * np.linalg.norm(k)


def test_majorization_equivalence_both_directions():
    rng = Rng(24)
    verified = refuted = 0
    for _ in range(25):
        system, k = verified_instance(rng)
        rep = kfusion_verify(system, k)
        s = system.frame_operator()
        scale = max(np.linalg.norm(s), 1.0)
        assert linalg.psd_leq(rep.optimal_lower * (k @ k.T), s, 1e-8 * scale)
        verified += 1
    for _ in range(15):
        system, k = refuted_instance(rng)
        s = system.frame_operator()
        # no positive constant works: even a tiny one is violated
        for a in (1e-6, 1e-3, 1.0):
            if not linalg.psd_leq(a * (k @ k.T), s, 1e-12 * max(np.linalg.norm(s), 1.0)):
                break
        else:
            pytest.fail("refuted instance admitted a PSD lower bound")
        refuted += 1
    assert verified and refuted


def test_monotonicity_under_new_members():
    rng = Rng(25)
    for _ in range(15):
        system, k = verified_instance(rng)
        n = system.ambient_dim
        extra = Member(Subspace.from_spanning(rng.normals(n, 2)), 0.5 + rng.uniform())
        bigger = WeightedSubspaceSystem(list(system.members) + [extra])
        rep1 = kfusion_verify(system, k)
        rep2 = kfusion_verify(bigger, k)
        assert rep2.is_kff
        assert rep2.optimal_lower >= rep1.optimal_lower * (1 - 1e-9)
        assert rep2.optimal_upper >= rep1.optimal_upper * (1 - 1e-9)


def test_atomic_decompose_worked_example():
    system = WeightedSubspaceSystem(
        [Member(Subspace.span([1.0, 0.0]), 1.0), Member(Subspace.full(2), 1.0)]
    )
    f = np.array([1.0, 0.0])
    dec = atomic_decompose(system, np.eye(2), f)
    # oracle: minimal-norm coefficients over the stacked two-block map
    stacked = np.hstack([np.diag([1.0, 0.0]), np.eye(2)])
    expected = minimal_norm_coefficients(stacked, f)
    np.testing.assert_allclose(dec.bundle.stacked(), expected, atol=1e-12)
    np.testing.assert_allclose(dec.bundle.blocks[0], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(dec.bundle.blocks[1], [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(system.synthesis(dec.bundle), f, atol=1e-12)


def test_atomic_decompose_zero_vector():
    system = coordinate_lines(2)
    dec = atomic_decompose(system, np.eye(2), np.zeros(2))
    assert dec.bundle.norm() == 0.0


def test_atomic_decompose_random_instances():
    rng = Rng(26)
    for _ in range(10):
        system, k = verified_instance(rng)
        n = system.ambient_dim
        for _ in range(5):
            f = rng.normals(n)
            dec = atomic_decompose(system, k, f)
            target = k @ f
            resid = np.linalg.norm(system.synthesis(dec.bundle) - target)
            assert resid <= 1e-9 * max(np.linalg.norm(target), 1e-9)
            assert dec.bundle.norm() <= dec.constant * np.linalg.norm(f) + 1e-9
            system.check_bundle(dec.bundle)


def test_atomic_decompose_refuted_raises():
    system = WeightedSubspaceSystem([Member(Subspace.span([0.0, 1.0]), 1.0)])
    with pytest.raises(PreconditionError):
        atomic_decompose(system, np.diag([1.0, 0.0]), np.array([1.0, 1.0]))


def test_refutation_witness_certifies():
    rng = Rng(27)
    for _ in range(15):
        system, k = refuted_instance(rng)
        f = refutation_witness(system, k)
        assert f is not None
        s = system.frame_operator()
        ktf = np.asarray(k).T @ f
        assert np.linalg.norm(ktf) > 1e-8
        # the ratio <S f, f> / ||K.T f||^2 collapses: no bound survives
        assert f @ (s @ f) <= 1e-10 * (ktf @ ktf)


def test_chain_check_parseval_identity():
    rep = frame_operator_chain_check(coordinate_lines(2), np.eye(2))
    assert rep.all_ok
    assert rep.lower == pytest.approx(1.0) and rep.upper == pytest.approx(1.0)
    assert rep.branch == "inverse"


def test_chain_check_line_and_plane():
    system = WeightedSubspaceSystem(
        [Member(Subspace.span([1.0, 0.0]), 1.0), Member(Subspace.full(2), 1.0)]
    )
    rep = frame_operator_chain_check(system, np.diag([1.0, 0.0]))
    assert rep.parts["psd_chain"].ok
    assert rep.lower == pytest.approx(2.0, rel=1e-9)  # diag(2,1) >= 2 diag(1,0)


def test_chain_check_random_instances():
    rng = Rng(28)
    for _ in range(20):
        system, k = verified_instance(rng)
        rep = frame_operator_chain_check(system, k, seed=rng.randint(0, 2 ** 31))
        assert rep.all_ok, rep.to_json()


def test_chain_check_refuted_raises():
    system = WeightedSubspaceSystem([Member(Subspace.span([0.0, 1.0]), 1.0)])
    with pytest.raises(PreconditionError):
        frame_operator_chain_check(system, np.diag([1.0, 0.0]))


def test_self_atomic_parseval():
    rep = frame_operator_atomic_check(coordinate_lines(3))
    assert rep.ok and rep.constant == pytest.approx(1.0)


def test_self_atomic_line_and_plane():
    system = WeightedSubspaceSystem(
        [Member(Subspace.span([1.0, 0.0]), 1.0), Member(Subspace.full(2), 1.0)]
    )
    rep = frame_operator_atomic_check(system)
    assert rep.ok and rep.constant == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_self_atomic_random_systems():
    rng = Rng(29)
    for _ in range(20):
        system, _ = generate(
            GenSpec(seed=rng.u64(), ambient_dim=rng.randint(2, 7), member_count=rng.randint(1, 4))
        )
        rep = frame_operator_atomic_check(system, trials=30, seed=rng.randint(0, 2 ** 31))
        assert rep.ok


def test_range_transfer_inherits():
    rng = Rng(30)
    for _ in range(10):
        system, k = verified_instance(rng)
        n = system.ambient_dim
        # t = k itself
        rep = range_transfer_check(system, k, np.asarray(k))
        assert rep.inclusion and rep.consistent
        # t = k @ x factors through k
        t = np.asarray(k) @ rng.normals(n, n)
        rep = range_transfer_check(system, k, t)
        assert rep.inclusion and rep.consistent


def test_range_transfer_vacuous_case():
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    k = np.diag([1.0, 0.0])
    t = np.eye(2)  # range of t exceeds range of k
    rep = range_transfer_check(system, k, t)
    assert not rep.inclusion and rep.consistent is None


def test_zero_operator_verifies_with_unbounded_constant():
    system = coordinate_lines(2)
    rep = kfusion_verify(system, np.zeros((2, 2)))
    assert rep.is_kff and math.isinf(rep.optimal_lower)


def test_report_json_shape():
    rep = kfusion_verify(coordinate_lines(2), np.eye(2))
    obj = rep.to_json()
    assert set(obj) == {"is_kff", "lower", "upper", "residual", "parts"}


def test_decomposition_blocks_are_the_minimal_norm_coefficients():
    rng = Rng(31)
    for _ in range(20):
        system, k = verified_instance(rng)
        k = np.asarray(k, float)
        synthesis = np.hstack([m.weight * m.subspace.projection() for m in system.members])
        for _ in range(3):
            f = rng.normals(system.ambient_dim)
            dec = atomic_decompose(system, k, f)
            best = minimal_norm_coefficients(synthesis, k @ f)
            scale = max(np.linalg.norm(best), 1e-300)
            assert np.linalg.norm(dec.bundle.stacked() - best) <= 1e-9 * scale
            np.testing.assert_allclose(
                dec.gamma @ f, dec.bundle.stacked(), rtol=0, atol=1e-12 * scale
            )
        sigma = np.linalg.svd(dec.gamma, compute_uv=False)[0]
        assert dec.constant == pytest.approx(sigma, rel=1e-9)


def test_one_eigendecomposition_of_s_per_system(monkeypatch):
    system = WeightedSubspaceSystem(
        [Member(Subspace.span([1.0, 0.0, 0.0]), 2.0), Member(Subspace.span([1.0, 1.0, 0.0]), 1.0)]
    )  # S is singular, so the null basis is not empty
    k = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    s = system.frame_operator()
    calls = []
    sym_eig = linalg.sym_eig

    def counted(m, *args, **kwargs):
        calls.append(np.array_equal(m, s))
        return sym_eig(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "sym_eig", counted)
    assert kfusion_verify(system, k).is_kff
    assert refutation_witness(system, k) is None
    atomic_decompose(system, k, np.array([1.0, 2.0, 3.0]))
    assert frame_operator_chain_check(system, k).all_ok
    assert system.fusion_bounds().lower == pytest.approx(0.0, abs=1e-12)
    assert calls.count(True) == 1


def test_atomic_decompose_honours_tol():
    # K leaves the range of S (the first axis) by a defect of about 1e-7
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    k = np.array([[1.0, 0.0], [1e-7, 0.0]])
    f = np.array([2.0, 5.0])
    with pytest.raises(PreconditionError):
        atomic_decompose(system, k, f)  # default tol 1e-8
    dec = atomic_decompose(system, k, f, tol=1e-6)
    np.testing.assert_allclose(dec.bundle.stacked(), [2.0, 0.0], atol=1e-15)
    assert kfusion_verify(system, k, 1e-6).residual == pytest.approx(1e-7, rel=1e-6)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_lower_bound_outside_float_range_is_an_input_error(scale):
    # A = 1 / scale^2 is 1e-600 or 1e600
    with pytest.raises(InputError, match="outside the float range"):
        kfusion_verify(coordinate_lines(3), scale * np.eye(3))


def test_lower_bound_at_extreme_but_representable_scale():
    rep = kfusion_verify(coordinate_lines(3), 1e150 * np.eye(3))
    assert rep.is_kff and rep.optimal_lower == pytest.approx(1e-300, rel=1e-14)
    np.testing.assert_allclose(rep.factor_t, 1e150 * np.eye(3), rtol=1e-14)


@pytest.mark.parametrize(
    "weight, k_scale, f0",
    [(1.0, 1e150, 1e200), (1e150, 1e300, 1e10)],
    ids=["s-pinv-k-f", "k-f"],
)
def test_decomposition_beyond_the_float_range_is_an_input_error(weight, k_scale, f0):
    # A = 1e-300 is a float in both cases, but S+ K f = 1e350 is not, or
    # K f = 1e310 is not while S+ K f = 1e10 is
    system = coordinate_lines(2, [weight, weight])
    with pytest.raises(InputError, match="float range"):
        atomic_decompose(system, k_scale * np.eye(2), np.array([f0, 0.0]))


def _lines(n, axes):
    return WeightedSubspaceSystem([Member(Subspace.span(np.eye(n)[i]), 1.0) for i in axes])


@pytest.mark.parametrize(
    "system, k",
    [
        # defect 8.7e-9: verified at 1e-8, although sigma_max(K.T N) = 1.5e-8
        (_lines(4, [0, 1, 2]), np.diag([1.0, 1.0, 1.0, 1.5e-8])),
        # defect 1.13e-8: refuted at 1e-8, although sigma_max(K.T N) = 0.8e-8
        (_lines(3, [0]), np.diag([1.0, 0.8e-8, 0.8e-8])),
    ],
)
def test_refutation_witness_agrees_with_the_verdict(system, k):
    rep = kfusion_verify(system, k, tol=1e-8)
    assert abs(rep.residual - 1e-8) < 0.2e-8  # both pairs sit next to the cut
    assert (refutation_witness(system, k, tol=1e-8) is None) == rep.is_kff


def test_chain_check_margins_match_the_two_svd_formula():
    # the margins with ||K+|| taken as the operator norm of the pseudo-inverse
    rng = Rng(32)
    for _ in range(6):
        system, k = verified_instance(rng)
        k = np.asarray(k, float)
        seed = rng.randint(0, 2 ** 31)
        rep = frame_operator_chain_check(system, k, seed=seed, trials=16)
        a, b = rep.lower, rep.upper
        s = system.frame_operator()
        kp_norm = linalg.operator_norm(linalg.pseudo_inverse(k))
        s_inv = system.spectrum().pinv()
        sample = Rng(seed)
        margin2 = margin3 = math.inf
        for _ in range(16):
            x = sample.normals(system.ambient_dim)
            f = k @ x
            nf = np.linalg.norm(f)
            if nf <= 1e-12 * max(np.linalg.norm(x), 1.0):
                continue
            nsf = np.linalg.norm(s @ f)
            margin2 = min(margin2, (nsf - a / kp_norm ** 2 * nf) / (b * nf),
                          (b * nf - nsf) / (b * nf))
            nsig = np.linalg.norm(s_inv @ (s @ f))
            margin3 = min(margin3, nsig * b / nsf - 1.0, 1.0 - nsig * a / (kp_norm ** 2 * nsf))
        assert rep.parts["range_norms"].margin == pytest.approx(margin2, abs=1e-12)
        assert rep.parts["inverse_norms"].margin == pytest.approx(margin3, abs=1e-12)

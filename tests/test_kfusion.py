import math

import numpy as np
import pytest

from fusionframes import linalg
from fusionframes.errors import InputError, PreconditionError, RangeInclusionError
from fusionframes.fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from fusionframes.generator import Flavor, GenSpec, Rng, generate
from fusionframes.kfusion import (
    DEFAULT_TOL,
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

from oracles import chain_range_margins, minimal_norm_coefficients, oracle_lower_bound


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


def test_douglas_factor_at_extreme_scale():
    # u and v far apart in scale: v+ u is formed on both scaled by powers of two
    np.testing.assert_allclose(douglas_factor(1e200 * np.eye(2), 1e100 * np.eye(2)),
                               1e100 * np.eye(2), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(douglas_factor(1e-200 * np.eye(2), 1e100 * np.eye(2)),
                               1e-300 * np.eye(2), rtol=1e-15, atol=0.0)
    with pytest.raises(RangeInclusionError):
        douglas_factor(1e200 * np.diag([0.0, 1.0]), 1e-200 * np.diag([1.0, 0.0]))
    # a factor beyond the float range
    with pytest.raises(InputError, match="beyond the float range"):
        douglas_factor(1e200 * np.eye(2), 1e-200 * np.eye(2))


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
    for _ in range(60):
        system, k = refuted_instance(rng)
        f = refutation_witness(system, k)
        assert f is not None
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-15)
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
        rep = frame_operator_chain_check(system, k)
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


def _self_atomic_reference(system, vectors):
    """The per-vector loop: a_i = w_i U_i (U_i.T f), their weighted sum
    against S f, and the bundle norm against sqrt(B) ||f||."""
    s = system.frame_operator()
    c = math.sqrt(max(np.linalg.eigvalsh(s)[-1], 0.0))
    worst_rec, worst_margin = 0.0, math.inf
    for f in vectors:
        blocks = [m.weight * (m.subspace.basis @ (m.subspace.basis.T @ f)) for m in system.members]
        rec = sum(m.weight * a for m, a in zip(system.members, blocks))
        target = s @ f
        scale = max(np.linalg.norm(target), np.linalg.norm(s) * np.linalg.norm(f), 1e-300)
        worst_rec = max(worst_rec, float(np.linalg.norm(rec - target) / scale))
        nf = np.linalg.norm(f)
        if nf > 0:
            nb = np.linalg.norm(np.concatenate(blocks))
            worst_margin = min(worst_margin, (c * nf - nb) / max(c * nf, 1e-300))
    return worst_rec, worst_margin if math.isfinite(worst_margin) else 0.0


def test_self_atomic_check_matches_the_per_vector_loop():
    rng = Rng(61)
    for _ in range(30):
        system, _ = generate(
            GenSpec(seed=rng.u64(), ambient_dim=rng.randint(2, 10), member_count=rng.randint(1, 6))
        )
        seed = rng.randint(0, 2 ** 31)
        rep = frame_operator_atomic_check(system, trials=40, seed=seed)
        n = system.ambient_dim
        vectors = np.vstack([Rng(seed).normals(40, n), np.eye(n)])
        worst_rec, worst_margin = _self_atomic_reference(system, vectors)
        assert rep.worst_reconstruction == pytest.approx(worst_rec, rel=0, abs=1e-15)
        assert rep.worst_norm_margin == pytest.approx(worst_margin, rel=0, abs=1e-12)
        given = frame_operator_atomic_check(system, vectors=list(vectors[:5]) + [np.zeros(n)])
        worst_rec, worst_margin = _self_atomic_reference(system, vectors[:5])
        assert given.worst_reconstruction == pytest.approx(worst_rec, rel=0, abs=1e-15)
        assert given.worst_norm_margin == pytest.approx(worst_margin, rel=0, abs=1e-12)


@pytest.mark.parametrize("vectors", [[[1.0, 0.0, 0.0]], [[1.0, np.nan]], [[1.0, 0.0], [1.0]]],
                         ids=["dimension", "nan", "ragged"])
def test_self_atomic_vectors_are_validated(vectors):
    with pytest.raises(InputError):
        frame_operator_atomic_check(coordinate_lines(2), vectors=vectors)


def test_self_atomic_check_of_no_vectors_is_ok():
    rep = frame_operator_atomic_check(coordinate_lines(2), vectors=[])
    assert rep.ok and rep.worst_reconstruction == 0.0 and rep.worst_norm_margin == 0.0


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
            np.testing.assert_array_equal(dec.gamma @ f, dec.bundle.stacked())
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


def _chain_margins_per_trial(system, k, tol, trials, seed):
    # the margins over a sample of range vectors K x, one trial at a time,
    # with S+ formed for part (3): an upper bound on the exact worst cases;
    # lambda_min(S - A K K.T) from its own sym_eig
    rep = kfusion_verify(system, k, tol)
    a, b = rep.optimal_lower, rep.optimal_upper
    a_eff = a if math.isfinite(a) else 0.0
    s = system.frame_operator()
    spec = system.spectrum()
    scale = max(b, 1e-300)
    margin1 = min(linalg.sym_eig(s - a_eff * (k @ k.T)).smallest / scale,
                  (b - spec.largest) / scale)
    kp_norm = linalg.operator_norm(linalg.pseudo_inverse(k))  # two SVDs of K
    s_inv = spec.pinv()
    rng = Rng(seed)
    margin2 = margin3 = math.inf
    for _ in range(trials):
        x = rng.normals(system.ambient_dim)
        f = k @ x
        nf = np.linalg.norm(f)
        if nf <= 1e-12 * max(np.linalg.norm(x), 1.0):
            continue
        sf = s @ f
        nsf = np.linalg.norm(sf)
        margin2 = min(margin2, (nsf - a_eff / (kp_norm ** 2) * nf) / (scale * nf),
                      (b * nf - nsf) / (scale * nf))
        if nsf <= 1e-300:
            continue
        nsig = np.linalg.norm(s_inv @ sf)
        margin3 = min(margin3, nsig * b / nsf - 1.0)
        if a_eff > 0:
            margin3 = min(margin3, 1.0 - nsig * a_eff / (kp_norm ** 2 * nsf))
    return {"psd_chain": margin1,
            "range_norms": margin2 if math.isfinite(margin2) else 0.0,
            "inverse_norms": margin3 if math.isfinite(margin3) else 0.0}


def test_exact_chain_margins_never_exceed_the_sampled_ones():
    # every sampled ratio ||S f|| / ||f|| lies between the extremes that the
    # exact margins take, so no sample finds a worse case
    rng = Rng(32)
    pairs = [verified_instance(rng) for _ in range(12)]
    pairs += [(system, k) for kind, system, k in _sweep_pairs()[:8] if kind == "verified"]
    for system, k in pairs:
        k = np.asarray(k, float)
        rep = frame_operator_chain_check(system, k)
        sampled = _chain_margins_per_trial(system, k, DEFAULT_TOL, 64, rng.randint(0, 2 ** 31))
        assert rep.parts["psd_chain"].margin == pytest.approx(sampled["psd_chain"], abs=1e-12)
        for part in ("range_norms", "inverse_norms"):
            assert rep.parts[part].margin <= sampled[part] + 1e-12, part


def _verified_pair(seed):
    system, k = verified_instance(Rng(seed))
    return system, np.asarray(k, float)


def test_one_operator_norm_of_the_factor_and_one_svd_of_k_per_pair(monkeypatch):
    system, k = _verified_pair(41)
    fresh, _ = _verified_pair(41)  # an equal system with an empty memo
    svd_inputs, norm_inputs, eig_calls = [], [], []
    svd, operator_norm, sym_eig = linalg.svd, linalg.operator_norm, linalg.sym_eig

    def counted_svd(m):
        svd_inputs.append(np.array(m))
        return svd(m)

    def counted_norm(m):
        norm_inputs.append(np.array(m))
        return operator_norm(m)

    def counted_eig(m):
        eig_calls.append(m)
        return sym_eig(m)

    monkeypatch.setattr(linalg, "svd", counted_svd)
    monkeypatch.setattr(linalg, "operator_norm", counted_norm)
    monkeypatch.setattr(linalg, "sym_eig", counted_eig)
    rep = kfusion_verify(system, k)
    rng = Rng(8)
    decs = [atomic_decompose(system, k, rng.normals(system.ambient_dim)) for _ in range(3)]
    chain = frame_operator_chain_check(system, k)
    # K^ = K 2^-e once (||K+|| and a basis of range K), then S^ on that basis
    assert len(svd_inputs) == 2
    np.testing.assert_array_equal(svd_inputs[0], linalg.unit_scaled(k)[0])
    assert len(norm_inputs) == 1  # sigma_max(S^(+1/2) K), with K scaled by a power of two
    np.testing.assert_array_equal(norm_inputs[0],
                                  system.spectrum().power(-0.5) @ linalg.unit_scaled(k)[0])
    assert len(eig_calls) == 2  # S once, and the chain check's S - A K K.T

    monkeypatch.undo()
    again = kfusion_verify(fresh, k)
    assert (again.optimal_lower, again.optimal_upper, again.residual) == \
        (rep.optimal_lower, rep.optimal_upper, rep.residual)
    np.testing.assert_array_equal(again.factor_t, rep.factor_t)
    rng = Rng(8)
    for dec in decs:
        again = atomic_decompose(fresh, k, rng.normals(fresh.ambient_dim))
        np.testing.assert_array_equal(again.gamma, dec.gamma)
        np.testing.assert_array_equal(again.bundle.stacked(), dec.bundle.stacked())
        assert again.constant == dec.constant
    assert frame_operator_chain_check(fresh, k).to_json() == chain.to_json()


def test_operator_changed_in_place_is_verified_anew():
    system, k = _verified_pair(42)
    f = Rng(3).normals(system.ambient_dim)
    before = atomic_decompose(system, k, f)
    k *= 3.0
    fresh, _ = _verified_pair(42)
    rep = kfusion_verify(system, k)
    assert rep.optimal_lower == kfusion_verify(fresh, k).optimal_lower
    assert rep.optimal_lower == pytest.approx(kfusion_verify(system, k / 3.0).optimal_lower / 9)
    dec = atomic_decompose(system, k, f)
    np.testing.assert_allclose(system.synthesis(dec.bundle), k @ f, rtol=1e-9, atol=1e-12)
    assert dec.constant == pytest.approx(3.0 * before.constant, rel=1e-12)
    assert frame_operator_chain_check(system, k).lower == rep.optimal_lower


def test_list_and_array_operators_share_one_entry():
    system, k = _verified_pair(43)
    rep = kfusion_verify(system, k.tolist())
    assert kfusion_verify(system, k) is rep
    assert kfusion_verify(system, np.asfortranarray(k)) is rep


def test_each_tol_has_its_own_entry():
    system = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0]), 1.0)])
    k = np.array([[1.0, 0.0], [1e-7, 0.0]])  # range defect about 1e-7
    strict = kfusion_verify(system, k)
    loose = kfusion_verify(system, k, tol=1e-6)
    assert not strict.is_kff and loose.is_kff
    # The range defect and the verified report are memoized per K; a
    # refuted report is rebuilt from the memoized defect.
    assert kfusion_verify(system, k) == strict and kfusion_verify(system, k, tol=1e-6) is loose
    with pytest.raises(PreconditionError):
        atomic_decompose(system, k, np.array([1.0, 1.0]))
    atomic_decompose(system, k, np.array([1.0, 1.0]), tol=1e-6)


def test_memoized_arrays_are_read_only():
    system, k = _verified_pair(44)
    rep = kfusion_verify(system, k)
    dec = atomic_decompose(system, k, np.ones(system.ambient_dim))
    for value in (rep.factor_t, dec.gamma, system.spectrum().power(-0.5)):
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 0.0


def test_memo_stays_bounded_over_many_operators():
    system, k = _verified_pair(45)
    spec = system.spectrum()
    f = np.ones(system.ambient_dim)
    for i in range(100):
        atomic_decompose(system, (1.0 + i / 64) * k, f)
    assert len(spec._memo) <= linalg._MEMO_SIZE
    last = (1.0 + 99 / 64) * k
    assert kfusion_verify(system, last) is kfusion_verify(system, last)


def test_memo_is_safe_to_share_between_threads():
    # more threads than cores, a short switch interval, and enough operators
    # that entries are evicted while others are stored
    import sys
    from concurrent.futures import ThreadPoolExecutor

    system, k = _verified_pair(46)
    fresh, _ = _verified_pair(46)
    jobs = [((1.0 + i % 40 / 8) * k, Rng(i).normals(system.ambient_dim)) for i in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(atomic_decompose, system, kj, f) for kj, f in jobs]
            decs = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(system.spectrum()._memo) <= linalg._MEMO_SIZE
    for (kj, f), dec in zip(jobs, decs):
        np.testing.assert_array_equal(dec.bundle.stacked(),
                                      atomic_decompose(fresh, kj, f).bundle.stacked())


def _chain_cases():
    """(id, system, K, branch); members with 2 and 3 dimensions at most
    cannot span R^8 and R^12, so S is singular there."""
    cases = []
    for seed, n, m, dims, branch in [(5, 8, 4, (), "inverse"), (6, 12, 5, (), "inverse"),
                                     (7, 16, 6, (), "inverse"),
                                     (8, 8, 2, (1, 2), "pseudo-inverse"),
                                     (9, 12, 3, (1, 3), "pseudo-inverse")]:
        system, k = generate(GenSpec(seed=seed, ambient_dim=n, member_count=m,
                                     dim_range=dims, flavor=Flavor.K_FUSION_FRAME))
        cases.append((f"generated-n{n}-m{m}", system, k, branch))
    cases.append(("zero-operator", coordinate_lines(3), np.zeros((3, 3)), "inverse"))
    cases.append(("rank-deficient-k", coordinate_lines(3, [1.0, 2.0, 3.0]),
                  np.diag([1.0, 0.5, 0.0]), "inverse"))
    return [pytest.param(*case, id=case[0]) for case in cases]


def _assert_chain_matches_the_oracle(system, k, rep):
    a = rep.lower if math.isfinite(rep.lower) else 0.0
    want = chain_range_margins(system.frame_operator(), k, a, rep.upper)
    for part, margin in zip(("range_norms", "inverse_norms"), want):
        assert rep.parts[part].margin == pytest.approx(margin, rel=0, abs=1e-13), part


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, system, k, branch", _chain_cases())
def test_chain_check_margins_match_the_lapack_oracle(name, system, k, branch):
    k = np.asarray(k, float)
    rep = frame_operator_chain_check(system, k)
    _assert_chain_matches_the_oracle(system, k, rep)
    sampled = _chain_margins_per_trial(system, k, DEFAULT_TOL, 64, seed=3)
    assert rep.parts["psd_chain"].margin == pytest.approx(sampled["psd_chain"], abs=1e-12)
    for part in ("range_norms", "inverse_norms"):
        assert rep.parts[part].margin <= sampled[part] + 1e-12, part
    assert rep.all_ok and rep.branch == branch


@pytest.mark.parametrize("weights", [[1.0, 2.0, 3.0], [1.0, 2.0, 1e-12]],
                         ids=["inverse", "pseudo-inverse"])
def test_chain_check_of_the_zero_operator(weights):
    system = coordinate_lines(3, weights)
    rep = frame_operator_chain_check(system, np.zeros((3, 3)))
    spec = system.spectrum()
    m1 = min(spec.smallest / spec.largest, 0.0)  # lambda_min(S - 0) and B - lambda_max
    assert {p: v.margin for p, v in rep.parts.items()} == \
        {"psd_chain": m1, "range_norms": 0.0, "inverse_norms": 0.0}
    assert rep.all_ok and rep.lower == math.inf


@pytest.mark.parametrize("n", [2, 5, 12])
def test_chain_check_of_the_identity_on_coordinate_lines(n):
    # S = K = I and A = B = 1: every inequality of the chain is an equality
    rep = frame_operator_chain_check(coordinate_lines(n), np.eye(n))
    assert rep.all_ok and (rep.lower, rep.upper) == (1.0, 1.0)
    for part in rep.parts.values():
        assert abs(part.margin) <= 1e-15


def _near_null_pairs(count):
    """Verified pairs whose K has a part in the null space of S of 1e-9 of
    ||K||, below the 1e-8 default tol: ("random", ...) adds N Y to a
    generated K, N a null basis of a generated singular S; ("aligned", ...)
    pads a generated pair with coordinates that the member bases reach by
    1e-19 at most, so S maps them to about 1e-19 of ||S||, and puts a 1e-9
    block of K there."""
    rng = np.random.default_rng(11)
    pairs = []
    seed = 5000
    while len(pairs) < count:
        seed += 1
        n = int(rng.integers(3, 15))
        if len(pairs) % 2:
            d = int(rng.integers(1, 4))
            base, k0 = _generated_pair(seed, n, int(rng.integers(1, 5)))
            k0 = np.asarray(k0, float)
            system = WeightedSubspaceSystem(
                [Member(Subspace(n + d, np.vstack([m.subspace.basis,
                                                   1e-19 * rng.uniform(-1, 1, (d, m.subspace.dim))])),
                        m.weight) for m in base.members])
            k = np.zeros((n + d, n + d))
            k[:n, :n] = k0
            k[n:, n:] = 1e-9 * np.linalg.norm(k0) / d * rng.standard_normal((d, d))
            pairs.append(("aligned", system, k))
            continue
        hi = int(rng.integers(1, max(2, n // 2)))
        m = int(rng.integers(1, 4))
        if m * hi >= n:
            continue  # the members may span: S need not be singular
        system, k0 = _generated_pair(seed, n, m, (1, hi))
        k0 = np.asarray(k0, float)
        null = system.spectrum().null_basis()
        y = null @ rng.standard_normal((null.shape[1], n))
        pairs.append(("random", system, k0 + 1e-9 * np.linalg.norm(k0) / np.linalg.norm(y) * y))
    return pairs


@pytest.mark.filterwarnings("error")
def test_chain_check_holds_for_operators_reaching_into_the_null_space():
    # S maps the null part of range K to (almost) 0: part (3) has nothing
    # to bound there, and the ratios below the rank cut are left out, as
    # S+ leaves them out.  Keeping them fails each of the 60 aligned pairs.
    failing_with_every_ratio = 0
    for kind, system, k in _near_null_pairs(120):
        rep = frame_operator_chain_check(system, k)
        assert rep.all_ok and rep.branch == "pseudo-inverse", (kind, rep.to_json())
        _assert_chain_matches_the_oracle(system, k, rep)
        if kind == "aligned":
            with np.errstate(divide="ignore", invalid="ignore"):
                kept_all = chain_range_margins(system.frame_operator(), k, rep.lower, rep.upper,
                                               keep_below_cut=True)
            failing_with_every_ratio += not kept_all[1] >= -DEFAULT_TOL
    assert failing_with_every_ratio == 60


@pytest.mark.filterwarnings("error")
def test_chain_check_holds_at_the_benchmark_pair_next_to_the_cut():
    # lambda_min / lambda_max = 1.94e-10: part (3) through the computed S+
    # reads -9.3e-8 along a right singular vector of S Q; the reciprocal
    # ratios stay within rounding of 0
    system, k = _generated_pair(1675235502394991984, 12, 3, (4, 4))
    k = np.asarray(k, float)
    rep = frame_operator_chain_check(system, k)
    assert rep.all_ok and rep.branch == "inverse"
    assert min(p.margin for p in rep.parts.values()) >= -1e-14
    _assert_chain_matches_the_oracle(system, k, rep)


def _graded_lines(rng, n, ratio):
    """Lines along random orthonormal directions, with the eigenvalues of
    S spread geometrically from 1 down to ``ratio``."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, ratio, n)
    rng.shuffle(lam)
    return WeightedSubspaceSystem(
        [Member(Subspace.span(q[:, i]), math.sqrt(w)) for i, w in enumerate(lam)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", [1.05e-10, 1.2e-10, 2e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_chain_check_holds_on_graded_systems_near_the_cut(ratio):
    rng = np.random.default_rng(int(ratio * 1e12))
    for j in range(12):
        n = int(rng.integers(3, 15))
        system = _graded_lines(rng, n, ratio)
        x = rng.standard_normal((n, n))
        k = x if j % 2 else linalg.sqrt_psd(system.frame_operator()) @ x
        rep = frame_operator_chain_check(system, k)
        assert rep.all_ok and rep.branch == "inverse", rep.to_json()
        assert min(p.margin for p in rep.parts.values()) >= -1e-13
        _assert_chain_matches_the_oracle(system, k, rep)


def test_second_chain_check_of_a_pair_makes_no_eigendecomposition(monkeypatch):
    system, k = _verified_pair(47)
    fresh, _ = _verified_pair(47)
    first = frame_operator_chain_check(system, k)
    calls = []
    svd, sym_eig = linalg.svd, linalg.sym_eig

    def counted_svd(m):
        calls.append("svd")
        return svd(m)

    def counted(m):
        calls.append("sym_eig")
        return sym_eig(m)

    monkeypatch.setattr(linalg, "svd", counted_svd)
    monkeypatch.setattr(linalg, "sym_eig", counted)
    again = frame_operator_chain_check(system, k)
    assert calls == []
    assert again.to_json() == first.to_json()
    monkeypatch.undo()
    assert frame_operator_chain_check(fresh, k).to_json() == again.to_json()


def test_operator_changed_in_place_is_chain_checked_anew(monkeypatch):
    system, k = _verified_pair(48)
    before = frame_operator_chain_check(system, k)
    k[:, 0] *= 2.0  # same range, another K K.T
    calls = []
    sym_eig = linalg.sym_eig

    def counted(m):
        calls.append(m)
        return sym_eig(m)

    monkeypatch.setattr(linalg, "sym_eig", counted)
    after = frame_operator_chain_check(system, k)
    assert len(calls) == 1  # S - A K K.T for the new K
    monkeypatch.undo()
    fresh, _ = _verified_pair(48)
    assert after.to_json() == frame_operator_chain_check(fresh, k).to_json()
    assert after.parts["psd_chain"].margin != before.parts["psd_chain"].margin


def _generated_pair(seed, n, m, dims=()):
    return generate(GenSpec(seed=seed, ambient_dim=n, member_count=m, dim_range=dims,
                            flavor=Flavor.K_FUSION_FRAME))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, n, m, dims", [(5, 6, 4, ()), (6, 12, 5, ()), (8, 8, 2, (1, 2))])
def test_chain_check_parts_do_not_depend_on_the_scale_of_k(seed, n, m, dims):
    system, k = _generated_pair(seed, n, m, dims)
    k = np.asarray(k, float)
    base = frame_operator_chain_check(system, k)
    assert base.parts["range_norms"].margin != 0.0  # range K is not empty
    for j in (-500, -70, 70, 500):
        scaled = frame_operator_chain_check(system, np.ldexp(k, j))
        assert scaled.parts == base.parts, j  # bit for bit: the scaling is exact
        assert scaled.branch == base.branch


@pytest.mark.filterwarnings("error")
def test_chain_check_with_k_k_transpose_beyond_the_float_range():
    system, k = coordinate_lines(2, [1e100, 1e100]), 1e250 * np.eye(2)
    assert kfusion_verify(system, k).optimal_lower == pytest.approx(1e-300)
    rep = frame_operator_chain_check(system, k)
    assert rep.all_ok and rep.branch == "inverse"


def test_second_tol_on_a_pair_factors_nothing_again(monkeypatch):
    system, k = _verified_pair(49)
    f = np.ones(system.ambient_dim)
    first = frame_operator_chain_check(system, k, tol=1e-8)
    atomic_decompose(system, k, f, tol=1e-8)
    calls = []
    svd, sym_eig = linalg.svd, linalg.sym_eig

    def counted_svd(m):
        calls.append("svd")
        return svd(m)

    def counted_eig(m):
        calls.append("sym_eig")
        return sym_eig(m)

    monkeypatch.setattr(linalg, "svd", counted_svd)
    monkeypatch.setattr(linalg, "sym_eig", counted_eig)
    again = frame_operator_chain_check(system, k, tol=1e-6)
    atomic_decompose(system, k, f, tol=1e-6)
    assert calls == []
    assert kfusion_verify(system, k, 1e-6) is kfusion_verify(system, k, 1e-8)
    assert {p: v.margin for p, v in again.parts.items()} == \
        {p: v.margin for p, v in first.parts.items()}


def test_one_vector_validation_per_decomposition(monkeypatch):
    system, k = _generated_pair(9, 12, 4)
    k = np.asarray(k, float)
    rng = Rng(10)
    vectors = [rng.normals(system.ambient_dim) for _ in range(50)]
    atomic_decompose(system, k, vectors[0])
    calls = []
    as_vector = linalg.as_vector

    def counted(*args, **kwargs):
        calls.append(args[1:] + tuple(kwargs.values()))
        return as_vector(*args, **kwargs)

    monkeypatch.setattr(linalg, "as_vector", counted)
    for f in vectors:
        atomic_decompose(system, k, f)
    assert len(calls) == len(vectors), calls[:12]


def test_self_atomic_check_draws_each_sample_once(fills):
    system, k = _generated_pair(5, 12, 4)
    other, _ = _generated_pair(6, 12, 5)
    fills.clear()  # the generator's draws
    frame_operator_chain_check(system, k)
    assert fills == []  # the chain check samples nothing
    frame_operator_atomic_check(system)
    assert fills == [100 * 12]
    frame_operator_atomic_check(system)
    frame_operator_atomic_check(other)
    assert len(fills) == 1
    frame_operator_atomic_check(system, seed=2)  # another seed is another sample
    assert len(fills) == 2


def test_self_atomic_report_from_a_cold_sample_cache_equals_the_warm_one():
    cold = {}
    for seed in (5, 6, 8):
        cold[seed] = frame_operator_atomic_check(_generated_pair(seed, 8, 3)[0]).to_json()
    for seed in (5, 6, 8):  # fresh systems, so no spectrum memo is shared
        assert frame_operator_atomic_check(_generated_pair(seed, 8, 3)[0]).to_json() == cold[seed]


_BAD_SAMPLES = [
    {"trials": -1}, {"trials": 2.5}, {"trials": True}, {"trials": np.int64(64)}, {"trials": None},
    {"seed": True}, {"seed": np.int64(1)}, {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.0},
]


@pytest.mark.parametrize("bad", _BAD_SAMPLES, ids=repr)
def test_self_atomic_check_rejects_a_bad_trial_count_or_seed(bad):
    system, _ = _generated_pair(5, 6, 3)
    frame_operator_atomic_check(system, seed=1)  # seed 1's sample is cached
    with pytest.raises(InputError):
        frame_operator_atomic_check(system, **bad)


def test_self_atomic_check_of_no_trials_checks_the_basis():
    system = coordinate_lines(3, [1.0, 2.0, 3.0])
    rep = frame_operator_atomic_check(system, trials=0)
    assert rep.ok
    worst_rec, worst_margin = _self_atomic_reference(system, np.eye(3))
    assert rep.worst_reconstruction == pytest.approx(worst_rec, rel=0, abs=1e-15)
    assert rep.worst_norm_margin == pytest.approx(worst_margin, rel=0, abs=1e-12)


def test_chain_check_validates_k_once(monkeypatch):
    system, k = _verified_pair(50)
    frame_operator_chain_check(system, k)
    calls = []
    as_operator = linalg.as_operator

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return as_operator(*args, **kwargs)

    monkeypatch.setattr(linalg, "as_operator", counted)
    frame_operator_chain_check(system, k)
    assert len(calls) == 1, calls


@pytest.mark.filterwarnings("error")
def test_chain_and_self_atomic_checks_of_a_frame_operator_near_the_float_range():
    # B ||f|| is beyond the float range; S itself is not
    rep = frame_operator_chain_check(coordinate_lines(3, [1.2e154, 1e154, 1e153]), np.eye(3))
    assert rep.all_ok and rep.branch == "inverse"
    assert frame_operator_atomic_check(coordinate_lines(3, [1.2e154, 1e154, 1e153])).ok
    for w in (1e78, 1e150):  # ||S||_F^2 is beyond the float range
        generated, k = _generated_pair(5, 6, 4)
        scaled = generated.scaled(w)
        assert frame_operator_atomic_check(scaled).ok
        assert frame_operator_chain_check(scaled, k).all_ok


@pytest.mark.filterwarnings("error")
def test_self_atomic_check_does_not_depend_on_the_scale_of_the_vectors():
    # each vector enters scaled by its own power of two: the same report at
    # any scale, and no overflow for f near the float range
    system = coordinate_lines(3, [1e10, 2.0, 3.0])
    f = np.vstack([Rng(4).normals(6, 3), np.zeros(3)])
    rep = frame_operator_atomic_check(system, vectors=f)
    assert rep.ok
    for e in ([1000], [-1000], [1000, -1000, 3, 0, -7, 900, 0]):
        scaled = np.ldexp(f, np.array(e)[:, None])
        assert frame_operator_atomic_check(system, vectors=scaled) == rep


def _sweep_pairs():
    """The shapes of the benchmark's verify-sweep: (kind, n, members, member
    dimension), five rounds of eight distinct pairs from fixed seeds."""
    shapes = (("verified", 12, 3, 4), ("verified", 14, 3, 4), ("refuted", 12, 2, 4),
              ("verified", 18, 4, 5), ("verified", 18, 3, 5), ("refuted", 18, 2, 6),
              ("verified", 22, 5, 5), ("verified", 22, 4, 6))
    rng = Rng(5104)
    pairs = []
    for _ in range(5):
        for kind, n, m, d in shapes:
            flavor = Flavor.K_FUSION_FRAME if kind == "verified" else Flavor.ARBITRARY
            system, k = generate(GenSpec(seed=rng.u64(), ambient_dim=n, member_count=m,
                                         dim_range=(d, d), flavor=flavor))
            pairs.append((kind, system, rng.normals(n, n) if kind == "refuted" else k))
    return pairs


def test_verify_and_witness_match_the_oracle_at_the_benchmark_shapes():
    pairs = _sweep_pairs()
    singular = 0
    for kind, system, k in pairs:
        k = np.asarray(k, float)
        s = system.frame_operator()
        rep = kfusion_verify(system, k)
        want, _ = oracle_lower_bound(s, k)
        assert rep.is_kff == (kind == "verified") == (want > 0)
        assert rep.optimal_upper == pytest.approx(np.linalg.eigvalsh(s)[-1], rel=1e-12)
        # Against 50-digit mpmath, A errs by up to 1.5e-11 in three of these
        # pairs (LAPACK's by up to 4.8e-11), from the eigenvalues of S
        assert rep.optimal_lower == pytest.approx(want, rel=1e-10, abs=0.0)
        singular += system.spectrum().rank() < system.ambient_dim
        f = refutation_witness(system, k)
        assert (f is None) == rep.is_kff
        if f is not None:
            ktf = k.T @ f
            assert f @ (s @ f) <= 1e-10 * (ktf @ ktf)
    assert len(pairs) == 40 and singular >= 10  # S is singular for every refuted pair


def test_lower_bound_near_the_rank_cut_matches_mpmath():
    # the first verify-sweep pair of benchmark seed 5104, round 1: lambda_min /
    # lambda_max of S is 1.94e-10, just above the cut at 1e-10, and LAPACK's
    # A (tests/oracles.py, perfbench/oracle.py) errs by 2.3e-8 and 1.7e-8
    import mpmath

    system, k = generate(GenSpec(seed=1675235502394991984, ambient_dim=12, member_count=3,
                                 dim_range=(4, 4), flavor=Flavor.K_FUSION_FRAME))
    k = np.asarray(k, float)
    with mpmath.workdps(50):
        w, v = mpmath.eigsy(mpmath.matrix(system.frame_operator().tolist()))
        assert 1e-10 < min(w) / max(w) < 2e-10
        kk = mpmath.matrix(k.tolist())
        root = mpmath.matrix(12, 12)  # S^(+1/2) K on the kept eigenvalues
        for i in range(12):
            if w[i] > 1e-10 * max(w):
                root += v[:, i] * (v[:, i].T * kk) / mpmath.sqrt(w[i])
        exact = 1 / max(mpmath.eigsy(root.T * root, eigvals_only=True))
        assert float(abs(kfusion_verify(system, k).optimal_lower / exact - 1)) <= 2e-9

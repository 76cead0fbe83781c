"""Acceptance gate: every shipped guarantee at full trial counts.

One test per criterion; each prints a single PASS line with its worst
margin (run with ``pytest tests/test_acceptance.py -s`` to see them).
Expected values come from independent oracles (numpy LAPACK routes,
closed forms, brute-force sampling), never from the code path under test.
"""

import json
import math

import numpy as np
import pytest

from fusionframes import linalg
from fusionframes.cli import main as cli_main
from fusionframes.constructions import (
    basis_image_system,
    commuting_transform_construct,
    invertibility_consistency_check,
    operator_image_construct,
    perturbation_estimate,
    perturbation_predict,
    surjectivity_consistency_check,
    transform_system,
)
from fusionframes.errors import PreconditionError, RangeInclusionError
from fusionframes.fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from fusionframes.generator import Flavor, GenSpec, Rng, generate
from fusionframes.kfusion import (
    atomic_decompose,
    douglas_factor,
    frame_operator_atomic_check,
    frame_operator_chain_check,
    kfusion_verify,
)
from fusionframes.subspaces import Subspace
from fusionframes.suite import (
    attach_local_frames,
    fusion_instance,
    nearby_orthogonal,
    random_orthogonal,
    refuted_instance,
    verified_instance,
)
from fusionframes.vector_frames import local_to_global_check

from oracles import (
    null_space,
    oracle_lower_bound,
    random_rank_deficient,
    random_unit_rows,
    rayleigh_infimum,
)


def report(num, text):
    print(f"ACCEPTANCE criterion {num}: PASS - {text}")


def test_criterion_01_moore_penrose():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(1000):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        if i % 3 == 0:
            rank = int(rng.integers(0, min(rows, cols)))
            m = random_rank_deficient(rng, rows, cols, rank)
        else:
            m = rng.standard_normal((rows, cols))
        p = linalg.pseudo_inverse(m)
        scale = max(np.linalg.norm(m), 1e-300)
        pscale = max(np.linalg.norm(p), 1e-300)
        p_range = m @ p
        p_rowspace = p @ m
        residuals = (
            np.linalg.norm(m @ p @ m - m) / scale,
            np.linalg.norm(p @ m @ p - p) / pscale,
            np.linalg.norm(p_range - p_range.T) / max(1.0, scale),
            np.linalg.norm(p_rowspace - p_rowspace.T) / max(1.0, scale),
            # kernel of the pseudo-inverse is the orthocomplement of R(m)
            np.linalg.norm(p @ (np.eye(rows) - p_range)) / pscale,
            # range of the pseudo-inverse is the orthocomplement of N(m)
            np.linalg.norm((np.eye(cols) - p_rowspace) @ p) / pscale,
            # projector idempotency
            np.linalg.norm(p_range @ p_range - p_range) / max(1.0, scale),
            np.linalg.norm(p_rowspace @ p_rowspace - p_rowspace) / max(1.0, scale),
        )
        worst = max(worst, *residuals)
        assert all(r <= 1e-10 for r in residuals)
    report(1, f"1000 matrices, worst Penrose/projector residual {worst:.2e}")


def test_criterion_02_range_factorization_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        v = random_rank_deficient(rng, n, n, r)
        t0 = rng.standard_normal((n, n))
        u = v @ t0
        t = douglas_factor(u, v)
        resid = np.linalg.norm(v @ t - u) / max(np.linalg.norm(u), 1e-300)
        worst = max(worst, resid)
        assert resid <= 1e-9
        lam2 = linalg.operator_norm(t) ** 2
        rhs = lam2 * (v @ v.T)
        assert linalg.psd_leq(u @ u.T, rhs, 1e-8 * max(1.0, np.linalg.norm(rhs)))
    rejected = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))  # strictly rank deficient
        v = random_rank_deficient(rng, n, n, r)
        nulls = null_space(v @ v.T)
        direction = nulls[:, 0]
        u = v @ rng.standard_normal((n, n))
        u = u + np.outer(direction, rng.standard_normal(n)) * max(
            0.5, np.linalg.norm(u)
        )
        with pytest.raises(RangeInclusionError):
            douglas_factor(u, v)
        rejected += 1
    assert rejected == 500
    report(2, f"500 recoveries (worst {worst:.2e}) and 500 rejections")


def test_criterion_03_optimal_lower_bound_oracle():
    rng = Rng(103)
    np_rng = np.random.default_rng(1030)
    worst_rel = 0.0
    for _ in range(200):
        system, k = verified_instance(rng, n_max=10, m_max=6)
        rep = kfusion_verify(system, k)
        assert rep.is_kff and math.isfinite(rep.optimal_lower)
        s = system.frame_operator()
        n = system.ambient_dim
        directions = random_unit_rows(np_rng, 10_000, n)
        oracle, minimizer = oracle_lower_bound(s, k)
        seeds = [minimizer] if minimizer is not None else []
        w_eig, v_eig = np.linalg.eigh(s)
        seeds.extend([v_eig[:, 0], v_eig[:, -1]])
        directions = np.vstack([directions] + [d.reshape(1, -1) for d in seeds])
        sampled = rayleigh_infimum(s, k, directions)
        assert math.isfinite(oracle)
        rel = abs(rep.optimal_lower - sampled) / max(rep.optimal_lower, 1e-300)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-3
        assert sampled >= rep.optimal_lower - 1e-8
    report(3, f"200 instances, worst relative gap to sampled infimum {worst_rel:.2e}")


def test_criterion_04_operator_inequality_chain():
    rng = Rng(104)
    invertible_branch = 0
    for _ in range(200):
        system, k = verified_instance(rng, n_max=10, m_max=6)
        rep = frame_operator_chain_check(system, k, tol=1e-8)
        assert rep.parts["psd_chain"].ok, rep.to_json()
        assert rep.parts["range_norms"].ok, rep.to_json()
        if rep.branch == "inverse":
            invertible_branch += 1
            assert rep.parts["inverse_norms"].ok, rep.to_json()
    assert invertible_branch > 0
    report(4, f"200 instances clean; {invertible_branch} on the invertible branch")


def test_criterion_05_atomic_equivalence():
    rng = Rng(105)
    worst = 0.0
    for _ in range(200):
        system, k = verified_instance(rng)
        k = np.asarray(k, float)
        n = system.ambient_dim
        for _ in range(100):
            f = rng.normals(n)
            dec = atomic_decompose(system, k, f)
            target = k @ f
            resid = np.linalg.norm(system.synthesis(dec.bundle) - target)
            scale = np.linalg.norm(target)
            if scale > 1e-12 * np.linalg.norm(f):
                worst = max(worst, resid / scale)
                assert resid <= 1e-9 * scale
            assert dec.bundle.norm() <= dec.constant * np.linalg.norm(f) * (1 + 1e-9) + 1e-12
    for _ in range(100):
        system, k = refuted_instance(rng)
        k = np.asarray(k, float)
        s = system.frame_operator()
        nulls = null_space(s)
        coupled = k.T @ nulls
        _, sv, vt = np.linalg.svd(coupled)
        assert sv[0] > 1e-8  # the range defect is real
        f = nulls @ vt[0]
        energy = f @ (s @ f)
        ktf2 = float(np.linalg.norm(k.T @ f) ** 2)
        # the direction defeats every uniform constant
        for c in (1.0, 1e3, 1e6):
            assert ktf2 > c ** 2 * energy
        with pytest.raises(PreconditionError):
            atomic_decompose(system, k, f)
    report(5, f"200 verified x 100 vectors (worst residual {worst:.2e}); 100 refutations certified")


def test_criterion_06_self_atomic_witness():
    rng = Rng(106)
    worst = 0.0
    for _ in range(200):
        system, _ = generate(
            GenSpec(
                seed=rng.u64(),
                ambient_dim=rng.randint(2, 10),
                member_count=rng.randint(1, 8),
            )
        )
        rep = frame_operator_atomic_check(
            system, tol=1e-10, trials=100, seed=rng.randint(0, 2 ** 31)
        )
        b = linalg.sym_eig(system.frame_operator()).largest
        assert rep.constant == pytest.approx(math.sqrt(max(b, 0.0)), rel=1e-12)
        assert rep.ok, rep.to_json()
        worst = max(worst, rep.worst_reconstruction)
    report(6, f"200 systems, worst witness reconstruction residual {worst:.2e}")


def test_criterion_07_commuting_transform_bounds():
    rng = Rng(107)
    for i in range(200):
        if i % 2 == 0:
            system = fusion_instance(rng)
            n = system.ambient_dim
            k = np.eye(n)
            t = random_orthogonal(rng, n)
        else:
            system, k = verified_instance(rng)
            n = system.ambient_dim
            c0 = (2.0 + rng.uniform()) * max(linalg.operator_norm(k), 1.0)
            t = c0 * np.eye(n) + np.asarray(k)
        rep = commuting_transform_construct(system, k, t, tol=1e-8)
        assert not rep.vacuous
        assert rep.bounds_consistent, rep.to_json()
    worked = commuting_transform_construct(
        coordinate_lines(2), np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    assert abs(worked.predicted_lower - 1.0) <= 1e-12
    assert abs(worked.predicted_upper - 1.0) <= 1e-12
    assert abs(worked.report.optimal_lower - 1.0) <= 1e-12
    assert abs(worked.report.optimal_upper - 1.0) <= 1e-12
    report(7, "200 transforms inside predicted intervals; worked example exact")


def test_criterion_08_rank_consistency_sweeps():
    rng = Rng(108)
    for _ in range(500):
        system = fusion_instance(rng)
        n = system.ambient_dim
        k = np.eye(n) if rng.randint(0, 1) else random_orthogonal(rng, n)
        t = rng.normals(n, n)
        if rng.randint(0, 1):
            u = rng.normals(n)
            t = t @ (np.eye(n) - np.outer(u, u) / (u @ u))
        rep = surjectivity_consistency_check(system, k, t)
        assert rep.consistent is not False, rep.to_json()
    for _ in range(500):
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
        assert rep.consistent is not False, rep.to_json()
    report(8, "500 surjectivity + 500 invertibility sweeps, zero inconsistencies")


def test_criterion_09_perturbation_stability():
    # identity case: zero parameters reproduce the bounds exactly
    system = coordinate_lines(2)
    params = perturbation_estimate(system, system)
    assert params.lambda1 == 0.0
    assert perturbation_predict(1.0, 1.0, params) == (1.0, 1.0)

    for theta in (0.01, 0.1, 0.3):
        c, s = math.cos(theta), math.sin(theta)
        rotated = WeightedSubspaceSystem(
            [Member(Subspace.span([c, s]), 1.0), Member(Subspace.span([-s, c]), 1.0)]
        )
        est = perturbation_estimate(system, rotated)
        assert abs(est.lambda1 - math.sqrt(2.0) * math.sin(theta)) <= 1e-9

    rng = Rng(109)
    admissible = 0
    while admissible < 200:
        base_system = fusion_instance(rng)
        n = base_system.ambient_dim
        k = rng.normals(n, n) if rng.randint(0, 1) else np.eye(n)
        base = kfusion_verify(base_system, k)
        assert base.is_kff
        q = nearby_orthogonal(rng, n, 0.01 + 0.05 * rng.uniform())
        perturbed = transform_system(base_system, q)
        est = perturbation_estimate(base_system, perturbed)
        a_ref = min(base.optimal_lower, base.optimal_upper)  # definitional pair
        if not est.admissible(a_ref):
            continue
        a_new, b_new = perturbation_predict(a_ref, base.optimal_upper, est)
        rep = kfusion_verify(perturbed, k)
        slack = 1e-9 * max(1.0, b_new)
        assert rep.is_kff
        assert rep.optimal_lower >= a_new - slack
        assert rep.optimal_upper <= b_new + slack
        admissible += 1
    report(9, "closed forms exact; 200 admissible perturbations inside predicted bounds")


def test_criterion_10_local_to_global():
    rng = Rng(110)
    for _ in range(200):
        system = attach_local_frames(fusion_instance(rng), rng)
        rep = local_to_global_check(system, tol=1e-8)
        assert not rep.local_failure
        assert rep.equivalent
        assert rep.interval_ok, rep.to_json()
    report(10, "200 local-frame systems: verdict equivalence and bound interval hold")


def test_criterion_11_image_constructions():
    rng = Rng(111)
    for _ in range(200):
        n = rng.randint(2, 8)
        hi = max(1, n // 2)
        m_min = -(-n // hi)
        system, k = generate(
            GenSpec(
                seed=rng.u64(),
                ambient_dim=n,
                member_count=rng.randint(m_min, min(8, m_min + 3)),
                flavor=Flavor.IMAGE_COMPATIBLE,
            )
        )
        rep = operator_image_construct(system, k)
        assert rep.hypothesis_ok and rep.report.is_kff, rep.to_json()
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.normals(n, n)
        if rng.randint(0, 2) == 0:
            u = rng.normals(n)
            k = k @ (np.eye(n) - np.outer(u, u) / (u @ u))
        _, rep = basis_image_system(k)
        assert rep.is_kff
    worked = operator_image_construct(coordinate_lines(3), np.diag([1.0, 1.0, 0.0]))
    assert abs(worked.report.optimal_lower - 1.0) <= 1e-12
    assert abs(worked.report.optimal_upper - 1.0) <= 1e-12
    report(11, "200 operator-image + 200 basis-image systems verified; worked example exact")


def test_criterion_12_cli(tmp_path, capsys):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    parseval = write(
        "parseval.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1.0},
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0},
            ],
        },
    )
    eye = write("eye.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]})
    e2 = write(
        "e2.json",
        {
            "ambient_dim": 2,
            "members": [{"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0}],
        },
    )
    diag10 = write("diag10.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.0]})
    broken = tmp_path / "broken.json"
    broken.write_text('{"ambient_dim": 2, "members": [')

    code = cli_main(["verify", "--system", parseval, "--operator", eye, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["lower"] == 1.0 and out["upper"] == 1.0

    code = cli_main(["verify", "--system", e2, "--operator", diag10, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["residual"] > 0.5

    code = cli_main(["verify", "--system", str(broken), "--operator", eye])
    capsys.readouterr()
    assert code == 2

    code = cli_main(["check-all", "--seed", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["failures"] == 0

    report(12, "exit codes 0/1/2 reproduced; check-all seed 1 clean")

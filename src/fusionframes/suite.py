"""Seeded property-suite corpus behind the ``check-all`` CLI command.

Every check draws its instances from a substream of one master seed, so a
run is reproducible from the command line (``check-all --seed 1``) and the
full corpus is identified by that single number.  Checks cross-validate
the package against independent numpy routes (LAPACK eigensolvers, least
squares) and against closed-form instances; a check fails only on a
genuine violation, never on a vacuous hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .constructions import (
    basis_image_system,
    commuting_transform_construct,
    invertibility_consistency_check,
    operator_image_construct,
    perturbation_estimate,
    perturbation_predict,
    surjectivity_consistency_check,
    transform_system,
)
from .errors import RangeInclusionError
from .fusion_systems import CoefficientBundle, Member, WeightedSubspaceSystem
from .generator import Flavor, GenSpec, Rng, generate
from .kfusion import (
    atomic_decompose,
    douglas_factor,
    frame_operator_atomic_check,
    frame_operator_chain_check,
    kfusion_verify,
    refutation_witness,
)
from .vector_frames import VectorFrame, kframe_verify, local_to_global_check, vector_frame_bounds


# ---------------------------------------------------------------------------
# Instance builders shared with the test corpus


def random_orthogonal(rng: Rng, n: int) -> np.ndarray:
    q, rank = linalg.qr_orthonormalize(rng.normals(n, n))
    while rank < n:  # measure-zero retry
        q, rank = linalg.qr_orthonormalize(rng.normals(n, n))
    return q


def nearby_orthogonal(rng: Rng, n: int, eps: float) -> np.ndarray:
    """Orthogonal matrix at distance O(eps) from the identity (Cayley
    transform of a normalized skew matrix)."""
    g = rng.normals(n, n)
    a = 0.5 * (g - g.T)
    norm = linalg.operator_norm(a)
    if norm > 0:
        a = a / norm
    eye = np.eye(n)
    return (eye - eps * a) @ linalg.pseudo_inverse(eye + eps * a)


def verified_instance(rng: Rng, n_max: int = 8, m_max: int = 5):
    """A (system, K) pair that verifies by construction."""
    n = rng.randint(2, n_max)
    m = rng.randint(1, m_max)
    spec = GenSpec(
        seed=rng.u64(), ambient_dim=n, member_count=m, flavor=Flavor.K_FUSION_FRAME
    )
    return generate(spec)


def fusion_instance(rng: Rng, n_max: int = 8, m_max: int = 5):
    n = rng.randint(2, n_max)
    hi = max(1, n // 2)  # default dim_range upper end
    m_min = -(-n // hi)  # enough members to reach a spanning union
    m = rng.randint(m_min, m_min + max(1, m_max - m_min))
    spec = GenSpec(
        seed=rng.u64(), ambient_dim=n, member_count=m, flavor=Flavor.FUSION_FRAME
    )
    return generate(spec)[0]


def refuted_instance(rng: Rng, n_max: int = 8, tries: int = 64):
    """A (system, K) pair whose frame operator misses part of the range of
    K, so verification must fail."""
    for _ in range(tries):
        n = rng.randint(3, n_max)
        spec = GenSpec(
            seed=rng.u64(),
            ambient_dim=n,
            member_count=rng.randint(1, 2),
            dim_range=(1, max(1, n // 3)),
            flavor=Flavor.ARBITRARY,
        )
        system, _ = generate(spec)
        k = rng.normals(n, n)
        if not kfusion_verify(system, k).is_kff:
            return system, k
    raise AssertionError("could not draw a refuted instance")


def attach_local_frames(system: WeightedSubspaceSystem, rng: Rng, extra: int = 2):
    """Random spanning local frames for every member (member coordinates
    drawn as normals, so spanning holds almost surely)."""
    members = []
    for m in system.members:
        k = m.subspace.dim
        if k == 0:
            members.append(Member(m.subspace, m.weight, ()))
            continue
        count = k + rng.randint(0, extra)
        while True:
            coords = rng.normals(k, count)
            if linalg.matrix_rank(coords) == k:
                break
        vectors = tuple((m.subspace.basis @ coords).T)
        members.append(Member(m.subspace, m.weight, vectors))
    return WeightedSubspaceSystem(members)


def pencil_lower_bound(s, k, cut: float = 1e-10):
    """Independent route to the optimal lower bound: reduce the quadratic
    forms <S f, f> and ||K.T f||^2 to the positive part of S and solve the
    generalized eigenproblem with numpy.  Returns (bound, minimizing unit
    direction); bound is +inf for K = 0, and 0 with a violating direction
    when the pair is refuted."""
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    w, v = np.linalg.eigh(s)
    scale = max(w.max(initial=0.0), 0.0)
    pos = w > cut * max(scale, 1e-300)
    if not np.any(pos):
        return (math.inf, None) if np.linalg.norm(k) == 0 else (0.0, None)
    null = v[:, ~pos]
    if null.size:
        coupled = k.T @ null
        u_n, s_n, vt_n = np.linalg.svd(coupled)
        if s_n.size and s_n[0] > 1e-10 * max(np.linalg.norm(k), 1e-300):
            f = null @ vt_n[0]
            return 0.0, f / np.linalg.norm(f)
    q = v[:, pos]
    wq = w[pos]
    gt = q.T @ (k @ k.T) @ q
    inv_root = 1.0 / np.sqrt(wq)
    mid = (gt * inv_root).T * inv_root  # diag scaling both sides
    lam, u = np.linalg.eigh(0.5 * (mid + mid.T))
    top = max(lam[-1], 0.0)
    if top == 0.0:
        return math.inf, None
    f = q @ (inv_root * u[:, -1])
    return 1.0 / top, f / np.linalg.norm(f)


def sampled_ratio_infimum(s, k, directions) -> float:
    """Infimum of <S f, f> / ||K.T f||^2 over the given directions (rows),
    ignoring directions essentially annihilated by K.T.  Both forms are
    evaluated as sums of squares (cancellation-free) so that near-null
    directions of ill-conditioned S do not produce spurious dips."""
    s = np.asarray(s, float)
    k = np.asarray(k, float)
    f = np.asarray(directions, float)
    w, v = np.linalg.eigh(s)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rf = f @ root
    num = np.einsum("ni,ni->n", rf, rf)
    ktf = f @ k
    den = np.einsum("ni,ni->n", ktf, ktf)
    keep = den > 1e-12 * np.einsum("ni,ni->n", f, f) * max(
        np.linalg.norm(k) ** 2, 1e-300
    )
    if not np.any(keep):
        return math.inf
    return float(np.min(num[keep] / den[keep]))


# ---------------------------------------------------------------------------
# Checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": self.detail}


def _check_pseudo_inverse(rng: Rng, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = rng.normals(rows, cols)
        if rng.randint(0, 2) == 0 and min(rows, cols) > 1:
            r = rng.randint(1, min(rows, cols) - 1)
            m = rng.normals(rows, r) @ rng.normals(r, cols)
        p = linalg.pseudo_inverse(m)
        scale = max(np.linalg.norm(m), 1e-300)
        worst = max(
            worst,
            np.linalg.norm(m @ p @ m - m) / scale,
            np.linalg.norm(p @ m @ p - p) / max(np.linalg.norm(p), 1e-300),
            np.linalg.norm((m @ p) - (m @ p).T) / max(scale, 1.0),
            np.linalg.norm((p @ m) - (p @ m).T) / max(scale, 1.0),
            np.linalg.norm(p - p @ (m @ p)) / max(np.linalg.norm(p), 1e-300),
        )
    return CheckResult("pseudo-inverse-identities", worst <= 1e-10, f"worst residual {worst:.2e}")


def _check_eigensolver(rng: Rng, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        n = rng.randint(1, 12)
        a = rng.normals(n, n)
        s = a + a.T
        spec = linalg.sym_eig(s)
        scale = max(np.linalg.norm(s), 1e-300)
        worst = max(
            worst,
            np.linalg.norm(spec.reconstruct() - s) / scale,
            np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(n)).max(),
            np.abs(spec.eigenvalues - np.linalg.eigvalsh(s)).max() / scale,
        )
    return CheckResult("eigensolver-reconstruction", worst <= 1e-10, f"worst residual {worst:.2e}")


def _check_orthonormalization(rng: Rng, trials: int) -> CheckResult:
    ok = True
    worst = 0.0
    for _ in range(trials):
        n = rng.randint(2, 10)
        r = rng.randint(1, n)
        m = rng.normals(n, r) @ rng.normals(r, r + rng.randint(0, 3))
        q, rank = linalg.qr_orthonormalize(m)
        ok = ok and rank == np.linalg.matrix_rank(m, tol=1e-8)
        if rank:
            worst = max(
                worst,
                np.abs(q.T @ q - np.eye(rank)).max(),
                np.linalg.norm(m - q @ (q.T @ m)) / max(np.linalg.norm(m), 1e-300),
            )
    return CheckResult(
        "orthonormalization", ok and worst <= 1e-10, f"rank ok {ok}, worst residual {worst:.2e}"
    )


def _check_range_factorization(rng: Rng, trials: int) -> CheckResult:
    worst = 0.0
    rejected = 0
    majorization_ok = True
    for _ in range(trials):
        n = rng.randint(2, 8)
        r = rng.randint(1, n)
        v = rng.normals(n, r) @ rng.normals(r, n)
        t0 = rng.normals(n, n)
        u = v @ t0
        t = douglas_factor(u, v)
        worst = max(worst, np.linalg.norm(v @ t - u) / max(np.linalg.norm(u), 1e-300))
        lam2 = linalg.operator_norm(t) ** 2
        majorization_ok = majorization_ok and linalg.psd_leq(
            u @ u.T, lam2 * (v @ v.T), 1e-8 * max(1.0, np.linalg.norm(u) ** 2)
        )
        if r < n:  # genuine exclusion: add a component off the range of v
            w, vecs = np.linalg.eigh(v @ v.T)
            outside = vecs[:, 0]
            u_bad = u + np.outer(outside, rng.normals(n))
            try:
                douglas_factor(u_bad, v)
            except RangeInclusionError:
                rejected += 1
            else:
                return CheckResult(
                    "range-factorization", False, "missed a non-inclusion pair"
                )
    return CheckResult(
        "range-factorization",
        worst <= 1e-9 and majorization_ok,
        f"worst residual {worst:.2e}, {rejected} rejections",
    )


def _check_optimal_lower_bound(rng: Rng, trials: int) -> CheckResult:
    worst_rel = 0.0
    for _ in range(trials):
        system, k = verified_instance(rng)
        report = kfusion_verify(system, k)
        if not report.is_kff or not math.isfinite(report.optimal_lower):
            return CheckResult("optimal-lower-bound", False, "constructed instance refuted")
        s = system.frame_operator()
        oracle, direction = pencil_lower_bound(s, k)
        if not math.isfinite(oracle):
            continue
        n = system.ambient_dim
        dirs = rng.normals(256, n)
        if direction is not None:
            dirs = np.vstack([dirs, direction])
        sampled = sampled_ratio_infimum(s, k, dirs)
        rel = abs(report.optimal_lower - oracle) / max(oracle, 1e-300)
        worst_rel = max(worst_rel, rel)
        if sampled < report.optimal_lower - 1e-8 * max(1.0, report.optimal_lower):
            return CheckResult(
                "optimal-lower-bound", False, f"sampled ratio {sampled:.6g} below bound"
            )
    return CheckResult(
        "optimal-lower-bound", worst_rel <= 1e-6, f"worst relative gap {worst_rel:.2e}"
    )


def _check_operators(rng: Rng, trials: int) -> CheckResult:
    worst = 0.0
    for _ in range(trials):
        system = fusion_instance(rng)
        n = system.ambient_dim
        f = rng.normals(n)
        g_blocks = [m.subspace.project(rng.normals(n)) for m in system.members]
        bundle = system.analysis(f)
        s = system.frame_operator()
        worst = max(worst, abs(bundle.norm() ** 2 - f @ (s @ f)) / max(f @ (s @ f), 1e-300))
        g = CoefficientBundle(g_blocks)
        lhs = system.synthesis(g) @ f
        rhs = sum(b1 @ b2 for b1, b2 in zip(g.blocks, bundle.blocks))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
        comp = np.column_stack(
            [system.synthesis(system.analysis(e)) for e in np.eye(n)]
        )
        worst = max(worst, np.linalg.norm(comp - s) / max(np.linalg.norm(s), 1e-300))
        b1 = system.fusion_bounds()
        b2 = system.scaled(2.0).fusion_bounds()
        worst = max(worst, abs(b2.lower - 4 * b1.lower) / max(4 * b1.lower, 1e-300))
        worst = max(worst, abs(b2.upper - 4 * b1.upper) / max(4 * b1.upper, 1e-300))
        if b1.upper > float((system.weights ** 2).sum()) * (1 + 1e-12):
            return CheckResult("system-operators", False, "Bessel bound exceeded")
    return CheckResult("system-operators", worst <= 1e-9, f"worst residual {worst:.2e}")


def _check_inequality_chain(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system, k = verified_instance(rng)
        report = frame_operator_chain_check(system, k, seed=rng.randint(0, 2 ** 31))
        if not report.all_ok:
            bad = {name: p.margin for name, p in report.parts.items() if not p.ok}
            return CheckResult("inequality-chain", False, f"violations: {bad}")
    return CheckResult("inequality-chain", True, f"{trials} instances clean")


def _check_atomic(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system, k = verified_instance(rng)
        n = system.ambient_dim
        for _ in range(4):
            f = rng.normals(n)
            dec = atomic_decompose(system, k, f)
            target = np.asarray(k, float) @ f
            resid = np.linalg.norm(system.synthesis(dec.bundle) - target)
            if resid > 1e-9 * max(np.linalg.norm(target), 1e-12):
                return CheckResult("atomic-decomposition", False, f"residual {resid:.2e}")
            if dec.bundle.norm() > dec.constant * np.linalg.norm(f) * (1 + 1e-9) + 1e-12:
                return CheckResult("atomic-decomposition", False, "norm bound violated")
        system_r, k_r = refuted_instance(rng)
        witness = refutation_witness(system_r, k_r)
        if witness is None:
            return CheckResult("atomic-decomposition", False, "missing refutation witness")
        s_r = system_r.frame_operator()
        if witness @ (s_r @ witness) > 1e-10 * np.linalg.norm(
            np.asarray(k_r).T @ witness
        ) ** 2:
            return CheckResult("atomic-decomposition", False, "witness does not certify")
    return CheckResult("atomic-decomposition", True, f"{trials} instances clean")


def _check_self_atomic(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system, _ = generate(
            GenSpec(seed=rng.u64(), ambient_dim=rng.randint(2, 8), member_count=rng.randint(1, 5))
        )
        report = frame_operator_atomic_check(system, trials=20, seed=rng.randint(0, 2 ** 31))
        if not report.ok:
            return CheckResult(
                "self-atomic-witness",
                False,
                f"margins {report.worst_reconstruction:.2e}/{report.worst_norm_margin:.2e}",
            )
    return CheckResult("self-atomic-witness", True, f"{trials} systems clean")


def _check_commuting_transform(rng: Rng, trials: int) -> CheckResult:
    for i in range(trials):
        if i % 2 == 0:
            system = fusion_instance(rng)
            n = system.ambient_dim
            k = np.eye(n)
            t = random_orthogonal(rng, n)
        else:
            system, k = verified_instance(rng)
            n = system.ambient_dim
            c0 = (2.0 + rng.uniform()) * max(linalg.operator_norm(k), 1.0)
            t = c0 * np.eye(n) + k
        report = commuting_transform_construct(system, k, t)
        if report.vacuous:
            return CheckResult("commuting-transform", False, "hypotheses unexpectedly failed")
        if not report.bounds_consistent:
            return CheckResult(
                "commuting-transform",
                False,
                f"optimal bounds escaped the predicted interval "
                f"[{report.predicted_lower:.6g}, {report.predicted_upper:.6g}]",
            )
    return CheckResult("commuting-transform", True, f"{trials} instances consistent")


def _check_rank_consistency(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system = fusion_instance(rng)
        n = system.ambient_dim
        k = np.eye(n) if rng.randint(0, 1) else random_orthogonal(rng, n)
        t = rng.normals(n, n)
        if rng.randint(0, 1):
            u = rng.normals(n)
            t = t @ (np.eye(n) - np.outer(u, u) / (u @ u))  # force rank loss
        rep = surjectivity_consistency_check(system, k, t)
        if rep.consistent is False:
            return CheckResult("rank-consistency", False, f"surjectivity branch {rep.branch}")
        k2 = rng.normals(n, n)
        while linalg.matrix_rank(k2) < n:
            k2 = rng.normals(n, n)
        coeffs = [rng.uniform(-1, 1) for _ in range(2)]
        t2 = coeffs[0] * np.eye(n) + coeffs[1] * k2
        if rng.randint(0, 1):
            w = np.linalg.eigvals(k2)
            real = w[np.abs(w.imag) < 1e-12]
            if real.size:
                t2 = t2 @ (k2 - float(real[0].real) * np.eye(n))  # singular, commuting
        rep2 = invertibility_consistency_check(system, k2, t2)
        if rep2.consistent is False:
            return CheckResult("rank-consistency", False, f"invertibility branch {rep2.branch}")
    return CheckResult("rank-consistency", True, f"{trials} sweeps consistent")


def _check_image_constructions(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        n = rng.randint(2, 8)
        k = rng.normals(n, n)
        if rng.randint(0, 2) == 0:
            u = rng.normals(n)
            k = k @ (np.eye(n) - np.outer(u, u) / (u @ u))
        _, report = basis_image_system(k)
        if not report.is_kff:
            return CheckResult("image-constructions", False, "basis-image system refuted")
        hi = max(1, n // 2)
        m_min = -(-n // hi)
        system, k2 = generate(
            GenSpec(
                seed=rng.u64(),
                ambient_dim=n,
                member_count=rng.randint(m_min, m_min + 2),
                flavor=Flavor.IMAGE_COMPATIBLE,
            )
        )
        rep2 = operator_image_construct(system, k2)
        if not rep2.hypothesis_ok or not rep2.report.is_kff:
            return CheckResult("image-constructions", False, "operator-image construction failed")
    return CheckResult("image-constructions", True, f"{trials} constructions verified")


def _check_perturbation(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system = fusion_instance(rng)
        n = system.ambient_dim
        use_k = rng.randint(0, 1) == 1
        k = rng.normals(n, n) if use_k else np.eye(n)
        base = kfusion_verify(system, k)
        if not base.is_kff:
            return CheckResult("perturbation", False, "reference pair refuted")
        q = nearby_orthogonal(rng, n, 0.02 + 0.05 * rng.uniform())
        perturbed = transform_system(system, q)
        params = perturbation_estimate(system, perturbed)
        # optimal A can exceed B for small-norm operators; use the
        # definitional pair (min, max) as the reference bounds
        a_ref = min(base.optimal_lower, base.optimal_upper)
        if not params.admissible(a_ref):
            continue  # too large a kick for this instance; nothing to assert
        a_new, b_new = perturbation_predict(a_ref, base.optimal_upper, params)
        rep = kfusion_verify(perturbed, k)
        slack = 1e-9 * max(1.0, b_new)
        if not rep.is_kff or rep.optimal_lower < a_new - slack or rep.optimal_upper > b_new + slack:
            return CheckResult(
                "perturbation",
                False,
                f"bounds [{rep.optimal_lower:.6g}, {rep.optimal_upper:.6g}] escape "
                f"[{a_new:.6g}, {b_new:.6g}]",
            )
    return CheckResult("perturbation", True, f"{trials} perturbations inside predicted bounds")


def _check_local_global(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        system = attach_local_frames(fusion_instance(rng), rng)
        report = local_to_global_check(system)
        if report.local_failure:
            return CheckResult("local-to-global", False, "local frame degenerated")
        if not (report.equivalent and report.interval_ok):
            return CheckResult("local-to-global", False, "bridge violated")
        frame_vectors = [w for m in system.members for w in m.local_frame]
        if frame_vectors:
            vf = VectorFrame(system.ambient_dim, frame_vectors)
            rep_k = kframe_verify(vf, np.eye(system.ambient_dim))
            rep_b = vector_frame_bounds(vf)
            if rep_k.is_kff != rep_b.verdict.is_frame():
                return CheckResult("local-to-global", False, "identity-operator mismatch")
    return CheckResult("local-to-global", True, f"{trials} bridges verified")


def _check_generator(rng: Rng, trials: int) -> CheckResult:
    for _ in range(trials):
        seed = rng.u64()
        spec = GenSpec(seed=seed, ambient_dim=rng.randint(2, 8), member_count=rng.randint(1, 5))
        s1, _ = generate(spec)
        s2, _ = generate(spec)
        for m1, m2 in zip(s1.members, s2.members):
            if not np.array_equal(m1.subspace.basis, m2.subspace.basis) or m1.weight != m2.weight:
                return CheckResult("generator-contract", False, "seed reproduction failed")
        for m in s1.members:
            gram = m.subspace.basis.T @ m.subspace.basis
            if gram.size and np.abs(gram - np.eye(m.subspace.dim)).max() > 1e-10:
                return CheckResult("generator-contract", False, "non-orthonormal basis")
        sys_f, _ = generate(
            GenSpec(seed=seed, ambient_dim=6, member_count=4, flavor=Flavor.FUSION_FRAME)
        )
        if not sys_f.fusion_bounds().verdict.is_frame():
            return CheckResult("generator-contract", False, "fusion-frame flavor failed")
        sys_k, k = generate(
            GenSpec(seed=seed, ambient_dim=6, member_count=3, flavor=Flavor.K_FUSION_FRAME)
        )
        if not kfusion_verify(sys_k, k).is_kff:
            return CheckResult("generator-contract", False, "verified flavor failed")
    return CheckResult("generator-contract", True, f"{trials} seeds reproduced and guaranteed")


_CHECKS = [
    (_check_pseudo_inverse, 40),
    (_check_eigensolver, 40),
    (_check_orthonormalization, 40),
    (_check_range_factorization, 30),
    (_check_optimal_lower_bound, 20),
    (_check_operators, 15),
    (_check_inequality_chain, 15),
    (_check_atomic, 10),
    (_check_self_atomic, 10),
    (_check_commuting_transform, 16),
    (_check_rank_consistency, 20),
    (_check_image_constructions, 15),
    (_check_perturbation, 15),
    (_check_local_global, 12),
    (_check_generator, 8),
]


def run_all(seed: int = 1, scale: float = 1.0):
    """Run the whole corpus; returns a list of CheckResult.

    Check number i draws from substream i of ``Rng(seed)``; ``scale``,
    finite and > 0 (InputError otherwise), multiplies the per-check trial
    counts (minimum one trial).
    """
    linalg.check_positive(scale, "scale")
    master = Rng(seed)
    results = []
    for i, (fn, trials) in enumerate(_CHECKS):
        rng = master.spawn(i)
        results.append(fn(rng, max(1, int(round(trials * scale)))))
    return results

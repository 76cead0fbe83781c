"""Operator-driven constructions and perturbation stability.

Transformed systems {(T W_i, w_i)}, basis-image and operator-image
systems, and the quantitative stability of verification under subspace
perturbations.  The implication checks here are conditional assertions:
when a hypothesis fails they report the instance as vacuous instead of
raising, so randomized sweeps can feed them arbitrary inputs and only
genuine implication violations count as failures.

Surjectivity and invertibility of K and T are decided from their singular
values at the one rank cut of ``linalg`` (``_kept``), the cut that also
forms ||T+|| and every image T W_i (relative to ||T||).  ``tol``
arguments default to ``kfusion.DEFAULT_TOL``.

Every public entry validates K and T with ``linalg.as_operator`` and
``tol`` with ``linalg.check_tol`` before any hypothesis is weighed, so
malformed input raises InputError, never a vacuous report.  A hypothesis
is reported as a ``kfusion.PartResult`` (ok, margin); the member
invariance margin is ``Subspace.residual`` of the projected members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InadmissibleError, InputError, PreconditionError
from .fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from .kfusion import DEFAULT_TOL, KFusionReport, PartResult, kfusion_verify
from .subspaces import Subspace, _range

_WEIGHT_MATCH_TOL = 1e-12  # relative: perturbation_estimate's two systems share their weights


def _full_rank(sv: np.ndarray) -> tuple[bool, float]:
    """Whether a square matrix with the descending singular values ``sv`` has
    full rank at the rank cut ``linalg._kept``, and the ratio
    sigma_min / sigma_max."""
    if sv[0] == 0.0:
        return False, 0.0
    return bool(linalg._kept(sv).all()), float(sv[-1] / sv[0])


def within_predicted_bounds(report: KFusionReport, lower: float, upper: float,
                            tol: float) -> bool:
    """Whether ``report`` verifies with its optimal bounds inside the
    predicted [lower - slack, upper + slack], slack = tol * max(1, upper)."""
    slack = tol * max(1.0, upper)
    return (report.is_kff and report.optimal_lower >= lower - slack
            and report.optimal_upper <= upper + slack)


def transform_system(system: WeightedSubspaceSystem, t) -> WeightedSubspaceSystem:
    """The system {(T W_i, w_i)}: images are re-orthonormalized, weights
    kept, and collapsed images retained as zero subspaces.  Every image is
    cut relative to the one ||T||."""
    n = system.ambient_dim
    t = linalg.as_operator(t, n)
    norm_t = linalg.operator_norm(t)
    return WeightedSubspaceSystem(
        [Member(Subspace(n, _range(t @ m.subspace.basis, norm_t), _trusted=True), m.weight)
         for m in system.members]
    )


def _invariance_defect(system: WeightedSubspaceSystem, projector) -> float:
    """Worst column residual of projector(W_i) against W_i over members."""
    images = transform_system(system, projector).members
    return max(float(m.subspace.residual(p.subspace.basis).max(initial=0.0))
               for m, p in zip(system.members, images))


def _commutation(t, k, norm_t: float, norm_k: float, tol: float) -> PartResult:
    """The hypothesis TK = KT: ||TK - KT||_F <= tol * ||T|| ||K||, with the
    relative commutator as margin.  It is scale-invariant, so it is formed
    on T and K scaled by powers of two (``linalg.unit_scaled``) and no
    product over- or underflows."""
    (t, et), (k, ek) = linalg.unit_scaled(t), linalg.unit_scaled(k)
    scale = max(math.ldexp(norm_t, -et) * math.ldexp(norm_k, -ek), 1e-300)
    commutator = np.linalg.norm(t @ k - k @ t)
    return PartResult(bool(commutator <= tol * scale), commutator / scale)


@dataclass(frozen=True)
class TransformConstructReport:
    """Transformed system with predicted versus optimal bounds.

    ``predicted_*`` apply only when every hypothesis holds (commutation
    with K, invariance of each member under T+ T, surjectivity of T);
    then the optimal bounds of the transformed system must satisfy
    A_opt >= A_pred and B_opt <= B_pred up to tolerance, which is what
    ``bounds_consistent`` records.  Vacuous instances assert nothing.
    """

    transformed: WeightedSubspaceSystem
    hypotheses: dict
    vacuous: bool
    predicted_lower: float | None
    predicted_upper: float | None
    report: KFusionReport | None
    bounds_consistent: bool | None

    def to_json(self) -> dict:
        return {
            "vacuous": bool(self.vacuous),
            "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
            "predicted": None
            if self.predicted_lower is None
            else [float(self.predicted_lower), float(self.predicted_upper)],
            "optimal": None
            if self.report is None
            else [float(self.report.optimal_lower), float(self.report.optimal_upper)],
            "consistent": None if self.bounds_consistent is None else bool(self.bounds_consistent),
            "system": self.transformed.to_json(),
        }


def commuting_transform_construct(
    system: WeightedSubspaceSystem, k, t, tol: float = DEFAULT_TOL
) -> TransformConstructReport:
    """Transform a verified system by a surjective operator commuting with
    K whose pseudo-inverse action leaves every member invariant.

    Predicted bounds: A_pred = A / c and B_pred = B * c, with (A, B) the
    optimal bounds of the input pair and c = ||T||^2 ||T+||^2 =
    (sigma_max / sigma_min)^2, formed once from the ratio of T's singular
    values, so at any scale of T.  The input system must verify for K
    (PreconditionError otherwise).
    """
    n = system.ambient_dim
    k = linalg.as_operator(k, n, "operator K")
    t = linalg.as_operator(t, n, "operator T")
    base = kfusion_verify(system, k, tol)
    if not base.is_kff:
        raise PreconditionError("input system is refuted for this operator")

    sv_t = linalg.singular_values(t)  # ||T|| and the rank ratio
    hyp_commute = _commutation(t, k, float(sv_t[0]), linalg.operator_norm(k), tol)

    worst = _invariance_defect(system, linalg.pseudo_inverse(t) @ t)
    hyp_invariant = PartResult(worst <= tol, worst)

    hyp_surjective = PartResult(*_full_rank(sv_t))  # margin sigma_min / sigma_max

    hypotheses = {
        "commutes": hyp_commute,
        "member_invariance": hyp_invariant,
        "surjective": hyp_surjective,
    }
    transformed = transform_system(system, t)
    if not all(h.ok for h in hypotheses.values()):
        return TransformConstructReport(
            transformed, hypotheses, True, None, None, None, None
        )

    condition = hyp_surjective.margin ** -2  # ||T||^2 ||T+||^2 = (sigma_max / sigma_min)^2
    a_pred = base.optimal_lower / condition
    b_pred = base.optimal_upper * condition
    report = kfusion_verify(transformed, k, tol)
    consistent = within_predicted_bounds(report, a_pred, b_pred, tol)
    return TransformConstructReport(
        transformed, hypotheses, False, a_pred, b_pred, report, consistent
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """One sweep of an implication check between transformed-system
    verdicts and rank facts about the transforming operator."""

    branch: str
    consistent: bool | None
    verified: bool
    sigma_min_ratio: float
    details: dict

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "consistent": None if self.consistent is None else bool(self.consistent),
            "verified": bool(self.verified),
            "sigma_min_ratio": float(self.sigma_min_ratio),
            **self.details,
        }


def _implication(verified: bool, full_rank: bool, ratio: float, branches: tuple[str, str],
                 details: dict) -> ConsistencyReport:
    """The report on "a verified transformed system forces T to have full
    rank": branches[0] when verified, branches[1] when refuted with a
    rank-deficient T, and "vacuous" when refuted with a full-rank T (the
    implication is silent)."""
    if verified:
        return ConsistencyReport(branches[0], full_rank, True, ratio, details)
    branch = "vacuous" if full_rank else branches[1]
    return ConsistencyReport(branch, True, False, ratio, details)


def surjectivity_consistency_check(
    system: WeightedSubspaceSystem, k, t, tol: float = DEFAULT_TOL
) -> ConsistencyReport:
    """For full-rank K: a verified transformed system forces T to be
    surjective.  Checks the implication both ways round (a rank-deficient
    T must yield a refutation).  Raises when K is not full rank."""
    n = system.ambient_dim
    k = linalg.as_operator(k, n, "operator K")
    t = linalg.as_operator(t, n, "operator T")
    linalg.check_tol(tol)
    if not _full_rank(linalg.singular_values(k))[0]:
        raise PreconditionError("operator K must have full rank (dense range)")
    report = kfusion_verify(transform_system(system, t), k, tol)
    surjective, ratio = _full_rank(linalg.singular_values(t))
    return _implication(report.is_kff, surjective, ratio,
                        ("verified-implies-surjective", "rank-deficient-refuted"),
                        {"surjective": surjective})


def invertibility_consistency_check(
    system: WeightedSubspaceSystem, k, t, tol: float = DEFAULT_TOL
) -> ConsistencyReport:
    """For full-rank K commuting with T: if both {(T W_i)} and {(T.T W_i)}
    verify, T must be invertible.  Hypothesis failures make the sweep
    vacuous rather than erroring."""
    n = system.ambient_dim
    k = linalg.as_operator(k, n, "operator K")
    t = linalg.as_operator(t, n, "operator T")
    linalg.check_tol(tol)
    sv_k = linalg.singular_values(k)
    sv_t = linalg.singular_values(t)
    dense = _full_rank(sv_k)[0]
    commutes = _commutation(t, k, float(sv_t[0]), float(sv_k[0]), tol).ok
    invertible, ratio = _full_rank(sv_t)
    if not (dense and commutes):
        return ConsistencyReport(
            "vacuous-hypotheses",
            None,
            False,
            ratio,
            {"dense_range": dense, "commutes": commutes, "invertible": invertible},
        )
    rep_fwd = kfusion_verify(transform_system(system, t), k, tol)
    rep_adj = kfusion_verify(transform_system(system, t.T), k, tol)
    return _implication(
        rep_fwd.is_kff and rep_adj.is_kff,
        invertible,
        ratio,
        ("both-verified", "singular-refuted"),
        {
            "forward_verified": rep_fwd.is_kff,
            "adjoint_verified": rep_adj.is_kff,
            "invertible": invertible,
        },
    )


def basis_image_system(k):
    """The system {(span(K e_i), 1)}, the coordinate lines transformed by K,
    so a column at or below the rank cut relative to ||K|| is a zero
    subspace.  Always verifies for K: the spans carry the range of K but for
    those columns, so the range defect is at most sqrt(n) * 1e-10, below
    ``DEFAULT_TOL`` for n < 10^4.  The report is returned with the system."""
    k = linalg.as_operator(k, None, "operator K")
    system = transform_system(coordinate_lines(k.shape[0]), k)
    return system, kfusion_verify(system, k)


@dataclass(frozen=True)
class ImageConstructReport:
    transformed: WeightedSubspaceSystem
    hypothesis_ok: bool
    hypothesis_margin: float
    report: KFusionReport
    consistent: bool | None  # None when the invariance hypothesis fails

    def to_json(self) -> dict:
        return {
            "hypothesis_ok": bool(self.hypothesis_ok),
            "hypothesis_margin": float(self.hypothesis_margin),
            "verified": bool(self.report.is_kff),
            "consistent": None if self.consistent is None else bool(self.consistent),
            "report": self.report.to_json(),
            "system": self.transformed.to_json(),
        }


def operator_image_construct(
    system: WeightedSubspaceSystem, k, tol: float = DEFAULT_TOL
) -> ImageConstructReport:
    """Image construction {(K W_i, w_i)} from a genuine fusion frame whose
    members are invariant under K+ K.  The constructed system is asserted
    to verify for K; hypothesis failure downgrades the report to vacuous.
    Raises PreconditionError when the input is not a fusion frame."""
    n = system.ambient_dim
    k = linalg.as_operator(k, n, "operator K")
    linalg.check_tol(tol)
    if system.spectrum().rank() < n:
        raise PreconditionError("input system is not a fusion frame (singular frame operator)")
    worst = _invariance_defect(system, linalg.pseudo_inverse(k) @ k)
    hypothesis_ok = worst <= tol
    transformed = transform_system(system, k)
    report = kfusion_verify(transformed, k, tol)
    consistent = report.is_kff if hypothesis_ok else None
    return ImageConstructReport(transformed, hypothesis_ok, worst, report, consistent)


# ---------------------------------------------------------------------------
# Perturbation stability


@dataclass(frozen=True)
class PerturbationParams:
    """Constants (lambda1, lambda2, mu) of the perturbation hypothesis

        (sum w_i^2 ||(P_i - Q_i) f||^2)^(1/2)
            <= lambda1 * ||analysis_W f|| + lambda2 * ||analysis_V f||
               + mu * ||K.T f||.

    Admissible against a lower bound A when
    max(lambda1 + mu / sqrt(A), lambda2) < 1.
    """

    lambda1: float
    lambda2: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise InputError(f"{name} must be finite and >= 0, got {v}")

    def admissible(self, lower: float) -> bool:
        if lower <= 0:
            return False
        return max(self.lambda1 + self.mu / math.sqrt(lower), self.lambda2) < 1.0

    def to_json(self) -> dict:
        return {"lambda1": float(self.lambda1), "lambda2": float(self.lambda2), "mu": float(self.mu)}


def perturbation_predict(lower: float, upper: float, params: PerturbationParams):
    """Guaranteed bounds of the perturbed system:

        A' = A (1 - r / (1 + lambda2))^2,  B' = B (1 + r / (1 - lambda2))^2

    with r = lambda1 + lambda2 + mu / sqrt(A).  Raises InadmissibleError
    when max(lambda1 + mu / sqrt(A), lambda2) >= 1.

    (lower, upper) must be a definitional pair with lower <= upper.  Note
    that the OPTIMAL constants of an operator-relative verification can
    come out reversed when the operator has small norm (any lower bound
    up to ||K||^-2 upper is valid then); pass min(A_opt, B_opt) as the
    lower bound in that case, which is what the CLI does.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)) or not (0 < lower <= upper):
        raise InputError(f"bounds must satisfy 0 < lower <= upper, got ({lower}, {upper})")
    if not params.admissible(lower):
        raise InadmissibleError(
            f"max(lambda1 + mu/sqrt(A), lambda2) = "
            f"{max(params.lambda1 + params.mu / math.sqrt(lower), params.lambda2):.6g} "
            ">= 1"
        )
    r = params.lambda1 + params.lambda2 + params.mu / math.sqrt(lower)
    a_new = lower * (1.0 - r / (1.0 + params.lambda2)) ** 2
    b_new = upper * (1.0 + r / (1.0 - params.lambda2)) ** 2
    return a_new, b_new


def perturbation_estimate(
    system: WeightedSubspaceSystem,
    perturbed: WeightedSubspaceSystem,
) -> PerturbationParams:
    """Smallest lambda1 (with lambda2 = mu = 0) making the hypothesis hold
    for every f: ||E S^(-1/2)|| with E = vstack(w_i (P_i - Q_i)), the square
    root of the largest eigenvalue of S^(-1/2) D S^(-1/2), D = E.T E.

    Requires matching shapes and weights and an invertible frame operator
    on the reference side (full rank at the spectrum's rank cut).
    """
    if perturbed.ambient_dim != system.ambient_dim:
        raise InputError("ambient dimensions differ")
    if len(perturbed) != len(system):
        raise InputError("member counts differ")
    if not np.allclose(system.weights, perturbed.weights, rtol=_WEIGHT_MATCH_TOL, atol=0.0):
        raise InputError("weights differ between the two systems")
    spec = system.spectrum()
    if spec.rank() < system.ambient_dim:
        raise PreconditionError("reference frame operator is singular")
    e = np.vstack([m.weight * (m.subspace.projection() - m2.subspace.projection())
                   for m, m2 in zip(system.members, perturbed.members)])
    return PerturbationParams(linalg.operator_norm(e @ spec.power(-0.5)))

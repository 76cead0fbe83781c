"""Operator-relative frame verification and atomic decompositions.

A system {(W_i, w_i)} is a K-fusion frame when A ||K.T f||^2 <= <S f, f>
<= B ||f||^2 holds for all f with constants 0 < A <= B, S being the frame
operator.  Every quantity here comes from K and the system's one
eigendecomposition of S (``WeightedSubspaceSystem.spectrum``).  By
Douglas' range-factorization theorem the lower bound exists exactly when
the range of K lies in the range of S, so the range defect ||K - P K|| /
||K|| decides (P projects onto the range of S).  Then A = 1 /
sigma_max(S^(+1/2) K)^2, and the canonical dual a_i = w_i P_i S^+ K f is
the minimal-norm atomic decomposition, with constant A^(-1/2).  This is
exact and avoids any infimum search.  Refutation is a first-class result
(``is_kff = False``, lower bound 0), not an error, so sweeps over
arbitrary inputs stay cheap.  ``refutation_witness`` reads its verdict
from that same report, so it is None exactly when the pair verifies.

Every public entry validates K (and T) with ``linalg.as_operator`` and
``tol`` with ``linalg.check_tol`` (finite and > 0), directly or through
``kfusion_verify``; malformed input raises InputError.  The chain check
forms its quantities from K scaled by a power of two (with A scaled to
match), so its margins do not depend on the scale of K.

What depends on (S, K) alone is computed once per pair and kept in the
spectrum's bounded memo (``linalg.Spectrum.memoized``), keyed on K's shape,
its float64 bytes and ``tol``: the verification report, the coefficient
map ``gamma`` of ``atomic_decompose``, and the chain check's ||K+|| and
lambda_min(S - A K K.T).  A K changed in place is a new key; the cached
arrays are read-only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, PreconditionError, RangeInclusionError
from .fusion_systems import CoefficientBundle, WeightedSubspaceSystem
from .generator import Rng

DEFAULT_TOL = 1e-8


def douglas_factor(u, v, tol: float = 1e-9) -> np.ndarray:
    """Minimal-norm T with u = v @ T, when the column space of u lies in
    the column space of v.

    Returns T = v+ @ u on success.  Raises RangeInclusionError carrying the
    relative defect ||v v+ u - u|| / ||u|| when inclusion fails (defect
    above ``tol``); that defect certifies that no majorization
    u u.T <= c * v v.T can hold.
    """
    u = linalg.as_matrix(u, "factor numerator")
    v = linalg.as_matrix(v, "factor denominator")
    if u.shape[0] != v.shape[0]:
        raise InputError(
            f"row counts differ: {u.shape[0]} vs {v.shape[0]}"
        )
    linalg.check_tol(tol)
    t = linalg.pseudo_inverse(v) @ u
    scale = linalg.norm(u)
    if scale == 0.0:
        return t  # zero operator factors through anything
    defect = linalg.norm(v @ t - u) / scale
    if defect > tol:
        raise RangeInclusionError(defect)
    return t


@dataclass(frozen=True)
class KFusionReport:
    """Outcome of verifying a system against an operator.

    ``optimal_lower`` is the largest valid lower bound (0 when refuted,
    +inf for the zero operator); ``optimal_upper`` the smallest upper bound.
    ``factor_t`` satisfies K = S^(1/2) @ factor_t when verified.
    ``residual`` is the relative range-inclusion defect.  ``gamma`` is the
    coefficient-operator witness, filled in by the vector-frame variant.
    """

    is_kff: bool
    optimal_lower: float
    optimal_upper: float
    factor_t: np.ndarray | None
    residual: float
    gamma: np.ndarray | None = None

    def to_json(self) -> dict:
        return {
            "is_kff": bool(self.is_kff),
            "lower": float(self.optimal_lower),
            "upper": float(self.optimal_upper),
            "residual": float(self.residual),
            "parts": {},
        }


def _lower_bound(sigma: float, e: int) -> float:
    """A = 1 / (sigma * 2**e)^2 without overflow, +inf for sigma = 0.
    Raises InputError when A is outside the normal float range."""
    if sigma == 0.0:
        return math.inf
    m, f = math.frexp(sigma)
    try:
        lower = math.ldexp(1.0 / (m * m), -2 * (f + e))
    except OverflowError:
        lower = math.inf
    if not sys.float_info.min <= lower < math.inf:
        raise InputError("the optimal lower bound 1/sigma^2 is outside the float range "
                         f"(sigma = sigma_max(S^(+1/2) K) ~ 2^{f + e})")
    return lower


def _range_defect(null_basis: np.ndarray, k_hat: np.ndarray) -> float:
    """The range defect ||N.T K^|| / ||K^|| (0 for K = 0), N a null basis of S
    and K^ = K scaled by a power of two: the part of K outside range(S)."""
    k_norm = np.linalg.norm(k_hat)
    return float(np.linalg.norm(null_basis.T @ k_hat) / k_norm) if k_norm else 0.0


def _memoized(spec: linalg.Spectrum, name: str, k: np.ndarray, tol: float, compute):
    """``compute()`` once per (name, K, tol) in the spectrum's memo, K keyed
    by its shape and float64 bytes."""
    return spec.memoized((name, k.shape, k.tobytes(), tol), compute)


def verify_operator_bound(spec: linalg.Spectrum, k, tol: float = DEFAULT_TOL) -> KFusionReport:
    """Shared verification core: decide A ||K.T f||^2 <= <S f, f> for the PSD
    operator S with eigendecomposition ``spec`` and report optimal constants.
    K is scaled by a power of two, so no product overflows.  The report is
    memoized per (K, tol) on ``spec``; its ``factor_t`` is read-only."""
    k = linalg.as_operator(k, spec.eigenvalues.shape[0], "operator K")
    linalg.check_tol(tol)
    return _memoized(spec, "report", k, tol, lambda: _verify(spec, k, tol))


def _verify(spec: linalg.Spectrum, k: np.ndarray, tol: float) -> KFusionReport:
    upper = max(spec.largest, 0.0)
    k_hat, e = linalg.unit_scaled(k)
    residual = _range_defect(spec.null_basis(), k_hat)
    if residual > tol:
        return KFusionReport(False, 0.0, upper, None, residual)
    factor = spec.power(-0.5) @ k_hat
    lower = _lower_bound(linalg.operator_norm(factor), e)
    factor_t = np.ldexp(factor, e)
    factor_t.flags.writeable = False
    return KFusionReport(True, lower, upper, factor_t, residual)


def kfusion_verify(system: WeightedSubspaceSystem, k, tol: float = DEFAULT_TOL) -> KFusionReport:
    """Verify or refute the system against the operator ``k``: a range
    defect above ``tol`` refutes, with the defect attached."""
    return verify_operator_bound(system.spectrum(), k, tol)


def refutation_witness(system: WeightedSubspaceSystem, k, tol: float = DEFAULT_TOL):
    """For a refuted pair, a unit vector f with <S f, f> ~ 0 but K.T f != 0.

    Such a direction drives the ratio <S f, f> / ||K.T f||^2 to zero, so no
    positive lower bound (equivalently, no uniform decomposition constant)
    can exist.  Returns None exactly when ``kfusion_verify`` verifies at
    ``tol``: the verdict is that of its (memoized) report.
    """
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    if kfusion_verify(system, k, tol).is_kff:
        return None
    k_hat, _ = linalg.unit_scaled(k)
    null_basis = system.spectrum().null_basis()
    _, _, vt = linalg.svd(k_hat.T @ null_basis)
    direction = null_basis @ vt[0]
    return direction / np.linalg.norm(direction)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Blockwise coefficient operator and the decomposition of one vector.

    ``gamma`` maps f to stacked blocks with K f = synthesis(blocks); it is
    computed once per (system, K, tol) and shared read-only.  ``constant``
    is its operator norm, the uniform constant bounding
    ||blocks|| <= constant * ||f||.
    """

    gamma: np.ndarray
    bundle: CoefficientBundle
    constant: float

    def to_json(self) -> dict:
        return {"constant": self.constant, "bundle": self.bundle.to_json()}


def atomic_decompose(
    system: WeightedSubspaceSystem, k, f, tol: float = DEFAULT_TOL
) -> AtomicDecomposition:
    """Coefficients {a_i} with K f = sum_i w_i a_i and ||{a_i}|| bounded by
    the operator norm of the coefficient map times ||f||.

    The coefficients are the canonical dual ones, a_i = w_i P_i S^+ K f:
    the analysis operator applied to S^+ K f.  They are the minimal-norm
    solution (the coefficient map is T+ K for the synthesis operator T,
    and T+ = T.T S^+ because T T.T = S), each block lies in its W_i, and
    the map's norm is sigma_max(S^(+1/2) K) = A^(-1/2).  Raises
    PreconditionError when the system is refuted for ``k`` at ``tol`` (no
    uniform constant can exist then).
    """
    f = linalg.as_vector(f, n=system.ambient_dim)
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    report = kfusion_verify(system, k, tol)
    if not report.is_kff:
        raise PreconditionError(
            "system is refuted for this operator "
            f"(range defect {report.residual:.3e}); no atomic decomposition "
            "with a uniform constant exists"
        )
    spec = system.spectrum()
    s_pinv = spec.pinv()
    with np.errstate(over="ignore", invalid="ignore"):
        g = s_pinv @ (k @ f)
    if not np.isfinite(g).all():
        raise InputError("K f or S+ K f is beyond the float range")
    gamma = _memoized(spec, "gamma", k, tol, lambda: np.vstack(
        [m.weight * m.subspace.projection() for m in system.members]) @ (s_pinv @ k))
    constant = 0.0 if math.isinf(report.optimal_lower) else 1.0 / math.sqrt(report.optimal_lower)
    return AtomicDecomposition(gamma, system.analysis(g), constant)


# ---------------------------------------------------------------------------
# Inequality-chain and witness checks


@dataclass(frozen=True)
class PartResult:
    """One checked part or hypothesis: whether it holds, and its margin."""

    ok: bool
    margin: float

    def to_json(self) -> dict:
        return {"ok": bool(self.ok), "margin": float(self.margin)}


@dataclass(frozen=True)
class ChainReport:
    parts: dict
    branch: str
    lower: float
    upper: float

    @property
    def all_ok(self) -> bool:
        return all(p.ok for p in self.parts.values())

    def to_json(self) -> dict:
        return {
            "branch": self.branch,
            "lower": float(self.lower),
            "upper": float(self.upper),
            "parts": {k: v.to_json() for k, v in self.parts.items()},
        }


def frame_operator_chain_check(
    system: WeightedSubspaceSystem,
    k,
    tol: float = DEFAULT_TOL,
    trials: int = 64,
    seed: int = 1,
) -> ChainReport:
    """Certify the operator inequalities implied by a verified pair.

    (1) A K K.T <= S <= B I in the Loewner order;
    (2) A ||K+||^-2 ||f|| <= ||S f|| <= B ||f|| for f in the range of K;
    (3) on the invertible branch, B^-1 ||f|| <= ||S^-1 f|| <= A^-1 ||K+||^2
        ||f|| for f in S(range K); with singular S the same inequalities are
        checked with the pseudo-inverse and reported under a separate
        branch label.

    Margins are worst cases over ``trials`` sampled range vectors,
    normalized by the upper bound.
    """
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    report = kfusion_verify(system, k, tol)
    if not report.is_kff:
        raise PreconditionError("system is refuted for this operator")
    a, b = report.optimal_lower, report.optimal_upper
    # Every quantity below is formed from K^ = K 2^-e and A 4^e, which give
    # A K K.T = (A 4^e) K^ K^.T and A ||K+||^-2 = (A 4^e) ||K^+||^-2: exact,
    # finite at any scale of K, and the sampled rows K^ x keep their size.
    k_hat, e = linalg.unit_scaled(k)
    a_hat = math.ldexp(a, 2 * e) if math.isfinite(a) else 0.0
    s = system.frame_operator()
    spec = system.spectrum()
    n = system.ambient_dim
    scale = max(b, 1e-300)

    # part 1: PSD chain; the smallest eigenvalue of B I - S is B - lambda_max
    m1 = _memoized(spec, "chain_lambda_min", k, tol,
                   lambda: linalg.sym_eig(s - a_hat * (k_hat @ k_hat.T)).smallest) / scale
    margin1 = min(m1, (b - spec.largest) / scale)
    parts = {"psd_chain": PartResult(margin1 >= -tol, margin1)}

    # ||K^+||: the singular values of K, scaled exactly to those of K^
    kp_norm = _memoized(spec, "k_hat_pinv_norm", k, tol, lambda: linalg._pinv_norm(
        np.ldexp(linalg.singular_values(k), -e)))

    # parts 2 and 3 over all trials at once: row i of f is K^ x_i
    x = Rng(seed).normals(trials, n)
    f = x @ k_hat.T
    nf = np.linalg.norm(f, axis=1)  # entries of K^ below 1: no kept row over- or underflows
    live = nf > 1e-12 * np.maximum(np.linalg.norm(x, axis=1), 1.0)
    f, nf = f[live], nf[live]
    sf = f @ s  # S is symmetric
    nsf = linalg.axis_norms(sf, 1)
    margin2 = margin3 = math.inf
    if nf.size:
        lo = a_hat / kp_norm ** 2
        margin2 = float(np.min(np.minimum(nsf - lo * nf, b * nf - nsf) / (scale * nf)))
    live = nsf > 1e-300  # the rows of sf are elements of S(range K)
    sf, nsf = sf[live], nsf[live]
    if nsf.size:
        nsig = linalg.axis_norms(sf @ spec.pinv(), 1)
        margin3 = float(np.min(nsig * b / nsf - 1.0))
        if a_hat > 0:
            margin3 = min(margin3, float(np.min(1.0 - nsig * a_hat / (kp_norm ** 2 * nsf))))
    if not math.isfinite(margin2):
        margin2 = 0.0  # zero operator: nothing to sample
    if not math.isfinite(margin3):
        margin3 = 0.0
    parts["range_norms"] = PartResult(margin2 >= -tol, margin2)
    parts["inverse_norms"] = PartResult(margin3 >= -tol, margin3)
    return ChainReport(
        parts=parts,
        branch="inverse" if spec.rank() == n else "pseudo-inverse",
        lower=a,
        upper=b,
    )


@dataclass(frozen=True)
class SelfAtomicReport:
    """Witness check that a system decomposes its own frame operator."""

    constant: float
    worst_reconstruction: float
    worst_norm_margin: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "constant": float(self.constant),
            "worst_reconstruction": float(self.worst_reconstruction),
            "worst_norm_margin": float(self.worst_norm_margin),
            "ok": bool(self.ok),
        }


def frame_operator_atomic_check(
    system: WeightedSubspaceSystem,
    vectors=None,
    tol: float = 1e-9,
    trials: int = 100,
    seed: int = 7,
) -> SelfAtomicReport:
    """Every system is an atomic system for its own frame operator: the
    explicit witness a_i = w_i P_i f reconstructs S f with bundle norm at
    most sqrt(B) ||f||.  Checks both conditions over the supplied vectors
    (or a seeded sample) and reports worst relative margins.
    """
    linalg.check_tol(tol)
    s = system.frame_operator()
    b = max(system.spectrum().largest, 0.0)
    c = math.sqrt(b)
    if vectors is None:
        vectors = list(Rng(seed).normals(trials, system.ambient_dim))
        vectors.extend(np.eye(system.ambient_dim).T)
    worst_rec = 0.0
    worst_margin = math.inf
    for f in vectors:
        f = linalg.as_vector(f, n=system.ambient_dim)
        bundle = system.analysis(f)
        rec = system.synthesis(bundle)
        target = s @ f
        scale = max(np.linalg.norm(target), np.linalg.norm(s) * np.linalg.norm(f), 1e-300)
        worst_rec = max(worst_rec, float(np.linalg.norm(rec - target) / scale))
        nf = np.linalg.norm(f)
        if nf > 0:
            worst_margin = min(
                worst_margin, (c * nf - bundle.norm()) / max(c * nf, 1e-300)
            )
    if not math.isfinite(worst_margin):
        worst_margin = 0.0
    ok = worst_rec <= tol and worst_margin >= -tol
    return SelfAtomicReport(c, worst_rec, worst_margin, ok)


@dataclass(frozen=True)
class RangeTransferReport:
    """Verification inherited along range inclusion: if T factors through K
    and the system verifies for K, it must verify for T."""

    inclusion: bool
    base: KFusionReport
    transferred: KFusionReport
    consistent: bool | None  # None when the inclusion hypothesis fails

    def to_json(self) -> dict:
        return {
            "inclusion": bool(self.inclusion),
            "base": self.base.to_json(),
            "transferred": self.transferred.to_json(),
            "consistent": None if self.consistent is None else bool(self.consistent),
        }


def range_transfer_check(
    system: WeightedSubspaceSystem, k, t, tol: float = DEFAULT_TOL
) -> RangeTransferReport:
    """Check that verification for ``k`` transfers to any operator ``t``
    whose range is contained in the range of ``k``.  Vacuous (no assertion)
    when the inclusion fails."""
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    t = linalg.as_operator(t, system.ambient_dim, "operator T")
    base = kfusion_verify(system, k, tol)
    if not base.is_kff:
        raise PreconditionError("system is refuted for the base operator")
    transferred = kfusion_verify(system, t, tol)
    try:
        douglas_factor(t, k, tol)
        inclusion = True
    except RangeInclusionError:
        inclusion = False
    consistent = transferred.is_kff if inclusion else None
    return RangeTransferReport(inclusion, base, transferred, consistent)

"""Operator-relative frame verification and atomic decompositions.

A system {(W_i, w_i)} is a K-fusion frame when A ||K.T f||^2 <= <S f, f>
<= B ||f||^2 holds for all f with constants 0 < A <= B, S being the frame
operator.  Every quantity here comes from K and the system's one
eigendecomposition of S (``WeightedSubspaceSystem.spectrum``).  By
Douglas' range-factorization theorem the lower bound exists exactly when
the range of K lies in the range of S, so the range defect ||K - P K|| /
||K|| decides (P projects onto the range of S).  Then A = 1 /
sigma_max(S^(+1/2) K)^2, with sigma_max from the dominant singular pair
(``linalg.operator_norm``: Gram squaring, no SVD), and the canonical dual
a_i = w_i P_i S^+ K f is the minimal-norm atomic decomposition, with
constant A^(-1/2).  This is exact and avoids any infimum search.  Refutation is a first-class result
(``is_kff = False``, lower bound 0), not an error, so sweeps over
arbitrary inputs stay cheap.  ``refutation_witness`` reads its verdict
from that same report, so it is None exactly when the pair verifies, and
takes its direction N v from the dominant right vector v of K^.T N
(``linalg.dominant_singular``), N a null basis of S.

Every public entry validates K (and T) with ``linalg.as_operator`` and
``tol`` with ``linalg.check_tol`` (finite and > 0), once, directly or
through ``kfusion_verify``, the one public entry to the verifier (vector
frames reach it through their line systems); malformed input raises
InputError.  The chain
check forms its quantities from K, S and S^+, each scaled by a power of two
(with A, B and the row filter scaled to match), so its margins do not
depend on the scale of K and no row norm over- or underflows.  The self-atomic check
works on S and the weights scaled by one power of two and on each vector
scaled by its own, so it does not overflow for S near the float range.

The two sampled checks, ``frame_operator_chain_check`` and
``frame_operator_atomic_check``, draw their fixed sample of ``trials``
vectors through ``generator.normal_block``: once per (seed, trials, n) in
the process, read-only, after ``seed`` and ``trials`` are checked.

What depends on (S, K) alone is computed once per pair and kept in the
spectrum's bounded memo (``linalg.Spectrum.memoized``), keyed on K's shape
and its float64 bytes: the range defect, the verified report, the
coefficient map ``gamma`` of ``atomic_decompose``, and the chain check's
||K+|| and lambda_min(S - A K K.T); per spectrum, the chain check's scaled
S and S^+.  ``tol`` only decides whether the defect refutes, so a second
``tol`` factors nothing again.  A K changed in place is a new key; the
cached arrays are read-only.  Coefficient blocks come from the system's
analysis matrix Phi (``analysis_operator``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, PreconditionError, RangeInclusionError
from .fusion_systems import CoefficientBundle, WeightedSubspaceSystem
from .generator import normal_block

DEFAULT_TOL = 1e-8


def douglas_factor(u, v, tol: float = linalg.DEFAULT_VERDICT_TOL) -> np.ndarray:
    """Minimal-norm T with u = v @ T, when the column space of u lies in
    the column space of v.

    Returns T = v+ @ u on success.  Raises RangeInclusionError carrying the
    relative defect ||v v+ u - u|| / ||u|| when inclusion fails (defect
    above ``tol``); that defect certifies that no majorization
    u u.T <= c * v v.T can hold.  Both are formed on u and v scaled by
    powers of two (``linalg.unit_scaled``), so no product overflows;
    InputError when T itself is beyond the float range.
    """
    u = linalg.as_matrix(u, "factor numerator")
    v = linalg.as_matrix(v, "factor denominator")
    if u.shape[0] != v.shape[0]:
        raise InputError(f"row counts differ: {u.shape[0]} vs {v.shape[0]}")
    linalg.check_tol(tol)
    (u, eu), (v, ev) = linalg.unit_scaled(u), linalg.unit_scaled(v)
    t = linalg.pseudo_inverse(v) @ u
    scale = linalg.norm(u)
    defect = linalg.norm(v @ t - u) / scale if scale else 0.0  # u = 0 factors through anything
    if defect > tol:
        raise RangeInclusionError(defect)
    with np.errstate(over="ignore"):
        t = np.ldexp(t, eu - ev)
    if not np.isfinite(t).all():
        raise InputError("the factor v+ u is beyond the float range")
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


def _memoized(spec: linalg.Spectrum, name: str, k: np.ndarray, compute):
    """``compute()`` once per (name, K) in the spectrum's memo, K keyed by
    its shape and float64 bytes."""
    return spec.memoized((name, k.shape, k.tobytes()), compute)


def _memoized_unit_scaled(spec: linalg.Spectrum, name: str,
                          matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """``linalg.unit_scaled(matrix)`` once per spectrum under ``name`` (a
    matrix derived from S alone), the scaled matrix read-only."""
    def compute():
        scaled, e = linalg.unit_scaled(matrix)
        scaled.flags.writeable = False
        return scaled, e
    return spec.memoized(name, compute)


def _verify_checked(spec: linalg.Spectrum, k: np.ndarray, tol: float) -> KFusionReport:
    """``kfusion_verify`` on the spectrum of S, for a K and ``tol`` already
    validated."""
    residual = _memoized(spec, "range_defect", k, lambda: _range_defect(
        spec.null_basis(), linalg.unit_scaled(k)[0]))
    if residual > tol:
        return KFusionReport(False, 0.0, max(spec.largest, 0.0), None, residual)
    return _memoized(spec, "verified", k, lambda: _verified(spec, k, residual))


def _verified(spec: linalg.Spectrum, k: np.ndarray, residual: float) -> KFusionReport:
    upper = max(spec.largest, 0.0)
    k_hat, e = linalg.unit_scaled(k)
    factor = spec.power(-0.5) @ k_hat
    lower = _lower_bound(linalg.operator_norm(factor), e)
    factor_t = np.ldexp(factor, e)
    factor_t.flags.writeable = False
    return KFusionReport(True, lower, upper, factor_t, residual)


def kfusion_verify(system: WeightedSubspaceSystem, k, tol: float = DEFAULT_TOL) -> KFusionReport:
    """Verify or refute the system against the operator ``k``: a range
    defect above ``tol`` refutes, with the defect attached.  K is scaled by
    a power of two, so no product overflows.  The range defect and the
    verified report are memoized per K on the system's spectrum; the
    report's ``factor_t`` is read-only."""
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    linalg.check_tol(tol)
    return _verify_checked(system.spectrum(), k, tol)


def refutation_witness(system: WeightedSubspaceSystem, k, tol: float = DEFAULT_TOL):
    """For a refuted pair, a unit vector f with <S f, f> ~ 0 but K.T f != 0.

    Such a direction drives the ratio <S f, f> / ||K.T f||^2 to zero, so no
    positive lower bound (equivalently, no uniform decomposition constant)
    can exist.  Returns None exactly when ``kfusion_verify`` verifies at
    ``tol``: the verdict is that of its (memoized) report.
    """
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    linalg.check_tol(tol)
    spec = system.spectrum()
    if _verify_checked(spec, k, tol).is_kff:
        return None
    k_hat, _ = linalg.unit_scaled(k)
    null_basis = spec.null_basis()
    direction = null_basis @ linalg.dominant_singular(k_hat.T @ null_basis)[1]
    return direction / np.linalg.norm(direction)


@dataclass(frozen=True)
class AtomicDecomposition:
    """Blockwise coefficient operator and the decomposition of one vector.

    ``gamma`` maps f to the stacked blocks ``bundle.stacked()`` with
    K f = synthesis(blocks); it is computed once per (system, K) and shared
    read-only.  ``constant`` is its operator norm, the uniform constant bounding
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
    the blocks of gamma f, gamma = Phi S^+ K.  They are the minimal-norm
    solution (the coefficient map is T+ K for the synthesis operator T,
    and T+ = T.T S^+ because T T.T = S), each block lies in its W_i, and
    the map's norm is sigma_max(S^(+1/2) K) = A^(-1/2).  Raises
    PreconditionError when the system is refuted for ``k`` at ``tol`` (no
    uniform constant can exist then), and InputError when K f or its
    coefficients are beyond the float range.
    """
    f = linalg.as_vector(f, n=system.ambient_dim)
    k = linalg.as_operator(k, system.ambient_dim, "operator K")
    linalg.check_tol(tol)
    spec = system.spectrum()
    report = _verify_checked(spec, k, tol)
    if not report.is_kff:
        raise PreconditionError(
            "system is refuted for this operator "
            f"(range defect {report.residual:.3e}); no atomic decomposition "
            "with a uniform constant exists"
        )
    gamma = _memoized(spec, "gamma", k, lambda: system.analysis_operator() @ (spec.pinv() @ k))
    with np.errstate(over="ignore", invalid="ignore"):
        kf = k @ f
        blocks = gamma @ f
    if not (np.isfinite(kf).all() and np.isfinite(blocks).all()):
        raise InputError("K f or its coefficients gamma f are beyond the float range")
    constant = 0.0 if math.isinf(report.optimal_lower) else 1.0 / math.sqrt(report.optimal_lower)
    bundle = CoefficientBundle(blocks.reshape(len(system), system.ambient_dim))
    return AtomicDecomposition(gamma, bundle, constant)


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
    n = system.ambient_dim
    k = linalg.as_operator(k, n, "operator K")
    linalg.check_tol(tol)
    x = normal_block(seed, trials, n)
    spec = system.spectrum()
    report = _verify_checked(spec, k, tol)
    if not report.is_kff:
        raise PreconditionError("system is refuted for this operator")
    a, b = report.optimal_lower, report.optimal_upper
    # Every quantity below is formed from K^ = K 2^-e and A 4^e, which give
    # A K K.T = (A 4^e) K^ K^.T and A ||K+||^-2 = (A 4^e) ||K^+||^-2: exact,
    # finite at any scale of K, and the sampled rows K^ x keep their size.
    k_hat, e = linalg.unit_scaled(k)
    a_hat = math.ldexp(a, 2 * e) if math.isfinite(a) else 0.0
    s = system.frame_operator()
    scale = max(b, 1e-300)

    # part 1: PSD chain; the smallest eigenvalue of B I - S is B - lambda_max
    m1 = _memoized(spec, "chain_lambda_min", k,
                   lambda: linalg.sym_eig(s - a_hat * (k_hat @ k_hat.T)).smallest) / scale
    margin1 = min(m1, (b - spec.largest) / scale)
    parts = {"psd_chain": PartResult(margin1 >= -tol, margin1)}

    # ||K^+||: the singular values of K, scaled exactly to those of K^
    kp_norm = _memoized(spec, "k_hat_pinv_norm", k, lambda: linalg._pinv_norm(
        np.ldexp(linalg.singular_values(k), -e)))

    # parts 2 and 3 over all trials at once: row i of f is K^ x_i.  S and S+
    # enter as S^ = S 2^-d and P^ = S+ 2^-q, each largest entry in [0.5, 1),
    # so the rows of f S^ = (S f) 2^-d and f S^ P^ = (S+ S f) 2^-(d+q) keep
    # the size of f and plain row norms neither over- nor underflow; every
    # bound they meet is scaled by the same power of two, exactly.
    s_hat, d = _memoized_unit_scaled(spec, "unit_scaled_s", s)
    p_hat, q = _memoized_unit_scaled(spec, "unit_scaled_pinv", spec.pinv())
    f = x @ k_hat.T
    nf = np.linalg.norm(f, axis=1)  # entries of K^ below 1: no kept row over- or underflows
    live = nf > 1e-12 * np.maximum(np.linalg.norm(x, axis=1), 1.0)
    f, nf = f[live], nf[live]
    sf = f @ s_hat  # S is symmetric
    nsf = np.linalg.norm(sf, axis=1)
    margin2 = margin3 = math.inf
    if nf.size:
        lo = math.ldexp(a_hat / kp_norm ** 2, -d)
        margin2 = float(np.min(np.minimum(nsf - lo * nf, math.ldexp(b, -d) * nf - nsf)
                               / (math.ldexp(scale, -d) * nf)))
    live = nsf > math.ldexp(1e-300, -d)  # the rows of sf are elements of S(range K)
    sf, nsf = sf[live], nsf[live]
    if nsf.size:
        nsig = np.linalg.norm(sf @ p_hat, axis=1)
        margin3 = float(np.min(nsig * math.ldexp(b, q) / nsf - 1.0))
        if a_hat > 0:
            margin3 = min(margin3, float(np.min(
                1.0 - nsig * math.ldexp(a_hat, q) / (kp_norm ** 2 * nsf))))
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
    tol: float = linalg.DEFAULT_VERDICT_TOL,
    trials: int = 100,
    seed: int = 7,
) -> SelfAtomicReport:
    """Every system is an atomic system for its own frame operator: the
    explicit witness a_i = w_i P_i f reconstructs S f with bundle norm at
    most sqrt(B) ||f||.  Checks both conditions over the supplied vectors
    (or a seeded sample plus the standard basis), all at once as the rows
    of one matrix, and reports worst relative margins.
    """
    linalg.check_tol(tol)
    n = system.ambient_dim
    spec = system.spectrum()
    c = math.sqrt(max(spec.largest, 0.0))
    if vectors is None:
        f = np.vstack([normal_block(seed, trials, n), np.eye(n)])
    else:
        f = linalg.as_matrix(vectors, "vectors") if len(vectors) else np.zeros((0, n))
        if f.shape[1] != n:
            raise InputError(f"vectors have dimension {f.shape[1]}, expected {n}")
    # Row j of f enters as f_j 2^-a_j (largest entry in [0.5, 1)), S as
    # S^ = S 2^-d and the weights of the reconstruction as w_i 2^-d.  Both
    # margins are ratios of terms scaled by the same power of two, so this is
    # exact, and neither S f nor sum_i w_i a_i overflows near the float range.
    f = np.ldexp(f, -np.frexp(np.abs(f).max(axis=1, keepdims=True))[1])
    s_hat, d = _memoized_unit_scaled(spec, "unit_scaled_s", system.frame_operator())
    blocks = (f @ system.analysis_operator().T).reshape(len(f), len(system), n)
    rec = (np.ldexp(system.weights, -d)[:, None] * blocks).sum(axis=1)  # sum_i w_i a_i 2^-d
    target = f @ s_hat  # S is symmetric
    nf = linalg.axis_norms(f, 1)
    scale = np.maximum(np.maximum(linalg.axis_norms(target, 1), linalg.norm(s_hat) * nf),
                       1e-300)
    worst_rec = float(np.max(linalg.axis_norms(rec - target, 1) / scale, initial=0.0))
    live = nf > 0
    cnf = c * nf[live]
    nb = linalg.axis_norms(blocks[live].reshape(len(cnf), len(system) * n), 1)
    worst_margin = float(np.min((cnf - nb) / np.maximum(cnf, 1e-300), initial=math.inf))
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
    linalg.check_tol(tol)
    spec = system.spectrum()
    base = _verify_checked(spec, k, tol)
    if not base.is_kff:
        raise PreconditionError("system is refuted for the base operator")
    transferred = _verify_checked(spec, t, tol)
    try:
        douglas_factor(t, k, tol)
        inclusion = True
    except RangeInclusionError:
        inclusion = False
    consistent = transferred.is_kff if inclusion else None
    return RangeTransferReport(inclusion, base, transferred, consistent)

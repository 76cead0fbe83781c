"""Classical vector frames, operator-relative vector frames, and the
local-to-global bridge.

A family of vectors {f_i} is a frame when the extremal eigenvalues of
S = sum f_i f_i.T are positive; its operator-relative verification reuses
the same range-factorization core as the subspace case.  The bridge: local
frames for the members of a subspace system, scaled by the weights,
assemble into one global vector frame whose bounds are sandwiched between
the fusion bounds times the extreme local bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import InputError
from .fusion_systems import BoundsReport, WeightedSubspaceSystem, classify_bounds
from .kfusion import DEFAULT_TOL, KFusionReport, verify_operator_bound


class VectorFrame:
    """Finite ordered family of vectors in R^n."""

    __slots__ = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors):
        if ambient_dim < 1:
            raise InputError(f"ambient_dim must be positive, got {ambient_dim}")
        vectors = tuple(linalg.as_vector(v, f"frame vector {i}", ambient_dim)
                        for i, v in enumerate(vectors))
        if not vectors:
            raise InputError("a vector frame needs at least one vector")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, *_):
        raise AttributeError("VectorFrame is immutable")

    def __len__(self):
        return len(self.vectors)

    def synthesis_matrix(self) -> np.ndarray:
        """n x m matrix whose columns are the frame vectors."""
        return np.column_stack(self.vectors)

    def frame_operator(self) -> np.ndarray:
        t = self.synthesis_matrix()
        s = t @ t.T
        return 0.5 * (s + s.T)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vectors": [[float(x) for x in v] for v in self.vectors],
        }


def vector_frame_bounds(frame: VectorFrame,
                        tol: float = linalg.DEFAULT_VERDICT_TOL) -> BoundsReport:
    """Optimal bounds = extremal eigenvalues of sum f_i f_i.T."""
    linalg.check_tol(tol)
    spec = linalg.sym_eig(frame.frame_operator())
    return classify_bounds(spec.smallest, spec.largest, tol)


def kframe_verify(frame: VectorFrame, k, tol: float = DEFAULT_TOL) -> KFusionReport:
    """Verify the frame against an operator, same route as the subspace
    case.  On success the report also carries the coefficient-operator
    witness gamma = T.T S+ K (T the synthesis matrix, the canonical dual
    route): its rows give, for each f, the minimal-norm coefficients
    {a_i} with K f = sum a_i f_i, of norm at most ||gamma|| ||f||."""
    k = linalg.as_operator(k, frame.ambient_dim, "operator K")
    spec = linalg.sym_eig(frame.frame_operator())
    report = verify_operator_bound(spec, k, tol)
    if not report.is_kff:
        return report
    gamma = frame.synthesis_matrix().T @ spec.pinv() @ k
    return replace(report, gamma=gamma)


@dataclass(frozen=True)
class LocalGlobalReport:
    """Local bounds per member, their extremes, and the assembled global
    frame compared against the fusion system.

    When no local frame degenerates, the global verdict must match the
    fusion verdict and the global bounds must land in
    [fusion_lower * C, fusion_upper * D] up to tolerance.
    """

    local_lower: tuple
    local_upper: tuple
    c: float
    d: float
    fusion: BoundsReport
    global_bounds: BoundsReport
    local_failure: bool
    equivalent: bool | None
    interval_ok: bool | None

    def to_json(self) -> dict:
        return {
            "local_lower": [float(x) for x in self.local_lower],
            "local_upper": [float(x) for x in self.local_upper],
            "C": float(self.c),
            "D": float(self.d),
            "fusion": self.fusion.to_json(),
            "global": self.global_bounds.to_json(),
            "local_failure": bool(self.local_failure),
            "equivalent": None if self.equivalent is None else bool(self.equivalent),
            "interval_ok": None if self.interval_ok is None else bool(self.interval_ok),
        }


def local_to_global_check(
    system: WeightedSubspaceSystem, tol: float = linalg.DEFAULT_VERDICT_TOL
) -> LocalGlobalReport:
    """Assemble {w_i f_ij} from the members' local frames and compare it
    with the fusion system.

    Every positive-dimensional member must carry a local frame whose
    vectors lie inside the member subspace (InputError otherwise); local
    bounds are eigenvalues of the local frame operator expressed in member
    coordinates.  A non-spanning local frame is reported as a local
    failure (C = 0) and makes the comparison vacuous.
    """
    linalg.check_tol(tol)
    local_lower = []
    local_upper = []
    global_vectors = []
    for i, m in enumerate(system.members):
        sub = m.subspace
        local = [linalg.as_vector(v, f"local vector [{i}][{j}]", system.ambient_dim)
                 for j, v in enumerate(m.local_frame)]
        if sub.dim == 0:
            if any(np.linalg.norm(v) > tol for v in local):
                raise InputError(f"member {i}: local vector outside the zero subspace")
            continue
        if not local:
            raise InputError(f"member {i}: missing local frame")
        coords = []
        for j, v in enumerate(local):
            nv = np.linalg.norm(v)
            resid = float(sub.residual(v))
            if nv > 0 and resid > tol * nv:
                raise InputError(
                    f"member {i}: local vector {j} lies outside its subspace "
                    f"(relative residual {resid / nv:.3e})"
                )
            coords.append(sub.basis.T @ v)
            global_vectors.append(m.weight * v)
        g = np.column_stack(coords)
        spec = linalg.sym_eig(g @ g.T)
        local_lower.append(max(spec.smallest, 0.0))
        local_upper.append(max(spec.largest, 0.0))
    if not global_vectors:
        raise InputError("system has no local frame vectors at all")
    c = min(local_lower) if local_lower else 0.0
    d = max(local_upper) if local_upper else 0.0
    fusion = system.fusion_bounds(tol)
    global_frame = VectorFrame(system.ambient_dim, global_vectors)
    global_bounds = vector_frame_bounds(global_frame, tol)
    local_failure = c <= tol * max(d, 1.0)
    equivalent = interval_ok = None  # a local failure makes the comparison vacuous
    if not local_failure:
        equivalent = fusion.verdict.is_frame() == global_bounds.verdict.is_frame()
        slack = tol * max(1.0, fusion.upper * d)
        interval_ok = (
            global_bounds.lower >= fusion.lower * c - slack
            and global_bounds.upper <= fusion.upper * d + slack
        )
    return LocalGlobalReport(tuple(local_lower), tuple(local_upper), c, d, fusion,
                             global_bounds, local_failure, equivalent, interval_ok)

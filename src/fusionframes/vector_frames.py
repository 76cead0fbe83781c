"""Classical vector frames, operator-relative vector frames, and the
local-to-global bridge.

A family of vectors {f_i} is the fusion frame of lines {(span f_i, ||f_i||)}
(``VectorFrame.line_system``, built once per frame): its frame operator is
S = sum f_i f_i.T, so its bounds, verdict and operator-relative
verification are those of the line system, from its one cached spectrum.
The bridge: local frames for the members of a subspace system, scaled by
the weights, assemble into one global vector frame whose bounds are
sandwiched between the fusion bounds times the extreme local bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import InputError
from .fusion_systems import BoundsReport, Member, WeightedSubspaceSystem
from .kfusion import DEFAULT_TOL, KFusionReport, kfusion_verify
from .subspaces import Subspace


class VectorFrame:
    """Finite ordered family of vectors in R^n."""

    __slots__ = ("ambient_dim", "vectors", "_lines")

    def __init__(self, ambient_dim: int, vectors):
        if ambient_dim < 1:
            raise InputError(f"ambient_dim must be positive, got {ambient_dim}")
        vectors = tuple(linalg.as_vector(v, f"frame vector {i}", ambient_dim)
                        for i, v in enumerate(vectors))
        if not vectors:
            raise InputError("a vector frame needs at least one vector")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_lines", None)

    def __setattr__(self, *_):
        raise AttributeError("VectorFrame is immutable")

    def __len__(self):
        return len(self.vectors)

    def synthesis_matrix(self) -> np.ndarray:
        """n x m matrix whose columns are the frame vectors."""
        return np.column_stack(self.vectors)

    def line_system(self) -> WeightedSubspaceSystem:
        """The system {(span f_i, ||f_i||)}, member i the line of the unit
        vector f_i / ||f_i|| (a zero vector: the zero subspace), built once
        and shared."""
        if self._lines is None:
            n, members = self.ambient_dim, []
            for f in self.vectors:
                w = linalg.norm(f)
                line = Subspace(n, (f / w)[:, None], _trusted=True) if w else Subspace.zero(n)
                members.append(Member(line, w or 1.0))
            object.__setattr__(self, "_lines", WeightedSubspaceSystem(members))
        return self._lines

    def frame_operator(self) -> np.ndarray:
        """S = sum f_i f_i.T, the line system's frame operator."""
        return self.line_system().frame_operator()

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "vectors": [[float(x) for x in v] for v in self.vectors],
        }


def vector_frame_bounds(frame: VectorFrame,
                        tol: float = linalg.DEFAULT_VERDICT_TOL) -> BoundsReport:
    """Optimal bounds = extremal eigenvalues of sum f_i f_i.T: the line
    system's ``fusion_bounds``."""
    return frame.line_system().fusion_bounds(tol)


def kframe_verify(frame: VectorFrame, k, tol: float = DEFAULT_TOL) -> KFusionReport:
    """``kfusion_verify`` on the line system.  A verified report also carries
    gamma = T.T S+ K (T the synthesis matrix): for each f, gamma f is the
    minimal-norm {a_i} with K f = sum a_i f_i.  It is formed as the partial
    isometry (S^(+1/2) T).T times the report's ``factor_t`` = S^(+1/2) K,
    from the same cached spectrum, so no product overflows."""
    system = frame.line_system()
    report = kfusion_verify(system, k, tol)
    if not report.is_kff:
        return report
    root_t = system.spectrum().power(-0.5) @ frame.synthesis_matrix()
    return replace(report, gamma=root_t.T @ report.factor_t)


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
    bounds are ``vector_frame_bounds`` of the local frame in member
    coordinates.  C <= 1e-10 D, the rank cut ``linalg._kept`` whatever the
    scale (C = 0 for a local frame that does not span), is reported as a
    local failure and makes the comparison vacuous.
    """
    linalg.check_tol(tol)
    n = system.ambient_dim
    local_lower, local_upper, global_vectors = [], [], []
    for i, m in enumerate(system.members):
        sub = m.subspace
        v = np.array([linalg.as_vector(f, f"local vector [{i}][{j}]", n)
                      for j, f in enumerate(m.local_frame)]).reshape(-1, n)
        with np.errstate(over="ignore"):  # VectorFrame rejects an overflowed vector
            nv, coords, weighted = linalg.axis_norms(v, 1), v @ sub.basis, m.weight * v
        if sub.dim == 0:
            if (nv > tol).any():
                raise InputError(f"member {i}: local vector outside the zero subspace")
            continue
        if not len(v):
            raise InputError(f"member {i}: missing local frame")
        resid = sub.residual((v / np.where(nv > 0, nv, 1.0)[:, None]).T)  # relative
        if (resid > tol).any():
            j = int(np.argmax(resid > tol))
            raise InputError(f"member {i}: local vector {j} lies outside its subspace "
                             f"(relative residual {resid[j]:.3e})")
        local = vector_frame_bounds(VectorFrame(sub.dim, coords), tol)
        local_lower.append(local.lower)
        local_upper.append(local.upper)
        global_vectors += list(weighted)
    if not global_vectors:
        raise InputError("system has no local frame vectors at all")
    c = min(local_lower) if local_lower else 0.0
    d = max(local_upper) if local_upper else 0.0
    fusion = system.fusion_bounds(tol)
    global_frame = VectorFrame(n, global_vectors)
    global_bounds = vector_frame_bounds(global_frame, tol)
    local_failure = not linalg._kept(np.array([c]), d)[0]
    equivalent = interval_ok = None  # a local failure makes the comparison vacuous
    if not local_failure:
        equivalent = fusion.verdict.is_frame() == global_bounds.verdict.is_frame()
        slack = tol * fusion.upper * d
        interval_ok = (
            global_bounds.lower >= fusion.lower * c - slack
            and global_bounds.upper <= fusion.upper * d + slack
        )
    return LocalGlobalReport(tuple(local_lower), tuple(local_upper), c, d, fusion,
                             global_bounds, local_failure, equivalent, interval_ok)

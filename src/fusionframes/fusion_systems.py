"""Weighted subspace systems and their frame calculus.

A system is a finite ordered family {(W_i, w_i)} of subspaces of R^n with
positive weights.  Its representation space consists of block vectors
{a_i} with a_i in W_i and squared norm sum ||a_i||^2.  The three associated
operators are

* analysis:   f |-> {w_i P_i f}        (P_i = projection onto W_i),
* synthesis:  {a_i} |-> sum_i w_i a_i  (the adjoint of analysis),
* frame operator: S = sum_i w_i^2 P_i  (symmetric PSD).

A system computes S, its eigendecomposition and the analysis matrix
Phi = vstack(w_i P_i) once each (``frame_operator``, ``spectrum``,
``analysis_operator``), shared read-only.  Every block map reads its blocks
from Phi into one m x n array, row i for member i.  The optimal frame
bounds are the extremal eigenvalues, and every operator-relative quantity
in ``kfusion`` derives from the same spectrum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError
from .subspaces import Subspace


class Verdict(enum.Enum):
    """Classification of a bounds report.

    Every finite system has a finite upper bound, so there is no
    "not Bessel" outcome; BESSEL_ONLY marks a vanishing lower bound.
    """

    BESSEL_ONLY = "BesselOnly"
    FRAME = "Frame"
    TIGHT = "Tight"
    PARSEVAL = "Parseval"

    def is_frame(self) -> bool:
        return self is not Verdict.BESSEL_ONLY


@dataclass(frozen=True)
class BoundsReport:
    verdict: Verdict
    lower: float
    upper: float

    def to_json(self) -> dict:
        return {"verdict": self.verdict.value, "lower": float(self.lower), "upper": float(self.upper)}


def classify_bounds(lower: float, upper: float, tol: float) -> BoundsReport:
    """Spectral verdict from extremal eigenvalues of a frame operator.

    Parseval needs both bounds within ``tol`` of 1; tight needs a relative
    spread below ``tol``; frame needs lower > tol * upper (relative, so the
    verdict is invariant under weight scaling).
    """
    lower = max(float(lower), 0.0)
    upper = max(float(upper), 0.0)
    if upper == 0.0:
        return BoundsReport(Verdict.BESSEL_ONLY, 0.0, 0.0)
    if abs(lower - 1.0) <= tol and abs(upper - 1.0) <= tol:
        verdict = Verdict.PARSEVAL
    elif upper - lower <= tol * upper and lower > tol * upper:
        verdict = Verdict.TIGHT
    elif lower > tol * upper:
        verdict = Verdict.FRAME
    else:
        verdict = Verdict.BESSEL_ONLY
    return BoundsReport(verdict, lower, upper)


@dataclass(frozen=True)
class Member:
    """One weighted subspace, optionally carrying a local spanning family."""

    subspace: Subspace
    weight: float
    local_frame: tuple = ()  # tuple of ambient vectors inside the subspace


class CoefficientBundle:
    """Element of the representation space: m blocks of R^n, block i lying
    in W_i, held as one read-only m x n array copied from ``blocks``."""

    __slots__ = ("_array",)

    def __init__(self, blocks):
        if len(blocks) == 0:
            raise InputError("a bundle needs at least one block")
        array = np.array(linalg.as_matrix(blocks, "bundle blocks"))
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    def __setattr__(self, *_):
        raise AttributeError("CoefficientBundle is immutable")

    def __len__(self):
        return len(self._array)

    @property
    def blocks(self) -> tuple:
        return tuple(self._array)

    def norm(self) -> float:
        return linalg.norm(self._array)

    def stacked(self) -> np.ndarray:
        return self._array.ravel()

    def to_json(self) -> dict:
        return {"blocks": self._array.tolist()}


class WeightedSubspaceSystem:
    """Finite family {(W_i, w_i)} over a common ambient space."""

    __slots__ = ("ambient_dim", "members", "weights", "_frame_op", "_spectrum", "_analysis_op")

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise InputError("a system needs at least one member")
        norm_members = []
        ambient = None
        for i, m in enumerate(members):
            if not isinstance(m, Member):
                sub, w = m  # allow bare (subspace, weight) pairs
                m = Member(sub, w)
            if not isinstance(m.subspace, Subspace):
                raise InputError(f"member {i}: subspace expected")
            w = float(m.weight)
            if not math.isfinite(w) or w <= 0:
                raise InputError(f"member {i}: weight must be positive and finite, got {w}")
            if ambient is None:
                ambient = m.subspace.ambient_dim
            elif m.subspace.ambient_dim != ambient:
                raise InputError(
                    f"member {i}: ambient dimension {m.subspace.ambient_dim} "
                    f"differs from {ambient}"
                )
            norm_members.append(Member(m.subspace, w, tuple(m.local_frame)))
        object.__setattr__(self, "ambient_dim", ambient)
        object.__setattr__(self, "members", tuple(norm_members))
        weights = np.array([m.weight for m in norm_members])
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_frame_op", None)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_analysis_op", None)

    def __setattr__(self, *_):
        raise AttributeError("WeightedSubspaceSystem is immutable")

    def __len__(self):
        return len(self.members)

    # operators -------------------------------------------------------------

    def analysis(self, f) -> CoefficientBundle:
        """{w_i P_i f}: block i is the weighted projection of f onto W_i."""
        f = linalg.as_vector(f, n=self.ambient_dim)
        blocks = self.analysis_operator() @ f
        return CoefficientBundle(blocks.reshape(len(self.members), self.ambient_dim))

    def synthesis(self, bundle: CoefficientBundle) -> np.ndarray:
        """sum_i w_i a_i for a bundle shaped like this system, summed member
        by member."""
        return (self.weights[:, None] * self._bundle_array(bundle)).sum(axis=0)

    def _bundle_array(self, bundle: CoefficientBundle) -> np.ndarray:
        if not isinstance(bundle, CoefficientBundle):
            raise InputError("expected a CoefficientBundle")
        shape = (len(self.members), self.ambient_dim)
        if bundle._array.shape != shape:
            raise InputError(f"bundle blocks are {bundle._array.shape}, expected {shape}")
        return bundle._array

    def check_bundle(self, bundle: CoefficientBundle) -> None:
        """Validate the membership invariant a_i in W_i, within
        ``linalg.DEFAULT_VERDICT_TOL`` relative to the block's norm."""
        blocks = self._bundle_array(bundle)
        for i, (m, block) in enumerate(zip(self.members, blocks)):
            nb = np.linalg.norm(block)
            if nb == 0.0:
                continue
            resid = float(m.subspace.residual(block))
            if resid > linalg.DEFAULT_VERDICT_TOL * nb:
                raise InputError(
                    f"bundle block {i} is outside its subspace "
                    f"(relative residual {resid / nb:.3e})"
                )

    def analysis_operator(self) -> np.ndarray:
        """The (m n) x n matrix vstack(w_i P_i) of the analysis operator, so
        (Phi @ f).reshape(m, n) has the blocks {w_i P_i f}.  Built once from
        the cached projections and shared read-only."""
        if self._analysis_op is None:
            phi = np.vstack([m.weight * m.subspace.projection() for m in self.members])
            phi.flags.writeable = False
            object.__setattr__(self, "_analysis_op", phi)
        return self._analysis_op

    def frame_operator(self) -> np.ndarray:
        """S = sum_i w_i^2 P_i, symmetric PSD.  Raises InputError when a
        squared weight is not a finite float."""
        if self._frame_op is None:
            s = np.zeros((self.ambient_dim, self.ambient_dim))
            for i, m in enumerate(self.members):
                w2 = m.weight * m.weight
                if not math.isfinite(w2):
                    raise InputError(
                        f"member {i}: weight {m.weight} has no finite square"
                    )
                s += w2 * m.subspace.projection()
            object.__setattr__(self, "_frame_op", 0.5 * (s + s.T))
        return self._frame_op

    def spectrum(self) -> linalg.Spectrum:
        """Eigendecomposition of the frame operator, computed once per
        system and shared read-only; its rank cut decides the range and null
        space of S."""
        if self._spectrum is None:
            spec = linalg.sym_eig(self.frame_operator())
            spec.eigenvalues.flags.writeable = spec.eigenvectors.flags.writeable = False
            object.__setattr__(self, "_spectrum", spec)
        return self._spectrum

    def fusion_bounds(self, tol: float = linalg.DEFAULT_VERDICT_TOL) -> BoundsReport:
        """Optimal bounds = extremal eigenvalues of the frame operator."""
        linalg.check_tol(tol)
        spec = self.spectrum()
        return classify_bounds(spec.smallest, spec.largest, tol)

    def scaled(self, c: float) -> "WeightedSubspaceSystem":
        """The same subspaces with every weight multiplied by c > 0."""
        if c <= 0:
            raise InputError("scale factor must be positive")
        return WeightedSubspaceSystem(
            [Member(m.subspace, c * m.weight, m.local_frame) for m in self.members]
        )

    def __repr__(self):
        dims = ",".join(str(m.subspace.dim) for m in self.members)
        return f"WeightedSubspaceSystem(n={self.ambient_dim}, dims=[{dims}])"

    # wire format ------------------------------------------------------------

    def to_json(self) -> dict:
        members = []
        for m in self.members:
            entry = {
                "basis": linalg.matrix_to_json(m.subspace.basis),
                "weight": float(m.weight),
            }
            if m.local_frame:
                entry["local_frame"] = [[float(x) for x in v] for v in m.local_frame]
            members.append(entry)
        return {"ambient_dim": self.ambient_dim, "members": members}

    @classmethod
    def from_json(cls, obj, name: str = "system") -> "WeightedSubspaceSystem":
        if not isinstance(obj, dict):
            raise InputError(f"{name}: expected an object")
        for key in ("ambient_dim", "members"):
            if key not in obj:
                raise InputError(f"{name}: missing field '{key}'")
        n = obj["ambient_dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"{name}.ambient_dim: expected a positive integer, got {n!r}")
        raw_members = obj["members"]
        if not isinstance(raw_members, list) or not raw_members:
            raise InputError(f"{name}.members: expected a non-empty list")
        members = []
        for i, entry in enumerate(raw_members):
            where = f"{name}.members[{i}]"
            if not isinstance(entry, dict):
                raise InputError(f"{where}: expected an object")
            if "basis" not in entry:
                raise InputError(f"{where}: missing field 'basis'")
            basis = linalg.matrix_from_json(entry["basis"], f"{where}.basis", min_cols=0)
            if basis.shape[0] != n:
                raise InputError(
                    f"{where}.basis: has {basis.shape[0]} rows, expected {n}"
                )
            sub = Subspace.from_spanning(basis, ambient_dim=n)
            if "weight" not in entry:
                raise InputError(f"{where}: missing field 'weight'")
            w = entry["weight"]
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise InputError(f"{where}.weight: expected a positive real, got {w!r}")
            local = []
            if "local_frame" in entry:
                raw_local = entry["local_frame"]
                if not isinstance(raw_local, list):
                    raise InputError(f"{where}.local_frame: expected a list of vectors")
                for j, vec in enumerate(raw_local):
                    if not isinstance(vec, list) or len(vec) != n:
                        raise InputError(
                            f"{where}.local_frame[{j}]: expected a length-{n} vector"
                        )
                    for x in vec:
                        if isinstance(x, bool) or not isinstance(x, (int, float)) \
                                or not math.isfinite(x):
                            raise InputError(
                                f"{where}.local_frame[{j}]: entries must be finite reals"
                            )
                    local.append(np.array(vec, dtype=float))
            members.append(Member(sub, w, tuple(local)))
        return cls(members)


def coordinate_lines(n: int, weights=None) -> WeightedSubspaceSystem:
    """The system of coordinate axes of R^n (Parseval with unit weights)."""
    if weights is None:
        weights = [1.0] * n
    eye = np.eye(n)
    return WeightedSubspaceSystem(
        [Member(Subspace(n, eye[:, [i]], _trusted=True), w) for i, w in zip(range(n), weights)]
    )

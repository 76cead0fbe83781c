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
bounds are the extremal eigenvalues, the system is a frame exactly when S
has full rank at the spectrum's one rank cut, and every operator-relative
quantity in ``kfusion`` derives from the same spectrum.  A vector frame
{f_i} is the system of lines {(span f_i, ||f_i||)} (``vector_frames``).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError
from .subspaces import Subspace, basis_from_json


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


@dataclass(frozen=True)
class Member:
    """One weighted subspace, optionally carrying a local spanning family."""

    subspace: Subspace
    weight: float
    local_frame: tuple = ()  # tuple of ambient vectors inside the subspace


def finite_square(x: float, what: str) -> float:
    """x^2, which must be a finite normal float, as each w_i^2 of
    S = sum_i w_i^2 P_i must be (InputError naming ``what`` otherwise)."""
    x2 = x * x
    if not sys.float_info.min <= x2 < math.inf:
        raise InputError(f"{what} {x} has " + (
            "no finite square" if x2 > 1 else "a square below the normal float range"))
    return x2


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise InputError(f"{what} beyond the float range")


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
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = self.analysis_operator() @ f
        _check_finite(blocks, "the blocks w_i P_i f are")
        return CoefficientBundle(blocks.reshape(len(self.members), self.ambient_dim))

    def synthesis(self, bundle: CoefficientBundle) -> np.ndarray:
        """sum_i w_i a_i for a bundle shaped like this system, summed member
        by member.  Raises InputError when the sum is beyond the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = (self.weights[:, None] * self._bundle_array(bundle)).sum(axis=0)
        _check_finite(out, "the synthesis sum_i w_i a_i is")
        return out

    def _bundle_array(self, bundle: CoefficientBundle) -> np.ndarray:
        if not isinstance(bundle, CoefficientBundle):
            raise InputError("expected a CoefficientBundle")
        shape = (len(self.members), self.ambient_dim)
        if bundle._array.shape != shape:
            raise InputError(f"bundle blocks are {bundle._array.shape}, expected {shape}")
        return bundle._array

    def check_bundle(self, bundle: CoefficientBundle) -> None:
        """Validate the membership invariant a_i in W_i, within
        ``linalg.DEFAULT_VERDICT_TOL`` relative to the block's norm, on each
        block scaled by its own power of two (``linalg.unit_scaled``), so
        neither the norm nor the residual over- or underflows."""
        blocks = self._bundle_array(bundle)
        for i, (m, block) in enumerate(zip(self.members, blocks)):
            block = linalg.unit_scaled(block)[0]
            nb, resid = np.linalg.norm(block), float(m.subspace.residual(block))
            if resid > linalg.DEFAULT_VERDICT_TOL * nb:
                raise InputError(f"bundle block {i} is outside its subspace "
                                 f"(relative residual {resid / nb:.3e})")

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
        squared weight is not a finite normal float, or S is beyond the float
        range."""
        if self._frame_op is None:
            s = np.zeros((self.ambient_dim, self.ambient_dim))
            for i, m in enumerate(self.members):
                w2 = finite_square(m.weight, f"member {i}: weight")
                with np.errstate(over="ignore", invalid="ignore"):
                    s += w2 * m.subspace.projection()
            _check_finite(s, "the frame operator sum_i w_i^2 P_i is")
            object.__setattr__(self, "_frame_op", 0.5 * s + 0.5 * s.T)  # no s + s.T overflows
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
        """Optimal bounds = extremal eigenvalues of S.  Frame: S has full rank
        (so K = I verifies); ``tol`` decides only Tight (relative spread at
        most ``tol``) and Parseval (both bounds within ``tol`` of 1)."""
        linalg.check_tol(tol)
        spec = self.spectrum()
        lower, upper = max(spec.smallest, 0.0), max(spec.largest, 0.0)
        if spec.rank() < self.ambient_dim:
            verdict = Verdict.BESSEL_ONLY
        elif abs(lower - 1.0) <= tol and abs(upper - 1.0) <= tol:
            verdict = Verdict.PARSEVAL
        elif upper - lower <= tol * upper:
            verdict = Verdict.TIGHT
        else:
            verdict = Verdict.FRAME
        return BoundsReport(verdict, lower, upper)

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
        """Parse {"ambient_dim": n, "members": [...]}: each member a ``basis``
        (``basis_from_json``), a ``weight`` and optionally a ``local_frame``,
        a list of length-n vectors (``linalg.json_vector``); the members a
        non-empty list."""
        obj = linalg.json_object(obj, name, ("ambient_dim", "members"))
        n = linalg.json_int(obj["ambient_dim"], f"{name}.ambient_dim", 1)
        members = []
        for i, entry in enumerate(linalg.json_list(obj["members"], f"{name}.members")):
            where = f"{name}.members[{i}]"
            entry = linalg.json_object(entry, where, ("basis", "weight"))
            sub = basis_from_json(entry["basis"], n, f"{where}.basis")
            w = linalg.json_real(entry["weight"], f"{where}.weight")
            local = linalg.json_list(entry.get("local_frame", []), f"{where}.local_frame")
            members.append(Member(sub, w, tuple(linalg.json_vector(
                v, f"{where}.local_frame[{j}]", n) for j, v in enumerate(local))))
        return cls(members)


def coordinate_lines(n: int, weights=None) -> WeightedSubspaceSystem:
    """The system of coordinate axes of R^n (Parseval with unit weights),
    axis i with weight ``weights[i]``; InputError unless there are n."""
    weights = [1.0] * n if weights is None else list(weights)
    if len(weights) != n:
        raise InputError(f"coordinate_lines: {len(weights)} weights for {n} axes")
    eye = np.eye(n)
    return WeightedSubspaceSystem(
        [Member(Subspace(n, eye[:, [i]], _trusted=True), w) for i, w in enumerate(weights)]
    )

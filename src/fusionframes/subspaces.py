"""Closed subspaces of R^n in canonical orthonormal-basis form.

A subspace is stored as an ambient dimension together with an n x k matrix
whose columns are orthonormal (k = 0 denotes the zero subspace, which is a
first-class citizen here: operator images can and do collapse).  Equality
of subspaces is decided through projection matrices, never through basis
comparison, since bases are not unique.

Every span and image is formed by one range rule, ``_range``: the rank cut
``linalg._kept`` on the singular values, relative to ||T|| for an image
T(W), the reference that decides whether T itself is surjective.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InputError

_ORTHO_TOL = 1e-10


def _range(m: np.ndarray, reference: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of ``m``: the left singular
    vectors kept by ``linalg._kept(s, reference)``, taken from the SVD of
    the rows of ``m`` as ``_merged_rows`` merges them."""
    b, e = linalg.unit_scaled(m)
    rows, lift = _merged_rows(b)
    u, s, _ = linalg.svd(rows)
    return lift @ u[:, linalg._kept(np.ldexp(s, e), reference)]


def _merged_rows(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, lift) with b = lift @ r and orthonormal columns in lift, r the
    nonzero rows of ``b`` (entries below 1) with the rows that agree up to
    a factor +-2^k merged.  One-sided Jacobi keeps such rows exactly
    proportional, so unmerged they can leave it more columns than rank,
    and then it runs to its sweep cap."""
    index = np.flatnonzero(b.any(axis=1))
    if not index.size:
        return b[index], np.zeros((len(b), 0))
    rows = b[index]
    lead = rows[np.arange(index.size), np.abs(rows).argmax(axis=1)]
    scale = np.ldexp(np.sign(lead), np.frexp(lead)[1])  # +-2^k with |scale| <= 1
    keys = {}  # each row divided by its scale, exactly, as bytes
    group = np.array([keys.setdefault(unit.tobytes(), len(keys))
                      for unit in rows / scale[:, None] + 0.0])
    if len(keys) == index.size:
        return rows, np.eye(len(b))[:, index]
    first = np.unique(group, return_index=True)[1]
    top = np.zeros(first.size)
    np.maximum.at(top, group, np.abs(scale))
    t = scale / top[group]  # row j of b is t[j] * top * unit, exactly
    norm = np.sqrt(np.bincount(group, t * t))
    lift = np.zeros((len(b), first.size))
    lift[index, group] = t / norm[group]
    return rows[first] / scale[first, None] * (top * norm)[:, None], lift


class Subspace:
    """Immutable subspace of R^n with a cached orthogonal projection."""

    __slots__ = ("ambient_dim", "basis", "_projection")

    def __init__(self, ambient_dim: int, basis, *, _trusted: bool = False):
        basis = linalg.as_matrix(basis, "subspace basis")
        if ambient_dim < 1:
            raise InputError(f"ambient_dim must be positive, got {ambient_dim}")
        if basis.shape[0] != ambient_dim:
            raise InputError(
                f"basis has {basis.shape[0]} rows, expected ambient_dim={ambient_dim}"
            )
        if basis.shape[1] > ambient_dim:
            raise InputError("basis has more columns than the ambient dimension")
        if not _trusted and basis.shape[1] > 0:
            gram = basis.T @ basis
            if np.abs(gram - np.eye(basis.shape[1])).max() > _ORTHO_TOL:
                raise InputError("basis columns are not orthonormal; use from_spanning")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_projection", None)

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_spanning(cls, m, *, ambient_dim: int | None = None):
        """Subspace spanned by the columns of ``m`` (``_range``)."""
        m = linalg.as_matrix(m, "spanning matrix")
        n = m.shape[0] if ambient_dim is None else ambient_dim
        if m.shape[0] != n:
            raise InputError(f"spanning matrix has {m.shape[0]} rows, expected {n}")
        return cls(n, _range(m), _trusted=True)

    @classmethod
    def span(cls, *vectors):
        vecs = [linalg.as_vector(v, "spanning vector") for v in vectors]
        if not vecs:
            raise InputError("span needs at least one vector")
        return cls.from_spanning(np.column_stack(vecs))

    @classmethod
    def zero(cls, ambient_dim: int):
        return cls(ambient_dim, np.zeros((ambient_dim, 0)), _trusted=True)

    @classmethod
    def full(cls, ambient_dim: int):
        return cls(ambient_dim, np.eye(ambient_dim), _trusted=True)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def is_zero(self) -> bool:
        return self.dim == 0

    def projection(self) -> np.ndarray:
        """The orthogonal projection U U.T onto the subspace (symmetric,
        idempotent, trace = dim)."""
        if self._projection is None:
            p = self.basis @ self.basis.T
            object.__setattr__(self, "_projection", 0.5 * (p + p.T))
        return self._projection

    def project(self, f) -> np.ndarray:
        f = linalg.as_vector(f, n=self.ambient_dim)
        return self.basis @ (self.basis.T @ f)

    def residual(self, m):
        """Column norms of m - P m, the parts of the columns of ``m`` outside
        the subspace (the norm, for a vector ``m``).  ``m`` must have
        ``ambient_dim`` rows; it is not validated."""
        resid = m - self.basis @ (self.basis.T @ m)
        return np.sqrt((resid * resid).sum(axis=0))

    def image_under(self, t) -> "Subspace":
        """The image subspace t(W), cut relative to ||t||; the rank may drop
        (possibly to zero)."""
        t = linalg.as_operator(t, self.ambient_dim)
        if self.is_zero():
            return Subspace.zero(self.ambient_dim)
        return Subspace(self.ambient_dim, _range(t @ self.basis, linalg.operator_norm(t)),
                        _trusted=True)

    def contains(self, other: "Subspace", tol: float = linalg.DEFAULT_VERDICT_TOL) -> bool:
        """True iff every basis vector of ``other`` lies in this subspace
        within ``tol`` (column-wise ``residual``)."""
        linalg.check_tol(tol)
        if not isinstance(other, Subspace):
            raise InputError("contains expects a Subspace")
        if other.ambient_dim != self.ambient_dim:
            raise InputError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        return float(self.residual(other.basis).max(initial=0.0)) <= tol

    def projection_distance(self, other: "Subspace") -> float:
        """Operator-norm gap between the two projections."""
        if other.ambient_dim != self.ambient_dim:
            raise InputError("ambient dimensions differ")
        return linalg.operator_norm(self.projection() - other.projection())

    def __repr__(self):
        return f"Subspace(n={self.ambient_dim}, dim={self.dim})"

    # wire format ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": linalg.matrix_to_json(self.basis),
        }

    @classmethod
    def from_json(cls, obj, name: str = "subspace") -> "Subspace":
        """Parse {"ambient_dim": n, "basis": <matrix>}; the basis is
        re-orthonormalized on load (``from_spanning``)."""
        if not isinstance(obj, dict):
            raise InputError(f"{name}: expected an object")
        if "ambient_dim" not in obj:
            raise InputError(f"{name}: missing field 'ambient_dim'")
        n = obj["ambient_dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"{name}.ambient_dim: expected a positive integer, got {n!r}")
        if "basis" not in obj:
            raise InputError(f"{name}: missing field 'basis'")
        basis = linalg.matrix_from_json(obj["basis"], f"{name}.basis", min_cols=0)
        if basis.shape[0] != n:
            raise InputError(
                f"{name}.basis: has {basis.shape[0]} rows, expected ambient_dim={n}"
            )
        return cls.from_spanning(basis, ambient_dim=n)

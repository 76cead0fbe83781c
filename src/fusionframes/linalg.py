"""Self-contained dense real linear algebra.

Factorizations, spectra, pseudo-inverses and the positive-semidefinite
calculus used by every other module.  The scalar field is the reals, so
adjoint means transpose throughout.

Algorithms, sized for desk-scale matrices (n <= 64 or so):

* symmetric eigenproblem: Jacobi sweeps in round-robin order (n/2
  disjoint rotations per step) until the off-diagonal Frobenius norm falls
  below 1e-12 times the matrix norm (at most 100 sweeps),
* SVD: one-sided Jacobi on the columns in the same order (applied to the
  transpose when that is the thin side), left vectors recovered from the
  orthogonalized columns, each column's norm taken on the column scaled by
  its own power of two,
* the largest singular value alone (``dominant_singular``, and
  ``operator_norm``): the Gram matrix of the smaller side, normalized to
  unit Frobenius norm and squared until a squaring moves it by at most
  1e-15 (at most 50 squarings); its largest column is the dominant vector
  v, and ||B v|| (a Rayleigh quotient, never above sigma_max but by
  rounding) the value.  No SVD is run,
* these three run on the input scaled by a power of two that
  brings its largest entry into [0.5, 1), and scale the results back;
  this is exact (away from underflow) and keeps every intermediate finite,
* rank decisions: singular values, and eigenvalues of a PSD matrix, at or
  below DEFAULT_TOL = 1e-10 times the largest one (||T|| for an image T W)
  are zero; ``_kept`` is that one cut, with no per-call tolerance.

Input validation is written once here, one function per kind of input,
and raises InputError: ``as_matrix``, ``as_operator`` (a finite n x n
matrix, for every public entry that takes K or T, and for any square
input), ``as_vector`` (with an optional length), ``check_positive`` and
``check_tol`` (finite and > 0; a verdict tolerance defaults to
DEFAULT_VERDICT_TOL where the default is not ``kfusion.DEFAULT_TOL``).
JSON values are read the same way: ``json_object`` (an object with its
required fields), ``json_list`` (an array, with an optional length),
``json_int`` (a non-bool integer with a lower bound), ``json_real`` (a
finite non-bool real) and ``json_vector`` (an array of such reals), the
parts of ``matrix_from_json``.

All functions are pure: arguments are never mutated and results are fresh
arrays, safe to share across threads.  The one exception is a
``Spectrum``'s memo (``Spectrum.memoized``): its values, such as the
powers of S, are computed once per spectrum and shared read-only.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InputError, NotPSDError

DEFAULT_TOL = 1e-10
_EIG_SWEEP_TOL = 1e-12
_SVD_PAIR_TOL = 1e-14
_MAX_SWEEPS = 100
_GRAM_STEP_TOL = 1e-15
_MAX_SQUARINGS = 50
_SYM_TOL = 1e-8
_MEMO_SIZE = 32  # values per Spectrum memo; the oldest is evicted first
_MEMO_LOCK = threading.Lock()


def _as_array(obj, name: str, ndim: int) -> np.ndarray:
    """``obj`` as a finite float64 array of ``ndim`` dimensions."""
    kind = ("vector", "matrix")[ndim - 1]
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: not interpretable as a real {kind}: {exc}") from None
    if a.ndim != ndim:
        raise InputError(f"{name}: expected a {ndim}-D {kind}, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InputError(f"{name}: entries must be finite (no NaN/Inf)")
    return a


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate ``obj`` as a finite real matrix and return it as float64."""
    return _as_array(obj, name, 2)


def as_operator(obj, n: int | None, name: str = "operator") -> np.ndarray:
    """Validate ``obj`` as an operator on R^n: a finite real n x n matrix
    (any square one when ``n`` is None), returned as float64."""
    m = as_matrix(obj, name)
    n = m.shape[0] if n is None else n
    if m.shape != (n, n):
        raise InputError(f"{name} is {m.shape[0]}x{m.shape[1]}, expected {n}x{n}")
    return m


def as_vector(obj, name: str = "vector", n: int | None = None) -> np.ndarray:
    """Validate ``obj`` as a finite real vector, of length ``n`` when given,
    and return it as float64."""
    v = _as_array(obj, name, 1)
    if n is not None and v.shape[0] != n:
        raise InputError(f"{name} has dimension {v.shape[0]}, expected {n}")
    return v


DEFAULT_VERDICT_TOL = 1e-9


def check_positive(value, name: str) -> None:
    """Validate a parameter ``name`` that must be finite and > 0."""
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    if not ok:
        raise InputError(f"{name} must be finite and positive, got {value!r}")


def check_tol(value) -> None:
    """Validate a verdict tolerance ``tol``: finite and > 0."""
    check_positive(value, "tol")


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_json(m: np.ndarray) -> dict:
    """Matrix wire object: {"rows": r, "cols": c, "data": [row-major]}."""
    m = np.asarray(m, dtype=float)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": [float(x) for x in m.ravel()]}


def json_object(obj, name: str, fields: tuple) -> dict:
    """``obj`` as a JSON object carrying each of ``fields``."""
    if not isinstance(obj, dict):
        raise InputError(f"{name}: expected an object with {'/'.join(fields)}")
    for key in fields:
        if key not in obj:
            raise InputError(f"{name}: missing field '{key}'")
    return obj


def json_int(x, name: str, lo: int) -> int:
    """``x`` as an integer >= ``lo``: an ``int``, not a bool."""
    if not isinstance(x, int) or isinstance(x, bool) or x < lo:
        raise InputError(f"{name}: expected an integer >= {lo}, got {x!r}")
    return x


def json_real(x, name: str) -> float:
    """``x`` as a finite real: any ``numbers.Real`` but a bool (``np.float32``
    is one, ``np.bool_`` is not), finite as a float."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise InputError(f"{name}: expected a finite real, got {x!r}")


def json_list(obj, name: str, n: int | None = None) -> list:
    """``obj`` as a JSON array, of length ``n`` when given."""
    if not isinstance(obj, list):
        raise InputError(f"{name}: expected a list")
    if n is not None and len(obj) != n:
        raise InputError(f"{name}: expected {n} entries, got {len(obj)}")
    return obj


def json_vector(obj, name: str, n: int | None = None) -> np.ndarray:
    """``obj`` as a JSON array (``json_list``) of finite reals
    (``json_real``), returned as float64."""
    obj = json_list(obj, name, n)
    return np.array([json_real(x, f"{name}[{i}]") for i, x in enumerate(obj)], dtype=float)


def matrix_from_json(obj, name: str = "matrix", min_cols: int = 1) -> np.ndarray:
    """Parse the matrix wire object: ``rows`` >= 1, ``cols`` >= ``min_cols``
    (0 admits empty bases, the zero subspace) and ``data`` a vector of
    rows * cols reals."""
    obj = json_object(obj, name, ("rows", "cols", "data"))
    rows = json_int(obj["rows"], f"{name}.rows", 1)
    cols = json_int(obj["cols"], f"{name}.cols", min_cols)
    return json_vector(obj["data"], f"{name}.data", rows * cols).reshape(rows, cols)


# ---------------------------------------------------------------------------
# Orthonormalization


def qr_orthonormalize(m):
    """Orthonormal basis of the column space of ``m``.

    Pivoted modified Gram-Schmidt with one reorthogonalization pass, run on
    ``unit_scaled(m)`` so no squared entry overflows or underflows.
    Columns whose residual after projection drops below DEFAULT_TOL times
    the largest column norm of ``m`` are dropped.  Returns (Q, rank) where
    Q is ``m.shape[0] x rank`` with Q.T @ Q = I.  Only ``generator`` and
    ``suite`` use it: spans and images are cut at ``_kept``.
    """
    m = as_matrix(m)
    work, _ = unit_scaled(m)
    scale = np.sqrt((work * work).sum(axis=0)).max(initial=0.0)
    cols = []
    max_rank = min(m.shape)
    while len(cols) < max_rank:
        norms = np.sqrt((work * work).sum(axis=0))
        j = int(np.argmax(norms))
        if norms[j] <= DEFAULT_TOL * scale:
            break
        q = work[:, j] / norms[j]
        if cols:
            basis = np.column_stack(cols)
            q = q - basis @ (basis.T @ q)  # second pass for orthogonality
            nq = np.linalg.norm(q)
            if nq <= DEFAULT_TOL:
                work[:, j] = 0.0
                continue
            q = q / nq
        cols.append(q)
        work -= np.outer(q, q @ work)
    q = np.column_stack(cols) if cols else np.zeros((m.shape[0], 0))
    return q, q.shape[1]


# ---------------------------------------------------------------------------
# Symmetric eigenproblem


def _kept(values: np.ndarray, reference: float | None = None) -> np.ndarray:
    """The rank cut: mask of the values above DEFAULT_TOL times ``reference``,
    by default the largest value; all False when none is positive."""
    return values > DEFAULT_TOL * (values.max(initial=0.0) if reference is None else reference)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` ascending; ``eigenvectors`` has unit-norm, pairwise
    orthogonal columns in matching order, so S = V diag(w) V.T.  For a PSD
    matrix it also carries the functional calculus, on the one rank cut
    ``kept``.

    A spectrum memoizes what is derived from S alone: ``power(p)`` per
    exponent, and through ``memoized`` the per-operator values of
    ``kfusion``.  The memo holds at most _MEMO_SIZE values, evicting the
    oldest first; its arrays are read-only, and an exception is raised on
    every call, never stored.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memoized(self, key, compute):
        """The value of ``compute()``, computed once per hashable ``key`` and
        shared; an array value is made read-only.  Safe to call concurrently:
        a lost race computes the same value twice."""
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = compute()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        with _MEMO_LOCK:
            self._memo[key] = value
            while len(self._memo) > _MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
        return value

    @property
    def smallest(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[-1])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T

    @property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues kept by the rank cut ``_kept``."""
        return _kept(self.eigenvalues)

    def rank(self) -> int:
        return int(np.count_nonzero(self.kept))

    def null_basis(self) -> np.ndarray:
        """Orthonormal basis of the null space (the eigenvectors below the cut)."""
        return self.eigenvectors[:, ~self.kept]

    def power(self, p: float) -> np.ndarray:
        """S^p on the range, 0 on the null space: p = 1/2 is the PSD root,
        p = -1/2 the inverse root, p = -1 the pseudo-inverse.  Memoized per
        p, read-only.  Raises InputError when a kept eigenvalue's power is
        beyond the float range."""
        return self.memoized(("power", p), lambda: self._power(p))

    def _power(self, p: float) -> np.ndarray:
        kept = self.kept
        w = np.zeros_like(self.eigenvalues)
        with np.errstate(over="ignore"):
            w[kept] = self.eigenvalues[kept] ** p
        if not np.isfinite(w).all():
            raise InputError(f"eigenvalue {self.eigenvalues[kept][0]:.3e} to the power {p} "
                             "is beyond the float range")
        r = (self.eigenvectors * w) @ self.eigenvectors.T
        return 0.5 * (r + r.T)

    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse at the spectrum's rank cut."""
        return self.power(-1.0)


def unit_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(m * 2**-e, e) with the largest entry of the first in [0.5, 1), or e = 0
    for an empty or zero matrix: exact away from underflow, and overflow-free."""
    e = math.frexp(float(np.abs(m).max()))[1] if m.size else 0
    return np.ldexp(m, -e), e


def norm(x) -> float:
    """Euclidean (Frobenius) norm of the unit-scaled input, rescaled: no square
    overflows or underflows, and only a norm beyond the float range is inf."""
    x, e = unit_scaled(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(x), e))


def axis_norms(m: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms of the columns (``axis=0``) or rows (``axis=1``) of
    ``m``, each taken on the column or row scaled by its own power of two:
    exact, no square overflows or underflows, and none reads 0 unless it
    is 0."""
    e = np.frexp(np.abs(m).max(axis=axis, keepdims=True))[1]
    c = np.ldexp(m, -e)
    return np.ldexp(np.sqrt((c * c).sum(axis=axis)), e.squeeze(axis))


def sym_eig(s) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by Jacobi sweeps.

    Raises InputError when ``s`` is not symmetric within _SYM_TOL relative
    to its norm.
    """
    s, e = unit_scaled(as_operator(s, None, "sym_eig input"))
    scale = np.linalg.norm(s)
    if scale > 0 and np.linalg.norm(s - s.T) > _SYM_TOL * scale:
        raise InputError("sym_eig: input is not symmetric within tolerance")
    a = 0.5 * (s + s.T)
    w, v = _kernels.jacobi_eigh(a, _EIG_SWEEP_TOL, _MAX_SWEEPS)
    order = np.argsort(w, kind="stable")
    return Spectrum(
        eigenvalues=np.ldexp(w[order], e), eigenvectors=np.ascontiguousarray(v[:, order])
    )


# ---------------------------------------------------------------------------
# SVD and friends


def svd(m):
    """Compact SVD: returns (U, s, Vt) with s descending and
    U (m x k), Vt (k x n) for k = min(m, n).  m = U @ diag(s) @ Vt."""
    m = as_matrix(m, "svd input")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        k = min(rows, cols)
        return np.zeros((rows, k)), np.zeros(k), np.zeros((k, cols))
    if rows >= cols:
        b, e = unit_scaled(m)
        v = np.eye(cols)
        _kernels.onesided_jacobi(b, v, _SVD_PAIR_TOL, _MAX_SWEEPS)
        s = axis_norms(b, 0)
        u = np.zeros((rows, cols))
        nz = s > 0
        u[:, nz] = b[:, nz] / s[nz]
        order = np.argsort(-s, kind="stable")
        return u[:, order], np.ldexp(s[order], e), v[:, order].T
    u2, s2, vt2 = svd(m.T)
    return vt2.T, s2, u2.T


def singular_values(m) -> np.ndarray:
    return svd(m)[1]


def dominant_singular(m) -> tuple[float, np.ndarray]:
    """(sigma_max, v): the largest singular value of ``m`` and a unit right
    singular vector for it; (0, e_1) for an empty or zero matrix.

    The Gram matrix G = B.T B of the unit-scaled input B, oriented so that
    G is on the smaller side, is normalized to unit Frobenius norm and
    squared until a squaring moves it by at most _GRAM_STEP_TOL, or
    _MAX_SQUARINGS times; the cap alone leaves a component at relative
    gap d a weight of about exp(-d 2**51).  Its largest column, made unit,
    is v (or u, with v = B u / ||B u||, for a wide input), and sigma_max is
    the Rayleigh quotient ||B v|| scaled back: it never exceeds the true
    value by more than rounding, and c I and diagonal inputs come out exact.
    """
    m = as_matrix(m, "dominant_singular input")
    if not m.any():
        v = np.zeros(m.shape[1])
        v[:1] = 1.0
        return 0.0, v
    b, e = unit_scaled(m)
    wide = b.shape[0] < b.shape[1]
    if wide:
        b = b.T
    g = b.T @ b
    for _ in range(_MAX_SQUARINGS):
        g /= np.linalg.norm(g)
        g, previous = g @ g, g
        if np.linalg.norm(g - previous) <= _GRAM_STEP_TOL:
            break
    x = g[:, np.argmax((g * g).sum(axis=0))]
    x = x / np.linalg.norm(x)
    y = b @ x
    s = np.linalg.norm(y)
    with np.errstate(over="ignore"):  # only a sigma_max beyond the float range is inf
        return float(np.ldexp(s, e)), y / s if wide else x


def operator_norm(m) -> float:
    """Spectral norm (largest singular value, ``dominant_singular``); 0 for
    empty matrices."""
    return dominant_singular(m)[0]


def matrix_rank(m) -> int:
    """Number of singular values kept by the rank cut ``_kept``."""
    return int(np.count_nonzero(_kept(singular_values(m))))


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the Jacobi SVD.

    Singular values cut by ``_kept`` are treated as zero.
    The result satisfies the four Penrose identities; its kernel is the
    orthogonal complement of the column space of ``m`` and its range is the
    orthogonal complement of the kernel of ``m``.

    Raises InputError when a kept singular value is so small (below about
    5.6e-309) that the pseudo-inverse has entries beyond the float range.
    """
    u, s, vt = svd(as_matrix(m, "pseudo_inverse input"))
    kept = _kept(s)
    with np.errstate(over="ignore"):
        inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    if not np.isfinite(inv).all():
        raise InputError(
            f"pseudo_inverse: singular value {s[kept][-1]:.3e} has no finite reciprocal"
        )
    return (vt.T * inv) @ u.T


def sqrt_psd(s) -> np.ndarray:
    """Symmetric PSD square root R with R @ R = s.

    Eigenvalues at or below the spectrum's rank cut (``Spectrum.kept``)
    are flattened to exactly zero before the root: the square root would
    otherwise amplify rank-cut noise (lambda ~ eps) into phantom
    directions of size sqrt(eps) with meaningless eigenvectors.  Anything
    below -DEFAULT_TOL * ||s|| raises NotPSDError.  The result is the
    spectrum's memoized ``power(0.5)``, so it is read-only.
    """
    spec = sym_eig(s)
    scale = max(abs(spec.smallest), abs(spec.largest))
    if spec.smallest < -DEFAULT_TOL * max(scale, 1e-300):
        raise NotPSDError(
            f"matrix is not PSD: smallest eigenvalue {spec.smallest:.3e} "
            f"(tolerance {-DEFAULT_TOL * scale:.3e})"
        )
    return spec.power(0.5)


def psd_leq(p, q, tol: float) -> bool:
    """Loewner-order test: True iff the smallest eigenvalue of q - p is at
    least -tol.  Both matrices must be symmetric and of equal size."""
    p = as_operator(p, None, "psd_leq lhs")
    q = as_operator(q, p.shape[0], "psd_leq rhs")
    return sym_eig(q - p).smallest >= -tol

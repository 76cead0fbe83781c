"""Seeded, reproducible random instances for property suites and the CLI.

The whole point of this module is portability: an instance is a pure
function of its 64-bit seed, reproducible bit-for-bit by any
implementation of the update equations below, with no dependence on
platform RNG libraries.

PRNG contract
-------------
State: one unsigned 64-bit integer ``s``, never zero.  All arithmetic is
modulo 2^64.

Seeding (splitmix64): starting from ``z = seed``, repeat

    z = z + 0x9E3779B97F4A7C15
    x = z;  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    x = x ^ (x >> 31)

until ``x != 0`` and take ``s = x`` (the first output is nonzero for all
but one seed, so this is effectively a single step).

Stream (xorshift64*): each draw updates

    s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27

and outputs ``u = s * 2685821657736338717``.

Derived values:

* uniform in [0, 1):  (u >> 11) * 2^-53
* standard normal: Marsaglia polar method on pairs of uniforms
  (x = 2 u1 - 1, y = 2 u2 - 1, accept when 0 < x^2 + y^2 < 1, output
  x * m then y * m with m = sqrt(-2 ln(r2) / r2); the second variate is
  cached and emitted before any new uniforms are drawn)

  ln and sqrt are IEEE 754 double operations: sqrt is correctly rounded,
  and ln is the C library's ``log`` (Python's ``math.log``), which the
  package and the reference stream in the tests both call.  IEEE 754 does
  not require ``log`` to be correctly rounded, and C libraries do not all
  promise it, so a platform whose ``log`` differs in the last bit for
  some r2 gives a normal that differs there too.  numpy's vectorized
  ``log`` is such a function on some hosts; the package does not use it.
* integer in [lo, hi]: lo + (u mod (hi - lo + 1))
* matrix of normals: filled row-major
* substream i: a fresh generator whose seed is the first splitmix64
  output starting from z = seed + i * 0x9E3779B97F4A7C15 (all modulo
  2^64); substreams are independent streams for parallel trials.

A fixed sample of ``trials`` vectors in R^n, the first ``trials * n``
normals of ``Rng(seed)``, is a pure function of (seed, trials, n);
``normal_block`` draws it once and keeps it, read-only, in a cache of the
_BLOCK_CACHE_SIZE most recently used blocks.

Instance recipes (see ``generate``) consume draws in a fixed documented
order, so flavors are reproducible across versions and languages.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels, linalg
from .errors import InputError
from .fusion_systems import Member, WeightedSubspaceSystem
from .subspaces import Subspace

_U64_MAX = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_BLOCK_CACHE_SIZE = 32  # sample blocks kept by normal_block; the least recently used goes first
# The largest ambient_dim and member_count a GenSpec may ask for: far above
# every instance the suite, the tests and the benchmark draw (n <= 22), and
# small enough that the bases of any valid spec, at most MAX_SIZE^3 floats
# (128 MB), fit in memory.
MAX_SIZE = 256


def _check_seed(seed) -> None:
    if linalg.json_int(seed, "seed", 0) > _U64_MAX:
        raise InputError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


def _check_size(x, name: str, lo: int) -> int:
    if linalg.json_int(x, name, lo) > MAX_SIZE:
        raise InputError(f"{name} must be at most {MAX_SIZE}, got {x!r}")
    return x


class Rng:
    """xorshift64* stream with splitmix64 seeding (see module docstring)."""

    __slots__ = ("seed", "_state", "_have_spare", "_spare")

    def __init__(self, seed: int):
        _check_seed(seed)
        self.seed = seed
        z = seed
        while True:
            out, z = _kernels.splitmix64(z)
            if out:
                break
        self._state = out
        self._have_spare = False
        self._spare = 0.0

    def u64(self) -> int:
        out, self._state = _kernels.xorshift64star(self._state)
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.u64() >> 11) * 2.0 ** -53)

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def normals(self, *shape) -> np.ndarray:
        out = np.empty(shape if shape else (1,))
        flat = out.reshape(-1)
        self._state, self._have_spare, self._spare = _kernels.fill_normals(
            self._state, flat, self._have_spare, self._spare
        )
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi] (modulo draw)."""
        if hi < lo:
            raise InputError(f"empty integer range [{lo}, {hi}]")
        return lo + self.u64() % (hi - lo + 1)

    def spawn(self, index: int) -> "Rng":
        """Independent substream number ``index`` (see module docstring)."""
        if index < 0:
            raise InputError("substream index must be non-negative")
        out, _ = _kernels.splitmix64((self.seed + index * _SM_GAMMA) & _U64_MAX)
        return Rng(out)


def normal_block(seed: int, trials: int, n: int) -> np.ndarray:
    """The sample of ``trials`` vectors in R^n, ``Rng(seed).normals(trials,
    n)`` bit for bit, drawn once per (seed, trials, n) and shared read-only.

    The arguments are checked before the cache is read: the seed as by
    ``Rng``, ``trials`` and ``n`` by ``linalg.json_int`` as non-negative
    ``int``s (a bool is not one), so no key that merely compares equal,
    such as True for 1, reaches the cache.  Raises InputError otherwise.
    """
    _check_seed(seed)
    for name, value in (("trials", trials), ("n", n)):
        linalg.json_int(value, name, 0)
    return _cached_block(int(seed), int(trials), int(n))


@functools.lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _cached_block(seed: int, trials: int, n: int) -> np.ndarray:
    block = Rng(seed).normals(trials, n)
    block.flags.writeable = False
    return block


class Flavor(enum.Enum):
    """What the generated instance guarantees.

    * ARBITRARY: nothing beyond type invariants.
    * FUSION_FRAME: the subspaces jointly span, so the system is a frame.
    * K_FUSION_FRAME: also returns an operator K that factors through the
      square root of the frame operator, hence always verifies.
    * IMAGE_COMPATIBLE: returns a full-rank K and subspaces drawn inside
      the row space of K, so K+ K acts as the identity on every member and
      image constructions apply.
    """

    ARBITRARY = "arbitrary"
    FUSION_FRAME = "fusion-frame"
    K_FUSION_FRAME = "k-fusion-frame"
    IMAGE_COMPATIBLE = "image-compatible"


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one reproducible instance."""

    seed: int
    ambient_dim: int = 8
    member_count: int = 4
    dim_range: tuple = ()
    weight_range: tuple = (0.5, 2.0)
    flavor: Flavor = Flavor.ARBITRARY

    def resolved_dim_range(self) -> tuple:
        if self.dim_range:
            return tuple(self.dim_range)
        return (1, max(1, self.ambient_dim // 2))

    def validate(self) -> None:
        """Check every field with the wire readers (``linalg.json_int`` and
        ``linalg.json_real``), and ambient_dim and member_count against
        MAX_SIZE, before anything is drawn; raises InputError."""
        _check_seed(self.seed)
        n = _check_size(self.ambient_dim, "ambient_dim", 2)
        m = _check_size(self.member_count, "member_count", 1)
        lo, hi = (linalg.json_int(d, "dim_range", 1) for d in self.resolved_dim_range())
        if hi < lo or hi > n:
            raise InputError(f"dim_range must satisfy 1 <= lo <= hi <= {n}, got ({lo}, {hi})")
        wlo, whi = (linalg.json_real(w, "weight_range") for w in self.weight_range)
        if not 0 < wlo <= whi:
            raise InputError(f"weight_range must satisfy 0 < lo <= hi, got ({wlo}, {whi})")
        if self.flavor in (Flavor.FUSION_FRAME, Flavor.IMAGE_COMPATIBLE) and m * hi < n:
            raise InputError(
                f"flavor {self.flavor.value} needs member_count * max_dim >= "
                f"ambient_dim ({m} * {hi} < {n}): spanning is unreachable"
            )

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "ambient_dim": self.ambient_dim,
            "member_count": self.member_count,
            "dim_range": list(self.resolved_dim_range()),
            "weight_range": list(self.weight_range),
            "flavor": self.flavor.value,
        }

    @classmethod
    def from_json(cls, obj, name: str = "genspec") -> "GenSpec":
        """Parse a GenSpec object: ``seed`` is required, the other fields
        default; the values are checked by ``validate``."""
        obj = linalg.json_object(obj, name, ("seed",))
        kwargs = {key: obj[key] for key in ("seed", "ambient_dim", "member_count") if key in obj}
        for key in ("dim_range", "weight_range"):  # [lo, hi]
            if key in obj:
                kwargs[key] = tuple(linalg.json_list(obj[key], f"{name}.{key}", 2))
        if "flavor" in obj:
            try:
                kwargs["flavor"] = Flavor(obj["flavor"])
            except ValueError:
                choices = ", ".join(f.value for f in Flavor)
                raise InputError(f"{name}.flavor: expected one of {choices}, "
                                 f"got {obj['flavor']!r}") from None
        spec = cls(**kwargs)
        spec.validate()
        return spec


_MAX_REDRAWS = 100


def _draw_basis(rng: Rng, n: int, d: int, carrier: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal n x d basis from normal entries; redraws the (measure
    zero) degenerate cases.  ``carrier`` restricts the span to its columns."""
    for _ in range(_MAX_REDRAWS):
        g = rng.normals(carrier.shape[1], d) if carrier is not None else rng.normals(n, d)
        raw = carrier @ g if carrier is not None else g
        q, rank = linalg.qr_orthonormalize(raw)
        if rank == d:
            return q
    raise InputError("could not draw a full-rank basis; dim_range too tight?")


def _spanning_dims(rng: Rng, spec: GenSpec) -> list:
    lo, hi = spec.resolved_dim_range()
    dims = [rng.randint(lo, hi) for _ in range(spec.member_count)]
    if spec.flavor in (Flavor.FUSION_FRAME, Flavor.IMAGE_COMPATIBLE):
        i = 0
        while sum(dims) < spec.ambient_dim:
            if dims[i % len(dims)] < hi:
                dims[i % len(dims)] += 1
            i += 1
    return dims


def generate(spec: GenSpec):
    """Build the instance described by ``spec``.

    Returns (system, K) with K = None for the operator-free flavors.
    Deterministic per seed; the draw order is dims, weights, then the
    flavor-specific matrices, exactly as coded here.
    """
    spec.validate()
    rng = Rng(spec.seed)
    n = spec.ambient_dim

    if spec.flavor is Flavor.IMAGE_COMPATIBLE:
        for _ in range(_MAX_REDRAWS):
            k = rng.normals(n, n)
            sv = linalg.singular_values(k)
            if sv[-1] > 1e-4 * sv[0]:
                break
        else:
            raise InputError("could not draw a well-conditioned operator")
        row_space, _ = linalg.qr_orthonormalize(k.T)
    else:
        k = None
        row_space = None

    for _ in range(_MAX_REDRAWS):
        dims = _spanning_dims(rng, spec)
        weights = [rng.uniform(*spec.weight_range) for _ in range(spec.member_count)]
        subs = [
            Subspace(n, _draw_basis(rng, n, d, carrier=row_space), _trusted=True)
            for d in dims
        ]
        if spec.flavor in (Flavor.FUSION_FRAME, Flavor.IMAGE_COMPATIBLE):
            stacked = np.hstack([s.basis for s in subs])
            if linalg.matrix_rank(stacked) < n:
                continue  # spanning failed; redraw everything
        system = WeightedSubspaceSystem(
            [Member(s, w) for s, w in zip(subs, weights)]
        )
        break
    else:
        raise InputError("could not draw a spanning family; dim_range too tight?")

    if spec.flavor is Flavor.K_FUSION_FRAME:
        x = rng.normals(n, n)
        k = linalg.sqrt_psd(system.frame_operator()) @ x
    return system, k

"""numpy-only oracle for the benchmark's output checks.

Every quantity is recomputed through numpy.linalg (LAPACK), never through
the package's Jacobi kernels, so a check compares two independent routes.
Each ``check_*`` function raises ``Wrong`` naming the first property the
answer breaks; tolerances sit far above the agreement seen on correct
answers (1e-12 or better) and far below what a wrong answer produces.
"""

import math

import numpy as np

RANK_CUT = 1e-10  # eigenvalues of S below RANK_CUT * lambda_max count as zero
COUPLING_TOL = 1e-6  # ||K.T V0|| / ||K|| above this means range(K) leaves range(S)
BOUND_RTOL = 1e-8
LOEWNER_TOL = 1e-9
WITNESS_RATIO = 1e-10
RECON_RTOL = 1e-9
MEMBER_RTOL = 1e-9
MIN_NORM_RTOL = 1e-8
DOUGLAS_TOL = 1e-8


class Wrong(Exception):
    """An output that contradicts the oracle or a property of the method."""


class Instance:
    """A system (as its JSON wire object) and an operator, with the
    oracle's frame operator, member projections and optimal bounds."""

    def __init__(self, system_json, k):
        self.k = np.asarray(k, dtype=float)
        self.weights = np.array([m["weight"] for m in system_json["members"]], dtype=float)
        n = system_json["ambient_dim"]
        self.projections = []
        for m in system_json["members"]:
            b = np.array(m["basis"]["data"], dtype=float).reshape(n, m["basis"]["cols"])
            u, sv, _ = np.linalg.svd(b, full_matrices=False)
            q = u[:, sv > RANK_CUT * sv[0]] if sv.size and sv[0] > 0 else np.zeros((n, 0))
            self.projections.append(q @ q.T)
        self.s = sum(w * w * p for w, p in zip(self.weights, self.projections))
        self.verified, self.lower, self.upper = optimal_bounds(self.s, self.k)


def optimal_bounds(s, k):
    """(verified, A, B): B = lambda_max(S); A = the smallest generalized
    eigenvalue of (S, K K.T) on the positive part of S, 0 when K.T couples
    to the null space of S, +inf for K = 0."""
    w, v = np.linalg.eigh(s)
    upper = max(float(w[-1]), 0.0)
    k_norm = np.linalg.norm(k, 2)
    if k_norm == 0.0:
        return True, math.inf, upper
    pos = w > RANK_CUT * max(upper, 1e-300)
    null = v[:, ~pos]
    if null.size and np.linalg.norm(k.T @ null, 2) > COUPLING_TOL * k_norm:
        return False, 0.0, upper
    q = v[:, pos] / np.sqrt(w[pos])
    pencil = q.T @ k @ k.T @ q
    return True, 1.0 / np.linalg.eigvalsh(0.5 * (pencil + pencil.T))[-1], upper


def _close(name, got, want, rtol):
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise Wrong(f"{name} {got!r} differs from the oracle's {want!r}")


def check_verify(inst, is_kff, lower, upper):
    """Verdict, both optimal bounds, and A K K.T <= S <= B I."""
    if bool(is_kff) != inst.verified:
        raise Wrong(f"verdict {is_kff} but the oracle says {inst.verified}")
    _close("upper bound", upper, inst.upper, BOUND_RTOL)
    if not inst.verified:
        if lower != 0.0:
            raise Wrong(f"refuted pair reports lower bound {lower!r}")
        return
    _close("lower bound", lower, inst.lower, BOUND_RTOL)
    gap = inst.s - lower * (inst.k @ inst.k.T)
    if np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] < -LOEWNER_TOL * inst.upper:
        raise Wrong("A K K.T <= S fails for the reported lower bound")


def check_witness(inst, w):
    """A unit w with <S w, w> <= 1e-10 ||K.T w||^2 certifies refutation."""
    if w is None:
        raise Wrong("refuted pair has no witness")
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise Wrong("witness is not a unit vector")
    ktw = np.linalg.norm(inst.k.T @ w)
    if not (ktw > 0.0 and w @ inst.s @ w <= WITNESS_RATIO * ktw * ktw):
        raise Wrong("witness does not certify the refutation")


def check_decomposition(inst, f, blocks, constant):
    """K f = sum w_i a_i, a_i in W_i, the minimal-norm coefficients, and
    constant^2 * A_opt = 1."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    target = inst.k @ f
    scale = max(np.linalg.norm(inst.k, 2) * np.linalg.norm(f), 1e-300)
    recon = sum(w * a for w, a in zip(inst.weights, blocks))
    if np.linalg.norm(recon - target) > RECON_RTOL * scale:
        raise Wrong("blocks do not reconstruct K f")
    stacked = np.concatenate(blocks)
    norm = max(np.linalg.norm(stacked), 1e-300)
    for i, (p, a) in enumerate(zip(inst.projections, blocks)):
        if np.linalg.norm(a - p @ a) > MEMBER_RTOL * norm:
            raise Wrong(f"block {i} leaves its subspace")
    synthesis = np.hstack([w * p for w, p in zip(inst.weights, inst.projections)])
    best = np.linalg.lstsq(synthesis, target, rcond=None)[0]
    if np.linalg.norm(stacked - best) > MIN_NORM_RTOL * max(np.linalg.norm(best), 1e-300):
        raise Wrong("coefficients are not the minimal-norm ones")
    if not abs(constant * constant * inst.lower - 1.0) <= DOUGLAS_TOL:
        raise Wrong(f"constant^2 * A = {constant * constant * inst.lower!r}, expected 1")

"""The benchmark's checks accept the package's answers and reject wrong ones.

    python3 -m pytest perfbench/test_oracle.py    (or python3 perfbench/test_oracle.py)

Each negative case corrupts one right answer the way a broken
implementation could: a lower bound 1% too high, a coefficient block
pushed out of its subspace, a refutation witness taken from the range of
S, where the frame inequality does hold.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fusionframes as ff  # noqa: E402
from oracle import (  # noqa: E402
    Instance,
    Wrong,
    check_decomposition,
    check_verify,
    check_witness,
)


def _verified(seed=11, n=8, m=3):
    system, k = ff.generate(ff.GenSpec(seed=seed, ambient_dim=n, member_count=m,
                                       flavor=ff.Flavor.K_FUSION_FRAME))
    return system, k, Instance(system.to_json(), k)


def _refuted(seed=12, n=9):
    system, _ = ff.generate(ff.GenSpec(seed=seed, ambient_dim=n, member_count=2,
                                       dim_range=(1, n // 3), flavor=ff.Flavor.ARBITRARY))
    k = np.random.default_rng(seed).standard_normal((n, n))
    return system, k, Instance(system.to_json(), k)


def _rejects(check, *args):
    try:
        check(*args)
    except Wrong:
        return True
    return False


def test_lower_bound_scaled_by_1_01_is_rejected():
    system, k, inst = _verified()
    rep = ff.kfusion_verify(system, k)
    check_verify(inst, rep.is_kff, rep.optimal_lower, rep.optimal_upper)
    assert _rejects(check_verify, inst, rep.is_kff, 1.01 * rep.optimal_lower, rep.optimal_upper)


def test_block_shifted_out_of_its_subspace_is_rejected():
    system, k, inst = _verified()
    f = np.random.default_rng(3).standard_normal(system.ambient_dim)
    dec = ff.atomic_decompose(system, k, f)
    blocks = list(dec.bundle.blocks)
    check_decomposition(inst, f, blocks, dec.constant)
    member = system.members[0].subspace
    out = np.random.default_rng(4).standard_normal(system.ambient_dim)
    out -= member.project(out)  # orthogonal to W_0
    blocks[0] = blocks[0] + 1e-3 * np.linalg.norm(blocks[0]) * out / np.linalg.norm(out)
    assert _rejects(check_decomposition, inst, f, blocks, dec.constant)


def test_witness_from_the_range_of_s_is_rejected():
    system, k, inst = _refuted()
    rep = ff.kfusion_verify(system, k)
    assert not rep.is_kff
    check_verify(inst, rep.is_kff, rep.optimal_lower, rep.optimal_upper)
    check_witness(inst, ff.refutation_witness(system, k))
    in_range = inst.s @ np.random.default_rng(5).standard_normal(system.ambient_dim)
    assert _rejects(check_witness, inst, in_range / np.linalg.norm(in_range))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

"""One check per kind of input.

Every public entry that takes an operator K or T rejects a malformed one
with InputError (never numpy's ValueError or an IndexError), every entry
with a verdict ``tol`` rejects a tolerance that is not finite and
positive, and the subspace residual has one formula.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fusionframes import linalg
from fusionframes.cli import main
from fusionframes.constructions import (
    basis_image_system,
    commuting_transform_construct,
    invertibility_consistency_check,
    operator_image_construct,
    surjectivity_consistency_check,
    transform_system,
)
from fusionframes.errors import InputError
from fusionframes.fusion_systems import Member, WeightedSubspaceSystem, coordinate_lines
from fusionframes.kfusion import (
    atomic_decompose,
    douglas_factor,
    frame_operator_atomic_check,
    frame_operator_chain_check,
    kfusion_verify,
    range_transfer_check,
    refutation_witness,
)
from fusionframes.subspaces import Subspace
from fusionframes.vector_frames import (
    VectorFrame,
    kframe_verify,
    local_to_global_check,
    vector_frame_bounds,
)

ROOT = Path(__file__).resolve().parent.parent
N = 3
SYSTEM = coordinate_lines(N, [1.0, 2.0, 3.0])  # a fusion frame: every hypothesis applies
GOOD = np.diag([1.0, 2.0, 3.0])
F = np.array([1.0, -1.0, 2.0])


def _nan_operator():
    k = np.eye(N)
    k[1, 2] = np.nan
    return k


BAD_OPERATORS = {
    "n-by-n-1": np.ones((N, N - 1)),
    "n-1-square": np.eye(N - 1),
    "n+1-square": np.eye(N + 1),
    "nan-entry": _nan_operator(),
}

TAKES_OPERATOR = {
    "kfusion_verify": lambda x: kfusion_verify(SYSTEM, x),
    "refutation_witness": lambda x: refutation_witness(SYSTEM, x),
    "atomic_decompose": lambda x: atomic_decompose(SYSTEM, x, F),
    "frame_operator_chain_check": lambda x: frame_operator_chain_check(SYSTEM, x),
    "range_transfer_check-k": lambda x: range_transfer_check(SYSTEM, x, GOOD),
    "range_transfer_check-t": lambda x: range_transfer_check(SYSTEM, GOOD, x),
    "transform_system": lambda x: transform_system(SYSTEM, x),
    "commuting_transform_construct-k": lambda x: commuting_transform_construct(SYSTEM, x, GOOD),
    "commuting_transform_construct-t": lambda x: commuting_transform_construct(SYSTEM, GOOD, x),
    "surjectivity_consistency_check-k": lambda x: surjectivity_consistency_check(SYSTEM, x, GOOD),
    "surjectivity_consistency_check-t": lambda x: surjectivity_consistency_check(SYSTEM, GOOD, x),
    "invertibility_consistency_check-k":
        lambda x: invertibility_consistency_check(SYSTEM, x, GOOD),
    "invertibility_consistency_check-t":
        lambda x: invertibility_consistency_check(SYSTEM, GOOD, x),
    "operator_image_construct": lambda x: operator_image_construct(SYSTEM, x),
    "kframe_verify": lambda x: kframe_verify(VectorFrame(N, list(np.eye(N))), x),
    "Subspace.image_under": lambda x: Subspace.span([1.0, 1.0, 0.0]).image_under(x),
}


@pytest.mark.parametrize("entry", sorted(TAKES_OPERATOR))
@pytest.mark.parametrize("bad", sorted(BAD_OPERATORS))
def test_malformed_operator_is_an_input_error(entry, bad):
    with pytest.raises(InputError) as exc:
        TAKES_OPERATOR[entry](BAD_OPERATORS[bad])
    assert type(exc.value) is InputError


# basis_image_system takes n from K, so any finite square K is well formed
@pytest.mark.parametrize("bad", [np.ones((N, N - 1)), _nan_operator(), [1.0, 2.0]],
                         ids=["n-by-n-1", "nan-entry", "vector"])
def test_basis_image_system_rejects_a_malformed_operator(bad):
    with pytest.raises(InputError) as exc:
        basis_image_system(bad)
    assert type(exc.value) is InputError


def test_refutation_witness_is_none_exactly_when_the_pair_verifies():
    lines = WeightedSubspaceSystem([Member(Subspace.span([1.0, 0.0, 0.0]), 1.0)])
    for k in (np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0]), np.zeros((N, N))):
        assert (refutation_witness(lines, k) is None) == kfusion_verify(lines, k).is_kff


def _local_frame_system():
    eye = np.eye(2)
    return WeightedSubspaceSystem(
        [Member(Subspace(2, eye[:, [i]]), 1.0, (eye[:, i], 2.0 * eye[:, i])) for i in range(2)]
    )


TAKES_TOL = {
    "douglas_factor": lambda tol: douglas_factor(GOOD, GOOD, tol),
    "kfusion_verify": lambda tol: kfusion_verify(SYSTEM, GOOD, tol),
    "refutation_witness": lambda tol: refutation_witness(SYSTEM, GOOD, tol),
    "atomic_decompose": lambda tol: atomic_decompose(SYSTEM, GOOD, F, tol),
    "frame_operator_chain_check": lambda tol: frame_operator_chain_check(SYSTEM, GOOD, tol),
    "frame_operator_atomic_check": lambda tol: frame_operator_atomic_check(SYSTEM, tol=tol),
    "range_transfer_check": lambda tol: range_transfer_check(SYSTEM, GOOD, GOOD, tol),
    "commuting_transform_construct":
        lambda tol: commuting_transform_construct(SYSTEM, GOOD, 2.0 * np.eye(N), tol),
    "surjectivity_consistency_check":
        lambda tol: surjectivity_consistency_check(SYSTEM, GOOD, GOOD, tol),
    "invertibility_consistency_check":
        lambda tol: invertibility_consistency_check(SYSTEM, GOOD, GOOD, tol),
    "operator_image_construct": lambda tol: operator_image_construct(SYSTEM, GOOD, tol),
    "fusion_bounds": lambda tol: SYSTEM.fusion_bounds(tol),
    "vector_frame_bounds": lambda tol: vector_frame_bounds(VectorFrame(N, list(np.eye(N))), tol),
    "kframe_verify": lambda tol: kframe_verify(VectorFrame(N, list(np.eye(N))), GOOD, tol),
    "local_to_global_check": lambda tol: local_to_global_check(_local_frame_system(), tol),
    "Subspace.contains":
        lambda tol: Subspace.full(N).contains(Subspace.span([1.0, 0.0, 0.0]), tol),
}


@pytest.mark.parametrize("entry", sorted(TAKES_TOL))
def test_every_verdict_tol_entry_accepts_a_positive_finite_tol(entry):
    TAKES_TOL[entry](1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(TAKES_TOL))
def test_tol_that_is_not_finite_and_positive_is_an_input_error(entry, tol):
    with pytest.raises(InputError, match="tol must be finite and positive"):
        TAKES_TOL[entry](tol)


def test_psd_leq_slack_may_be_zero():
    assert linalg.psd_leq(np.eye(2), np.eye(2), 0.0)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def refuted_files(tmp_path):
    """A pair refuted at every tolerance: S projects onto e2, K onto e1."""
    system = _write(tmp_path / "e2.json", {
        "ambient_dim": 2,
        "members": [{"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0,
                     "local_frame": [[0.0, 1.0]]}],
    })
    other = _write(tmp_path / "e2b.json", {
        "ambient_dim": 2,
        "members": [{"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0}],
    })
    k = _write(tmp_path / "k.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.0]})
    f = _write(tmp_path / "f.json", [1.0, 0.0])
    return {"system": system, "other": other, "k": k, "f": f}


def _commands(p):
    return {
        "verify": ["verify", "--system", p["system"], "--operator", p["k"]],
        "bounds": ["bounds", "--system", p["system"]],
        "decompose": ["decompose", "--system", p["system"], "--operator", p["k"],
                      "--vector", p["f"]],
        "transform-t": ["transform", "--system", p["system"], "--operator", p["k"],
                        "--operator-t", p["k"]],
        "transform-image": ["transform", "--system", p["system"], "--operator", p["k"]],
        "perturb": ["perturb", "--system", p["system"], "--system-b", p["other"]],
        "local-global": ["local-global", "--system", p["system"]],
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_with_non_finite_tol_exits_two_and_prints_nothing(refuted_files, capsys, tol, fmt):
    argv = _commands(refuted_files)["verify"]
    assert main(argv) == 1  # refuted at the default tol
    capsys.readouterr()
    assert main(argv + ["--tol", tol, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be finite and positive" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["verify", "bounds", "decompose", "transform-t",
                                     "transform-image", "perturb", "local-global"])
def test_every_command_rejects_a_bad_tol(refuted_files, capsys, command, tol):
    assert main(_commands(refuted_files)[command] + ["--tol", tol]) == 2
    assert capsys.readouterr().out == ""


def _subspaces():
    rng = np.random.default_rng(4)
    out = [Subspace.zero(5), Subspace.full(5)]
    for d in (1, 2, 4):
        out.append(Subspace.from_spanning(rng.standard_normal((5, d))))
    return out


@pytest.mark.parametrize("sub", _subspaces(), ids=lambda s: f"dim{s.dim}")
def test_subspace_residual_is_each_old_formula(sub):
    rng = np.random.default_rng(sub.dim)
    m = rng.standard_normal((5, 3))
    b = sub.basis
    # Subspace.contains and constructions._invariance_defect: columns of a matrix
    resid = m - b @ (b.T @ m)
    np.testing.assert_array_equal(sub.residual(m), np.sqrt((resid * resid).sum(axis=0)))
    for v in m.T:
        # check_bundle and local_to_global_check: the norm of v - P v
        assert sub.residual(v) == pytest.approx(np.linalg.norm(v - sub.project(v)),
                                                rel=1e-15, abs=0.0)
    assert sub.residual(np.zeros((5, 0))).shape == (0,)


def test_every_tolerance_constant_is_in_the_readme_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = {(row.split("`")[1], row.rstrip(" |").rsplit("|", 1)[1].strip(" `"))
                  for row in rows}
    found = set()
    for path in sorted((ROOT / "src" / "fusionframes").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.endswith("_TOL"):
                        found.add((target.id, path.stem))
    assert found and found <= documented, sorted(found - documented)


@pytest.mark.parametrize("vector", [[np.nan, 0.0], [0.0, 0.0, 0.0]], ids=["nan", "length-3"])
def test_local_vector_of_a_zero_member_is_checked(vector):
    system = WeightedSubspaceSystem([Member(Subspace.zero(2), 1.0, (np.array(vector),)),
                                     Member(Subspace.full(2), 1.0, tuple(np.eye(2)))])
    with pytest.raises(InputError, match=r"local vector \[0\]\[0\]"):
        local_to_global_check(system)

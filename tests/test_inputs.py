"""One check per kind of input.

Every public entry that takes an operator K or T rejects a malformed one
with InputError (never numpy's ValueError or an IndexError), every entry
with a verdict ``tol`` rejects a tolerance that is not finite and
positive, and the subspace residual has one formula.  Every numeric
field of a system, subspace, matrix, vector or GenSpec file rejects a
malformed JSON value with InputError, and the CLI with exit 2.
"""

import ast
import importlib
import json
import math
import re
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
from fusionframes.generator import GenSpec, generate
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


# ---------------------------------------------------------------------------
# The JSON wire layer: one reader per kind of value

WIRE_SYSTEM = {
    "ambient_dim": 2,
    "members": [
        {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1.0,
         "local_frame": [[1.0, 0.0]]},
        {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 2.0,
         "local_frame": [[0.0, 1.0]]},
    ],
}
WIRE_SUBSPACE = {"ambient_dim": 2, "basis": {"rows": 2, "cols": 1, "data": [1.0, 1.0]}}
WIRE_MATRIX = {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}
WIRE_VECTOR = [1.0, -1.0]
WIRE_GENSPEC = {"seed": 1, "ambient_dim": 4, "member_count": 3, "dim_range": [1, 2],
                "weight_range": [0.5, 2.0], "flavor": "k-fusion-frame"}
WIRE_DOCS = {"system": WIRE_SYSTEM, "subspace": WIRE_SUBSPACE, "matrix": WIRE_MATRIX,
             "vector": WIRE_VECTOR, "genspec": WIRE_GENSPEC}
WIRE_READERS = {
    "system": WeightedSubspaceSystem.from_json,
    "subspace": Subspace.from_json,
    "matrix": linalg.matrix_from_json,
    "vector": lambda obj: linalg.json_vector(obj, "vector"),
    "genspec": GenSpec.from_json,
}

# each malformed value as JSON text: 1e400 parses as inf
NOT_A_NUMBER = {"bool": "true", "string": '"1"', "null": "null", "nested-list": "[1.0]",
                "nan": "NaN", "1e400": "1e400"}
ZERO, NEGATIVE = {"zero": "0"}, {"negative": "-1"}
# every numeric field: (kind, path, the values beyond NOT_A_NUMBER that it rejects)
NUMERIC_FIELDS = [
    ("system", ("ambient_dim",), {**ZERO, **NEGATIVE}),
    ("system", ("members", 0, "basis", "rows"), {**ZERO, **NEGATIVE}),
    ("system", ("members", 0, "basis", "cols"), NEGATIVE),  # 0 columns: the zero subspace
    ("system", ("members", 0, "basis", "data", 0), {}),
    ("system", ("members", 0, "weight"), {**ZERO, **NEGATIVE}),
    ("system", ("members", 0, "local_frame", 0, 0), {}),
    ("subspace", ("ambient_dim",), {**ZERO, **NEGATIVE}),
    ("subspace", ("basis", "rows"), {**ZERO, **NEGATIVE}),
    ("subspace", ("basis", "cols"), NEGATIVE),
    ("subspace", ("basis", "data", 1), {}),
    ("matrix", ("rows",), {**ZERO, **NEGATIVE}),
    ("matrix", ("cols",), {**ZERO, **NEGATIVE}),
    ("matrix", ("data", 3), {}),
    ("vector", (0,), {}),
    ("genspec", ("seed",), NEGATIVE),  # seed 0 is a seed
    ("genspec", ("ambient_dim",), {**ZERO, **NEGATIVE}),
    ("genspec", ("member_count",), {**ZERO, **NEGATIVE}),
    ("genspec", ("dim_range", 0), {**ZERO, **NEGATIVE}),
    ("genspec", ("dim_range", 1), {**ZERO, **NEGATIVE}),
    ("genspec", ("weight_range", 0), {**ZERO, **NEGATIVE}),
    ("genspec", ("weight_range", 1), {**ZERO, **NEGATIVE}),
]
MALFORMED = [(kind, path, label, text) for kind, path, extra in NUMERIC_FIELDS
             for label, text in {**NOT_A_NUMBER, **extra}.items()]


def replaced_field(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (the whole document for
    an empty path) replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _malformed_text(kind, path, text):
    """The valid document of ``kind`` as JSON text, with the value at
    ``path`` replaced by the JSON text ``text``."""
    doc = replaced_field(WIRE_DOCS[kind], path, "@MALFORMED@")
    return json.dumps(doc).replace('"@MALFORMED@"', text)


def _wire_id(case):
    kind, path, label, _ = case
    return f"{kind}.{'.'.join(map(str, path))}={label}"


@pytest.mark.parametrize("case", MALFORMED, ids=_wire_id)
def test_malformed_number_is_an_input_error(case):
    kind, path, _, text = case
    with pytest.raises(InputError) as exc:
        WIRE_READERS[kind](json.loads(_malformed_text(kind, path, text)))
    assert type(exc.value) is InputError


@pytest.fixture
def wire_files(tmp_path):
    return {kind: _write(tmp_path / f"{kind}.json", doc) for kind, doc in WIRE_DOCS.items()}


def _wire_command(files, kind, path):
    """The command that reads a file of ``kind`` at ``path``, the others valid."""
    files = {**files, kind: path}
    return {
        "system": ["verify", "--system", files["system"]],
        "matrix": ["verify", "--system", files["system"], "--operator", files["matrix"]],
        "vector": ["decompose", "--system", files["system"], "--operator", files["matrix"],
                   "--vector", files["vector"]],
        "genspec": ["gen", "--spec", files["genspec"]],
    }[kind]


@pytest.mark.parametrize("kind", ["system", "matrix", "vector", "genspec"])
def test_valid_wire_files_exit_zero(wire_files, capsys, kind):
    assert main(_wire_command(wire_files, kind, wire_files[kind])) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("case", [c for c in MALFORMED if c[0] != "subspace"], ids=_wire_id)
def test_malformed_number_in_a_file_exits_two(wire_files, tmp_path, capsys, case):
    kind, path, _, text = case
    bad = tmp_path / "malformed.json"
    bad.write_text(_malformed_text(kind, path, text))
    assert main(_wire_command(wire_files, kind, str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_genspec_with_numpy_float32_weights_validates():
    spec = GenSpec(seed=3, weight_range=(np.float32(0.5), np.float32(2.0)))
    spec.validate()
    assert len(generate(spec)[0]) == spec.member_count


# values a reader must hand on unchanged: integers, signed zero, subnormals,
# the float extremes and an integer above 2^53
EXACT_VALUES = [0, -0.0, 1, -3, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                2 ** 53 + 1, 0.1, -1e-300]


def test_readers_parse_every_value_bit_for_bit():
    data = EXACT_VALUES + [1.0, 2.0]
    expected = np.array(data, dtype=float)
    m = linalg.matrix_from_json({"rows": 3, "cols": 4, "data": data})
    assert m.tobytes() == expected.reshape(3, 4).tobytes()
    assert linalg.json_vector(data, "v").tobytes() == expected.tobytes()
    local = WeightedSubspaceSystem.from_json({"ambient_dim": 12, "members": [
        {"basis": {"rows": 12, "cols": 1, "data": data}, "weight": 1, "local_frame": [data]},
    ]}).members[0].local_frame[0]
    assert local.tobytes() == expected.tobytes()


def test_basis_reader_spans_the_data_bit_for_bit():
    basis = WIRE_SUBSPACE["basis"]
    expected = Subspace.from_spanning(np.array(basis["data"]).reshape(2, 1)).basis.tobytes()
    assert Subspace.from_json(WIRE_SUBSPACE).basis.tobytes() == expected
    system = WeightedSubspaceSystem.from_json(
        {"ambient_dim": 2, "members": [{"basis": basis, "weight": 1.0}]})
    assert system.members[0].subspace.basis.tobytes() == expected


def test_every_tolerance_constant_is_in_the_readme_table():
    # each module-level *_TOL of the package has its row, with its value and
    # module, in README's table of all the tolerances
    package = Path(importlib.import_module("fusionframes").__file__).parent
    constants = sorted((path.stem, name) for path in package.glob("*.py")
                       for name in re.findall(r"^(\w+_TOL)\s*=", path.read_text(encoding="utf-8"),
                                              re.M))
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = {(module, name): value for name, value, module
            in re.findall(r"^\| `(\w+)` \| ([^|]+?) \|.*\| `(\w+)` \|$", table, re.M)}
    assert len(constants) >= 9
    for module, name in constants:
        assert (module, name) in rows, f"{module}.{name} has no row"
        value = getattr(importlib.import_module(f"fusionframes.{module}"), name)
        assert float(rows[module, name]) == value, name

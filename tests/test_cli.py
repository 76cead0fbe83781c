import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fusionframes.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def files(tmp_path):
    parseval = write(
        tmp_path / "parseval.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1.0},
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0},
            ],
        },
    )
    eye = write(tmp_path / "eye.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]})
    e2_only = write(
        tmp_path / "e2.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0}
            ],
        },
    )
    diag10 = write(tmp_path / "diag10.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.0]})
    broken = tmp_path / "broken.json"
    broken.write_text('{"ambient_dim": 2, "members": [')
    return {
        "parseval": parseval,
        "eye": eye,
        "e2": e2_only,
        "diag10": diag10,
        "broken": str(broken),
        "dir": tmp_path,
    }


def test_verify_exit_zero_and_unit_bounds(files, capsys):
    code = main(["verify", "--system", files["parseval"], "--operator", files["eye"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower: 1" in out and "upper: 1" in out


def test_verify_refuted_exit_one_with_residual(files, capsys):
    code = main(["verify", "--system", files["e2"], "--operator", files["diag10"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "refuted" in out
    assert "residual: 1" in out


def test_verify_truncated_json_exit_two(files, capsys):
    code = main(["verify", "--system", files["broken"], "--operator", files["eye"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_verify_weight_with_overflowing_square_exit_two(files, capsys):
    heavy = write(
        files["dir"] / "heavy.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1e200},
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1.0},
            ],
        },
    )
    code = main(["verify", "--system", heavy])
    err = capsys.readouterr().err
    assert code == 2
    assert "weight" in err and "finite square" in err


@pytest.mark.parametrize("command", ["bounds", "verify"])
def test_weight_with_underflowing_square_exit_two(files, capsys, command):
    # w^2 = 1e-340 is below the normal float range: S would silently be 0
    light = write(
        files["dir"] / "light.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1e-170},
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": 1e-170},
            ],
        },
    )
    code = main([command, "--system", light])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "weight" in captured.err and "below the normal float range" in captured.err


@pytest.mark.parametrize("ratio, code", [(5e-10, 0), (2e-10, 0), (5e-11, 1)])
def test_bounds_exit_code_follows_the_rank_cut(files, capsys, ratio, code):
    # lambda_min / lambda_max = ratio: a frame exactly when above 1e-10
    system = write(
        files["dir"] / "graded.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]}, "weight": 1.0},
                {"basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]}, "weight": math.sqrt(ratio)},
            ],
        },
    )
    assert main(["bounds", "--system", system]) == code
    capsys.readouterr()


def test_exit_code_independent_of_format(files, capsys):
    args = ["verify", "--system", files["e2"], "--operator", files["diag10"]]
    text_code = main(args + ["--format", "text"])
    capsys.readouterr()
    json_code = main(args + ["--format", "json"])
    capsys.readouterr()
    assert text_code == json_code == 1


def test_verify_json_format_schema(files, capsys):
    code = main(
        ["verify", "--system", files["parseval"], "--operator", files["eye"], "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(report) == {"is_kff", "lower", "upper", "residual", "parts"}
    assert report["is_kff"] is True
    assert report["lower"] == 1.0 and report["upper"] == 1.0


def test_verify_without_operator_uses_plain_bounds(files, capsys):
    code = main(["verify", "--system", files["parseval"], "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "Parseval"
    code = main(["verify", "--system", files["e2"], "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "BesselOnly"


def test_bounds_command(files, capsys):
    code = main(["bounds", "--system", files["parseval"], "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verdict"] == "Parseval"


def test_decompose_command(files, tmp_path, capsys):
    vec = write(tmp_path / "f.json", [3.0, 4.0])
    code = main(
        [
            "decompose",
            "--system",
            files["parseval"],
            "--operator",
            files["eye"],
            "--vector",
            vec,
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["relative_residual"] <= 1e-9
    np.testing.assert_allclose(report["bundle"], [[3.0, 0.0], [0.0, 4.0]], atol=1e-12)


def test_decompose_refuted_exit_one(files, tmp_path, capsys):
    vec = write(tmp_path / "f.json", [1.0, 1.0])
    code = main(
        ["decompose", "--system", files["e2"], "--operator", files["diag10"], "--vector", vec]
    )
    assert code == 1
    assert "refuted" in capsys.readouterr().err


def test_bounds_is_verify_without_operator(files, capsys):
    for system in (files["parseval"], files["e2"]):
        bounds_code = main(["bounds", "--system", system])
        bounds_out = capsys.readouterr().out
        verify_code = main(["verify", "--system", system])
        assert (bounds_code, bounds_out) == (verify_code, capsys.readouterr().out)


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_operator_with_unrepresentable_lower_bound_exit_two(files, tmp_path, capsys, command):
    # K = 1e300 I against a Parseval system: A = 1e-600 is not a float
    huge = write(tmp_path / "huge.json", {"rows": 2, "cols": 2, "data": [1e300, 0.0, 0.0, 1e300]})
    vec = write(tmp_path / "f.json", [1.0, -2.0])
    args = [command, "--system", files["parseval"], "--operator", huge, "--format", "json"]
    if command == "decompose":
        args += ["--vector", vec]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "outside the float range" in captured.err


def test_decompose_huge_vector_reports_finite_norms(files, tmp_path, capsys):
    vec = write(tmp_path / "f.json", [3e200, 4e200])
    code = main(
        ["decompose", "--system", files["parseval"], "--operator", files["eye"],
         "--vector", vec, "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["bundle_norm"] == pytest.approx(5e200, rel=1e-15)
    assert report["relative_residual"] == 0.0 and report["constant"] == 1.0


def test_decompose_and_verify_honour_the_same_tol(files, tmp_path, capsys):
    # K leaves the range of S (the second axis) by a defect of about 1e-7
    leaky = write(tmp_path / "leaky.json", {"rows": 2, "cols": 2, "data": [0.0, 1e-7, 0.0, 1.0]})
    vec = write(tmp_path / "f.json", [2.0, 5.0])
    for tol, expected in (("1e-9", 1), ("1e-6", 0)):
        common = ["--system", files["e2"], "--operator", leaky, "--tol", tol]
        assert main(["verify", *common]) == expected
        assert main(["decompose", *common, "--vector", vec]) == expected
        capsys.readouterr()


def test_transform_commuting_route(files, tmp_path, capsys):
    swap = write(tmp_path / "swap.json", {"rows": 2, "cols": 2, "data": [0.0, 1.0, 1.0, 0.0]})
    code = main(
        [
            "transform",
            "--system",
            files["parseval"],
            "--operator",
            files["eye"],
            "--operator-t",
            swap,
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["consistent"] is True
    assert report["predicted"] == [1.0, 1.0]


def test_transform_image_route(files, capsys):
    code = main(
        [
            "transform",
            "--system",
            files["parseval"],
            "--operator",
            files["diag10"],
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verified"] is True


def test_transform_vacuous_exit_one(files, tmp_path, capsys):
    proj = write(tmp_path / "proj.json", {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 0.0]})
    code = main(
        [
            "transform",
            "--system",
            files["parseval"],
            "--operator",
            files["eye"],
            "--operator-t",
            proj,
        ]
    )
    capsys.readouterr()
    assert code == 1


def test_perturb_command(files, tmp_path, capsys):
    theta = 0.1
    c, s = math.cos(theta), math.sin(theta)
    rotated = write(
        tmp_path / "rotated.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [c, s]}, "weight": 1.0},
                {"basis": {"rows": 2, "cols": 1, "data": [-s, c]}, "weight": 1.0},
            ],
        },
    )
    code = main(
        [
            "perturb",
            "--system",
            files["parseval"],
            "--system-b",
            rotated,
            "--format",
            "json",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["admissible"] is True
    assert report["params"]["lambda1"] == pytest.approx(math.sqrt(2) * math.sin(theta))
    assert report["inside"] is True


def test_perturb_inadmissible_exit_one(files, tmp_path, capsys):
    # rotate by almost a right angle: lambda1 = sqrt(2) sin(theta) > 1
    theta = 1.2
    c, s = math.cos(theta), math.sin(theta)
    rotated = write(
        tmp_path / "far.json",
        {
            "ambient_dim": 2,
            "members": [
                {"basis": {"rows": 2, "cols": 1, "data": [c, s]}, "weight": 1.0},
                {"basis": {"rows": 2, "cols": 1, "data": [-s, c]}, "weight": 1.0},
            ],
        },
    )
    code = main(
        ["perturb", "--system", files["parseval"], "--system-b", rotated, "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["admissible"] is False


def test_local_global_command(files, tmp_path, capsys):
    system = write(
        tmp_path / "lg.json",
        {
            "ambient_dim": 2,
            "members": [
                {
                    "basis": {"rows": 2, "cols": 1, "data": [1.0, 0.0]},
                    "weight": 1.0,
                    "local_frame": [[1.0, 0.0], [1.0, 0.0]],
                },
                {
                    "basis": {"rows": 2, "cols": 1, "data": [0.0, 1.0]},
                    "weight": 1.0,
                    "local_frame": [[0.0, 1.0]],
                },
            ],
        },
    )
    code = main(["local-global", "--system", system, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["C"] == pytest.approx(1.0) and report["D"] == pytest.approx(2.0)
    assert report["equivalent"] is True and report["interval_ok"] is True


def test_gen_pipeline_roundtrip(files, tmp_path, capsys):
    sys_out = str(tmp_path / "gen_sys.json")
    k_out = str(tmp_path / "gen_k.json")
    code = main(
        [
            "gen",
            "--seed",
            "11",
            "--dim",
            "5",
            "--members",
            "3",
            "--flavor",
            "k-fusion-frame",
            "--system-out",
            sys_out,
            "--operator-out",
            k_out,
        ]
    )
    assert code == 0
    code = main(["verify", "--system", sys_out, "--operator", k_out])
    capsys.readouterr()
    assert code == 0


def test_gen_combined_document(files, capsys):
    code = main(["gen", "--seed", "3", "--dim", "4", "--members", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["operator"] is None
    assert report["spec"]["seed"] == 3
    assert report["system"]["ambient_dim"] == 4


def test_gen_spec_file(files, tmp_path, capsys):
    spec = write(
        tmp_path / "spec.json",
        {"seed": 5, "ambient_dim": 4, "member_count": 3, "flavor": "fusion-frame"},
    )
    code = main(["gen", "--spec", spec, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["spec"]["flavor"] == "fusion-frame"


def test_gen_invalid_spec_exit_two(files, capsys):
    code = main(["gen", "--seed", "1", "--dim", "1"])
    capsys.readouterr()
    assert code == 2


def test_check_all_scaled_down(capsys):
    code = main(["check-all", "--seed", "1", "--scale", "0.15", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["failures"] == 0
    assert len(report["checks"]) >= 10


def test_out_flag_writes_file(files, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--system",
            files["parseval"],
            "--operator",
            files["eye"],
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert report["is_kff"] is True


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fusionframes.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verify" in proc.stdout

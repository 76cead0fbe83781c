"""Scale fuzz over the API and the CLI (run in-process).

Inputs are drawn at graded scales, each at its own decimal exponent: the
entries of each spanning matrix, K and f from 1e-150 to 1e150, and the
weights from 1e-154 to 1e155, up to where S itself leaves the float range.
Vector frames and the local frames of the local-to-global bridge have
entries at 1e150 to 1e200 or 1e-200 to 1e-150, where S = sum f_i f_i.T
does.
The ambient dimension starts at 1, members may be zero subspaces, and some
systems put an eigenvalue of S within 10x of the rank cut (1e-10 of the
largest).  Every call must give a result or one of the
package's typed errors, and the CLI an exit code in {0, 1, 2}, with no
traceback and no RuntimeWarning.

The wire fuzz replaces one field of a valid system or GenSpec file with
arbitrary JSON and holds the CLI to the same exit codes.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fusionframes import linalg
from fusionframes.cli import main
from fusionframes.errors import (
    InadmissibleError,
    InputError,
    NotPSDError,
    PreconditionError,
    RangeInclusionError,
)
from fusionframes.fusion_systems import WeightedSubspaceSystem
from fusionframes.kfusion import (
    atomic_decompose,
    frame_operator_atomic_check,
    frame_operator_chain_check,
    kfusion_verify,
    refutation_witness,
)
from fusionframes.vector_frames import (
    VectorFrame,
    kframe_verify,
    local_to_global_check,
    vector_frame_bounds,
)
from test_inputs import WIRE_GENSPEC, WIRE_SYSTEM, replaced_field

TYPED = (InputError, NotPSDError, PreconditionError, InadmissibleError, RangeInclusionError)

exponents = st.integers(-150, 150)
extreme_exponents = st.one_of(st.integers(-200, -150), st.integers(150, 200))
weight_exponents = st.integers(-154, 154)
mantissas = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def graded(draw, shape, scales=exponents):
    """A matrix of mantissas in [-1, 1] times 10**e, e drawn from ``scales``
    (by default [-150, 150])."""
    entries = draw(st.lists(mantissas, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(entries).reshape(shape) * 10.0 ** draw(scales)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        basis = draw(graded((n, draw(st.integers(0, n)))))  # 0 columns: a zero subspace
        weight = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(weight_exponents)
        members.append((basis, weight))
    if n > 1 and draw(st.booleans()):
        # the coordinate axes of R^n, one of them weighted so that its
        # eigenvalue of S sits within 10x of the cut at 1e-10 of the largest
        w = 10.0 ** draw(weight_exponents)
        ratio = 1e-10 * 10.0 ** draw(st.floats(-1.0, 1.0))
        members += [(np.eye(n)[:, [0]], w), (np.eye(n)[:, 1:], w * ratio ** 0.5)]
    system_json = {
        "ambient_dim": n,
        "members": [{"basis": linalg.matrix_to_json(b), "weight": w} for b, w in members],
    }
    kind = draw(st.sampled_from(["graded", "zero", "in-range"]))
    if kind == "zero":
        k = np.zeros((n, n))
    else:
        k = draw(graded((n, n)))
        if kind == "in-range" and members[0][0].shape[1]:
            q, _ = np.linalg.qr(members[0][0])
            k = q @ (q.T @ k)  # range(K) inside W_1, so the pair can verify
    f = draw(graded((n,)))
    return system_json, k, f


def _api(system_json, k, f):
    try:
        system = WeightedSubspaceSystem.from_json(system_json)
    except TYPED:
        return
    calls = [
        lambda: system.fusion_bounds(),
        lambda: system.synthesis(system.analysis(f)),
        lambda: kfusion_verify(system, k),
        lambda: refutation_witness(system, k),
        lambda: atomic_decompose(system, k, f),
        lambda: frame_operator_chain_check(system, k),
        lambda: frame_operator_atomic_check(system, trials=8),
    ]
    for call in calls:
        try:
            call()
        except TYPED:
            pass


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()


# coordinate lines with S finite but within 2x of the float range: S f and
# sum_i w_i a_i of a sampled f overflow unless formed on scaled S and weights
NEAR_THE_FLOAT_RANGE = (
    {"ambient_dim": 3, "members": [
        {"basis": linalg.matrix_to_json(np.eye(3)[:, [i]]), "weight": w}
        for i, w in enumerate([1.2e154, 1e154, 1e153])]},
    np.eye(3),
    np.ones(3),
)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(instances())
@example(NEAR_THE_FLOAT_RANGE)
def test_extreme_scales_give_a_result_or_a_typed_error(instance):
    system_json, k, f = instance
    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("always")
        _api(system_json, k, f)
        paths = {}
        for name, obj in (("s", system_json), ("k", linalg.matrix_to_json(k)),
                          ("f", [float(x) for x in f])):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        s, kp = ["--system", paths["s"]], ["--operator", paths["k"]]
        for argv in (["verify", *s], ["verify", *s, *kp, "--format", "json"],
                     ["decompose", *s, *kp, "--vector", paths["f"]],
                     ["transform", *s, *kp], ["local-global", *s]):
            _cli(argv)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert runtime == []


@st.composite
def frame_instances(draw):
    """A vector frame and a system carrying local frames, each vector at its
    own extreme scale, and an operator K."""
    n = draw(st.integers(1, 4))
    vectors = [draw(graded((n,), extreme_exponents)) for _ in range(draw(st.integers(1, 5)))]
    members = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(0, n))
        q, _ = np.linalg.qr(draw(graded((n, n))) + 2.0 * np.eye(n))
        local = [q[:, :d] @ draw(graded((d,), extreme_exponents))
                 for _ in range(draw(st.integers(1, 3)) if d else 0)]
        members.append({"basis": linalg.matrix_to_json(q[:, :d]),
                        "weight": draw(st.floats(1.0, 10.0)) * 10.0 ** draw(weight_exponents),
                        "local_frame": [[float(x) for x in v] for v in local]})
    k = np.eye(n) if draw(st.booleans()) else draw(graded((n, n)))
    return vectors, {"ambient_dim": n, "members": members}, k


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(frame_instances())
def test_extreme_scale_frames_give_a_result_or_a_typed_error(instance):
    vectors, system_json, k = instance
    frame = VectorFrame(len(k), vectors)
    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("always")
        for call in (lambda: vector_frame_bounds(frame), lambda: kframe_verify(frame, k),
                     lambda: local_to_global_check(
                         WeightedSubspaceSystem.from_json(system_json))):
            try:
                call()
            except InputError:
                pass
        path = os.path.join(tmp, "s.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system_json, fh)
        _cli(["local-global", "--system", path])
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert runtime == []


# ---------------------------------------------------------------------------
# Wire fuzz: one field of a valid file replaced by arbitrary JSON

def json_values(integers=st.integers()):
    """Arbitrary JSON values: null, bools, integers, floats (NaN and the
    infinities too, which Python's json writes and reads), short strings,
    and lists and objects of them."""
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


SYSTEM_FIELDS = [(), ("ambient_dim",), ("members",), ("members", 0), ("members", 0, "basis"),
                 ("members", 0, "basis", "rows"), ("members", 0, "basis", "cols"),
                 ("members", 0, "basis", "data"), ("members", 0, "basis", "data", 0),
                 ("members", 0, "weight"), ("members", 0, "local_frame"),
                 ("members", 0, "local_frame", 0), ("members", 0, "local_frame", 0, 0),
                 ("members", 1, "weight")]
GENSPEC_FIELDS = [(), ("seed",), ("ambient_dim",), ("member_count",), ("dim_range",),
                  ("dim_range", 0), ("dim_range", 1), ("weight_range",), ("weight_range", 0),
                  ("weight_range", 1), ("flavor",)]


def _run_wire_file(obj, argv_for):
    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("always")
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for argv in argv_for(path, tmp):
            _cli(argv)
    runtime = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert runtime == []


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SYSTEM_FIELDS), json_values())
@example(("members", 0, "weight"), 10 ** 400)  # an integer beyond the float range
def test_system_file_with_any_field_replaced_exits_cleanly(path, value):
    def argv_for(system, tmp):
        eye = os.path.join(tmp, "eye.json")
        with open(eye, "w", encoding="utf-8") as fh:
            json.dump(linalg.matrix_to_json(np.eye(2)), fh)
        return (["verify", "--system", system, "--operator", eye],
                ["local-global", "--system", system])
    _run_wire_file(replaced_field(WIRE_SYSTEM, path, value), argv_for)


# Integers up to 10^12: sizes above generator.MAX_SIZE are rejected before
# anything is drawn, so no size asks for more memory than the cap allows.
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(GENSPEC_FIELDS), json_values(st.integers(-3, 10**12)))
@example(("ambient_dim",), 10**11)  # numpy's "array is too big", unless rejected first
@example(("member_count",), 10**12)  # uncapped, hours of drawing dimensions and weights
def test_genspec_file_with_any_field_replaced_exits_cleanly(path, value):
    _run_wire_file(replaced_field(WIRE_GENSPEC, path, value),
                   lambda spec, tmp: (["gen", "--spec", spec],))

"""Batch command-line front end.

Commands read systems, operators, vectors and GenSpecs from JSON files
with the wire readers (``linalg.json_*``), run one verification,
construction, decomposition or suite, and emit a text or JSON report.
Exit codes: 0 verified/pass, 1 refuted or hypothesis failed, 2
unreadable or malformed input.

Text reports print bounds with 12 significant digits; JSON reports carry
full binary64 values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import linalg, suite
from .constructions import (
    commuting_transform_construct,
    operator_image_construct,
    perturbation_estimate,
    perturbation_predict,
    within_predicted_bounds,
)
from .errors import InadmissibleError, InputError, NotPSDError, PreconditionError
from .fusion_systems import WeightedSubspaceSystem
from .generator import Flavor, GenSpec, generate
from .kfusion import atomic_decompose, kfusion_verify
from .vector_frames import local_to_global_check


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, deep nesting
        raise InputError(f"{path}: unreadable JSON: {exc}") from None


def _load_system(path: str) -> WeightedSubspaceSystem:
    return WeightedSubspaceSystem.from_json(_load_json(path), name=path)


def _load_matrix(path: str) -> np.ndarray:
    return linalg.matrix_from_json(_load_json(path), name=path)


def _load_vector(path: str) -> np.ndarray:
    return linalg.json_vector(_load_json(path), path)


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write ``text`` to ``path``; an OSError becomes InputError (exit 2)."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def _emit(report: dict, args, lines) -> None:
    """Write the report as JSON or as the prepared text lines, to ``--out``
    when given and to stdout otherwise."""
    payload = json.dumps(report, indent=2) if args.format == "json" else "\n".join(lines)
    if args.out:
        _write(args.out, payload + "\n")
    else:
        print(payload)


def _cmd_verify(args) -> int:
    system = _load_system(args.system)
    if args.operator:
        k = _load_matrix(args.operator)
        rep = kfusion_verify(system, k, args.tol)
        report = rep.to_json()
        lines = [
            f"verdict: {'verified' if rep.is_kff else 'refuted'}",
            f"lower: {_fmt(rep.optimal_lower)}",
            f"upper: {_fmt(rep.optimal_upper)}",
            f"residual: {_fmt(rep.residual)}",
        ]
        _emit(report, args, lines)
        return 0 if rep.is_kff else 1
    rep = system.fusion_bounds(args.tol)
    report = rep.to_json()
    lines = [
        f"verdict: {rep.verdict.value}",
        f"lower: {_fmt(rep.lower)}",
        f"upper: {_fmt(rep.upper)}",
    ]
    _emit(report, args, lines)
    return 0 if rep.verdict.is_frame() else 1


def _cmd_decompose(args) -> int:
    system = _load_system(args.system)
    k = _load_matrix(args.operator)
    f = _load_vector(args.vector)
    dec = atomic_decompose(system, k, f, args.tol)
    target = k @ f
    resid = linalg.norm(system.synthesis(dec.bundle) - target)
    rel = resid / max(linalg.norm(target), 1e-300)
    report = {
        "residual": resid,
        "relative_residual": rel,
        "constant": dec.constant,
        "bundle_norm": dec.bundle.norm(),
        "bundle": dec.bundle.to_json()["blocks"],
    }
    lines = [
        f"reconstruction residual: {_fmt(resid)} (relative {_fmt(rel)})",
        f"coefficient constant: {_fmt(dec.constant)}",
        f"bundle norm: {_fmt(dec.bundle.norm())}",
    ]
    for i, block in enumerate(dec.bundle.blocks):
        lines.append(f"block {i}: [" + ", ".join(_fmt(float(x)) for x in block) + "]")
    _emit(report, args, lines)
    return 0


def _cmd_transform(args) -> int:
    system = _load_system(args.system)
    k = _load_matrix(args.operator)
    if args.operator_t:
        t = _load_matrix(args.operator_t)
        rep = commuting_transform_construct(system, k, t, args.tol)
        report = rep.to_json()
        lines = [f"vacuous: {rep.vacuous}"]
        for name, h in rep.hypotheses.items():
            lines.append(f"hypothesis {name}: {'ok' if h.ok else 'failed'} (margin {_fmt(h.margin)})")
        if not rep.vacuous:
            lines.append(f"predicted: [{_fmt(rep.predicted_lower)}, {_fmt(rep.predicted_upper)}]")
            lines.append(
                f"optimal: [{_fmt(rep.report.optimal_lower)}, {_fmt(rep.report.optimal_upper)}]"
            )
            lines.append(f"consistent: {rep.bounds_consistent}")
        _emit(report, args, lines)
        return 0 if (not rep.vacuous and rep.bounds_consistent) else 1
    rep = operator_image_construct(system, k, args.tol)
    report = rep.to_json()
    lines = [
        f"hypothesis invariance: {'ok' if rep.hypothesis_ok else 'failed'} "
        f"(margin {_fmt(rep.hypothesis_margin)})",
        f"verified: {rep.report.is_kff}",
        f"lower: {_fmt(rep.report.optimal_lower)}",
        f"upper: {_fmt(rep.report.optimal_upper)}",
    ]
    _emit(report, args, lines)
    return 0 if (rep.hypothesis_ok and rep.report.is_kff) else 1


def _cmd_perturb(args) -> int:
    linalg.check_tol(args.tol)
    system = _load_system(args.system)
    perturbed = _load_system(args.system_b)
    params = perturbation_estimate(system, perturbed)
    if args.operator:
        k = _load_matrix(args.operator)
    else:
        k = np.eye(system.ambient_dim)
    base = kfusion_verify(system, k)
    if not base.is_kff:
        raise PreconditionError("reference system is refuted for the operator")
    a_ref = min(base.optimal_lower, base.optimal_upper)  # definitional pair
    report = {
        "params": params.to_json(),
        "reference": [a_ref, base.optimal_upper],
    }
    lines = [f"lambda1: {_fmt(params.lambda1)}"]
    try:
        a_new, b_new = perturbation_predict(a_ref, base.optimal_upper, params)
    except InadmissibleError as exc:
        report["admissible"] = False
        lines.append(f"inadmissible: {exc}")
        _emit(report, args, lines)
        return 1
    actual = kfusion_verify(perturbed, k)
    inside = within_predicted_bounds(actual, a_new, b_new, args.tol)
    report.update(
        {
            "admissible": True,
            "predicted": [a_new, b_new],
            "actual": [actual.optimal_lower, actual.optimal_upper],
            "inside": inside,
        }
    )
    lines += [
        f"predicted: [{_fmt(a_new)}, {_fmt(b_new)}]",
        f"actual: [{_fmt(actual.optimal_lower)}, {_fmt(actual.optimal_upper)}]",
        f"inside: {inside}",
    ]
    _emit(report, args, lines)
    return 0 if inside else 1


def _cmd_local_global(args) -> int:
    system = _load_system(args.system)
    rep = local_to_global_check(system, args.tol)
    report = rep.to_json()
    lines = [
        f"C: {_fmt(rep.c)}",
        f"D: {_fmt(rep.d)}",
        f"fusion: {rep.fusion.verdict.value} [{_fmt(rep.fusion.lower)}, {_fmt(rep.fusion.upper)}]",
        f"global: {rep.global_bounds.verdict.value} "
        f"[{_fmt(rep.global_bounds.lower)}, {_fmt(rep.global_bounds.upper)}]",
        f"local failure: {rep.local_failure}",
        f"equivalent: {rep.equivalent}",
        f"interval ok: {rep.interval_ok}",
    ]
    _emit(report, args, lines)
    return 0 if (not rep.local_failure and rep.equivalent and rep.interval_ok) else 1


def _parse_range(text: str, name: str, cast):
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"{name}: expected 'lo:hi', got {text!r}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError:
        raise InputError(f"{name}: expected numbers, got {text!r}") from None


def _cmd_gen(args) -> int:
    if args.spec:
        spec = GenSpec.from_json(_load_json(args.spec), name=args.spec)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:
        ranges = {}
        if args.dim_range:
            ranges["dim_range"] = _parse_range(args.dim_range, "--dim-range", int)
        if args.weight_range:
            ranges["weight_range"] = _parse_range(args.weight_range, "--weight-range", float)
        spec = GenSpec(0 if args.seed is None else args.seed, args.dim, args.members,
                       flavor=Flavor(args.flavor), **ranges)
    system, k = generate(spec)
    if args.system_out:
        _write(args.system_out, json.dumps(system.to_json(), indent=2) + "\n")
    if args.operator_out:
        if k is None:
            raise InputError(f"flavor {spec.flavor.value} produces no operator")
        _write(args.operator_out, json.dumps(linalg.matrix_to_json(k), indent=2) + "\n")
    if not (args.system_out or args.operator_out):
        report = {
            "spec": spec.to_json(),
            "system": system.to_json(),
            "operator": None if k is None else linalg.matrix_to_json(k),
        }
        _emit(report, args, [json.dumps(report, indent=2)])  # gen's text is its JSON
    return 0


def _cmd_check_all(args) -> int:
    if args.out:  # appending nothing: an unwritable path fails before any check runs
        _write(args.out, "", "a")
    results = suite.run_all(seed=args.seed, scale=args.scale)
    failures = sum(0 if r.passed else 1 for r in results)
    report = {
        "seed": args.seed,
        "failures": failures,
        "checks": [r.to_json() for r in results],
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ] + [f"failures: {failures}"]
    _emit(report, args, lines)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionframes",
        description="Weighted subspace frame laboratory: batch verification, "
        "constructions, decompositions and seeded property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=False, operator=False):
        if system:
            p.add_argument("--system", required=True, help="system JSON file")
        if operator:
            p.add_argument("--operator", help="operator matrix JSON file")
        p.add_argument("--tol", type=float, default=linalg.DEFAULT_VERDICT_TOL,
                       help="tolerance (default %(default)s)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report to this file")

    p = sub.add_parser("verify", help="verify a system, against an operator when given")
    common(p, system=True, operator=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bounds", help="optimal bounds and verdict (verify without --operator)")
    common(p, system=True)
    p.set_defaults(fn=_cmd_verify, operator=None)

    p = sub.add_parser("decompose", help="atomic decomposition of an image vector")
    common(p, system=True, operator=True)
    p.add_argument("--vector", required=True, help="vector JSON file (array of reals)")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser(
        "transform",
        help="transformed-system construction: with --operator-t the commuting "
        "transform with predicted bounds, otherwise the operator-image system",
    )
    common(p, system=True, operator=True)
    p.add_argument("--operator-t", dest="operator_t", help="transform matrix JSON file")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("perturb", help="perturbation estimate and predicted bounds")
    common(p, system=True, operator=True)
    p.add_argument("--system-b", dest="system_b", required=True, help="perturbed system JSON")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("local-global", help="local frames against the assembled global frame")
    common(p, system=True)
    p.set_defaults(fn=_cmd_local_global)

    p = sub.add_parser("gen", help="generate a reproducible instance")
    p.add_argument("--spec", help="GenSpec JSON file")
    p.add_argument("--seed", type=int, help="64-bit seed (overrides the spec file)")
    p.add_argument("--dim", type=int, default=8, help="ambient dimension")
    p.add_argument("--members", type=int, default=4, help="member count")
    p.add_argument("--flavor", default="arbitrary", choices=[f.value for f in Flavor])
    p.add_argument("--dim-range", dest="dim_range", help="subspace dimensions lo:hi")
    p.add_argument("--weight-range", dest="weight_range", help="weights lo:hi")
    p.add_argument("--out", help="write the combined JSON document here")
    p.add_argument("--system-out", dest="system_out", help="write the system JSON here")
    p.add_argument("--operator-out", dest="operator_out", help="write the operator JSON here")
    p.add_argument("--format", choices=("text", "json"), default="json",
                   help="accepted for uniformity; gen output is always JSON")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("check-all", help="run the seeded property-suite corpus")
    p.add_argument("--seed", type=int, default=1, help="master seed (default %(default)s)")
    p.add_argument("--scale", type=float, default=1.0, help="trial count multiplier")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write the report to this file")
    p.set_defaults(fn=_cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, NotPSDError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, InadmissibleError) as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

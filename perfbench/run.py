"""Benchmark command: one named workload, seeded, for a fixed time.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` runs whole rounds of the workload until
``--seconds`` have passed, checks every output against the numpy oracle
and prints the end-to-end metrics, each time normalized to the host's
nominal speed by a reference computation timed after every operation
(see ``calibrate.py``).  ``--trace 1`` runs one round untraced
(after a warm-up round) and the same round again with every layer wrapped,
and prints per-layer counts and self times (``--seconds`` is not used).  The last line of
standard output is the result as one JSON object; a copy, with the
environment, goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REF_WINDOW = 9  # references nearest to an operation that give its speed factor
BLAS_THREADS = "1"  # all load comes from one single-threaded process
IMPORT_SAMPLES = 3
# Functions whose self time is reported: those every workload reaches, so
# none of these reads zero.  The others report calls only.
SELF_TIMED = (
    "_kernels.jacobi_eigh", "_kernels.onesided_jacobi", "_kernels.fill_normals",
    "linalg.sym_eig", "linalg.svd", "linalg.pseudo_inverse", "linalg.sqrt_psd",
    "linalg.qr_orthonormalize", "linalg.operator_norm",
    "generator.generate", "generator.Rng.normals",
    "fusion_systems.frame_operator", "subspaces.Subspace.projection",
    "kfusion.kfusion_verify", "kfusion.douglas_factor",
)


def cpu_seconds():
    """CPU time of this process since it started plus that of its finished
    children.  Timings use it instead of the wall clock: on a shared
    virtual machine the wall clock also counts time the CPU was taken
    away (2x outliers on identical work), which CPU time does not."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tally:
    """Latencies and outcomes of the top-level operations of a run."""

    def __init__(self, reference=None):
        self.reference = reference  # run after every operation, if given
        self.records = []  # (label, latency, completed) of every attempted operation
        self.refs = []  # reference time after each operation
        self.busy = 0.0  # time inside all attempted operations
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def run_round(self, ops, tracer=None):
        from oracle import Wrong
        from workloads import Failed

        for label, run, check in ops:
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = cpu_seconds()
            try:
                result = run()
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            finally:
                if tracer is not None:
                    tracer.op = None
            latency = cpu_seconds() - t0
            self.busy += latency
            if self.reference is not None:
                self.refs.append(self.reference())
            if error is None:
                try:
                    check(result)
                except Failed as exc:
                    error = str(exc)
                except (Wrong, OSError, ValueError, KeyError, TypeError) as exc:
                    # an output that is missing or cannot be parsed is a wrong one
                    self.wrong += 1
                    self._note(f"WRONG {label}: {type(exc).__name__}: {exc}")
            if error is not None:
                self.failed += 1
                self._note(f"failed {label}: {error}")
            self.records.append((label, latency, error is None))

    def speed(self, i):
        """The host's speed around operation ``i``: nominal over measured
        reference time, the median of the references nearest to it."""
        lo = max(0, min(i - REF_WINDOW // 2, len(self.refs) - REF_WINDOW))
        return self.reference.nominal / statistics.median(self.refs[lo:lo + REF_WINDOW])

    def _note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _import_seconds():
    """Median time of a bare ``import fusionframes`` in fresh interpreters."""
    code = "import time; t = time.process_time(); import fusionframes; print(time.process_time() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def _environment(ff):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": bool(ff._kernels.HAVE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _untraced(workload_cls, seed, seconds):
    from calibrate import Reference

    workload = workload_cls(seed, str(OUT), in_process=False)
    setup_s = cpu_seconds()
    # set-up runs in this process on every workload, so its speed comes
    # from in-process references taken right after it
    setup_ref = Reference(child=False)
    setup_speed = setup_ref.nominal / statistics.median(setup_ref() for _ in range(REF_WINDOW))
    reference = Reference(workload_cls.CHILD_PROCESSES)
    tally = Tally(reference)
    start = time.perf_counter()
    round_index = 0
    try:
        # whole rounds until the run length is reached: a round count that
        # flips with small changes of speed would move the percentiles
        while time.perf_counter() - start < seconds:
            tally.run_round(workload.round(round_index))
            round_index += 1
    finally:
        workload.close()
    usage = resource.RUSAGE_CHILDREN if workload_cls.CHILD_PROCESSES else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    # every time at the host's nominal speed, as measured around it
    speeds = [tally.speed(i) for i in range(len(tally.records))]
    busy = sum(lat * v for (_, lat, _), v in zip(tally.records, speeds))
    by_label = {}
    for (label, lat, completed), v in zip(tally.records, speeds):
        if completed:
            by_label.setdefault(label, []).append(lat * v)
    lat = [x for values in by_label.values() for x in values]
    metrics = {
        "setup_s": (setup_s * setup_speed, "s"),
        "ops_per_s": (len(lat) / busy, "op/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * _percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    info = {
        "rounds": round_index,
        "completed": len(lat),
        "median_ms": {k: 1e3 * statistics.median(v) for k, v in by_label.items()},
        "speed": {"reference": reference.kind, "median": statistics.median(speeds),
                  "min": min(speeds), "max": max(speeds)},
        "unnormalized": {"setup_s": setup_s, "ops_per_s": len(lat) / tally.busy},
    }
    return tally, metrics, info


def _traced(workload_cls, seed, spans_path):
    from tracing import Tracer

    tally = Tally()
    tracer = Tracer()

    def one_round(traced):
        """CPU time inside the operations of one freshly built round."""
        if traced:
            tracer.install()
        before = tally.busy
        workload = workload_cls(seed, str(OUT), in_process=True)
        try:
            tally.run_round(workload.round(0), tracer if traced else None)
        finally:
            workload.close()
        return tally.busy - before

    one_round(False)  # warm-up, so the untraced reference is not a cold start
    plain_busy = one_round(False)
    traced_ops = tally.attempted
    traced_busy = one_round(True)
    traced_ops = tally.attempted - traced_ops
    calls, op_calls, self_s = tracer.summary()
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("linalg.sym_eig", "linalg.svd"):
        metrics[f"{name}.per_op"] = (op_calls[name] / traced_ops, "calls/op")
    metrics["linalg.sym_eig.repeat_calls"] = (tracer.repeat_calls, "count")
    metrics["cli.import_s"] = (_import_seconds(), "s")
    metrics["trace.overhead_s"] = (traced_busy - plain_busy, "s")
    tracer.dump(spans_path)
    return tally, metrics, {"spans": len(tracer.spans)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sweep", "decompose-reuse", "cli-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fusionframes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fusionframes'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import fusionframes as ff

    if Path(ff.__file__).resolve().parent != SRC / "fusionframes":
        print(f"error: fusionframes imported from {ff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, info = _traced(workload_cls, args.seed, f"{stem}.spans.jsonl")
    else:
        tally, metrics, info = _untraced(workload_cls, args.seed, args.seconds)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=_environment(ff), notes=tally.notes, **info)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for note in tally.notes:
        print(note, file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

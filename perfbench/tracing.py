"""Per-layer tracing that wraps package functions from the benchmark's side.

``Tracer.install()`` replaces each traced function by a wrapper in every
``fusionframes`` namespace that binds it (module attributes, names bound
by ``from ... import``, and class attributes for methods), so the source
tree is never modified.  Each call records one span ``[name, start, end,
parent, op]`` in memory: ``parent`` is the index of the enclosing traced
span (-1 at top level) and ``op`` the id of the top-level benchmark
operation it ran under (None during set-up); times are process CPU
seconds.  ``summary()`` reduces the spans to call counts and self times
(span duration minus the time covered by its direct child spans).
"""

import importlib
import json
import sys
import time

import numpy as np

# (module, attribute path) of every traced function, keyed by metric name.
TRACED = {
    "_kernels.jacobi_eigh": ("_kernels", "jacobi_eigh"),
    "_kernels.onesided_jacobi": ("_kernels", "onesided_jacobi"),
    "_kernels.fill_normals": ("_kernels", "fill_normals"),
    "linalg.sym_eig": ("linalg", "sym_eig"),
    "linalg.svd": ("linalg", "svd"),
    "linalg.pseudo_inverse": ("linalg", "pseudo_inverse"),
    "linalg.sqrt_psd": ("linalg", "sqrt_psd"),
    "linalg.qr_orthonormalize": ("linalg", "qr_orthonormalize"),
    "linalg.operator_norm": ("linalg", "operator_norm"),
    "linalg.matrix_rank": ("linalg", "matrix_rank"),
    "generator.generate": ("generator", "generate"),
    "generator.Rng.normals": ("generator", "Rng.normals"),
    "fusion_systems.frame_operator": ("fusion_systems", "WeightedSubspaceSystem.frame_operator"),
    "fusion_systems.fusion_bounds": ("fusion_systems", "WeightedSubspaceSystem.fusion_bounds"),
    "subspaces.Subspace.projection": ("subspaces", "Subspace.projection"),
    "subspaces.Subspace.image_under": ("subspaces", "Subspace.image_under"),
    "kfusion.kfusion_verify": ("kfusion", "kfusion_verify"),
    "kfusion.douglas_factor": ("kfusion", "douglas_factor"),
    "kfusion.refutation_witness": ("kfusion", "refutation_witness"),
    "kfusion.atomic_decompose": ("kfusion", "atomic_decompose"),
    "kfusion.frame_operator_chain_check": ("kfusion", "frame_operator_chain_check"),
    "constructions.commuting_transform_construct": ("constructions", "commuting_transform_construct"),
    "constructions.perturbation_estimate": ("constructions", "perturbation_estimate"),
    "vector_frames.local_to_global_check": ("vector_frames", "local_to_global_check"),
    "suite.run_all": ("suite", "run_all"),
    "cli.main": ("cli", "main"),
}

REPEAT_TRACKED = "linalg.sym_eig"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._seen = set()  # sym_eig inputs decomposed in the current op
        self._seen_op = None
        self.repeat_calls = 0

    def _note_input(self, matrix):
        if self.op is None:
            return
        if self._seen_op != self.op:
            self._seen, self._seen_op = set(), self.op
        try:
            a = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError):
            return  # the traced call rejects it itself
        key = (a.shape, a.tobytes())
        if key in self._seen:
            self.repeat_calls += 1
        else:
            self._seen.add(key)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time
        note = self._note_input if name == REPEAT_TRACKED else None

        def traced(*args, **kwargs):
            if note is not None and args:
                note(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function in TRACED wherever the package binds it."""
        for module, _ in TRACED.values():
            importlib.import_module(f"fusionframes.{module}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fusionframes" or n.startswith("fusionframes."))]
        for name, (module, path) in TRACED.items():
            owner = sys.modules[f"fusionframes.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            if cls_path:
                continue  # a method: the class attribute is its one binding
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self):
        """Counts and self times over all spans, plus calls inside ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(TRACED, 0)
        op_calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if op is not None:
                op_calls[name] += 1
        return calls, op_calls, self_s

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

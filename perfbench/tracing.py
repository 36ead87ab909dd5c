"""Spans around the calls into ksq's layers, recorded from outside.

The tracer replaces selected public functions and methods of the ksq
modules by wrappers that time each call.  ksq modules import each
other's functions by name (``from .pauli import star_square_coeffs``),
so a function is replaced in every ksq module namespace that holds it,
not only where it is defined.  Nothing in ksq is edited; ``uninstall``
puts the originals back.

A span is ``[name, parent, start, end, count, flag]``: count is the work
the call did (rows, matrices, samples or bytes) and flag a yes/no
outcome used by the ratio metrics.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct child spans (calls run one at a time, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

import numpy as np

NAME, PARENT, START, END, COUNT, FLAG = range(6)

# metric name -> unit; Tracer.metrics computes each from the spans
PER_LAYER = {
    "pauli.star_square_coeffs.rows": "count",
    "pauli.star_square_coeffs.self_s": "s",
    "pauli.to_matrix_batch.self_s": "s",
    "pauli.tensor_to_matrix_batch.self_s": "s",
    "linalg.min_eig_closed_form.matrices": "count",
    "linalg.min_eig_closed_form.self_s": "s",
    "linalg.min_eig_lapack.matrices": "count",
    "linalg.min_eig_lapack.self_s": "s",
    "linalg.jacobi.matrices": "count",
    "linalg.jacobi.self_s": "s",
    "channels.evaluate_batch.rows": "count",
    "channels.evaluate_batch.self_s": "s",
    "channels.choi.matrices": "count",
    "channels.choi.self_s": "s",
    "classify.classify_full.calls": "count",
    "classify.classify_full.self_s": "s",
    "classify.ks_phi_diag_exact.calls": "count",
    "classify.ks_phi_diag_exact.fast_path_ratio": "ratio",
    "classify.diag_ks_defect_supremum.calls": "count",
    "classify.diag_ks_defect_supremum.self_s": "s",
    "classify.positive_tensor.calls": "count",
    "classify.positive_tensor.self_s": "s",
    "classify.positive_tensor.exact_ratio": "ratio",
    "classify.ks_tensor_sufficient.self_s": "s",
    "classify.oracle_fallback.calls": "count",
    "oracle.sample_unit_sphere.samples": "count",
    "oracle.sample_unit_sphere.self_s": "s",
    "oracle.sample_unit_sphere.distinct_ratio": "ratio",
    "oracle.sample_unit_ball.samples": "count",
    "oracle.sample_unit_ball.self_s": "s",
    "oracle.ks_violation_search.calls": "count",
    "oracle.ks_violation_search.samples": "count",
    "oracle.ks_violation_search.self_s": "s",
    "oracle.positivity_violation_search.self_s": "s",
    "oracle.agreement_harness.self_s": "s",
    "cli.scan_flags.self_s": "s",
    "cli.write_scan_csv.bytes": "bytes",
    "cli.write_scan_csv.self_s": "s",
    "cli.write_scan_pgm.self_s": "s",
    "cli.verify_scan_against_choi.points": "count",
    "cli.verify_scan_against_choi.self_s": "s",
}


def _leading(a, trailing: int) -> int:
    """Number of stacked items in an array with `trailing` core dimensions."""
    shape = np.shape(a)
    return int(math.prod(shape[: len(shape) - trailing])) if len(shape) >= trailing else 1


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.draws = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, count=None, flag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = [span_name, stack[-1] if stack else -1, 0.0, 0.0, 0, False]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, out, span)
            if flag is not None:
                span[FLAG] = flag(args, kwargs, out)
            return out

        return traced

    def _replace(self, modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def install(self, ksq_root: str):
        """Wrap the layer functions of the ksq package loaded from ksq_root."""
        from ksq import channels, classify, cli, linalg, oracle, pauli  # noqa: F401

        modules = [m for n, m in sys.modules.items() if n == "ksq" or n.startswith("ksq.")]
        for mod in modules:
            path = getattr(mod, "__file__", "") or ""
            if not os.path.realpath(path).startswith(os.path.realpath(ksq_root)):
                raise RuntimeError(f"{mod.__name__} was not loaded from {ksq_root}")
        spans = self.spans

        def rows(args, kwargs, out, span):
            return _leading(args[1] if len(args) > 1 else kwargs["w"], 1)

        def matrices(args, kwargs, out, span):
            return _leading(args[0], 2)

        def choi_batch(args, kwargs, out, span):
            return len(out)

        def one(args, kwargs, out, span):
            return 1

        def draw(args, kwargs, out, span):
            self.draws.append((span[NAME], args[0], args[1]))
            return int(args[0])

        def eval_rows(args, kwargs, out, span):
            # closures call their base map's evaluate_batch: count rows once
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] == "channels.evaluate_batch":
                return 0
            return _leading(args[2] if len(args) > 2 else kwargs["w"], 1)

        def definitive(args, kwargs, out):
            return out.status.value != "holds_sufficient"

        def min_eig_name(args):
            n = np.shape(args[0])[-1]
            return "linalg.min_eig_closed_form" if n == 2 else "linalg.min_eig_lapack"

        def csv_bytes(args, kwargs, out, span):
            return os.path.getsize(args[0])

        def points(args, kwargs, out, span):
            return int(args[1])

        def samples(args, kwargs, out, span):
            cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
            return cfg.n_samples if cfg is not None else 10000  # SampleConfig() default

        targets = [
            (pauli, "star_square_coeffs", "pauli.star_square_coeffs", rows, None),
            (pauli, "to_matrix_batch", "pauli.to_matrix_batch", None, None),
            (pauli, "tensor_to_matrix_batch", "pauli.tensor_to_matrix_batch", None, None),
            (linalg, "batch_min_eigenvalue", min_eig_name, matrices, None),
            (linalg, "hermitian_eigenvalues", "linalg.jacobi", matrices, None),
            (channels, "choi_matrix_qubit", "channels.choi", one, None),
            (channels, "choi_matrix_tensor", "channels.choi", one, None),
            (channels, "choi_matrix_qubit_batch", "channels.choi", choi_batch, None),
            (channels, "choi_matrix_tensor_batch", "channels.choi", choi_batch, None),
            (classify, "classify_full", "classify.classify_full", one, None),
            (classify, "ks_phi_diag_exact", "classify.ks_phi_diag_exact", one, None),
            (classify, "diag_ks_defect_supremum", "classify.diag_ks_defect_supremum", one, None),
            (classify, "positive_tensor", "classify.positive_tensor", one, definitive),
            (classify, "ks_tensor_sufficient", "classify.ks_tensor_sufficient", one, None),
            (oracle, "sample_unit_sphere", "oracle.sample_unit_sphere", draw, None),
            (oracle, "sample_unit_ball", "oracle.sample_unit_ball", draw, None),
            (oracle, "ks_violation_search", "oracle.ks_violation_search", samples, None),
            (oracle, "positivity_violation_search", "oracle.positivity_violation_search", samples, None),
            (oracle, "agreement_harness", "oracle.agreement_harness", one, None),
            (cli, "scan_flags", "cli.scan_flags", None, None),
            (cli, "write_scan_csv", "cli.write_scan_csv", csv_bytes, None),
            (cli, "write_scan_pgm", "cli.write_scan_pgm", None, None),
            (cli, "verify_scan_against_choi", "cli.verify_scan_against_choi", points, None),
        ]
        for mod, attr, name, count, flag in targets:
            original = getattr(mod, attr)
            self._replace(modules, original, self._wrap(original, name, count, flag))
        for cls in (channels.QubitChannel, channels.TensorMap, channels.ConjugatedMap, channels.MixedMap):
            original = cls.evaluate_batch
            setattr(cls, "evaluate_batch", self._wrap(original, "channels.evaluate_batch", eval_rows))
            self._patched.append((cls, "evaluate_batch", original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def metrics(self) -> dict:
        """Every PER_LAYER metric over the spans recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for sid, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
                children[s[PARENT]].append(s[NAME])
        self_s, calls, counts, flags = {}, {}, {}, {}
        for sid, s in enumerate(spans):
            n = s[NAME]
            self_s[n] = self_s.get(n, 0.0) + (s[END] - s[START]) - child_time[sid]
            calls[n] = calls.get(n, 0) + 1
            counts[n] = counts.get(n, 0) + s[COUNT]
            flags[n] = flags.get(n, 0) + bool(s[FLAG])

        def ratio(num, den):
            return num / den if den else 0.0

        phi_calls = [i for i, s in enumerate(spans) if s[NAME] == "classify.ks_phi_diag_exact"]
        fast = sum("classify.diag_ks_defect_supremum" not in children[i] for i in phi_calls)
        fallbacks = sum(
            1
            for s in spans
            if s[NAME] == "oracle.ks_violation_search"
            and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "classify.classify_full"
        )
        sphere = [d for d in self.draws if d[0] == "oracle.sample_unit_sphere"]
        special = {
            "classify.ks_phi_diag_exact.fast_path_ratio": ratio(fast, len(phi_calls)),
            "classify.positive_tensor.exact_ratio": ratio(
                flags.get("classify.positive_tensor", 0), calls.get("classify.positive_tensor", 0)
            ),
            "classify.oracle_fallback.calls": fallbacks,
            "oracle.sample_unit_sphere.distinct_ratio": ratio(
                len({(n, seed) for _, n, seed in sphere}), len(sphere)
            ),
        }
        out = {}
        for metric, unit in PER_LAYER.items():
            if metric in special:
                value = special[metric]
            else:
                span_name, _, stat = metric.rpartition(".")
                if stat == "self_s":
                    value = self_s.get(span_name, 0.0)
                elif stat == "calls":
                    value = calls.get(span_name, 0)
                else:
                    value = counts.get(span_name, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str, t0: float):
        """Write the spans as JSON lines [name, parent, start_s, end_s, count]."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[PARENT], round(s[START] - t0, 9),
                                     round(s[END] - t0, 9), s[COUNT]]) + "\n")

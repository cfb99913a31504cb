"""Spans and work counts recorded from outside ncrkhs.

:meth:`Tracer.install` rebinds each timed function in *every* ``ncrkhs``
module namespace that holds it (``kernels`` does ``from .series import
evaluate``, so patching ``series.evaluate`` alone would miss its calls), in
the classes that define the timed methods, and in ``numpy.linalg``.  Each
call becomes a span (layer, start, end, parent span, job); spans stay in
memory, in a flat integer array that the garbage collector never scans, and
are written by :meth:`Tracer.dump`.  Self time is derived
afterwards by :func:`job_totals`: a span's duration minus that of its direct
children.

Work counts that need the call's arguments (series terms, distinct
(series, point) pairs, matrix sizes) keep references during a job and are
computed in :meth:`Tracer.end_job`, outside every span, so hashing never
lands in a layer's time.
"""

from __future__ import annotations

import functools
import hashlib
from array import array
import json
import sys
import time

import numpy as np

# (module, attribute, layer).  An attribute "Class.method" patches the class.
TARGETS = [
    ("ncrkhs.core", "kron", "core.kron"),
    ("ncrkhs.core", "word_eval", "core.word_eval"),
    ("ncrkhs.core", "psd_factor", "core.psd_factor"),
    ("ncrkhs.series", "evaluate", "series.evaluate"),
    ("ncrkhs.series", "nilpotency_order", "series.nilpotency_order"),
    ("ncrkhs.kernels", "MomentKernel.evaluate", "kernels.evaluate"),
    ("ncrkhs.kernels", "KolmogorovKernel.evaluate", "kernels.evaluate"),
    ("ncrkhs.kernels", "GramBasisKernel.evaluate", "kernels.evaluate"),
    ("ncrkhs.kernels", "CallableKernel.evaluate", "kernels.evaluate"),
    ("ncrkhs.kernels", "cp_certificate", "kernels.cp_certificate"),
    ("ncrkhs.kernels", "kolmogorov_at_sample", "kernels.kolmogorov_at_sample"),
    ("ncrkhs.formal", "moment_matrix", "formal.moment_matrix"),
    ("ncrkhs.formal", "formal_kolmogorov_truncated", "formal.formal_kolmogorov_truncated"),
    ("ncrkhs.formal", "nilpotent_positivity_check", "formal.nilpotent_positivity_check"),
    ("ncrkhs.rkhs", "RkhsModel.__init__", "rkhs.RkhsModel.init"),
    ("ncrkhs.rkhs", "lifted_norm", "rkhs.lifted_norm"),
    ("ncrkhs.multipliers", "contractivity_certificate", "multipliers.contractivity_certificate"),
    ("ncrkhs.multipliers", "brangesian_complement", "multipliers.brangesian"),
    *[("ncrkhs.cpmaps", name, "cpmaps") for name in (
        "choi", "is_cp", "stinespring", "cb_norm_cp", "effros_ruan_lower_bound",
        "sampled_amplified_positivity", "CpMap.apply_amplified")],
    *[("ncrkhs.serialize", name, "serialize.decode") for name in (
        "decode_matrix", "decode_tuple", "decode_series", "decode_kernel", "decode_formal_kernel",
        "decode_model", "decode_cp_map")],
    *[("ncrkhs.serialize", name, "serialize.encode") for name in (
        "encode_matrix", "encode_tuple", "encode_series", "encode_kernel", "dumps_canonical")],
    ("ncrkhs.cli", "build_parser", "cli.build_parser"),
    ("ncrkhs.cli", "main", "cli.main"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
]

# Recursive functions are rebound only outside their own module, so the
# span is the outermost call and the recursion itself runs untraced.
RECURSIVE = {("ncrkhs.serialize", "dumps_canonical")}

# Work counts reduced across jobs by max; every other count is summed.
MAX_COUNTS = ("series.nilpotency_order.max_n", "linalg.eigh.max_dim", "kernels.gram_dim.max")


def _digest(arrays, prefix: bytes = b"") -> bytes:
    h = hashlib.blake2b(prefix, digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _point_key(z):
    return (z.n, _digest(z.coords))


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.spans = array("q")   # five integers per span
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[int, dict] = {}
        self._patches: list = []
        self._pending: dict[str, list] = {}

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self._pending = {"evaluate": [], "nilpotency": [], "eigh": [], "gram": []}

    def end_job(self) -> None:
        """Reduce the references kept during the job to exact work counts."""
        pending, self._pending = self._pending, {}
        series_keys: dict[int, bytes] = {}

        def series_key(f):
            key = series_keys.get(id(f))
            if key is None:
                key = series_keys[id(f)] = _digest(f.terms.values(), repr(list(f.terms)).encode())
            return key

        evaluated = pending["evaluate"]
        nilpotent = pending["nilpotency"]
        self.counts[self.job] = {
            "series.evaluate.terms": sum(len(f.terms) for f, _ in evaluated),
            "series.evaluate.distinct": len({(series_key(f), _point_key(z)) for f, z in evaluated}),
            "series.nilpotency_order.distinct": len({_point_key(z) for z in nilpotent}),
            "series.nilpotency_order.max_n": max((z.n for z in nilpotent), default=0),
            "linalg.eigh.max_dim": max(pending["eigh"], default=0),
            "kernels.gram_dim.max": max(pending["gram"], default=0),
        }

    # -- argument hooks (cheap: they only keep references) -------------------

    def _on_evaluate(self, args):
        self._pending["evaluate"].append((args[0], args[1]))

    def _on_nilpotency(self, args):
        self._pending["nilpotency"].append(args[0])

    def _on_eigh(self, args):
        self._pending["eigh"].append(int(np.shape(args[0])[-1]))

    def _on_kolmogorov(self, args):
        kernel, points = args[0], args[1]
        self._pending["gram"].append(sum(z.n * z.n for z in points) * kernel.y_dim)

    def _on_certificate(self, result):
        self._pending["gram"].append(int(result.sample_description["gram_dim"]))

    # -- patching ------------------------------------------------------------

    def _wrap(self, layer: str, fn, on_call=None, on_return=None):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None and tracer._pending:
                on_call(args)
            idx = len(spans) // 5
            spans.extend((layer_id, 0, 0, stack[-1] if stack else -1, tracer.job))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[5 * idx + 1] = start
                spans[5 * idx + 2] = end
            if on_return is not None and tracer._pending:
                on_return(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target wherever ncrkhs (or numpy.linalg) holds it."""
        hooks = {
            "series.evaluate": (self._on_evaluate, None),
            "series.nilpotency_order": (self._on_nilpotency, None),
            "linalg.eigh": (self._on_eigh, None),
            "kernels.kolmogorov_at_sample": (self._on_kolmogorov, None),
            "kernels.cp_certificate": (None, self._on_certificate),
        }
        namespaces = [m for name, m in sys.modules.items() if name == "ncrkhs" or name.startswith("ncrkhs.")]
        for module_name, attr, layer in TARGETS:
            home = sys.modules[module_name]
            on_call, on_return = hooks.get(layer, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[method]
                self._patches.append((cls, method, orig))
                setattr(cls, method, self._wrap(layer, orig, on_call, on_return))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(layer, orig, on_call, on_return)
            holders = namespaces + ([home] if home not in namespaces else [])
            for mod in holders:
                if (module_name, attr) in RECURSIVE and mod is home:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._patches):
            setattr(holder, name, orig)
        self._patches = []

    def dump(self, path: str, extra: dict | None = None) -> None:
        spans = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5)
        meta = {"layers": self.layers, "counts": {str(k): v for k, v in self.counts.items()}, **(extra or {})}
        np.savez(path, spans=spans, meta=np.array(json.dumps(meta)))


# ---------------------------------------------------------------------------
# reading a dump
# ---------------------------------------------------------------------------

def load(path: str):
    with np.load(path) as data:
        return data["spans"], json.loads(data["meta"].item())


def job_totals(spans: np.ndarray, layers: list[str]) -> dict[int, dict[str, float]]:
    """Per job and layer: calls, inclusive ms of the outermost spans, and self ms."""
    out: dict[int, dict[str, float]] = {}
    if spans.size == 0:
        return out
    layer, start, end, parent, job = spans.T
    dur = end - start
    nested = parent >= 0
    self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    jobs, job_idx = np.unique(job, return_inverse=True)
    for j in jobs:
        out[int(j)] = {}
    for lid, name in enumerate(layers):
        sel = np.flatnonzero(layer == lid)
        if sel.size == 0:
            continue
        # spans are stored in call order; a span is outermost for its layer
        # when it starts after every earlier span of the layer has ended
        prev_end = np.concatenate([[np.iinfo(np.int64).min], np.maximum.accumulate(end[sel])[:-1]])
        outer = start[sel] >= prev_end
        ji = job_idx[sel]
        calls = np.bincount(ji, minlength=len(jobs))
        incl = np.bincount(ji[outer], weights=dur[sel][outer], minlength=len(jobs))
        own = np.bincount(ji, weights=self_ns[sel], minlength=len(jobs))
        for k, j in enumerate(jobs):
            if calls[k]:
                totals = out[int(j)]
                totals[f"{name}.calls"] = int(calls[k])
                totals[f"{name}.ms"] = incl[k] / 1e6
                totals[f"{name}.self_ms"] = own[k] / 1e6
    return out

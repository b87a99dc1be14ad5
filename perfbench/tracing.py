"""Spans around the calls into each exae module, recorded from outside.

The tracer replaces a module attribute with a timing wrapper under the
name its caller looks up (``exae.autoencoder.affine_forward`` is what
``autoencoder._forward`` calls, ``exae.stacking.total_loss`` is what
``fine_tune`` calls), so the program runs unmodified. Each wrapped call
records a span (id, parent id, op id, name, start, end) in memory; self
time is the span's duration minus the durations of its direct children.
Spans are written out once, when the run ends.

Per-layer extras (work counts, live-row fractions, per-batch latency
percentiles) are recomputed from each call's arguments and result after
its span closes, so they are not charged to the layer's own time.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from exae import autoencoder, dataio, evalharness, exclusivity, stacking


def _rows(a) -> int:
    return int(np.shape(getattr(a, "examples", a))[0])


def _pairs(count, parent, args, kwargs, result):
    count("pairs", _rows(args[0]) ** 2)


def _live_targets(count, parent, args, kwargs, result):
    hetero, homo = result
    eps = exclusivity.DEGENERATE_EPS
    live = (np.linalg.norm(hetero, axis=1) >= eps) & (np.linalg.norm(homo, axis=1) >= eps)
    count("live_rows", int(live.sum()))
    count("rows", live.size)


def _live_loss(count, parent, args, kwargs, result):
    latent, enc_hetero, enc_homo = args[:3]
    eps = kwargs.get("eps", args[3] if len(args) > 3 else exclusivity.DEGENERATE_EPS)
    live = np.linalg.norm(latent, axis=1) >= eps
    for proto in (enc_hetero, enc_homo):
        live &= np.linalg.norm(exclusivity.omega(proto - latent), axis=1) >= eps
    count("live_rows", int(live.sum()))
    count("rows", live.size)


def _gflop(factor):
    def extra(count, parent, args, kwargs, result):
        layer, x = args[0], args[1]
        count("gflop", factor * x.shape[0] * layer.in_dim * layer.out_dim / 1e9)

    return extra


def _clipped(count, parent, args, kwargs, result):
    count("clipped", int(result is not args[1]))


def _features(count, parent, args, kwargs, result):
    rows = _rows(args[1])
    count("rows", rows)
    if parent == "eval.queries":
        count("queries", rows)


def _knn(count, parent, args, kwargs, result):
    count("rows", _rows(args[0]))
    count("queries", _rows(args[2]))


def _file_bytes(position):
    def extra(count, parent, args, kwargs, result):
        count("bytes", Path(args[position]).stat().st_size)

    return extra


def _split_rows(count, parent, args, kwargs, result):
    count("rows", _rows(args[0]))


# (module, attribute, reported layer name, extra recorder). One layer name
# may be wrapped under several attributes when several callers import it.
PATCH_POINTS = [
    (dataio, "split_per_class", "dataio.split_per_class", _split_rows),
    (exclusivity, "build_context", "exclusivity.build_context", _pairs),
    (exclusivity, "batch_targets", "exclusivity.batch_targets", _live_targets),
    (exclusivity, "exclusivity_loss", "exclusivity.exclusivity_loss", _live_loss),
    (autoencoder, "total_loss", "autoencoder.total_loss", None),
    (stacking, "total_loss", "autoencoder.total_loss", None),
    (stacking, "train", "autoencoder.train", None),
    (stacking, "train_stack", "stacking.train_stack", None),
    (stacking, "fine_tune", "stacking.fine_tune", None),
    (autoencoder, "affine_forward", "numkit.affine_forward", _gflop(2)),
    # backward recomputes z = x @ W.T + b before its two gradient GEMMs
    (autoencoder, "affine_backward", "numkit.affine_backward", _gflop(6)),
    (autoencoder, "sgd_step", "numkit.sgd_step", None),
    (stacking, "sgd_step", "numkit.sgd_step", None),
    (stacking, "project_to_band", "stacking.project_to_band", _clipped),
    (evalharness, "extract_features", "evalharness.extract_features", _features),
    (evalharness, "knn_classify", "evalharness.knn_classify", _knn),
    (evalharness, "load_checkpoint", "evalharness.load_checkpoint", _file_bytes(0)),
    (evalharness, "save_checkpoint", "evalharness.save_checkpoint", _file_bytes(1)),
]

LAYERS = list(dict.fromkeys(name for _, _, name, _ in PATCH_POINTS))

# extras reported per layer, beside .calls, .s and .self_s
EXTRAS = {
    "dataio.split_per_class": ["rows"],
    "exclusivity.build_context": ["pairs"],
    "exclusivity.batch_targets": ["live_row_frac"],
    "exclusivity.exclusivity_loss": ["live_row_frac"],
    "autoencoder.total_loss": ["ms.p50", "ms.p99"],
    "numkit.affine_forward": ["gflop"],
    "numkit.affine_backward": ["gflop"],
    "stacking.project_to_band": ["clipped"],
    "evalharness.extract_features": ["queries", "rows"],
    "evalharness.knn_classify": ["queries", "rows"],
    "evalharness.load_checkpoint": ["bytes"],
    "evalharness.save_checkpoint": ["bytes"],
}

SETUP = "setup"


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (id, parent id, op id, name, start, end)
        self._ids = itertools.count()
        self._stack = []  # open spans: [id, name, child seconds]
        self._saved = []
        self.op = SETUP
        # per kind ("op" or "setup"): layer -> [calls, seconds, self seconds]
        self.totals = {kind: defaultdict(lambda: [0, 0.0, 0.0]) for kind in ("op", SETUP)}
        self.counts = {kind: defaultdict(float) for kind in ("op", SETUP)}
        self.loss_ms = []
        self.units = {"op": 0, SETUP: 0}

    # -- spans -------------------------------------------------------------

    def _kind(self):
        return SETUP if self.op == SETUP else "op"

    @contextmanager
    def span(self, name, layer=True):
        """Record one span; layer=False keeps it out of the per-layer totals."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            self.spans.append((sid, parent[0] if parent else -1, self.op, name, start, end))
            if layer:
                tot = self.totals[self._kind()][name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[2]
                if name == "autoencoder.total_loss":
                    self.loss_ms.append(1e3 * dur)

    def count(self, layer, key, value):
        self.counts[self._kind()][f"{layer}.{key}"] += value

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, extra):
        tracer = self

        def count(key, value):
            tracer.count(name, key, value)

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if extra is not None:
                parent = tracer._stack[-1][1] if tracer._stack else None
                extra(count, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, extra in PATCH_POINTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, extra))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def unit(self, op):
        """Trace one op (an int id) or one set-up repetition (SETUP)."""
        self.op = op
        self.units[self._kind()] += 1
        self.install()
        try:
            with self.span("op" if op != SETUP else SETUP, layer=False):
                yield
        finally:
            self.uninstall()
            self.op = SETUP

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values, each averaged over the traced units it ran in.

        Set-up calls (save_checkpoint on eval-large) are averaged over the
        traced set-up repetitions, op calls over the traced ops.
        """
        out = {}
        for layer in LAYERS:
            calls = secs = self_secs = 0.0
            for kind, units in self.units.items():
                if units:
                    c, s, ss = self.totals[kind].get(layer, (0, 0.0, 0.0))
                    calls += c / units
                    secs += s / units
                    self_secs += ss / units
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = secs
            out[f"{layer}.self_s"] = self_secs
            for extra in EXTRAS.get(layer, []):
                out[f"{layer}.{extra}"] = self._extra(layer, extra)
        out["trace.spans"] = len(self.spans) / max(1, sum(self.units.values()))
        return out

    def _extra(self, layer, extra):
        if extra == "live_row_frac":
            rows = self._sum(f"{layer}.rows")
            return self._sum(f"{layer}.live_rows") / rows if rows else 0.0
        if extra.startswith("ms."):
            if not self.loss_ms:
                return 0.0
            return float(np.percentile(self.loss_ms, float(extra[4:])))
        total = 0.0
        for kind, units in self.units.items():
            if units:
                total += self.counts[kind].get(f"{layer}.{extra}", 0.0) / units
        return total

    def _sum(self, key):
        return sum(c.get(key, 0.0) for c in self.counts.values())

    def write_spans(self, path) -> None:
        lines = ["id,parent,op,name,start_s,end_s"]
        t0 = min((s[4] for s in self.spans), default=0.0)
        for sid, parent, op, name, start, end in self.spans:
            lines.append(f"{sid},{parent},{op},{name},{start - t0:.9f},{end - t0:.9f}")
        Path(path).write_text("\n".join(lines) + "\n")

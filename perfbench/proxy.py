"""Seeded, MNIST-shaped sparse proxy data for timing runs.

Each class is a template of a few polyline strokes on a 28x28 canvas.
Every example redraws its class template with jittered control points, a
random shift, stroke width and brightness, then quantises to 1/255 like
8-bit scans. About three quarters of the pixels are exactly zero, as in
MNIST. The proxy stands in for MNIST's shape and sparsity only: it is
not a substitute for the real digits in any accuracy gate.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
STROKES = 3  # polylines per class template
POINTS = 3  # control points per polyline


def _segment_dist2(px, py, a, b):
    """Squared distance from every pixel centre to segment a-b, per row.

    px and py are (1, P) pixel coordinates; a and b are (R, 2) end points.
    Returns (R, P).
    """
    ax, ay = a[:, :1], a[:, 1:]
    abx, aby = b[:, :1] - ax, b[:, 1:] - ay
    length2 = np.maximum(abx * abx + aby * aby, 1e-12)
    dx, dy = px - ax, py - ay
    t = np.clip((dx * abx + dy * aby) / length2, 0.0, 1.0)
    ex, ey = dx - t * abx, dy - t * aby
    return ex * ex + ey * ey


def stroke_proxy(classes: int, per_class: int, seed: int):
    """(examples, labels): classes * per_class rows of 784 values in [0, 1].

    Rows are grouped by class, labels are 0..classes-1. The same seed gives
    the same bytes.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    px = xx.reshape(1, -1).astype(np.float64)
    py = yy.reshape(1, -1).astype(np.float64)
    blocks, labels = [], []
    for cls in range(classes):
        template = rng.uniform(6.0, 21.0, size=(STROKES, POINTS, 2))
        shift = rng.uniform(-2.0, 2.0, size=(per_class, 1, 1, 2))
        points = template[None] + shift + rng.normal(0.0, 1.2, size=(per_class, STROKES, POINTS, 2))
        width = rng.uniform(0.9, 1.7, size=(per_class, 1))
        bright = rng.uniform(0.75, 1.0, size=(per_class, 1))
        dist2 = np.full((per_class, px.shape[1]), np.inf)
        for s in range(STROKES):
            for p in range(POINTS - 1):
                seg = _segment_dist2(px, py, points[:, s, p], points[:, s, p + 1])
                np.minimum(dist2, seg, out=dist2)
        dist = np.sqrt(dist2)
        ink = np.clip(1.0 - (dist - width) / 1.0, 0.0, 1.0) * bright
        blocks.append(np.round(ink * 255.0) / 255.0)
        labels.append(np.full(per_class, cls, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)

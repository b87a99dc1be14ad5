"""Output checks run after each timed op, outside its timing.

Every check returns a list of failure messages; an empty list passes. An
op with any failure counts towards ``failed`` in the result line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from exae import evalharness, exclusivity

# rows and queries compared against the scalar oracles per op; row 0 is
# always among them so a corrupted first row is always seen
SAMPLE = 32
# relative slack on the LossBreakdown identities, which hold exactly today
IDENTITY_TOL = 1e-12
# slack on the band edges, as in the band-invariant acceptance gate
BAND_TOL = 1e-9


def sample_indices(n: int, seed: int) -> list:
    """Row 0 plus a seeded sample, all rows when n <= SAMPLE."""
    if n <= SAMPLE:
        return list(range(n))
    rng = np.random.default_rng(seed)
    rest = rng.choice(np.arange(1, n), size=SAMPLE - 1, replace=False)
    return [0] + sorted(int(i) for i in rest)


def loss_records(history, phase: str) -> list:
    """Finite fields and both LossBreakdown identities on every epoch record."""
    errors = []
    for epoch, b in enumerate(history):
        values = [b.recon, b.hetero_sim, b.homo_sim, b.excl, b.total]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"{phase} epoch {epoch}: non-finite loss {values}")
            continue
        excl = b.hetero_sim + (1.0 - b.homo_sim)
        total = b.recon + b.weight * b.excl
        if abs(b.excl - excl) > IDENTITY_TOL * max(1.0, abs(excl)):
            errors.append(f"{phase} epoch {epoch}: excl {b.excl!r} != {excl!r}")
        if abs(b.total - total) > IDENTITY_TOL * max(1.0, abs(total)):
            errors.append(f"{phase} epoch {epoch}: total {b.total!r} != {total!r}")
    return errors


def band(finetune_history, band_width: float) -> list:
    """Every post-projection ratio inside [1 - band, 1 + band]."""
    lo = 0.0 if band_width >= 1.0 else 1.0 - band_width
    hi = 1.0 + band_width
    errors = []
    for epoch, fe in enumerate(finetune_history):
        for layer, r in enumerate(fe.ratios):
            if not lo - BAND_TOL <= r <= hi + BAND_TOL:
                errors.append(f"finetune epoch {epoch} layer {layer}: ratio {r!r} outside band")
    return errors


def neighbor_tables(tables, seed: int) -> list:
    """Sampled table rows equal exclusivity.top_m_neighbors, exactly.

    tables holds (dataset, m, context) for every table the op built.
    """
    errors = []
    for level, (data, m, ctx) in enumerate(tables, start=1):
        for j in sample_indices(data.shape[0], seed + level):
            want = exclusivity.top_m_neighbors(data, j, m)
            got = [int(i) for i in ctx.neighbors[j]]
            if got != want:
                errors.append(f"table {level} row {j}: {got} != oracle {want}")
    return errors


def _oracle_knn(train, labels, query, k):
    """One euclidean query by brute force, with knn_classify's documented
    tie rules: distance ties go to the lower index, vote ties to the smaller
    summed distance, then to the lower label."""
    d = np.sum((train - query) ** 2, axis=1)
    order = sorted(range(len(d)), key=lambda i: (d[i], i))[:k]
    tally = {}
    for i in order:
        cnt, tot = tally.get(int(labels[i]), (0, 0.0))
        tally[int(labels[i])] = (cnt + 1, tot + d[i])
    return min(tally, key=lambda lbl: (-tally[lbl][0], tally[lbl][1], lbl))


def knn(train, labels, queries, predicted, k, seed) -> list:
    """Sampled euclidean predictions equal the brute-force oracle."""
    errors = []
    for q in sample_indices(queries.shape[0], seed):
        want = _oracle_knn(train, labels, queries[q], k)
        if int(predicted[q]) != want:
            errors.append(f"query {q}: predicted {int(predicted[q])}, oracle {want}")
    return errors


def same_model(a, b) -> list:
    """Bit-exact equality of two StackedModels: parameters, tags, snapshots."""
    errors = []
    models_a = list(a.levels) + [a.assembled]
    models_b = list(b.levels) + [b.assembled]
    if len(models_a) != len(models_b):
        return [f"{len(models_b)} models, expected {len(models_a)}"]
    for mi, (ma, mb) in enumerate(zip(models_a, models_b)):
        if len(ma.layers) != len(mb.layers):
            errors.append(f"model {mi}: layer count differs")
            continue
        for li, (la, lb) in enumerate(zip(ma.layers, mb.layers)):
            same = (
                la.activation == lb.activation
                and la.weight.tobytes() == lb.weight.tobytes()
                and la.bias.tobytes() == lb.bias.tobytes()
            )
            if not same:
                errors.append(f"model {mi} layer {li}: not bit-exact after reload")
    if [float(s) for s in a.snapshots] != [float(s) for s in b.snapshots]:
        errors.append("snapshots differ after reload")
    return errors


def checkpoint_round_trip(stacked, path, corrupt=None) -> list:
    """save_checkpoint then load_checkpoint gives the same model, bit for bit.

    corrupt, when given, is called with the file path between the two.
    """
    evalharness.save_checkpoint(stacked, path)
    if corrupt is not None:
        corrupt(path)
    try:
        loaded = evalharness.load_checkpoint(path)
    except evalharness.CheckpointError as err:
        return [f"checkpoint reload refused: {err}"]
    return same_model(stacked, loaded)


def repeat_metrics(first, again, workdir) -> list:
    """write_metrics output of two runs of one arm, byte for byte.

    first and again are (pretrain histories, fine-tune history, accuracy).
    """
    written = []
    for tag, (pre, ft, acc) in (("first", first), ("again", again)):
        rec = evalharness.MetricsRecord(trial=0, pretrain=pre, finetune=ft, accuracy=acc, seconds=0.0)
        path = Path(workdir) / f"metrics-{tag}.csv"
        evalharness.write_metrics([rec], path)
        written.append(path.read_bytes())
    return [] if written[0] == written[1] else ["repeated arm: write_metrics output differs"]

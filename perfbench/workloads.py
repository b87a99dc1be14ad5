"""The workloads: seeded inputs, one timed op each, and its checks.

Every call into exae goes through a module attribute (``stacking.fine_tune``,
not a name imported here), so the tracer's wrappers see it. The calls
follow the order of ``evalharness.run_trial``: split, pretrain, fine-tune,
features for train and queries, k-NN.

Arm seeds are derived from the run seed, so the same seed gives the same
inputs and the same arms.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from proxy import stroke_proxy
from exae import autoencoder, dataio, evalharness, exclusivity, stacking

def no_span(name):
    return nullcontext()


@dataclass
class Arm:
    """What one arm (or eval pass) measured and produced."""

    pretrain_s: float = 0.0
    finetune_s: float = 0.0
    eval_s: float = 0.0
    train_rows: int = 0  # rows x epochs over every SGD phase
    queries: int = 0
    accuracy: float = 0.0
    zero_row_frac: float = 0.0
    dead_unit_frac: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def train_s(self) -> float:
        return self.pretrain_s + self.finetune_s


def code_facts(arm: Arm, codes) -> None:
    """Collapse facts on the training codes: all-zero rows, dead units."""
    dead = codes == 0.0
    arm.zero_row_frac = float(dead.all(axis=1).mean())
    arm.dead_unit_frac = float(dead.all(axis=0).mean())


def flip_parameter_byte(path) -> None:
    """Corrupt one byte of a checkpoint's parameter block."""
    buf = bytearray(Path(path).read_bytes())
    buf[-12] ^= 0x5A
    Path(path).write_bytes(bytes(buf))


class Workload:
    """Base: seeded set-up, timed ops, per-op and per-run checks.

    corrupt names one output to falsify on purpose ("neighbor", "knn" or
    "checkpoint"); the self-test uses it to show that the checks count the
    damage.
    """

    def __init__(self, seed: int, scale: str, workdir: Path, corrupt: str | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.corrupt = corrupt
        self.tables = []  # (dataset, m, context) built during the current op
        self._real_build_context = exclusivity.build_context

    # neighbor tables are captured for the checks in every run, traced or not
    def __enter__(self):
        real = self._real_build_context

        def capture(dataset, m):
            ctx = real(dataset, m)
            if self.corrupt == "neighbor":
                ctx.neighbors[0] = ctx.neighbors[0][::-1].copy()
            self.tables.append((np.asarray(dataset, dtype=np.float64), m, ctx))
            return ctx

        exclusivity.build_context = capture
        return self

    def __exit__(self, *exc):
        exclusivity.build_context = self._real_build_context

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, span) -> list:
        """Run op i; returns (arm, record, outputs, check seed) per arm it ran."""
        raise NotImplementedError

    def check(self, arms) -> None:
        """Append each arm's check failures to its errors."""
        for arm, record, outputs, seed in arms:
            self._check_trained(arm, record, outputs, seed)

    def _knn(self, train_feats, labels, query_feats, k):
        pred = evalharness.knn_classify(train_feats, labels, query_feats, k, "euclidean")
        if self.corrupt == "knn":
            pred = pred.copy()
            pred[0] = (pred[0] + 1) % (int(labels.max()) + 1)
        return pred

    def _trained_arm(self, cfg, train, test, k, span) -> tuple:
        """Pretrain, fine-tune and evaluate one arm on an existing split."""
        self.tables = []  # drop tables a failed arm may have left
        arm = Arm()
        t0 = time.perf_counter()
        with span("phase.pretrain"):
            stacked, pre_hist = stacking.train_stack(cfg, train.examples)
        t1 = time.perf_counter()
        with span("phase.finetune"):
            stacked, ft_hist = stacking.fine_tune(stacked, train.examples, cfg)
        t2 = time.perf_counter()
        with span("phase.eval"):
            with span("eval.train"):
                train_feats = evalharness.extract_features(stacked, train)
            with span("eval.queries"):
                query_feats = evalharness.extract_features(stacked, test)
            pred = self._knn(train_feats, train.labels, query_feats, k)
        t3 = time.perf_counter()
        arm.pretrain_s, arm.finetune_s, arm.eval_s = t1 - t0, t2 - t1, t3 - t2
        epochs = sum(level.epochs for level in cfg.levels) + cfg.finetune_epochs
        arm.train_rows = train.n * epochs
        arm.queries = test.n
        arm.accuracy = evalharness.accuracy(pred, test.labels)
        code_facts(arm, train_feats)
        record = (pre_hist, ft_hist, arm.accuracy)
        tables, self.tables = self.tables, []
        return arm, record, (stacked, tables, train_feats, query_feats, pred, train, k)

    def _check_trained(self, arm, record, outputs, check_seed) -> None:
        pre_hist, ft_hist, _ = record
        stacked, tables, train_feats, query_feats, pred, train, k = outputs
        for level, history in enumerate(pre_hist, start=1):
            arm.errors += checks.loss_records(history, f"pretrain level {level}")
        arm.errors += checks.loss_records([fe.loss for fe in ft_hist], "finetune")
        arm.errors += checks.band(ft_hist, self.band)
        arm.errors += checks.neighbor_tables(tables, check_seed)
        arm.errors += checks.knn(train_feats, train.labels, query_feats, pred, k, check_seed)
        corrupt = flip_parameter_byte if self.corrupt == "checkpoint" else None
        path = self.workdir / "round-trip.ckpt"
        arm.errors += checks.checkpoint_round_trip(stacked, path, corrupt)


# ---------------------------------------------------------------------------


A6_SHAPE = {
    # classes, train rows per class, query rows per class, layer sizes, epochs per phase
    "full": (10, 200, 100, (784, 256, 128), 3),
    "tiny": (3, 10, 4, (784, 16, 8), 1),
}


class A6Proxy(Workload):
    """One A6 arm on the sparse proxy: two-level stack, banded fine-tune,
    euclidean 1-NN. weight 7 builds two neighbor tables; weight 0 none."""

    band = 0.6

    def __init__(self, weight: float, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.weight = weight
        self.classes, self.per_train, self.per_query, self.sizes, self.epochs = A6_SHAPE[self.scale]
        self.first = None  # (seed, record) of an arm whose repeat is still to come

    def setup(self) -> None:
        x, y = stroke_proxy(self.classes, self.per_train + self.per_query, self.seed)
        self.data = dataio.Dataset(examples=x, labels=y, image_shape=(28, 28))

    def config(self, seed: int) -> stacking.StackConfig:
        sizes = self.sizes
        levels = [
            autoencoder.AEConfig(
                layer_sizes=[a, b],
                excl_weight=self.weight,
                n_neighbors=6,
                lr=0.05,
                epochs=self.epochs,
                batch_size=32,
                seed=seed,
                # the top level reconstructs relu codes, not pixels
                output_activation="sigmoid" if k == 0 else "relu",
            )
            for k, (a, b) in enumerate(zip(sizes, sizes[1:]))
        ]
        return stacking.StackConfig(
            levels=levels,
            band=self.band,
            finetune_epochs=self.epochs,
            finetune_lr=0.05,
            finetune_batch_size=32,
            finetune_seed=seed,
        )

    def op(self, i: int, span) -> list:
        # ops come in pairs on one arm seed: both are timed, and the second
        # must reproduce the first's metrics byte for byte
        seed = self.seed * 1000 + i // 2
        with span("phase.split"):
            train, test = dataio.split_per_class(
                self.data, dataio.SplitSpec(per_class_train=self.per_train, seed=seed)
            )
        arm, record, outputs = self._trained_arm(self.config(seed), train, test, 1, span)
        return [(arm, record, outputs, seed)]

    def check(self, arms) -> None:
        super().check(arms)
        for arm, record, _, seed in arms:
            if self.first is not None and self.first[0] == seed:
                arm.errors += checks.repeat_metrics(self.first[1], record, self.workdir)
                self.first = None
            else:
                self.first = (seed, record)


EVAL_SHAPE = {
    # classes, train rows per class, query rows per class, layer sizes, k
    "full": (10, 200, 1000, (784, 256, 128), 5),
    "tiny": (3, 10, 20, (784, 16, 8), 3),
}


class EvalLarge(Workload):
    """The exae eval path: load a saved stack, extract features for train
    rows and many queries, euclidean k-NN."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.classes, self.per_train, self.per_query, self.sizes, self.k = EVAL_SHAPE[self.scale]
        self.path = self.workdir / "eval-large.ckpt"

    def setup(self) -> None:
        self.train = self.queries = None  # a repeated set-up must not hold two copies
        x, y = stroke_proxy(self.classes, self.per_train + self.per_query, self.seed)
        data = dataio.Dataset(examples=x, labels=y, image_shape=(28, 28))
        self.train, self.queries = dataio.split_per_class(
            data, dataio.SplitSpec(per_class_train=self.per_train, seed=self.seed)
        )
        sizes = self.sizes
        levels = [
            autoencoder.build_model(
                autoencoder.AEConfig(
                    layer_sizes=[a, b],
                    seed=self.seed + k,
                    output_activation="sigmoid" if k == 0 else "relu",
                )
            )
            for k, (a, b) in enumerate(zip(sizes, sizes[1:]))
        ]
        self.stacked = stacking.assemble(levels)
        evalharness.save_checkpoint(self.stacked, self.path)
        if self.corrupt == "checkpoint":
            flip_parameter_byte(self.path)

    def op(self, i: int, span) -> list:
        arm = Arm()
        t0 = time.perf_counter()
        with span("phase.eval"):
            loaded = evalharness.load_checkpoint(self.path)
            with span("eval.train"):
                train_feats = evalharness.extract_features(loaded, self.train)
            with span("eval.queries"):
                query_feats = evalharness.extract_features(loaded, self.queries)
            pred = self._knn(train_feats, self.train.labels, query_feats, self.k)
        arm.eval_s = time.perf_counter() - t0
        arm.queries = self.queries.n
        arm.accuracy = evalharness.accuracy(pred, self.queries.labels)
        code_facts(arm, train_feats)
        return [(arm, None, (loaded, train_feats, query_feats, pred), self.seed * 1000 + i)]

    def check(self, arms) -> None:
        for arm, _, (loaded, train_feats, query_feats, pred), seed in arms:
            arm.errors += checks.same_model(self.stacked, loaded)
            arm.errors += checks.knn(train_feats, self.train.labels, query_feats, pred, self.k, seed)


WORKLOADS = {
    "a6proxy-excl": lambda *a, **kw: A6Proxy(7.0, *a, **kw),
    "a6proxy-plain": lambda *a, **kw: A6Proxy(0.0, *a, **kw),
    "eval-large": EvalLarge,
}

"""The one whole-number rule at every site that takes a size, count, seed, k or m,
and the one real-number rule at every site that takes a weight, rate, spread,
band or step.

Each integer site refuses a fraction, a bool, a string and the value one below
its least with a ValueError that names its field, when its dataclass is built or
its function is entered, and takes a numpy integer. Each real site likewise
refuses a bool, a string, None, NaN, the value just below its least, infinity
(but the band, where it means no band) and an int too large for a float, and
takes an int or a numpy float as a float. Paths, the output directory and the
k-NN metric refuse a value of another type by name too, and a Dataset's and
k-NN's labels refuse any array but one of numpy integers (or an empty one).
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from gradprobe import grad_check

from exae.autoencoder import AEConfig
from exae.dataio import Dataset, SplitSpec, load_idx, save_idx, select_per_class, synth_gaussian
from exae.evalharness import DataSpec, ExperimentConfig, knn_classify
from exae.exclusivity import build_context, top_m_neighbors
from exae.numkit import DenseLayer, LayerGrads, sgd_step
from exae.stacking import StackConfig, project_to_band

CASES = ["fraction", "bool", "string", "below-least"]


def refuses(make, name: str, least: int, case: str) -> None:
    """make(value) raises exactly the rule's message for case's value."""
    value = {"fraction": 2.5, "bool": True, "string": "3", "below-least": least - 1}[case]
    tail = f"must be >= {least}, got {value}" if case == "below-least" else f"must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(tail)}$"):
        make(value)


def labelled(rows=6, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(size=(rows, dim)), np.arange(rows) % 2, (1, dim))


AE_FIELDS = [("layer_sizes[1]", 1), ("n_neighbors", 1), ("epochs", 0), ("batch_size", 1), ("seed", 0)]


def ae_config(name, value):
    if name == "layer_sizes[1]":
        return AEConfig(layer_sizes=[4, value])
    return AEConfig(layer_sizes=[4, 2], **{name: value})


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", AE_FIELDS)
def test_ae_config(name, least, case):
    refuses(lambda v: ae_config(name, v), name, least, case)


@pytest.mark.parametrize("name", [name for name, _ in AE_FIELDS])
def test_ae_config_takes_a_numpy_integer(name):
    cfg = ae_config(name, np.int64(1))
    got = cfg.layer_sizes[1] if name == "layer_sizes[1]" else getattr(cfg, name)
    assert type(got) is int and got == 1


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", [("per_class_train", 1), ("seed", 0)])
def test_split_spec(name, least, case):
    refuses(lambda v: SplitSpec(**{"per_class_train": 1, name: v}), name, least, case)


def test_split_spec_takes_numpy_integers():
    spec = SplitSpec(per_class_train=np.int64(2), seed=np.int64(3))
    assert (spec.per_class_train, spec.seed) == (2, 3) and type(spec.per_class_train) is type(spec.seed) is int


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", [("per_class", 1), ("seed", 0)])
def test_select_per_class(name, least, case):
    refuses(lambda v: select_per_class(labelled(), **{"per_class": 1, "seed": 0, name: v}), name, least, case)


def test_select_per_class_takes_numpy_integers():
    assert select_per_class(labelled(), np.int64(2), np.int64(0)).n == 4


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", [("classes", 1), ("dim", 1), ("per_class", 1), ("seed", 0)])
def test_synth_gaussian(name, least, case):
    def make(value):
        args = {"classes": 2, "dim": 3, "per_class": 4, "seed": 0, name: value}
        return synth_gaussian(**args, spread=0.1)

    refuses(make, name, least, case)


def test_synth_gaussian_takes_numpy_integers():
    ds = synth_gaussian(np.int64(2), np.int64(3), np.int64(4), 0.1, seed=np.int64(0))
    assert ds.examples.shape == (8, 3) and ds.image_shape == (1, 3)


DATA_FIELDS = [("classes", 1), ("dim", 1), ("per_class", 1), ("per_class_test", 1), ("synth_seed", 0)]
# per_class_test caps only a test pair, and a test pair needs a training pair
TEST_FILES = dict(images="images", labels="labels", test_images="t-images", test_labels="t-labels")


def data_spec(name, value):
    """A DataSpec with name set: beside the files for per_class_test, which caps
    them, and without them for the synth settings, which only blobs read."""
    return DataSpec(**TEST_FILES, per_class_test=value) if name == "per_class_test" else DataSpec(**{name: value})


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", DATA_FIELDS)
def test_data_spec(name, least, case):
    refuses(lambda v: data_spec(name, v), name, least, case)


@pytest.mark.parametrize("name", [name for name, _ in DATA_FIELDS])
def test_data_spec_takes_a_numpy_integer(name):
    got = getattr(data_spec(name, np.int64(2)), name)
    assert type(got) is int and got == 2


def experiment(**kwargs):
    stack = StackConfig(levels=[AEConfig(layer_sizes=[32, 4])])
    return ExperimentConfig(data=DataSpec(), split=SplitSpec(per_class_train=2), stack=stack, **kwargs)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("name, least", [("trials", 1), ("knn_k", 1), ("base_seed", 0)])
def test_experiment_config(name, least, case):
    refuses(lambda v: experiment(**{name: v}), name, least, case)


def test_experiment_config_takes_numpy_integers():
    exp = experiment(trials=np.int64(2), knn_k=np.int64(3), base_seed=np.int64(4))
    assert (exp.trials, exp.knn_k, exp.base_seed) == (2, 3, 4)
    assert all(type(v) is int for v in (exp.trials, exp.knn_k, exp.base_seed))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("side", [0, 1])
def test_dataset_image_shape(side, case):
    def make(value):
        shape = [2, 2]
        shape[side] = value
        return Dataset(np.zeros((2, 4)), [0, 1], image_shape=tuple(shape))

    refuses(make, f"image_shape[{side}]", 1, case)


@pytest.mark.parametrize(
    "width, shape, refused",
    [(5, (2.5, 2), "image_shape[0] must be an integer, got 2.5"),  # was written as a 2 x 2 header
     (6, (-2, -3), "image_shape[0] must be >= 1, got -2")],  # failed inside save_idx's struct.pack
)
def test_image_shapes_the_idx_writer_would_corrupt_are_refused(width, shape, refused):
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        Dataset(np.zeros((2, width)), [0, 1], image_shape=shape)


def test_numpy_image_shape_round_trips_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    ds = Dataset(rng.integers(0, 256, size=(4, 784)) / 255.0, [0, 1, 2, 3], image_shape=(np.int64(28), 28))
    assert ds.image_shape == (28, 28) and all(type(s) is int for s in ds.image_shape)
    save_idx(ds, tmp_path / "images", tmp_path / "labels")
    back = load_idx(tmp_path / "images", tmp_path / "labels")
    assert back.image_shape == (28, 28)
    assert back.examples.tobytes() == ds.examples.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_knn_classify_k(case):
    feats = np.eye(4)
    refuses(lambda v: knn_classify(feats, [0, 1, 0, 1], feats, k=v), "k", 1, case)


def test_knn_classify_takes_a_numpy_integer_k():
    feats = np.eye(4)
    assert knn_classify(feats, [0, 1, 0, 1], feats, k=np.int64(1)).tolist() == [0, 1, 0, 1]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("table", [build_context, lambda data, m: top_m_neighbors(data, 0, m)],
                         ids=["build_context", "top_m_neighbors"])
def test_neighbor_count_m(table, case):
    refuses(lambda v: table(labelled(rows=5, dim=3).examples, v), "m", 1, case)


def test_neighbor_tables_take_a_numpy_integer_m():
    data = labelled(rows=5, dim=3).examples
    assert build_context(data, np.int64(2)).neighbors[0].tolist() == top_m_neighbors(data, 0, np.int64(2))


REAL_CASES = ["bool", "string", "none", "nan", "below-least", "inf", "too-large"]


def refuses_real(make, name: str, positive: bool, case: str, finite: bool = True) -> None:
    """make(value) raises exactly the real rule's message for case's value."""
    least = 0.0 if positive else -5e-324  # just below the least value taken
    value = {"bool": True, "string": "0.5", "none": None, "nan": math.nan, "below-least": least,
             "inf": math.inf, "too-large": 10**400}[case]
    if case == "too-large":
        tail = "is too large for a float"
    elif case in ("bool", "string", "none"):
        tail = f"must be a real number, got {value!r}"
    else:
        tail = f"must be {'positive' if positive else '>= 0'}{' and finite' if finite else ''}, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(tail)}$"):
        make(value)


def one_step(lr):
    return sgd_step([DenseLayer(np.eye(2), np.zeros(2))], [LayerGrads(np.ones((2, 2)), np.ones(2))], lr)


def probe(epsilon):
    p = np.array([0.5])
    return grad_check(lambda: (float(p[0] ** 2), [2 * p]), [p], epsilon)


# (site, name in its message, positive, finite, make(value))
REAL_SITES = [
    ("AEConfig.excl_weight", "excl_weight", False, True, lambda v: AEConfig(layer_sizes=[4, 2], excl_weight=v)),
    ("AEConfig.lr", "lr", True, True, lambda v: AEConfig(layer_sizes=[4, 2], lr=v)),
    ("StackConfig.band", "finetune.band", False, False,
     lambda v: StackConfig(levels=[AEConfig(layer_sizes=[4, 2])], band=v)),
    ("StackConfig.finetune_lr", "finetune.lr", True, True,
     lambda v: StackConfig(levels=[AEConfig(layer_sizes=[4, 2])], finetune_lr=v)),
    ("DataSpec.spread", "spread", True, True, lambda v: DataSpec(spread=v)),
    ("synth_gaussian", "spread", True, True, lambda v: synth_gaussian(2, 3, 4, v, seed=0)),
    ("project_to_band", "band", False, False, lambda v: project_to_band(1.0, np.eye(2), v)),
    ("sgd_step", "learning rate", True, True, one_step),
    ("grad_check", "epsilon", True, True, probe),  # the probe of tests/gradprobe.py
]


@pytest.mark.parametrize("case", REAL_CASES)
@pytest.mark.parametrize("site, name, positive, finite, make", REAL_SITES, ids=[s[0] for s in REAL_SITES])
def test_real_setting(site, name, positive, finite, make, case):
    if case == "inf" and not finite:
        assert make(math.inf) is not None  # an infinite band is no band
        return
    refuses_real(make, name, positive, case, finite)


@pytest.mark.parametrize("value", [2, np.float64(0.5)], ids=["int", "float64"])
@pytest.mark.parametrize("site, name, positive, finite, make", REAL_SITES, ids=[s[0] for s in REAL_SITES])
def test_real_setting_takes_an_int_or_numpy_float(site, name, positive, finite, make, value):
    make(value)


@pytest.mark.parametrize("value", [2, np.float64(0.5)], ids=["int", "float64"])
def test_real_fields_hold_python_floats(value):
    level = AEConfig(layer_sizes=[4, 2], excl_weight=value, lr=value)
    stack = StackConfig(levels=[level], band=value, finetune_lr=value)
    got = [level.excl_weight, level.lr, stack.band, stack.finetune.lr, DataSpec(spread=value).spread]
    assert all(type(g) is float and g == value for g in got)


@pytest.mark.parametrize("name", ["images", "labels", "test_images", "test_labels"])
@pytest.mark.parametrize("value", [5, ["i.idx"], True])
def test_data_spec_path_of_another_type_refused(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a str, a Path or None, got {re.escape(repr(value))}$"):
        DataSpec(**{name: value})


def test_data_spec_paths_take_a_str_a_path_or_none():
    spec = DataSpec(images=Path("i.idx"), labels="l.idx", test_images=None, test_labels=None)
    assert spec.images == Path("i.idx") and spec.labels == "l.idx"


@pytest.mark.parametrize("value", [5, None, ["out"]])
def test_experiment_out_dir_of_another_type_refused(value):
    with pytest.raises(ValueError, match=f"^out_dir must be a str or a Path, got {re.escape(repr(value))}$"):
        experiment(out_dir=value)


def test_experiment_out_dir_takes_a_path():
    assert experiment(out_dir=Path("runs")).out_dir == Path("runs")


@pytest.mark.parametrize("value", [[], {}, 5, None, "manhattan"], ids=["list", "dict", "int", "none", "manhattan"])
def test_unhashable_or_non_string_metric_refused(value):
    # one check, so one message: the config and k-NN both name the value
    refused = f"metric must be one of ('euclidean', 'cosine'), got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        experiment(metric=value)
    feats = np.eye(4)
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        knn_classify(feats, [0, 1, 0, 1], feats, k=1, metric=value)


# labels the old int64 cast truncated, reinterpreted or overflowed on
NON_INTEGER_LABELS = {
    "fractions": ([0.5, 1.7, 2.0], "float64"),
    "fractions-near-each-label": ([0.9, 1.2, 2.5], "float64"),
    "bools": ([True, False, True], "bool"),
    "strings": (["1", "0", "1"], "<U1"),
    "past-int64": ([1e20, 0, 1], "float64"),
}


@pytest.mark.parametrize("labels, dtype", NON_INTEGER_LABELS.values(), ids=NON_INTEGER_LABELS.keys())
@pytest.mark.parametrize("site", ["Dataset", "knn_classify"])
def test_non_integer_labels_refused_naming_the_dtype(site, labels, dtype):
    name, make = {
        "Dataset": ("labels", lambda: Dataset(np.eye(3), labels, (1, 3))),
        "knn_classify": ("train labels", lambda: knn_classify(np.eye(3), labels, np.eye(3), 1)),
    }[site]
    refused = f"{name} must be integers that fit int64, got dtype {dtype}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        make()


def test_labels_past_int64_refused():
    labels = np.array([2**63, 0, 1], dtype=np.uint64)  # an int64 cast would read -2**63
    with pytest.raises(ValueError, match="^labels must be integers that fit int64, got dtype uint64$"):
        Dataset(np.eye(3), labels, (1, 3))


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
def test_labels_of_any_numpy_integer_kind_taken_as_int64(dtype):
    labels = np.array([2, 0, 1], dtype=dtype)
    assert Dataset(np.eye(3), labels, (1, 3)).labels.dtype == np.int64
    assert knn_classify(np.eye(3), labels, np.eye(3), 1).tolist() == [2, 0, 1]
    assert Dataset(np.zeros((0, 3)), [], (1, 3)).labels.dtype == np.int64  # [] reads as float64

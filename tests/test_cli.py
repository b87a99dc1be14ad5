"""End-to-end runs of every CLI subcommand on tiny synthetic configs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from exae import cli, stacking
from exae.autoencoder import AEConfig
from exae.cli import DEFAULT_CONFIG, experiment_from, level_configs_from, load_config, main
from exae.dataio import Dataset, SplitSpec, load_idx, save_idx
from exae.evalharness import DataSpec
from exae.stacking import StackConfig


def tiny_config(tmp_path, **overrides):
    cfg = {
        "data": {
            "classes": 2,
            "dim": 6,
            "per_class": 12,
            "spread": 0.08,
            "split": {"per_class_train": 8},
        },
        "stack": {
            "sizes": [6, 4, 3],
            "excl_weight": 2.0,
            "n_neighbors": 2,
            "epochs": 2,
            "batch_size": 8,
        },
        "finetune": {"epochs": 2, "band": 0.6},
        "experiment": {"trials": 2, "base_seed": 0},
        "output": {"dir": str(tmp_path / "out")},
    }
    for key, val in overrides.items():
        cfg[key] = {**cfg.get(key, {}), **val}
    if "images" in cfg["data"]:  # the files give the rows: a synth setting beside them is refused
        cfg["data"] = {key: val for key, val in cfg["data"].items() if key not in DataSpec.SYNTH}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_defaults_cover_documented_operating_point():
    cfg = load_config(None)
    assert cfg["stack"]["excl_weight"] == 7.0
    assert cfg["stack"]["n_neighbors"] == 6
    assert cfg["finetune"]["band"] == 0.6
    assert cfg["eval"]["knn_k"] == 1
    assert cfg["experiment"]["trials"] == 10
    # default chain gives three levels ending at width 128
    levels = level_configs_from(cfg, 784)
    assert len(levels) == 3
    assert levels[-1].latent_dim == 128
    # every section builds its dataclass's own defaults
    assert levels == [
        AEConfig(layer_sizes=[784, 512]),
        AEConfig(layer_sizes=[512, 256], output_activation="relu"),
        AEConfig(layer_sizes=[256, 128], output_activation="relu"),
    ]
    exp, _ = cli.experiment_from(cfg)  # the default synth rows are 32 wide
    assert exp.stack == StackConfig(levels=[AEConfig(layer_sizes=[32, 512]), *levels[1:]])
    assert exp.data == DataSpec()
    assert exp.split == SplitSpec(per_class_train=10)


def test_readme_defaults_block_equals_load_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    assert json.loads(re.sub(r"//[^\n]*", "", block)) == load_config(None)


def test_renamed_keys_reach_their_fields(tmp_path, monkeypatch):
    path = tiny_config(
        tmp_path,
        finetune={"epochs": 3, "lr": 0.01, "batch_size": 4},
        eval={"knn_k": 3, "metric": "cosine"},
    )
    stack = cli.experiment_from(load_config(str(path)))[0].stack
    assert (stack.finetune_epochs, stack.finetune_lr, stack.finetune_batch_size) == (3, 0.01, 4)
    seen = []

    def capture(exp, loaded):
        seen.append(exp)
        return [], {"partial": False}

    monkeypatch.setattr(cli, "run_experiment", capture)
    assert main(["--config", str(path), "experiment"]) == 0
    (exp,) = seen
    assert (exp.knn_k, exp.metric, exp.trials, exp.base_seed) == (3, "cosine", 2, 0)
    assert exp.out_dir == str(tmp_path / "out")
    assert exp.stack == stack


def test_user_config_merges_over_defaults(tmp_path):
    path = tiny_config(tmp_path)
    cfg = load_config(str(path))
    assert cfg["stack"]["sizes"] == [6, 4, 3]
    assert cfg["stack"]["lr"] == 0.05  # untouched default
    assert cfg["experiment"]["trials"] == 2


def test_stack_settings_reach_every_level(tmp_path):
    stack = {"sizes": [6, 5, 4, 3], "epochs": 3, "lr": 0.02, "excl_weight": 1.5, "latent_activation": "identity"}
    levels = cli.experiment_from(load_config(str(tiny_config(tmp_path, stack=stack))))[0].stack.levels
    assert [level.layer_sizes for level in levels] == [[6, 5], [5, 4], [4, 3]]
    assert {(level.epochs, level.lr, level.excl_weight, level.n_neighbors) for level in levels} == {(3, 0.02, 1.5, 2)}
    assert {level.latent_activation for level in levels} == {"identity"}
    # level 1 reconstructs [0,1] pixels; levels 2+ reconstruct codes
    assert [level.output_activation for level in levels] == ["sigmoid", "identity", "identity"]


def test_synth_writes_idx_fixture(tmp_path, capsys):
    path = tiny_config(tmp_path)
    assert main(["--config", str(path), "synth"]) == 0
    out = tmp_path / "out"
    assert (out / "synth-images-idx3-ubyte").exists()
    assert (out / "synth-labels-idx1-ubyte").exists()

    from exae.dataio import load_idx

    ds = load_idx(out / "synth-images-idx3-ubyte", out / "synth-labels-idx1-ubyte")
    assert ds.n == 24
    assert ds.image_shape == (1, 6)  # a synth row is a 1 x dim image


def test_synth_keeps_the_image_shape_of_idx_files(tmp_path, capsys):
    pair = Dataset(np.random.default_rng(0).uniform(size=(4, 6)), np.array([0, 0, 1, 1]), (2, 3))
    save_idx(pair, tmp_path / "images", tmp_path / "labels")
    data = {"images": str(tmp_path / "images"), "labels": str(tmp_path / "labels")}
    assert main(["--config", str(tiny_config(tmp_path, data=data)), "synth"]) == 0
    out = tmp_path / "out"
    from exae.dataio import load_idx

    assert load_idx(out / "synth-images-idx3-ubyte", out / "synth-labels-idx1-ubyte").image_shape == (2, 3)


def test_train_stack_finetune_eval_pipeline(tmp_path, capsys):
    path = tiny_config(tmp_path)
    out = tmp_path / "out"

    assert main(["--config", str(path), "stack"]) == 0
    assert (out / "stack.ckpt").exists()

    assert main(["--config", str(path), "finetune", str(out / "stack.ckpt")]) == 0
    assert (out / "finetuned.ckpt").exists()

    assert main(["--config", str(path), "eval", str(out / "finetuned.ckpt")]) == 0
    captured = capsys.readouterr()
    assert "accuracy:" in captured.out


@pytest.mark.parametrize("command", ["stack", "experiment"])
def test_bad_finetune_value_refused_under_its_config_key_before_pretraining(tmp_path, command):
    path = tiny_config(tmp_path, finetune={"lr": 0})
    with pytest.raises(ValueError, match=r"^finetune\.lr must be positive and finite, got 0$"):
        main(["--config", str(path), command])
    assert not (tmp_path / "out").exists()


def test_stack_refuses_neighbors_past_the_rows_and_writes_nothing(tmp_path):
    # 2 classes x 8 training rows
    path = tiny_config(tmp_path, stack={"n_neighbors": 40})
    with pytest.raises(ValueError, match=r"^level 1 n_neighbors=40 needs at least 41 rows, have 16$"):
        main(["--config", str(path), "stack"])
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def stack_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("checkpoint")
    assert main(["--config", str(tiny_config(tmp)), "stack"]) == 0
    return tmp / "out" / "stack.ckpt"


def explicit_test_files(tmp_path):
    rng = np.random.default_rng(4)
    files = {}
    for name, per_class in (("train", 12), ("test", 8)):
        pair = Dataset(rng.uniform(size=(2 * per_class, 6)), np.repeat([0, 1], per_class), (2, 3))
        files[name] = [str(tmp_path / f"{name}-images"), str(tmp_path / f"{name}-labels")]
        save_idx(pair, *files[name])
    return {"images": files["train"][0], "labels": files["train"][1],
            "test_images": files["test"][0], "test_labels": files["test"][1]}


@pytest.mark.parametrize(
    "overrides, refused",
    [
        ({"eval": {"metric": "manhattan"}}, "metric must be one of ('euclidean', 'cosine'), got 'manhattan'"),
        ({"eval": {"knn_k": 0}}, "knn_k must be >= 1, got 0"),
        ({"experiment": {"trials": 0}}, "trials must be >= 1, got 0"),
        ({"experiment": {"base_seed": -1}, "data": {"per_class_test": 3}}, "base_seed must be >= 0, got -1"),
        ({"eval": {"knn_k": 40}}, "k=40 out of range for 16 training rows"),  # 2 classes x 8 training rows
    ],
    ids=["metric-manhattan", "knn_k-0", "trials-0", "base_seed-negative", "knn_k-past-the-rows"],
)
@pytest.mark.parametrize("command", ["stack", "finetune", "eval"])
def test_stage_commands_refuse_what_experiment_refuses_before_any_work(
        tmp_path, stack_checkpoint, overrides, refused, command):
    overrides = {**overrides, "output": {"dir": str(tmp_path / "experiment")}}
    if "per_class_test" in overrides.get("data", {}):
        overrides["data"] = {**overrides["data"], **explicit_test_files(tmp_path)}
    path = tiny_config(tmp_path, **overrides)
    try:  # a config refused at build time raises; a trial's refusal is in summary.json
        main(["--config", str(path), "experiment"])
        experiment_says = json.loads((tmp_path / "experiment" / "summary.json").read_text())["failures"]["0"]
    except ValueError as err:
        experiment_says = f"ValueError: {err}"
    assert experiment_says == f"ValueError: {refused}"
    path = tiny_config(tmp_path, **{**overrides, "output": {"dir": str(tmp_path / "out")}})
    args = [command, str(stack_checkpoint)] if command in ("finetune", "eval") else [command]
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        main(["--config", str(path), *args])
    assert not (tmp_path / "out").exists()


def test_experiment_command(tmp_path, capsys):
    path = tiny_config(tmp_path)
    assert main(["--config", str(path), "experiment"]) == 0
    out = tmp_path / "out"
    assert (out / "metrics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 2


def test_stage_pipeline_reproduces_experiment_trial_zero_on_explicit_test_files(tmp_path, capsys):
    data = {**explicit_test_files(tmp_path), "per_class_test": 3,
            "split": {"per_class_train": 5}}
    path = tiny_config(tmp_path, data=data)
    out = tmp_path / "out"
    assert main(["--config", str(path), "stack"]) == 0
    assert main(["--config", str(path), "finetune", str(out / "stack.ckpt")]) == 0
    assert main(["--config", str(path), "eval", str(out / "finetuned.ckpt")]) == 0
    eval_line = capsys.readouterr().out.splitlines()[-1]
    assert main(["--config", str(path), "experiment"]) == 0
    trial_zero = json.loads((out / "summary.json").read_text())["accuracies"][0]
    assert eval_line == f"accuracy: {trial_zero:.4f} (6 queries, k=1)"


def test_stage_commands_run_experiment_trial_zero_at_a_nonzero_base_seed(tmp_path, capsys):
    path = tiny_config(tmp_path, experiment={"trials": 2, "base_seed": 5})
    out = tmp_path / "out"
    assert main(["--config", str(path), "stack"]) == 0
    assert main(["--config", str(path), "finetune", str(out / "stack.ckpt")]) == 0
    assert main(["--config", str(path), "eval", str(out / "finetuned.ckpt")]) == 0
    eval_line = capsys.readouterr().out.splitlines()[-1]
    stage_rows = [(out / name).read_text().splitlines()[1:] for name in ("stack-metrics.csv", "finetune-metrics.csv")]
    assert main(["--config", str(path), "experiment"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert stage_rows == [[r for r in rows if r.startswith(f"0,{phase}")] for phase in ("pretrain", "finetune")]
    trial_zero = json.loads((out / "summary.json").read_text())["accuracies"][0]
    assert eval_line == f"accuracy: {trial_zero:.4f} (8 queries, k=1)"


def test_experiment_reads_data_once(tmp_path, monkeypatch):
    from exae import cli, evalharness

    reads, real = [], evalharness.load_data

    def counting(spec):
        reads.append(spec.images)
        return real(spec)

    monkeypatch.setattr(cli, "load_data", counting)
    monkeypatch.setattr(evalharness, "load_data", counting)
    assert main(["--config", str(tiny_config(tmp_path)), "experiment"]) == 0
    assert reads == [None]


def test_config_naming_an_idx_pair_trains_on_its_rows(tmp_path):
    # the files decide the source: a named pair is read, not the 32-wide blobs of the defaults
    pair = Dataset(np.random.default_rng(6).uniform(size=(4, 6)), np.array([0, 0, 1, 1]), (2, 3))
    save_idx(pair, tmp_path / "images", tmp_path / "labels")
    config = tmp_path / "idx.json"
    config.write_text(json.dumps({"data": {"images": str(tmp_path / "images"), "labels": str(tmp_path / "labels")}}))
    exp, (data, test) = experiment_from(load_config(str(config)))
    assert data.dim == 6 and test is None
    assert data.examples.tobytes() == load_idx(tmp_path / "images", tmp_path / "labels").examples.tobytes()
    assert exp.stack.levels[0].input_dim == 6


def test_gradcheck_is_no_subcommand(capsys):
    # gate A1 is the one gradient check: its probe lives with the tests (tests/gradprobe.py)
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'gradcheck'" in captured.err and captured.out == ""


def level(n_in, n_out, latent="relu", output="sigmoid"):
    """A level's descriptor as a checkpoint header holds it."""
    return {"encoder": [{"in": n_in, "out": n_out, "activation": latent}],
            "decoder": [{"in": n_out, "out": n_in, "activation": output}]}


@pytest.mark.parametrize(
    "stack, k, have, built",  # stack_checkpoint is 6-4-3 with relu latents
    [
        ({"sizes": [6, 5, 3]}, 1, level(6, 4), level(6, 5)),
        ({"latent_activation": "sigmoid"}, 1, level(6, 4), level(6, 4, latent="sigmoid")),
        ({"sizes": [6, 4]}, 2, level(4, 3, output="relu"), "none"),
        ({"sizes": [6, 4, 3, 2]}, 3, "none", level(3, 2, output="relu")),
    ],
    ids=["size", "latent-activation", "fewer-levels", "more-levels"],
)
@pytest.mark.parametrize("command", ["finetune", "eval"])
def test_checkpoint_the_stack_section_does_not_build_refused_before_any_work(
        tmp_path, monkeypatch, stack_checkpoint, stack, k, have, built, command):
    # else the fine-tuned file would embed a config that does not describe its layers
    def no_work(*args, **kwargs):
        raise AssertionError("a level was fine-tuned or scored")

    monkeypatch.setattr(cli, "fine_tune", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    path = tiny_config(tmp_path, stack=stack)
    refused = f"checkpoint {stack_checkpoint} level {k} is {have}, but the stack section builds {built}"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        main(["--config", str(path), command, str(stack_checkpoint)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("cap", [-2, 0])
def test_per_class_test_below_one_refused(tmp_path, monkeypatch, command, cap):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({"data": {"per_class_test": cap}}))
    with pytest.raises(ValueError, match="per_class_test"):
        main(["--config", str(config), command])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, refused, command",
    [
        ({"data": {"synth_seed": -1}}, "^synth_seed must be >= 0, got -1$", "synth"),
        # experiment.base_seed + t seeds trial t's split, levels and fine-tune: no other seed is a key
        ({"data": {"split": {"per_class_train": 8, "seed": -1}}}, r"^unknown config key 'data\.split\.seed'$", "stack"),
        ({"stack": {"seed": -1}}, r"^unknown config key 'stack\.seed'$", "stack"),
        ({"stack": {"levels": [{}, {"seed": -1}]}}, r"^unknown config key 'stack\.levels'$", "stack"),  # no level has keys of its own
        ({"finetune": {"seed": -1}}, r"^unknown config key 'finetune\.seed'$", "stack"),
        ({"experiment": {"base_seed": -1}}, "^base_seed must be >= 0, got -1$", "experiment"),
        ({"stack": {"lr": np.inf}}, "^lr must be positive and finite, got inf$", "stack"),
        ({"stack": {"excl_weight": np.inf}}, "^excl_weight must be >= 0 and finite, got inf$", "experiment"),
        ({"finetune": {"lr": np.inf}}, r"^finetune\.lr must be positive and finite, got inf$", "experiment"),
        ({"finetune": {"band": np.nan}}, r"^finetune\.band must be >= 0, got nan$", "stack"),
        *(({"data": {"spread": s}}, f"^spread must be positive and finite, got {s}$", "experiment")
          for s in (np.inf, np.nan, 0.0, -0.1)),
    ],
)
def test_negative_seed_or_non_finite_setting_refused_before_anything_runs(tmp_path, overrides, refused, command):
    path = tiny_config(tmp_path, **overrides)
    with pytest.raises(ValueError, match=refused):
        main(["--config", str(path), command])
    assert not (tmp_path / "out").exists()


def test_unknown_source_rejected(tmp_path, monkeypatch):
    # the data files decide the source, so no value of data.source is a setting
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    for source in ("nope", "synth", "idx", None):
        path.write_text(json.dumps({"data": {"source": source}}))
        with pytest.raises(ValueError, match=r"^unknown config key 'data\.source'$"):
            main(["--config", str(path), "synth"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "stack, name",
    [({"latent_activation": "x"}, "latent_activation")],
)
def test_unknown_activation_refused_naming_its_field(tmp_path, stack, name):
    path = tiny_config(tmp_path, stack=stack)
    refused = f"{name} must be one of ('identity', 'relu', 'sigmoid'), got 'x'"
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        main(["--config", str(path), "experiment"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["x", "sigmoid", "relu"])
def test_output_activation_is_no_config_key(tmp_path, value):
    # level 1 reconstructs [0, 1] rows and levels 2+ codes, so each level's output is derived
    path = tiny_config(tmp_path, stack={"output_activation": value})
    with pytest.raises(ValueError, match=r"^unknown config key 'stack\.output_activation'$"):
        main(["--config", str(path), "experiment"])
    assert not (tmp_path / "out").exists()


def test_fine_tune_failure_names_its_phase(tmp_path, stack_checkpoint):
    path = tiny_config(tmp_path, finetune={"lr": 1e308})
    assert main(["--config", str(path), "experiment"]) == 1
    failures = json.loads((tmp_path / "out" / "summary.json").read_text())["failures"]
    assert set(failures) == {"0", "1"}
    assert all(f.startswith("RuntimeError: fine-tuning failed: ") for f in failures.values())
    with pytest.raises(RuntimeError, match="^fine-tuning failed: "):
        main(["--config", str(path), "finetune", str(stack_checkpoint)])


@pytest.mark.parametrize(
    "data, missing",
    [
        ({"images": "i.idx"}, "images and labels must be given together"),
        ({"labels": "l.idx", "test_images": "t.idx", "test_labels": "t.idx"}, "images and labels must be given together"),
        # every file named is read: a test pair needs a training pair
        ({"test_images": "t.idx", "test_labels": "t.idx"}, "test_images and test_labels need images and labels"),
        ({"images": "i.idx", "labels": "l.idx", "test_images": "t.idx"},
         "test_images and test_labels must be given together"),
        ({"test_labels": "t.idx"}, "test_images and test_labels must be given together"),
        # the cap applies to explicit test files only; on a split it would cap nothing
        ({"per_class_test": 3}, "per_class_test needs test_images and test_labels"),
        # the files give the rows, so a synth setting beside them would go unread (a default is taken)
        *(({"images": "i.idx", "labels": "l.idx", name: value}, f"{name} is unread when images are given, got {value}")
          for name, value in (("classes", 10), ("dim", 784), ("per_class", 2), ("spread", 0.5), ("synth_seed", 5))),
    ],
)
def test_incomplete_data_source_refused(tmp_path, monkeypatch, data, missing):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "data.json"
    config.write_text(json.dumps({"data": data}))
    with pytest.raises(ValueError, match=f"^{re.escape(missing)}$"):
        main(["--config", str(config), "stack"])
    assert not (tmp_path / "out").exists()


def test_test_files_of_another_width_refused_before_any_level_trains(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a level trained")

    monkeypatch.setattr(stacking, "train", no_training)
    rng = np.random.default_rng(5)
    for name, width in (("train", 6), ("test", 8)):
        pair = Dataset(rng.uniform(size=(24, width)), np.repeat([0, 1], 12), (1, width))
        save_idx(pair, tmp_path / f"{name}-images", tmp_path / f"{name}-labels")
    data = {"images": str(tmp_path / "train-images"), "labels": str(tmp_path / "train-labels"),
            "test_images": str(tmp_path / "test-images"), "test_labels": str(tmp_path / "test-labels")}
    path = tiny_config(tmp_path, data=data)
    refused = (f"test rows in {tmp_path / 'test-images'} are 8 wide but "
               f"training rows in {tmp_path / 'train-images'} are 6 wide")
    for command in ("experiment", "stack", "eval"):
        args = [command, "none.ckpt"] if command == "eval" else [command]
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            main(["--config", str(path), *args])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stack", "experiment"])
def test_stack_sizes_that_do_not_start_at_the_data_width_refused(tmp_path, command):
    path = tiny_config(tmp_path, stack={"sizes": [5, 3]})  # the synth rows are 6 wide
    with pytest.raises(ValueError, match="^stack sizes start at 5 but data dim is 6$"):
        main(["--config", str(path), command])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["stack", "finetune", "experiment"])
def test_refused_run_leaves_no_output_dir(tmp_path, monkeypatch, command):
    # the IDX files are missing: the data is refused before anything is written
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "missing.json"
    config.write_text(json.dumps({"data": {"images": "i.idx", "labels": "l.idx"}}))
    args = ["finetune", "none.ckpt"] if command == "finetune" else [command]
    with pytest.raises(FileNotFoundError):
        main(["--config", str(config), *args])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "user, path",
    [
        ({"stack": {"excl_wieght": 0.0}}, "stack.excl_wieght"),
        ({"evl": {"knn_k": 3}}, "evl"),
        ({"data": {"split": {"sed": 1}}}, "data.split.sed"),
        ({"output": {"dir": "x", "directory": "y"}}, "output.directory"),
        # the stack section sets every level: there are no per-level overrides
        ({"stack": {"levels": None}}, "stack.levels"),
        ({"finetune": {"norm_order": 2}}, "finetune.norm_order"),  # the band's norm is not a setting
        ({"stack": {"mean_grad": "full"}}, "stack.mean_grad"),  # the full gradient is the only one
        ({"stack": {"levels": []}}, "stack.levels"),
        ({"stack": {"loss_reduction": "mean"}}, "stack.loss_reduction"),  # the batch mean is the only one
        ({"stack": {"levels": [{}]}}, "stack.levels"),
        # fine-tuning is reconstruction-only, so it has no weight and no neighbor table
        *(({"finetune": {key: val}}, f"finetune.{key}") for key in ("excl_weight", "n_neighbors") for val in (0, 2)),
        # a level has no hidden layer, and stack.sizes alone gives each level's dimensions
        ({"stack": {"hidden_activation": "sigmoid"}}, "stack.hidden_activation"),
        # IDX is the one file format, and training rows are never mirrored
        ({"data": {"root": "digits"}}, "data.root"),
        ({"data": {"split": {"mirror_train": True}}}, "data.split.mirror_train"),
    ],
)
def test_misspelled_key_rejected_with_its_path(tmp_path, monkeypatch, user, path):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typo.json"
    config.write_text(json.dumps(user))
    with pytest.raises(ValueError, match=re.escape(f"unknown config key '{path}'")):
        main(["--config", str(config), "synth"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "user, refused",
    [
        # a value is refused by its dataclass, under its field's name (finetune.* by dotted
        # key); refused is then the whole message, and the id keeps the key the case sets
        pytest.param({"stack": {"epochs": "3"}}, "^epochs must be an integer, got '3'$", id="user0-stack.epochs"),
        pytest.param({"stack": {"epochs": True}}, "^epochs must be an integer, got True$", id="user1-stack.epochs"),
        pytest.param({"data": {"split": {"per_class_train": None}}}, "^per_class_train must be an integer, got None$",
                     id="user2-data.split.per_class_train"),
        pytest.param({"finetune": {"band": "0.5"}}, r"^finetune\.band must be a real number, got '0\.5'$",
                     id="user3-finetune.band"),
        ({"stack": {"sizes": []}}, "stack.sizes"),  # no level; null is the default chain
        ({"stack": {"lr": 2}}, None),
        ({"finetune": {"band": 0.5}}, None),
        ({"data": {"per_class_test": None}}, None),
        ({"stack": {"sizes": [32, 8.7]}}, "stack.sizes"),
        ({"stack": {"sizes": [32, True]}}, "stack.sizes"),
        ({"stack": {"sizes": 32}}, "stack.sizes"),
        ({"stack": {"sizes": [32, 8]}}, None),
        ({"stack": 5}, "stack"),  # a section must be an object
        ({"data": {"split": 3}}, "data.split"),
        ({"eval": None}, "eval"),
        ({"stack": {"sizes": [32]}}, "stack.sizes"),  # a level needs two sizes
    ],
)
def test_value_types_checked_at_load_time(tmp_path, monkeypatch, user, refused):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(user))
    if refused is None:
        assert main(["--config", str(config), "synth"]) == 0
        return
    match = refused if refused.startswith("^") else re.escape(f"config key '{refused}' must be ")
    with pytest.raises(ValueError, match=match):
        main(["--config", str(config), "synth"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("user", [[1, 2], 5, None, "stack"])
def test_config_file_must_hold_an_object(tmp_path, monkeypatch, user):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "list.json"
    config.write_text(json.dumps(user))
    with pytest.raises(ValueError, match="^config file must hold a JSON object$"):
        main(["--config", str(config), "synth"])
    assert not (tmp_path / "out").exists()


def test_no_config_run_unchanged_by_restating_every_default(tmp_path, monkeypatch):
    # the checks that refuse unknown keys accept every default key, so a
    # config spelling out DEFAULT_CONFIG writes the bytes of a run without one
    restated = tmp_path / "defaults.json"
    restated.write_text(json.dumps(DEFAULT_CONFIG))
    assert load_config(str(restated)) == load_config(None)
    outputs = []
    for name, argv in (("none", ["stack"]), ("restated", ["--config", str(restated), "stack"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        out = tmp_path / name / "out"
        outputs.append([(out / f).read_bytes() for f in ("stack.ckpt", "stack-metrics.csv")])
    assert outputs[0] == outputs[1]


def test_defaults_are_not_mutated_between_loads():
    one = load_config(None)
    one["stack"]["excl_weight"] = 99.0
    assert DEFAULT_CONFIG["stack"]["excl_weight"] == 7.0
    assert load_config(None)["stack"]["excl_weight"] == 7.0

"""Command-line entry point.

Every subcommand reads one JSON config file (--config); anything omitted
falls back to DEFAULT_CONFIG, which takes each default from the field of
the dataclass that consumes it and checks its value. Each builds one
ExperimentConfig from it (experiment_from) before any training. The sections:

  data:       DataSpec (IDX files if given, else synth blobs); "split": SplitSpec but seed
  stack:      sizes is the dimension chain input -> ... -> latent (null, or
              two or more ints), one autoencoder level per consecutive pair;
              the LEVEL_KEYS fields beside it set every level
  finetune:   StackConfig: band and the finetune_* fields but the seed
  eval:       ExperimentConfig: knn_k and metric
  experiment: ExperimentConfig: trials and base_seed (trial t's seed is base_seed + t)
  output:     ExperimentConfig: dir (out_dir) for metrics/checkpoints

Subcommands: synth; experiment, which runs every trial and saves trial 0's
fine-tuned stack, with this config in its header, as <output.dir>/model.ckpt;
and eval, which scores a checkpoint on trial 0's rows. eval refuses a checkpoint
whose levels the stack section does not build.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .autoencoder import AEConfig
from .dataio import SplitSpec, save_idx
from .evalharness import DataSpec, ExperimentConfig, check_levels, evaluate, load_checkpoint, load_data, run_experiment, trial_setup
from .stacking import StackConfig

# config key -> dataclass field, where the two names differ
RENAMED = {
    "finetune.epochs": "finetune_epochs",
    "finetune.lr": "finetune_lr",
    "finetune.batch_size": "finetune_batch_size",
    "output.dir": "out_dir",
}


def _defaults(cls, *names: str) -> dict:
    """{config key: default} of cls's fields that have one, or of those named."""
    config_key = {field: path.rpartition(".")[2] for path, field in RENAMED.items()}
    return {
        config_key.get(f.name, f.name): f.default
        for f in fields(cls)
        if f.default is not MISSING and (not names or f.name in names)
    }


# The AEConfig fields the "stack" section sets for every level: stack.sizes gives
# layer_sizes, a level has no hidden layer, level_configs_from derives the output
# activation, and each trial sets the seed.
LEVEL_KEYS = ("latent_activation", "excl_weight", "n_neighbors", "lr", "epochs", "batch_size")

DEFAULT_CONFIG = {
    "data": {
        **_defaults(DataSpec),
        "split": {"per_class_train": 10},  # trials set seed
    },
    "stack": {
        "sizes": None,  # default: [input dim, 512, 256, 128] -> 3 levels
        **_defaults(AEConfig, *LEVEL_KEYS),
    },
    "finetune": _defaults(StackConfig, "band", "finetune_epochs", "finetune_lr", "finetune_batch_size"),
    "eval": _defaults(ExperimentConfig, "knn_k", "metric"),
    "experiment": _defaults(ExperimentConfig, "trials", "base_seed"),
    "output": _defaults(ExperimentConfig, "out_dir"),
}

DEFAULT_STACK_TAIL = [512, 256, 128]


def _merge(base: dict, override, path: str = "") -> dict:
    """override laid over base; a key base lacks, or a non-object where base
    holds an object, raises ValueError naming its dotted path."""
    if not isinstance(override, dict):
        if not path:
            raise ValueError("config file must hold a JSON object")
        raise ValueError(f"config key {path[:-1]!r} must be an object, got {override!r}")
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in out:
            raise ValueError(f"unknown config key {path + key!r}")
        out[key] = _merge(out[key], val, f"{path}{key}.") if isinstance(out[key], dict) else val
    return out


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG with the file's values laid over it. Only the file's shape and
    stack.sizes, a key no dataclass has, are checked here: the dataclasses that
    experiment_from builds check every other value."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as f:
        cfg = _merge(DEFAULT_CONFIG, json.load(f))
    sizes = cfg["stack"]["sizes"]
    if sizes is not None and not (isinstance(sizes, list) and len(sizes) >= 2 and all(type(s) is int for s in sizes)):
        raise ValueError(f"config key 'stack.sizes' must be null or a list of two or more ints, got {sizes!r}")
    return cfg


def _as_fields(cfg: dict, *sections: str) -> dict:
    """The sections' values keyed by dataclass field name."""
    return {RENAMED.get(f"{s}.{key}", key): val for s in sections for key, val in cfg[s].items()}


def level_configs_from(cfg: dict, input_dim: int) -> list:
    """One AEConfig per consecutive size pair, each set by the stack section. Level 1
    reconstructs Dataset rows, which lie in [0, 1], so its output is sigmoid; a deeper
    level reconstructs codes, so its output is the latent_activation that made them."""
    st = cfg["stack"]
    sizes = st["sizes"] or [input_dim] + DEFAULT_STACK_TAIL
    if sizes[0] != input_dim:
        raise ValueError(f"stack sizes start at {sizes[0]} but data dim is {input_dim}")
    shared = {key: st[key] for key in LEVEL_KEYS}
    pairs = enumerate(zip(sizes, sizes[1:]))
    return [AEConfig(**shared, layer_sizes=[a, b], output_activation=st["latent_activation"] if k else "sigmoid")
            for k, (a, b) in pairs]


def experiment_from(cfg: dict):
    """(ExperimentConfig, (data, test)): every setting built and checked once,
    before any training, and the data read once, as its width sizes the stack.
    The data section is checked before the read, the other sections after it."""
    spec = DataSpec(**{key: val for key, val in cfg["data"].items() if key != "split"})
    split = SplitSpec(**cfg["data"]["split"])
    loaded = load_data(spec)
    exp = ExperimentConfig(
        data=spec,
        split=split,
        stack=StackConfig(levels=level_configs_from(cfg, loaded[0].dim), **_as_fields(cfg, "finetune")),
        **_as_fields(cfg, "eval", "experiment", "output"),
    )
    return exp, loaded


def cmd_synth(cfg: dict, args) -> int:
    exp, (data, _) = experiment_from(cfg)
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_idx(data, out / "synth-images-idx3-ubyte", out / "synth-labels-idx1-ubyte")
    print(f"wrote {data.n} rows of dim {data.dim} to {out}/synth-*-ubyte")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    exp, loaded = experiment_from(cfg)
    train_set, test_set, _ = trial_setup(exp, loaded, 0)
    stacked = check_levels(load_checkpoint(args.checkpoint), exp.stack.levels, args.checkpoint)
    acc = evaluate(stacked, train_set, test_set, exp.knn_k, exp.metric)
    print(f"accuracy: {acc:.4f} ({test_set.n} queries, k={exp.knn_k})")
    return 0


def cmd_experiment(cfg: dict, args) -> int:
    records, summary = run_experiment(*experiment_from(cfg), cfg)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if not summary["partial"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exae",
        description="exclusivity-regularized autoencoders: train, stack, fine-tune, evaluate",
    )
    parser.add_argument("--config", help="path to a JSON config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="write a synthetic Gaussian-blob fixture as IDX files").set_defaults(run=cmd_synth)
    p = sub.add_parser("eval", help="extract features from a checkpoint and run k-NN")
    p.add_argument("checkpoint")
    p.set_defaults(run=cmd_eval)
    sub.add_parser("experiment", help="run every trial; save trial 0's model as model.ckpt").set_defaults(run=cmd_experiment)

    args = parser.parse_args(argv)
    return args.run(load_config(args.config), args)


if __name__ == "__main__":
    sys.exit(main())

"""Committed mutation checks: each mutant must be caught by its tests.

    python mutants/run.py                # every mutant
    python mutants/run.py trim-dropped   # only the named ones

Run from anywhere. Each entry of MUTANTS names a file under src/, an exact
piece of its text, the text that replaces it, and a pytest selector, or a
tuple of selectors that must each fail on their own: a guard two modules
share lists a test from each. For every entry the runner copies src/ to a
temporary directory, makes the one replacement there (the working tree is
never written) and runs each selector against the copy. The fingerprint test compares with digests that the runner
first records from the unmutated source in a temporary file, so a mutant that
changes a byte is caught on any numpy and BLAS. It exits non-zero when an
entry's old text is not found exactly once (the entry is stale), when a
selector fails on the unmutated source (the check proves nothing), or when a
mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL = "tests/test_evalharness.py"

# (name, file under src/, old text, new text, pytest selector, or selectors, that must fail)
MUTANTS = [
    (
        "trim-dropped",  # rows past the gather width rank every tie at the bound
        "exae/numkit.py",
        "    for start in range(0, wide.size, _SMALLEST_TRIM_ROWS):\n",
        "    for start in range(0):\n",
        f"{EVAL}::TestSelectionPaths::test_ties_are_filled_without_per_row_lexsort",
    ),
    (
        "trim-one-chunk",  # every wide row of a block is trimmed at once: temporaries 2.75 times the block
        "exae/numkit.py",
        "_SMALLEST_TRIM_ROWS = 16\n",
        "_SMALLEST_TRIM_ROWS = 2**62\n",
        f"{EVAL}::test_smallest_trims_tied_rows_within_the_block",
    ),
    (
        "tie-fill-short",  # a trimmed row keeps one tie too few and ranks a farther entry
        "exae/numkit.py",
        "<= room[:, None]",
        "< room[:, None]",
        f"{EVAL}::TestKnnClassify::test_collapsed_codes_match_full_sort",
    ),
    (
        "gather-ties-high-index",  # equal values go to the higher column index
        "exae/numkit.py",
        "np.lexsort((index, vals), axis=1)",
        "np.lexsort((-index, vals), axis=1)",
        f"{EVAL}::test_nearest_equals_full_lexsort_sweep",
    ),
    (
        "knn-sides-whole",  # the sides square every query at once: a temporary as large as the queries
        "exae/evalharness.py",
        "        side = square_sums(feats, _KNN_BLOCK_ROWS)",
        "        side = square_sums(feats, 2**62)",
        f"{EVAL}::test_knn_sides_are_taken_a_block_at_a_time",
    ),
    (
        "sides-lone-last-row",  # a 1-row last block of a Fortran-ordered matrix sums in another order
        "exae/numkit.py",
        "        start = min(start, max(rows.shape[0] - 2, 0))\n",
        "",
        f"{EVAL}::test_sides_equal_the_whole_matrix_expressions",
    ),
    (
        "knn-finite-guard-dropped",  # rows whose distances overflow are ranked instead of refused
        "exae/evalharness.py",
        "    if not ok.all():\n",
        "    if False:\n",
        f"{EVAL}::TestKnnClassify::test_non_finite_input_refused",
    ),
    (
        "knn-entry-bound-dropped",  # only overflowed sides are refused: a product past max scores 0
        "exae/evalharness.py",
        "    ok = side <= KNN_METRICS[metric]\n",
        "    ok = np.isfinite(side)\n",
        f"{EVAL}::TestKnnClassify::test_overflowed_product_refused_naming_the_train_row",
    ),
    (
        "knn-full-matrix",  # every block computes the whole queries x train matrix
        "exae/evalharness.py",
        "        block = _pairwise_dist(query, train_feats, metric, query_side[start:stop], train_side)\n",
        "        block = _pairwise_dist(query_feats, train_feats, metric, query_side, train_side)[start:stop]\n",
        f"{EVAL}::test_knn_memory_is_per_block_not_full_matrix",
    ),
    (
        "knn-block-64",  # narrow query blocks: the train side is packed three times as often
        "exae/evalharness.py",
        "_KNN_BLOCK_ROWS = 192\n",
        "_KNN_BLOCK_ROWS = 64\n",
        f"{EVAL}::test_knn_block_uses_half_its_memory_bound",
    ),
    (
        "cosine-outer-whole",  # the cosine divisor is one block-sized outer product beside the distances
        "exae/evalharness.py",
        "_COSINE_ROWS = 16\n",
        "_COSINE_ROWS = 2**62\n",
        f"{EVAL}::test_cosine_knn_on_collapsed_codes_holds_under_two_blocks",
    ),
    (
        "knn-width-unchecked",  # mismatched feature widths fail inside the first block's product
        "exae/evalharness.py",
        "    if query_feats.shape[1] != train_feats.shape[1]:\n",
        "    if False:\n",
        f"{EVAL}::TestKnnClassify::test_feature_width_mismatch_refused",
    ),
    (
        "features-whole-matrix",  # the whole input is encoded at once, with all its activations
        "exae/evalharness.py",
        "_FEATURE_BLOCK_ROWS = 1024\n",
        "_FEATURE_BLOCK_ROWS = 2**62\n",
        f"{EVAL}::TestExtractFeatures::test_memory_is_per_block",
    ),
    (
        "train-side-guard-dropped",  # an overflowing train row is scored instead of refused
        "exae/evalharness.py",
        '    train_side = _side(train_feats, metric, "train")\n',
        '    train_side = np.sum(train_feats**2, axis=1) if metric == "euclidean" else '
        "np.linalg.norm(train_feats, axis=1)\n",
        f"{EVAL}::TestKnnClassify::test_overflowing_train_row_is_named",
    ),
    (
        "cosine-norm-guard-dropped",  # a query whose norm overflows scores cosine 0 against every row
        "exae/numkit.py",
        "COSINE_NORM_BOUND = np.sqrt(np.finfo(float).max / 2)\n",
        "COSINE_NORM_BOUND = np.inf\n",
        (
            f"{EVAL}::TestKnnClassify::test_non_finite_input_refused",
            "tests/test_exclusivity.py::TestBuildContext::test_non_finite_or_overflowing_row_refused",
        ),
    ),
    (
        "knn-side-underflow-raises",  # under np.errstate(all="raise") a cosine norm that underflows escapes its refusal
        "exae/numkit.py",
        '    with np.errstate(over="ignore", under="ignore"):  # refused below',
        '    with np.errstate(over="ignore"):  # refused below',
        (
            f"{EVAL}::TestKnnClassify::test_cosine_row_whose_norm_underflows_is_refused_when_numpy_raises",
            "tests/test_exclusivity.py::TestBuildContext::test_row_whose_norm_underflows_refused_naming_it",
        ),
    ),
    (
        "cosine-underflow-ranked",  # a nonzero row whose norm underflows is ranked by its raw products
        "exae/evalharness.py",
        '        return cosine_norms(feats, _KNN_BLOCK_ROWS, f"{name} row")\n',
        "        return np.sqrt(square_sums(feats, _KNN_BLOCK_ROWS))\n",
        f"{EVAL}::TestKnnClassify::test_cosine_row_whose_norm_underflows_is_refused",
    ),
    (
        "vote-sum-unscaled",  # k distances near the euclidean bound overflow their label's sum
        "exae/evalharness.py",
        "        sums[rows, codes[:, j]] += dists[:, j] * scale\n",
        "        sums[rows, codes[:, j]] += dists[:, j]\n",
        "tests/test_fuzz.py::test_knn_equals_full_sort_on_hostile_sets",
    ),
    (
        "vote-sum-tie-break",  # count ties go to the lower label
        "exae/evalharness.py",
        "    return np.argmax(top & (sums == least), axis=1)\n",
        "    return np.argmax(top, axis=1)\n",
        f"{EVAL}::TestKnnClassify::test_count_tie_goes_to_smaller_sum_not_lower_label",
    ),
    (
        "table-fallback",  # uncertified rows keep their GEMM ranking
        "exae/exclusivity.py",
        "        if uncertified.size:",
        "        if False:",
        "tests/test_exclusivity.py::TestBuildContext::test_tie_heavy_table_equals_oracle_through_fallback",
    ),
    (
        "fallback-keeps-self",  # the block-wide fallback ranks each row among its own neighbors
        "exae/exclusivity.py",
        "            fallback[np.arange(uncertified.size), uncertified] = np.inf\n",
        "",
        "tests/test_fuzz.py::test_neighbor_table_equals_oracle_on_hostile_sets",
    ),
    (
        "table-norm-unchecked",  # a NaN or overflowing row is ranked in the neighbor table, and by cosine k-NN
        "exae/numkit.py",
        "    if past.any():\n",
        "    if False:\n",
        (
            "tests/test_exclusivity.py::TestBuildContext::test_non_finite_or_overflowing_row_refused",
            f"{EVAL}::TestKnnClassify::test_overflowing_train_row_is_named",
        ),
    ),
    (
        "oracle-copies-nonzero-rows",  # each oracle call copies the nonzero rows to rank against
        "exae/exclusivity.py",
        "    sims = (np.ascontiguousarray(dataset) @ dataset[j]) / np.where(zero, 1.0, norms * norms[j])\n",
        "    nonzero, sims = norms > 0.0, np.full(dataset.shape[0], -1.0)\n"
        "    sims[nonzero] = (dataset[nonzero] @ dataset[j]) / np.where(zero, 1.0, norms * norms[j])[nonzero]\n",
        "tests/test_exclusivity.py::TestBuildContext::test_fallback_copies_no_rows",
    ),
    (
        "norms-whole-dataset",  # the row norms square the whole dataset at once
        "exae/exclusivity.py",
        '    norms = cosine_norms(dataset, _TABLE_BLOCK_ROWS, "row")\n',
        '    norms = cosine_norms(dataset, 2**62, "row")\n',
        "tests/test_exclusivity.py::TestBuildContext::test_table_memory_is_per_block",
    ),
    (
        "peer-mean-drops-last",  # each row's peer mean leaves out its last neighbor
        "exae/exclusivity.py",
        "    homo = dataset[ctx.neighbors[idx]].mean(axis=1)\n",
        "    homo = dataset[ctx.neighbors[idx][:, :-1]].mean(axis=1)\n",
        "tests/test_acceptance.py::test_a2_oracle_equivalence",
    ),
    (
        "save-joins-blob",  # the whole parameter block is built before it is written
        "exae/evalharness.py",
        "        for chunk in chunks:\n",
        "        for chunk in chunks[:4] + [np.concatenate([p.ravel() for p in chunks[4:]])]:\n",
        f"{EVAL}::TestCheckpoint::test_save_holds_no_copy_of_the_file",
    ),
    (
        "snapshot-non-finite-loads",  # a level weight whose norm is NaN passes the positivity check
        "exae/stacking.py",
        "        if not all(0 < s < np.inf for s in snapshots):\n",
        "        if any(s <= 0 for s in snapshots):\n",
        f"{EVAL}::TestCheckpoint::test_level_weight_without_a_finite_positive_norm_refused",
    ),
    (
        "snapshots-from-assembled",  # the band's reference moves with the fine-tuned layers
        "exae/stacking.py",
        "for half in assembly_order(self.levels) for layer in half]",
        "for layer in self.assembled.layers]",
        f"{EVAL}::TestCheckpoint::test_snapshots_are_the_norms_taken_at_assembly",
    ),
    (
        "assembly-decoders-in-level-order",  # a two-level stack's decoders do not chain
        "exae/stacking.py",
        "    decoder = [layer for level in reversed(levels) for layer in level.decoder]\n",
        "    decoder = [layer for level in levels for layer in level.decoder]\n",
        "tests/test_stacking.py::TestAssembly::test_assembly_preserves_function_exactly",
    ),
    (
        "seed-negative-accepted",  # numpy refuses a negative seed only when that level's model is built
        "exae/autoencoder.py",
        '        self.seed = integer(self.seed, "seed", least=0)\n',
        '        self.seed = integer(self.seed, "seed", least=-1)\n',
        "tests/test_autoencoder.py::test_negative_seed_refused",
    ),
    (
        "lr-inf-passes",  # an infinite lr overflows the weights on the first step
        "exae/autoencoder.py",
        '        self.lr = real(self.lr, "lr", positive=True)\n',
        '        self.lr = real(self.lr, "lr", positive=True, finite=False)\n',
        "tests/test_autoencoder.py::test_infinite_lr_or_excl_weight_refused",
    ),
    (
        "workers-unpinned",  # a helper thread beside a BLAS that already uses every core
        "exae/numkit.py",
        "                return 2 if int(environ[var]) == 1 else 1\n",
        "                return 2\n",
        "tests/test_numkit.py::test_row_block_workers_follow_the_openblas_thread_setting",
    ),
    (
        "helper-failure-dropped",  # a block that fails on the helper thread leaves its rows unwritten
        "exae/numkit.py",
        "                    failed.append((block, err))\n",
        "                    failed.append((block, err)) if threading.current_thread() is threading.main_thread() else None\n",
        "tests/test_numkit.py::test_helper_failure_is_raised_in_the_caller",
    ),
    (
        "helper-rule-dropped",  # a 1000-row job starts a helper that keeps its workspace and arena resident
        "exae/numkit.py",
        "    workers = ROW_BLOCK_WORKERS if n >= _HELPER_MIN_ROWS else 1\n",
        "    workers = ROW_BLOCK_WORKERS\n",
        "tests/test_numkit.py::test_helper_starts_only_for_jobs_of_the_threshold_rows",
    ),
    (
        "helper-threshold-off-by-one",  # a job of exactly _HELPER_MIN_ROWS rows runs on the caller alone
        "exae/numkit.py",
        "if n >= _HELPER_MIN_ROWS else 1",
        "if n > _HELPER_MIN_ROWS else 1",
        "tests/test_numkit.py::test_helper_starts_only_for_jobs_of_the_threshold_rows",
    ),
    (
        "last-partial-block-skipped",  # rows past the last whole block are never computed
        "exae/numkit.py",
        "    for start in range(0, n, size):\n",
        "    for start in range(0, n - n % size, size):\n",
        "tests/test_numkit.py::test_every_block_runs_once",
    ),
    (
        "finetune-key-unnamed",  # a bad finetune value is refused under the AEConfig field name
        "exae/stacking.py",
        '            raise ValueError(f"finetune.{err}") from None\n',
        "            raise\n",
        "tests/test_stacking.py::test_invalid_config_rejected",
    ),
    (
        "header-type-error-escapes",  # a header value of the wrong JSON kind raises TypeError, untyped
        "exae/evalharness.py",
        "    except (ValueError, KeyError, TypeError) as err:\n",
        "    except (ValueError, KeyError) as err:\n",
        "tests/test_fuzz.py::test_rewritten_header_fields_load_or_raise_checkpoint_error",
    ),
    (
        "stack-neighbors-unchecked",  # a level's table too wide for the rows fails only once that level trains
        "exae/stacking.py",
        "        if level.excl_weight != 0.0 and level.n_neighbors >= n:",
        "        if False:",
        "tests/test_cli.py::test_experiment_records_neighbors_past_the_rows_and_leaves_no_model",
    ),
    (
        "stack-neighbors-at-weight-zero",  # a level that builds no neighbor table is refused for its width
        "exae/stacking.py",
        "        if level.excl_weight != 0.0 and level.n_neighbors >= n:",
        "        if level.n_neighbors >= n:",
        "tests/test_stacking.py::test_neighbors_past_the_rows_allowed_at_weight_zero",
    ),
    (
        "experiment-out-dir-early",  # a refused experiment leaves an empty output directory behind
        "exae/evalharness.py",
        "    data, test = load_data(config.data) if loaded is None else loaded\n"
        "    out_dir = Path(config.out_dir)\n    out_dir.mkdir(parents=True, exist_ok=True)\n",
        "    out_dir = Path(config.out_dir)\n    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "    data, test = load_data(config.data) if loaded is None else loaded\n",
        f"{EVAL}::TestRunExperiment::test_unreadable_data_leaves_no_output_dir",
    ),
    (
        "eval-rows-unchecked",  # eval draws its rows past the k-NN row check: k past the rows fails unnamed
        "exae/cli.py",
        "    train_set, test_set, _ = trial_setup(exp, loaded, 0)\n",
        "    from .dataio import train_test_rows\n"
        "    train_set, test_set = train_test_rows(*loaded, exp.split, exp.data.per_class_test, exp.base_seed)\n",
        "tests/test_cli.py::test_stage_commands_refuse_what_experiment_refuses_before_any_work",
    ),
    (
        "model-from-last-trial",  # model.ckpt holds the last trial's stack: eval no longer scores accuracies[0]
        "exae/evalharness.py",
        "        if trial == 0:  # after the trial's timer stopped",
        "        if trial == config.trials - 1:  # after the trial's timer stopped",
        "tests/test_cli.py::test_model_is_trial_zero_and_eval_reproduces_it_at_a_nonzero_base_seed",
    ),
    (
        "stale-model-kept",  # a run whose trial 0 fails leaves an earlier run's model.ckpt for eval to score
        "exae/evalharness.py",
        '    (out_dir / "model.ckpt").unlink(missing_ok=True)',
        "    pass",
        "tests/test_cli.py::test_experiment_records_neighbors_past_the_rows_and_leaves_no_model",
    ),
    (
        "trial-model-held",  # trial t's stack stays alive while trial t + 1 trains: one more model in memory
        "exae/evalharness.py",
        "        del stacked  # no trial's model is held while the next one trains\n",
        "",
        f"{EVAL}::TestRunExperiment::test_no_trial_model_is_held_while_the_next_trial_runs",
    ),
    (
        "model-header-config-dropped",  # model.ckpt's header holds config: null, not the run's settings
        "exae/cli.py",
        "run_experiment(*experiment_from(cfg), cfg)",
        "run_experiment(*experiment_from(cfg))",
        "tests/test_cli.py::test_model_is_trial_zero_and_eval_reproduces_it_at_a_nonzero_base_seed",
    ),
    (
        "trial-finetune-seed-dropped",  # every trial fine-tunes with seed 0 whatever its base_seed + t
        "exae/evalharness.py",
        "levels=levels, finetune_seed=seed)",
        "levels=levels)",
        f"{EVAL}::TestRunExperiment::test_trial_setup_seeds_every_phase_with_base_seed_plus_trial",
    ),
    (
        "level-seed-settable",  # stack.seed is a key again, which each trial overwrites
        "exae/cli.py",
        '"epochs", "batch_size")\n',
        '"epochs", "batch_size", "seed")\n',
        "tests/test_cli.py::test_negative_seed_or_non_finite_setting_refused_before_anything_runs",
    ),
    (
        "per-class-test-unpaired",  # a cap without test files is accepted and caps nothing
        "exae/evalharness.py",
        "            if self.test_images is None:  # it caps nothing else\n",
        "            if False:\n",
        "tests/test_cli.py::test_incomplete_data_source_refused",
    ),
    (
        "test-pair-without-train-pair",  # test files with no training pair are never read: blobs are scored
        "exae/evalharness.py",
        "        if self.test_images is not None and self.images is None:  # every file named is read\n",
        "        if False:\n",
        "tests/test_cli.py::test_incomplete_data_source_refused",
    ),
    (
        "images-without-labels",  # images alone is accepted and fails when the label file is opened
        "exae/evalharness.py",
        '        for pair in ("images", "labels"), ("test_images", "test_labels"):\n',
        '        for pair in (("test_images", "test_labels"),):\n',
        "tests/test_cli.py::test_incomplete_data_source_refused",
    ),
    (
        "idx-pair-unread",  # a config naming an IDX pair trains and scores on synthetic blobs
        "exae/evalharness.py",
        "    if spec.images is None:\n",
        "    if True:\n",
        "tests/test_cli.py::test_config_naming_an_idx_pair_trains_on_its_rows",
    ),
    (
        "activation-refusal-unnamed",  # a bad activation is refused without naming the field that holds it
        "exae/autoencoder.py",
        'raise ValueError(f"{name} must be one of {ACTIVATIONS}, got {getattr(self, name)!r}")',
        'raise ValueError(f"unknown activation {getattr(self, name)!r}, expected one of {ACTIVATIONS}")',
        "tests/test_cli.py::test_unknown_activation_refused_naming_its_field",
    ),
    (
        "finetune-failure-unnamed",  # a diverging fine-tune surfaces as a bare numeric error
        "exae/stacking.py",
        '        raise RuntimeError(f"fine-tuning failed: {err}") from err\n',
        "        raise\n",
        "tests/test_stacking.py::test_finetune_error_names_its_phase",
    ),
    (
        "finetune-rows-wrapped",  # rows training_rows refuses surface as a fine-tuning RuntimeError
        "exae/stacking.py",
        "    epochs = sgd_epochs(model, config.finetune, training_rows(model, dataset))\n    try:\n",
        "    try:\n        epochs = sgd_epochs(model, config.finetune, training_rows(model, dataset))\n",
        "tests/test_stacking.py::TestFineTune::test_non_finite_rows_rejected_before_any_work",
    ),
    (
        "one-class-scored",  # k-NN over one label scores an untrained stack 1.0
        "exae/evalharness.py",
        "    if n_classes < 2:",
        "    if False:",
        f"{EVAL}::TestRunExperiment::test_one_class_refused_naming_the_count_before_any_training",
    ),
    (
        "evaluation-failure-unnamed",  # a k-NN refusal after the fine-tune is recorded without its phase
        "exae/evalharness.py",
        '        raise ValueError(f"evaluation failed: {err}") from err\n',
        "        raise\n",
        f"{EVAL}::TestRunExperiment::test_features_past_the_knn_bound_name_the_evaluation_phase",
    ),
    (
        "trial-knn-k-unchecked",  # every trial trains in full before k-NN refuses its k
        "exae/evalharness.py",
        "    if config.knn_k > train_set.n:",
        "    if False:",
        f"{EVAL}::TestRunExperiment::test_knn_k_past_the_training_rows_refused_before_training",
    ),
    (
        "layer-sizes-truncated",  # a fractional or bool layer size is truncated to an int
        "exae/autoencoder.py",
        'self.layer_sizes = [integer(s, f"layer_sizes[{i}]") for i, s in enumerate(self.layer_sizes)]',
        "self.layer_sizes = [int(s) for s in self.layer_sizes]",
        "tests/test_autoencoder.py::test_non_integer_layer_sizes_refused",
    ),
    (
        "counts-not-integer",  # epochs=1.5 passes construction and fails in training, after earlier levels
        "exae/autoencoder.py",
        '        self.epochs = integer(self.epochs, "epochs", least=0)\n',
        "",
        "tests/test_autoencoder.py::test_non_integer_counts_refused",
    ),
    (
        "lr-nan-passes",  # a NaN learning rate trains to NaN weights without naming the field
        "exae/numkit.py",
        "    if not (x > 0 if positive else x >= 0) or",
        "    if (x <= 0 if positive else x < 0) or",
        "tests/test_autoencoder.py::test_nonpositive_or_nan_lr_refused",
    ),
    (
        "relu-derivative-at-zero",
        "exae/numkit.py",
        "        dz = grad_out * (out > 0)\n",
        "        dz = grad_out * (out >= 0)\n",
        "tests/test_forward_cache.py",
    ),
    (
        "sigmoid-derivative-rounding",  # same value in exact arithmetic, other last bits
        "exae/numkit.py",
        "        dz = grad_out * (out * (1.0 - out))\n",
        "        dz = grad_out * (out - out * out)\n",
        "tests/test_forward_cache.py",
    ),
    (
        "table-underflow-accepted",  # a nonzero row whose norm underflows is ranked as zero-norm, in the table and by k-NN
        "exae/numkit.py",
        "    if tiny.any():\n",
        "    if False:\n",
        (
            "tests/test_exclusivity.py::TestBuildContext::test_row_whose_norm_underflows_refused_naming_it",
            f"{EVAL}::TestKnnClassify::test_cosine_row_whose_norm_underflows_is_refused",
        ),
    ),
    (
        "float-labels-truncated",  # labels [0.5, 1.7, 2.0] are cast to [0, 1, 2] and classified as such
        "exae/numkit.py",
        'arr.dtype.kind not in "iu"',
        'arr.dtype.kind not in "iuf"',
        "tests/test_integers.py::test_non_integer_labels_refused_naming_the_dtype",
    ),
    (
        "table-bound-zero",  # every row with distinct rounded similarities is certified
        "exae/exclusivity.py",
        "    bound = 2.0 * (d + 4) * np.finfo(np.float64).eps\n",
        "    bound = 0.0\n",
        "tests/test_exclusivity.py::TestBuildContext::test_tie_heavy_table_equals_oracle_through_fallback",
    ),
    (
        "sgd-update-before-check",  # a refused step has already moved the earlier layers
        "exae/numkit.py",
        "    for layer, g in zip(layers, grads):\n        layer.weight -= ",
        "        layer.weight -= ",
        "tests/test_numkit.py::TestSgdStep::test_non_finite_gradient_identifies_layer",
    ),
    (
        "sgd-int-gradient-half-applied",  # an integer gradient fails its in-place scale after layer 0 moved
        "exae/numkit.py",
        "        if g.weight.dtype != np.float64 or g.bias.dtype != np.float64:",
        "        if False:",
        "tests/test_numkit.py::TestSgdStep::test_non_finite_gradient_identifies_layer",
    ),
    (
        "sgd-read-only-half-applied",  # a read-only gradient fails its in-place scale after layer 0 moved
        "exae/numkit.py",
        "        if not (g.weight.flags.writeable and g.bias.flags.writeable):",
        "        if False:",
        "tests/test_numkit.py::TestSgdStep::test_read_only_gradient_refused_before_any_layer_moves",
    ),
    (
        "grads-per-step",  # every step allocates its own gradient set while the last one is still bound
        "exae/autoencoder.py",
        "            breakdown = total_loss(model, config, ctx, dataset, batch, grads)\n",
        "            grads = [LayerGrads.like(layer) for layer in layers]\n"
        "            breakdown = total_loss(model, config, ctx, dataset, batch, grads)\n",
        "tests/test_autoencoder.py::TestTrain::test_a_phase_holds_one_gradient_set",
    ),
    (
        "level-rows-scaled-apart-from-the-stack",  # level k + 1 trains on rows the assembled encoder does not give
        "exae/stacking.py",
        "            data = encode(model, data)\n",
        "            data = encode(model, data) * 0.5\n",
        "tests/test_stacking.py::TestAssembly::test_assembled_encoder_gives_each_level_its_training_rows_bit_for_bit",
    ),
    (
        "weight-zero-encodes-prototypes",  # a context passed at weight 0 is encoded for its report
        "exae/autoencoder.py",
        "    h = enc_acts[-1][: len(x)]\n",
        "    h = enc_acts[-1][: len(x)]\n"
        "    if w == 0.0 and ctx is not None:\n"
        "        [encode(model, p) for p in excl.batch_targets(ctx, dataset, idx)]\n",
        "tests/test_forward_cache.py::test_weight_zero_runs_one_forward_pass_and_ignores_the_context",
    ),
    (
        "total-drops-weight",  # the derived total adds the exclusivity term unweighted
        "exae/autoencoder.py",
        "        return self.recon + self.weight * self.excl\n",
        "        return self.recon + self.excl\n",
        "tests/test_autoencoder.py::TestTotalLoss::test_breakdown_stores_four_fields_and_derives_excl_and_total",
    ),
    (
        "stack-sizes-unchecked",  # a fractional or bool stack size reaches the levels unnamed
        "exae/cli.py",
        "    if sizes is not None and not (isinstance(sizes, list) and len(sizes) >= 2 and all(type(s) is int for s in sizes)):\n",
        "    if False:\n",
        "tests/test_cli.py::test_value_types_checked_at_load_time",
    ),
    (
        "stack-sizes-length-unchecked",  # [] trains the default chain, [32] is refused naming no key
        "exae/cli.py",
        " and len(sizes) >= 2 and ",
        " and ",
        "tests/test_cli.py::test_value_types_checked_at_load_time",
    ),
    (
        "synth-beside-files-unread",  # dim=784 beside an IDX pair is checked, then the file's rows are used
        "exae/evalharness.py",
        "            if self.images is not None and f.name in self.SYNTH and getattr(self, f.name) != f.default:\n",
        "            if False:\n",
        "tests/test_cli.py::test_incomplete_data_source_refused",
    ),
    (
        "checkpoint-levels-unchecked",  # a 6-4-3 relu checkpoint fine-tunes under a config of other levels
        "exae/evalharness.py",
        "        if have != built:\n",
        "        if False:\n",
        "tests/test_cli.py::test_checkpoint_the_stack_section_does_not_build_refused_before_any_work",
    ),
    (
        "test-cap-skipped",  # an explicit test set keeps every row whatever per_class_test says
        "exae/dataio.py",
        "    if per_class_test:\n",
        "    if False:\n",
        "tests/test_dataio.py::test_train_test_rows_with_explicit_test_set",
    ),
    (
        "prototype-rows-get-no-gradient",  # only the x rows are backpropagated: a stopped gradient
        "exae/autoencoder.py",
        "        d_enc[: len(x)] += d_h",
        "        d_enc[len(x) :] = 0.0\n"
        "        d_enc[: len(x)] += d_h",
        "tests/test_autoencoder.py::TestTotalLoss::test_gradients_match_finite_differences",
    ),
    (
        "config-section-not-object",  # {"stack": 5} replaces the section and fails later, unnamed
        "exae/cli.py",
        " if isinstance(out[key], dict) else val\n",
        " if isinstance(out[key], dict) and isinstance(val, dict) else val\n",
        "tests/test_cli.py::test_value_types_checked_at_load_time",
    ),
    (
        "config-file-not-object",  # a file holding a list is refused as a key with no name
        "exae/cli.py",
        "        if not path:\n",
        "        if False:\n",
        "tests/test_cli.py::test_config_file_must_hold_an_object",
    ),
    (
        "model-empty-half-accepted",  # an empty encoder or decoder fails only where a layer is read
        "exae/autoencoder.py",
        "        if not (self.encoder and self.decoder):\n",
        "        if False:\n",
        "tests/test_evalharness.py::TestCheckpoint::test_model_with_an_empty_half_refused",
    ),
    (
        "synth-no-image-shape",  # image_shape has no default: synth rows build no Dataset, so exae synth fails
        "exae/dataio.py",
        ", labels=np.concatenate(labels), image_shape=(1, dim))\n",
        ", labels=np.concatenate(labels))\n",
        "tests/test_cli.py::test_synth_writes_idx_fixture",
    ),
    (
        "idx-label-range-unchecked",  # a u8 cast writes label 256 as 0 and -1 as 255
        "exae/dataio.py",
        "    if outside.size:  # IDX labels are u8: astype would wrap 256 to 0\n",
        "    if False:\n",
        "tests/test_dataio.py::TestLoadIdx::test_label_outside_u8_refused_naming_its_row_before_writing",
    ),
    (
        "test-width-unchecked",  # every trial trains, then fails at the first query
        "exae/evalharness.py",
        "    if test.dim != data.dim:\n",
        "    if False:\n",
        "tests/test_cli.py::test_test_files_of_another_width_refused_before_any_level_trains",
    ),
    (
        "integer-takes-bool",  # True passes as 1: one training row per class, one trial, k = 1
        "exae/numkit.py",
        "    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):\n",
        "    if not isinstance(value, (int, np.integer)):\n",
        "tests/test_numkit.py::test_integer_refuses_naming_its_setting",
    ),
    (
        "integer-least-off-by-one",  # a value one below its least passes: seed -1, zero trials
        "exae/numkit.py",
        "    if value < least:\n",
        "    if value < least - 1:\n",
        "tests/test_numkit.py::test_integer_refuses_naming_its_setting",
    ),
    (
        "real-takes-bool",  # True passes as 1.0: a learning rate, weight or band of one
        "exae/numkit.py",
        "    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):\n",
        "    if not isinstance(value, (int, float, np.integer, np.floating)):\n",
        "tests/test_numkit.py::test_real_refuses_naming_its_setting",
    ),
    (
        "real-type-unchecked",  # "x" or [] as a setting fails in float() without naming its key
        "exae/numkit.py",
        "    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):\n",
        "    if False:\n",
        "tests/test_fuzz.py::test_every_one_key_config_override_builds_or_is_refused_naming_its_field",
    ),
    (
        "real-inf-when-finite",  # an infinite weight or spread passes where only the band may be infinite
        "exae/numkit.py",
        " or (finite and x == math.inf):\n",
        ":\n",
        "tests/test_numkit.py::test_real_refuses_naming_its_setting",
    ),
    (
        "real-zero-when-positive",  # lr 0 passes: training runs and nothing moves
        "exae/numkit.py",
        "(x > 0 if positive else x >= 0)",
        "(x >= 0 if positive else x >= 0)",
        "tests/test_numkit.py::test_real_refuses_naming_its_setting",
    ),
    (
        "real-overflow-unnamed",  # a 400-digit int escapes as OverflowError, naming no setting
        "exae/numkit.py",
        "    except OverflowError:\n",
        "    except ZeroDivisionError:\n",
        "tests/test_numkit.py::test_real_refuses_naming_its_setting",
    ),
    (
        "path-type-unchecked",  # images=5 is accepted and fails when the file is opened
        "exae/evalharness.py",
        "            if not isinstance(getattr(self, name), (str, Path, type(None))):\n",
        "            if False:\n",
        "tests/test_integers.py::test_data_spec_path_of_another_type_refused",
    ),
    (
        "out-dir-type-unchecked",  # out_dir=5 is accepted and fails when the first file is written
        "exae/evalharness.py",
        "        if not isinstance(self.out_dir, (str, Path)):\n",
        "        if False:\n",
        "tests/test_integers.py::test_experiment_out_dir_of_another_type_refused",
    ),
    (
        "experiment-metric-unchecked",  # metric [] or "manhattan" builds, and every trial fails at k-NN
        "exae/evalharness.py",
        "        check_metric(self.metric)\n",
        "",
        "tests/test_integers.py::test_unhashable_or_non_string_metric_refused",
    ),
    (
        "knn-metric-unhashable",  # knn_classify(metric={}) raises TypeError: unhashable type
        "exae/evalharness.py",
        "    if not isinstance(metric, str) or metric not in KNN_METRICS:",
        "    if metric not in KNN_METRICS:",
        "tests/test_integers.py::test_unhashable_or_non_string_metric_refused",
    ),
    (
        "image-shape-truncated",  # (2.5, 2) is kept as a 2 x 2 header over 5-byte rows
        "exae/dataio.py",
        'self.image_shape = (integer(h, "image_shape[0]"), integer(w, "image_shape[1]"))',
        "self.image_shape = (int(h), int(w))",
        "tests/test_integers.py::test_image_shapes_the_idx_writer_would_corrupt_are_refused",
    ),
    (
        "ckpt-header-length-unchecked",  # a header length past the file is read as malformed JSON, not as truncation
        "exae/evalharness.py",
        "        if 16 + header_len > size:\n",
        "        if False:\n",
        f"{EVAL}::TestCheckpoint::test_checksummed_file_of_the_wrong_length_refused",
    ),
    (
        "ckpt-trailing-bytes-accepted",  # bytes after the last parameter load silently
        "exae/evalharness.py",
        "            if left != 0:\n",
        "            if False:\n",
        f"{EVAL}::TestCheckpoint::test_checksummed_file_of_the_wrong_length_refused",
    ),
    (
        "short-read-accepted",  # a parameter read cut short leaves its array unset and loads
        "exae/evalharness.py",
        "f.readinto(weight) + f.readinto(bias) != nbytes:",
        "f.readinto(weight) + f.readinto(bias) < 0:",
        f"{EVAL}::TestCheckpoint::test_parameter_read_short_refused",
    ),
    (
        "load-whole-file",  # the file is read whole, then each parameter is copied out of it
        "exae/evalharness.py",
        '    with open(path, "rb") as f:\n',
        '    with __import__("io").BytesIO(Path(path).read_bytes()) as f:\n',
        f"{EVAL}::TestCheckpoint::test_load_copies_each_parameter_once",
    ),
    (
        "band-overflowed-norm-read-as-zero",  # ratio 0.0: band 0.6 zeroes the weights, bands 1.0 and inf score them
        "exae/stacking.py",
        "    if not cur < np.inf:",
        "    if False:",
        "tests/test_stacking.py::test_fine_tune_whose_weight_norm_overflows_is_refused_at_every_band",
    ),
    (
        "level-one-outputs-latent",  # level 1 reconstructs [0, 1] rows through latent_activation
        "exae/cli.py",
        'output_activation=st["latent_activation"] if k else "sigmoid")',
        'output_activation=st["latent_activation"])',
        "tests/test_cli.py::test_stack_settings_reach_every_level",
    ),
    (
        "split-failure-unnamed",  # a trial whose split the rows cannot make fails naming no phase
        "exae/evalharness.py",
        '        raise ValueError(f"split failed: {err}") from err\n',
        "        raise\n",
        f"{EVAL}::TestRunExperiment::test_failed_trial_recorded_and_rest_proceed",
    ),
    (
        "breakdown-average-summed-in-python",  # one reduction rounds otherwise: A7's two runs still agree
        "exae/autoencoder.py",
        "        name: float(np.dot(weights, [getattr(r, name) for r in records]))\n",
        "        name: float(sum(w * getattr(r, name) for w, r in zip(weights, records)))\n",
        "tests/test_fingerprints.py::test_outputs_match_the_recorded_digests",
    ),
]


PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


def run_python(src: Path, args: list, fingerprints: Path) -> tuple:
    """(exit code, output tail) of python args, run from the repo root against the package
    in src; tests/test_fingerprints.py reads and records its digests in fingerprints."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", EXAE_FINGERPRINTS=str(fingerprints))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, "\n".join((done.stdout + done.stderr).splitlines()[-15:])


def selectors(mutant: tuple) -> tuple:
    """The pytest selectors a mutant lists, each of which must fail on its own."""
    return (mutant[4],) if isinstance(mutant[4], str) else mutant[4]


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src, fingerprints = Path(tmp) / "src", Path(tmp) / "fingerprints.json"
        # this environment's digests of the unmutated source: a mutant that changes a byte
        # then fails tests/test_fingerprints.py even where tests/fingerprints.json has no entry
        code, tail = run_python(ROOT / "src", ["tests/test_fingerprints.py", "--record"], fingerprints)
        if code == 0:
            code, tail = run_python(ROOT / "src", [*PYTEST, *sorted({s for m in chosen for s in selectors(m)})], fingerprints)
        if code != 0:
            print(f"{tail}\nselectors fail on the unmutated source")
            return 1
        for mutant in chosen:
            name, rel, old, new = mutant[:4]
            started = time.perf_counter()
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            target = src / rel
            text = target.read_text()
            if text.count(old) != 1:
                problems.append(name)
                print(f"{name}: STALE, old text found {text.count(old)} times in {rel}")
                continue
            target.write_text(text.replace(old, new))
            verdicts = []
            for selector in selectors(mutant):
                code, tail = run_python(src, [*PYTEST, selector], fingerprints)
                verdicts.append({0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})"))
                if code != 1:  # 1: some test failed; 0 or a usage/collection error is not a kill
                    print(f"{selector}\n{tail}")
            if verdicts != ["killed"] * len(verdicts):
                problems.append(name)
            print(f"{name}: {' / '.join(verdicts)} in {time.perf_counter() - started:.1f} s")
    print(f"{len(chosen) - len(problems)} of {len(chosen)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Committed mutation checks: each mutant must be caught by its tests.

    python mutants/run.py            # every mutant
    python mutants/run.py tie-fill   # only the named ones

Run from anywhere. Each entry of MUTANTS names a file under src/, an exact
piece of its text, the text that replaces it, and a pytest selector. For
every entry the runner copies src/ to a temporary directory, makes the one
replacement there (the working tree is never written) and runs the selector
against the copy. It exits non-zero when an entry's old text is not found
exactly once (the entry is stale), when a selector fails on the unmutated
source (the check proves nothing), or when a mutant survives.
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

# (name, file under src/, old text, new text, pytest selector that must fail)
MUTANTS = [
    (
        "tie-fill",  # a row with overflowing ties picks more than reach columns
        "exae/evalharness.py",
        "    if over.any():\n",
        "    if False:\n",
        f"{EVAL}::TestSelectionPaths::test_ties_are_filled_without_per_row_lexsort",
    ),
    (
        "no-gathered-path",  # every row takes the full sort
        "exae/evalharness.py",
        "    gathered = counts <= _KNN_GATHER_WIDTH\n",
        "    gathered = counts < 0\n",
        f"{EVAL}::TestSelectionPaths::test_healthy_codes_rank_only_candidates",
    ),
    (
        "knn-argpartition-ties",  # tied distances go to whichever columns argpartition picks
        "exae/evalharness.py",
        "    cols = (np.flatnonzero(below | tied) % block.shape[1]).reshape(-1, reach)\n",
        "    cols = np.argpartition(block, reach - 1, axis=1)[:, :reach]\n",
        f"{EVAL}::TestKnnClassify::test_collapsed_codes_match_full_sort",
    ),
    (
        "knn-finite-guard-dropped",  # overflowing distances are ranked instead of refused
        "exae/evalharness.py",
        "        if not finite.all():\n",
        "        if False:\n",
        f"{EVAL}::TestKnnClassify::test_non_finite_input_refused",
    ),
    (
        "knn-full-matrix",  # every block computes the whole queries x train matrix
        "exae/evalharness.py",
        "        block = _pairwise_dist(query_feats[start:stop], train_feats, metric, train_side)\n",
        "        block = _pairwise_dist(query_feats, train_feats, metric, train_side)[start:stop]\n",
        f"{EVAL}::test_knn_memory_is_per_block_not_full_matrix",
    ),
    (
        "exclude-self-last-column",  # a query outside its own reach keeps k+1 neighbors
        "exae/evalharness.py",
        "            keep[:, -1] &= ~keep.all(axis=1)\n",
        "",
        f"{EVAL}::TestKnnClassify::test_exclude_self_among_duplicates",
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
        "        for i in rows[~certified]:\n",
        "        for i in rows[:0]:\n",
        "tests/test_exclusivity.py::TestBuildContext::test_tie_heavy_table_equals_oracle_through_fallback",
    ),
    (
        "table-fallback-copies-per-row",  # each fallback row copies the live rows again
        "exae/exclusivity.py",
        "-_cosine_to_row(dataset, i, norms, live)",
        "-_cosine_to_row(dataset, i, norms)",
        "tests/test_exclusivity.py::TestBuildContext::test_fallback_rows_share_one_copy_of_the_live_rows",
    ),
    (
        "peer-mean-drops-last",  # each row's peer mean leaves out its last neighbor
        "exae/exclusivity.py",
        "    homo = dataset[ctx.neighbors[idx]].mean(axis=1)\n",
        "    homo = dataset[ctx.neighbors[idx][:, :-1]].mean(axis=1)\n",
        "tests/test_acceptance.py::test_a2_oracle_equivalence",
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
        "table-bound-zero",  # every row with distinct rounded similarities is certified
        "exae/exclusivity.py",
        "    bound = 2.0 * (d + 4) * np.finfo(np.float64).eps\n",
        "    bound = 0.0\n",
        "tests/test_exclusivity.py::TestBuildContext::test_tie_heavy_table_equals_oracle_through_fallback",
    ),
    (
        "sgd-update-before-check",  # a refused step has already moved the earlier layers
        "exae/numkit.py",
        "    # every layer is checked before any moves, so a refused step changes nothing\n"
        "    for layer, g in zip(layers, grads):\n",
        "",
        "tests/test_numkit.py::TestSgdStep::test_non_finite_gradient_identifies_layer",
    ),
    (
        "level-keys-unchecked",  # a misspelled level key reaches AEConfig as a TypeError
        "exae/cli.py",
        "    for k, level in enumerate(levels):\n",
        "    for k, level in enumerate([]):\n",
        "tests/test_cli.py::test_misspelled_key_rejected_with_its_path",
    ),
    (
        "test-cap-skipped",  # an explicit test set keeps every row whatever per_class_test says
        "exae/dataio.py",
        "    if per_class_test:\n",
        "    if False:\n",
        "tests/test_dataio.py::test_train_test_rows_with_explicit_test_set",
    ),
    (
        "explicit-test-mirror-dropped",  # mirror_train reaches only the split path
        "exae/dataio.py",
        "    return (mirror(train) if split.mirror_train else train), test\n",
        "    return train, test\n",
        "tests/test_dataio.py::test_train_test_rows_with_explicit_test_set",
    ),
]


def run_pytest(src: Path, selectors: list) -> tuple:
    """(exit code, output tail) of pytest run on selectors against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, "\n".join((done.stdout + done.stderr).splitlines()[-15:])


def main(argv: list) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        code, tail = run_pytest(ROOT / "src", sorted({m[4] for m in chosen}))
        if code != 0:
            print(f"{tail}\nselectors fail on the unmutated source")
            return 1
        for name, rel, old, new, selector in chosen:
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
            code, tail = run_pytest(src, [selector])
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            if code != 1:  # 1: some test failed; 0 or a usage/collection error is not a kill
                problems.append(name)
                print(tail)
            print(f"{name}: {verdict} in {time.perf_counter() - started:.1f} s")
    print(f"{len(chosen) - len(problems)} of {len(chosen)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

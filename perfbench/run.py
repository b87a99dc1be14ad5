"""exae benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload a6proxy-excl --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``; no
install step is needed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's details (environment, every phase time,
the collapse facts, check failures). With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a run that alternates untraced and traced ops.

Set-up (making the seeded inputs, and for eval-large saving the
checkpoint) runs SETUP_REPEATS times and reports its median. Ops then run
back to back; another op starts only while the run is predicted to end
within ``--seconds``, and there are always at least MIN_OPS ops. Every
op's outputs are checked after its timing ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BLAS_THREADS = 1  # one thread per process: steadier than two on a shared 2-core box
SETUP_REPEATS = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 2  # a median over at least two ops, even when one op outlasts --seconds
END_TO_END = {
    "setup_s": "s",
    "arm_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--corrupt", choices=("neighbor", "knn", "checkpoint"), default=None,
                   help="falsify one output, for the self-test")
    return p.parse_args(argv)


def tail(values):
    """Highest order statistic with at least 10 samples beyond it.

    Returns (value, percentile, samples). With 10 samples or fewer no
    value qualifies, and the maximum is reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def machine_probe() -> float:
    """Median seconds of a fixed mix of Python sorting and small matrix
    products that does not touch exae, so it reads the same on every
    commit and tracks only the machine's speed at the time of the run."""
    import numpy as np

    rng = np.random.default_rng(0)
    keys = rng.random(2000)
    x, w = rng.random((32, 256)), rng.random((256, 128))
    times = []
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(20):
            sorted(range(keys.size), key=lambda i: (-keys[i], i))
        for _ in range(400):
            np.maximum(x @ w, 0.0).sum()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # a checkout without .git must not report an enclosing repository
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "exae").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def raised(err: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(err).__name__}: {err}"


def measure(args, workdir: Path) -> dict:
    # imported here: numpy must load after the BLAS thread count is pinned
    from tracing import SETUP, Tracer
    from workloads import WORKLOADS, no_span

    tracer = Tracer() if args.trace else None
    probes = [machine_probe()]
    wl = WORKLOADS[args.workload](args.seed, args.scale, workdir, args.corrupt)
    setup_times, op_times, traced_flags, arms, op_errors = [], [], [], [], []
    with wl:
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            with tracer.unit(SETUP) if tracer else nullcontext():
                wl.setup()
            setup_times.append(time.perf_counter() - started)

        window = time.perf_counter()
        walls = []  # op plus its checks, to predict whether one more fits
        i = 0
        while i < MIN_OPS or (
            time.perf_counter() - window + statistics.median(walls) <= args.seconds
        ):
            traced = tracer is not None and i % 2 == 1
            started = time.perf_counter()
            errors, ran = [], []
            # an op or check that raises is counted as failed, and the run goes on
            try:
                if traced:
                    with tracer.unit(i):
                        ran = wl.op(i, lambda name: tracer.span(name, layer=False))
                else:
                    ran = wl.op(i, no_span)
            except Exception as err:
                errors.append(raised(err))
            op_times.append(time.perf_counter() - started)
            try:
                wl.check(ran)
            except Exception as err:
                errors.append(raised(err))
            traced_flags.append(traced)
            for arm, *_ in ran:
                errors += arm.errors
                arms.append(arm)
            op_errors.append(errors)
            walls.append(time.perf_counter() - started)
            i += 1
    probes.append(machine_probe())

    return {
        "setup_times": setup_times,
        "op_times": op_times,
        "traced": traced_flags,
        "arms": arms,
        "op_errors": op_errors,
        "tracer": tracer,
        "probes": probes,
    }


def summarise(args, run: dict) -> tuple:
    arms, ops = run["arms"], run["op_times"]
    failed = sum(1 for e in run["op_errors"] if e)
    median = statistics.median

    def over_arms(attr):  # median over arms; 0 when every op raised
        return median(getattr(a, attr) for a in arms) if arms else 0.0

    def ratio(num, den):
        total = sum(getattr(a, den) for a in arms)
        return sum(getattr(a, num) for a in arms) / total if total else 0.0

    tail_value, tail_pct, samples = tail(ops)
    every = {
        "setup_s": median(run["setup_times"]),
        "arm_s": median(ops),
        "arm_s.tail": tail_value,
        "arm_s.tail_percentile": tail_pct,
        "arm_s.samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pretrain_s": over_arms("pretrain_s"),
        "finetune_s": over_arms("finetune_s"),
        "eval_s": over_arms("eval_s"),
        "train_rows_per_s": ratio("train_rows", "train_s"),
        "eval_queries_per_s": ratio("queries", "eval_s"),
        "fail_frac": failed / len(ops),
    }
    facts = {
        "codes.zero_row_frac": over_arms("zero_row_frac"),
        "codes.dead_unit_frac": over_arms("dead_unit_frac"),
        "knn.accuracy": over_arms("accuracy"),
    }
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "probe_s": run["probes"],
        "arms": len(arms),
        "op_s": ops,
        "all": every,
        "facts": facts,
        "failures": [e for errs in run["op_errors"] for e in errs][:20],
    }
    if args.trace:
        tracer = run["tracer"]
        traced = [t for t, f in zip(ops, run["traced"]) if f]
        plain = [t for t, f in zip(ops, run["traced"]) if not f]
        metrics = tracer.layer_metrics()
        metrics["arm_s.traced"] = median(traced)
        metrics["arm_s.untraced"] = median(plain)
        metrics["trace.overhead_s"] = median(traced) - median(plain)
        metrics.update(facts)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {k: every[k] for k in END_TO_END}
        units = END_TO_END
    detail["metrics"] = metrics
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, result


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return {
        "s": "s", "self_s": "s", "traced": "s", "untraced": "s", "overhead_s": "s",
        "p50": "ms", "p99": "ms",
        "gflop": "GFLOP", "bytes": "B", "live_row_frac": "fraction",
        "zero_row_frac": "fraction", "dead_unit_frac": "fraction", "accuracy": "fraction",
    }.get(last, "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "exae" / "__init__.py").is_file():
        print(f"no exae package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = measure(args, workdir)
        detail, result = summarise(args, run)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            run["tracer"].write_spans(OUT / f"spans-{stem}.csv")
        (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: cold-process repetitions of one workload, then one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload adam_detect --seed 0 --seconds 20 --trace 0

Each repetition runs ``perfbench/rep.py`` in a fresh single-threaded
interpreter (vector mode on, result cache off, results written to a
throwaway directory). Within ``--seconds`` the runner first launches a few
set-up-only processes, then repeats the workload until the time is spent.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians of
the untraced repetitions. ``--trace 1`` alternates traced and untraced
repetitions and reports the per-layer metrics of the traced ones, with
``trace.overhead_s`` the traced minus the untraced median wall time; the
spans are written to ``perfbench/.traces/``.

Every check runs after the timed body. The last line of standard output
is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` is false when a check fails for any reason other than the
recorded direct-transfer defect (a multi-page tensor rejected by its
receiver), or when a modelled counter or the set of failed checks
differs between repetitions of the same seed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join(HERE, "rep.py")

WORKLOADS = ("adam_detect", "system_figures", "layout_sweeps", "secure_transfer")

#: Set-up-only launches per run; ``setup_s`` is the median over these and
#: the set-up of every untraced repetition.
SETUP_PROBES = 4

#: A run never outlives this many seconds, whatever ``--seconds`` asks.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env(root: str, results_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    for key in ("REPRO_NO_VECTORIZE", "REPRO_SWEEPS_DIR"):
        env.pop(key, None)
    src = os.path.join(root, "src")
    env.update(
        PYTHONPATH=src,
        PYTHONHASHSEED="0",
        REPRO_RESULTS_DIR=results_dir,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


class Runner:
    """Launches repetitions of one workload and collects their results."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(HERE, ".work", str(os.getpid()))
        self.launches = 0

    def launch(self, mode: str) -> Dict[str, Any]:
        """Run one child to completion; returns its result plus ``setup_s``."""
        self.launches += 1
        tag = f"{self.launches:03d}-{mode}"
        out = os.path.join(self.work, f"{tag}.json")
        log = os.path.join(self.work, f"{tag}.log")
        results_dir = os.path.join(self.work, f"{tag}-results")
        cmd = [
            sys.executable,
            REP,
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--mode",
            mode,
            "--out",
            out,
        ]
        timeout = max(1.0, self.deadline_hard - time.monotonic())
        with open(log, "wb") as log_file:
            launched = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd,
                    cwd=self.root,
                    env=_child_env(self.root, results_dir),
                    stdin=subprocess.DEVNULL,
                    stdout=log_file,
                    stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{tag}: no result within {timeout:.0f} s") from exc
        shutil.rmtree(results_dir, ignore_errors=True)
        if proc.returncode != 0:
            with open(log, "r", encoding="utf-8", errors="replace") as f:
                tail = f.read()[-4000:]
            raise BenchError(f"{tag}: exited with {proc.returncode}\n{tail}")
        with open(out, "r", encoding="utf-8") as f:
            result = json.load(f)
        result["setup_s"] = result["ready"] - launched
        return result

    def __enter__(self) -> "Runner":
        os.makedirs(self.work, exist_ok=True)
        self.deadline_hard = time.monotonic() + RUN_LIMIT_S
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def _median(values: List[float]) -> float:
    return statistics.median(values)


def _consistency_problems(reps: List[Dict[str, Any]], what: str) -> List[str]:
    """Counters and failed checks must repeat exactly across repetitions."""
    problems = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["counters"] != first["counters"]:
            problems.append(f"{what}: modelled counters differ between repetitions")
        if rep["failed"] != first["failed"]:
            problems.append(f"{what}: failed checks differ between repetitions")
    return problems


def _check_problems(reps: List[Dict[str, Any]]) -> List[str]:
    problems = []
    for rep in reps:
        for name in rep["unexpected"]:
            problems.append(f"check failed: {name}")
    return sorted(set(problems))


def measure(runner: Runner, trace: bool, min_each: int) -> Dict[str, List[Dict[str, Any]]]:
    """Set-up probes, then repetitions until the deadline.

    A new repetition starts only while at least half of it is expected to
    fit before the deadline, so a run overshoots ``--seconds`` by less
    than half a repetition on average.
    """
    runner.launch("setup")  # warm-up: bytecode and file cache, not measured
    setups = [runner.launch("setup") for _ in range(SETUP_PROBES)]
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    modes = ("trace", "run") if trace else ("run",)
    turn = 0
    last_s = 0.0
    while True:
        done = min(len(traced) if trace else min_each, len(untraced))
        if done >= min_each and time.monotonic() + last_s / 2 >= runner.deadline:
            break
        mode = modes[turn % len(modes)]
        turn += 1
        started = time.monotonic()
        (traced if mode == "trace" else untraced).append(runner.launch(mode))
        last_s = time.monotonic() - started
    return {"setup": setups, "run": untraced, "trace": traced}


def end_to_end(reps: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    runs = reps["run"]
    wall_s = _median([r["wall_s"] for r in runs])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    return {
        "wall_s": wall_s,
        "setup_s": _median([r["setup_s"] for r in reps["setup"] + runs]),
        "peak_rss_mb": _median([r["peak_rss_kb"] / 1024.0 for r in runs]),
        "sim_lines_per_s": runs[0]["sim_lines"] / wall_s,
        "ops_ok_share": (attempted - failed) / attempted,
    }


def per_layer(reps: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    traced = reps["trace"]
    names = traced[0]["layers"].keys()
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in names}
    metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(
        [r["wall_s"] for r in reps["run"]]
    )
    return metrics


def trace_problems(reps: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """Self times must account for the traced wall time exactly."""
    problems = []
    for r in reps["trace"]:
        layers = r["layers"]
        total = r["attributed_s"] + layers["trace.unattributed_s"]
        tolerance = 1e-3 + 1e-4 * r["wall_s"]
        if abs(total - r["wall_s"]) > tolerance:
            problems.append(
                f"trace: self times sum to {total:.6f} s, traced wall is {r['wall_s']:.6f} s"
            )
        if any(span[6] < -1e-9 for span in r["spans"]):
            problems.append("trace: a span has negative self time")
    if reps["trace"] and reps["trace"][0]["sim_lines"] != reps["run"][0]["sim_lines"]:
        problems.append("trace: traced and untraced runs count different lines")
    return problems


def write_spans(root: str, workload: str, seed: int, reps: Dict[str, List[Dict[str, Any]]]) -> str:
    """Spans of every traced repetition, one JSON document keyed by repetition."""
    out_dir = os.path.join(HERE, ".traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.json.gz")
    fields = ["id", "parent", "layer", "name", "start", "end", "self_s"]
    document = {
        "workload": workload,
        "seed": seed,
        "fields": fields,
        "repetitions": {str(i): r["spans"] for i, r in enumerate(reps["trace"])},
    }
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump(document, f)
    return os.path.relpath(path, root)


def _load_metric_specs(root: str) -> Dict[str, Dict[str, dict]]:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def _preflight(root: str) -> None:
    """Fail fast, without a result, outside a full checkout."""
    needed = [
        os.path.join(root, "src", "repro", "__init__.py"),
        os.path.join(root, "BENCHMARK.json"),
        os.path.join(root, "benchmarks", "artifact_digests.json"),
        os.path.join(root, "sweeps"),
    ]
    missing = [os.path.relpath(p, root) for p in needed if not os.path.exists(p)]
    if missing:
        raise BenchError(
            "run from the root of a repository checkout; missing: " + ", ".join(missing)
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    start = time.monotonic()
    try:
        _preflight(root)
        specs = _load_metric_specs(root)
        with Runner(root, args.workload, args.seed, start + args.seconds) as runner:
            reps = measure(runner, trace=bool(args.trace), min_each=1 if args.trace else 2)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    all_reps = reps["run"] + reps["trace"]
    problems = _check_problems(all_reps)
    problems += _consistency_problems(reps["run"], "untraced")
    if reps["trace"]:
        problems += _consistency_problems(reps["trace"], "traced")
        problems += trace_problems(reps)
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(len(r["failed"]) for r in all_reps)

    summary = end_to_end(reps)
    summary["ops_failed_share"] = 1.0 - summary["ops_ok_share"]
    if args.trace:
        metrics = per_layer(reps)
        wanted = specs["per_layer"]
        print(f"spans: {write_spans(root, args.workload, args.seed, reps)}")
    else:
        metrics = summary
        wanted = specs["end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"perfbench: no value for metric(s) {missing}", file=sys.stderr)
        return 1

    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"repetitions {len(reps['run'])} untraced, {len(reps['trace'])} traced, "
        f"{len(reps['setup'])} set-up only"
    )
    units = {**{n: m["unit"] for n, m in specs["end_to_end"].items()}, "ops_failed_share": "ratio"}
    for name, value in summary.items():
        print(f"  {name:<18} {value:14.6g} {units.get(name, '')}")
    for mode in ("run", "trace"):
        if reps[mode]:
            walls = " ".join(f"{r['wall_s']:.3f}" for r in reps[mode])
            print(f"  wall_s of each {mode} repetition: {walls}")
    if args.trace:
        for name in wanted:
            print(f"  {name:<38} {metrics[name]:14.6g} {wanted[name]['unit']}")
    for rep_failed in sorted({name for r in all_reps for name in r["failed"]}):
        print(f"  failed check: {rep_failed}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": wanted[name]["unit"]} for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

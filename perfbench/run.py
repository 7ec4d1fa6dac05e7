"""The resnum benchmark: four workloads, end-to-end metrics, a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Each pass runs in a fresh single-threaded interpreter (perfbench/worker.py)
that imports resnum from src/, driven by one closed-loop caller: the next
input goes in only after the previous call returned.  Passes run one at a
time.  Outputs are checked against independent oracles outside the timed
sections.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit code is 1 when any output
fails its check and 2 when the checkout holds no resnum sources.
See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from collections import Counter
from statistics import median
from time import perf_counter

from check import read_batch

START = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 8  # fresh interpreters timed for setup_s, half before and half after
# the workload so that two stretches of machine speed are sampled; median reported
MIN_SAMPLES = 1000  # latency samples per run, so at least 10 lie beyond p99
TRACE_BATCHES = 10  # fixed stream work of a traced run, so its counts repeat
TIME_LIMIT = 150.0  # seconds for the passes of a run; the checks fit in the rest of 180
CHECK_LIMIT = 172.0  # seconds from start by which the output checks must have ended
CHECKERS = 2  # check.py processes, one per core of the reference machine
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)
CATALOG = {"members": 17, "girth3": 13, "girth5": 4}

WORKLOADS = {
    "catalog": {"mode": "catalog"},
    "enum_trees": {"mode": "enum_trees", "max_order": len(A000055)},
    "compute_stream": {"mode": "stream", "command": "compute", "orders": [20, 62], "per_bucket": 8},
    "bound_suite": {"mode": "stream", "command": "verify", "orders": [8, 12], "per_bucket": 8},
}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "first_output_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker passes one at a time under one deadline for the run."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.deadline = perf_counter() + TIME_LIMIT
        self.count = 0
        src = os.path.join(root, "src")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else src,
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def run(self, spec: dict) -> dict:
        self.count += 1
        out = os.path.join(self.workdir, f"pass{self.count}.json")
        spec = dict(spec, out=out)
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("time limit reached before the pass started")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                cwd=self.root,
                env=self.env,
                timeout=left,
                capture_output=True,
                text=True,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{spec['mode']} pass did not finish within the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{spec['mode']} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out) as fh:
            return json.load(fh)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


# ---- correctness checks: each returns the number of failed items ----


def check_catalog(rep: dict, fixture: str) -> int:
    try:
        line = json.loads(rep["stdout"])
    except ValueError:
        return 1
    ok = isinstance(line, dict) and (
        rep["rc"] == 0
        and rep.get("rendered") == fixture
        and rep.get("girth3") == CATALOG["girth3"]
        and rep.get("girth5") == CATALOG["girth5"]
        and line.get("members") == CATALOG["members"]
        and line.get("fixture_match") is True
    )
    return 0 if ok else 1


def check_enum_trees(rep: dict) -> int:
    ok = rep["counts"] == list(A000055) and rep["non_trees"] == 0 and rep["duplicates"] == 0
    return 0 if ok else 1


def check_all(runner: "Runner", command: str, reps: list[dict]) -> int:
    """Failed graphs over all batches, checked by one check.py per core.

    The workload has finished by now.  Each checker is a plain subprocess
    that is waited for, and killed and reaped on any way out, so none
    outlives the run.
    """
    parts = [reps[i::CHECKERS] for i in range(CHECKERS) if reps[i::CHECKERS]]
    procs, outs = [], []
    try:
        for i, part in enumerate(parts):
            spec = os.path.join(runner.workdir, f"check{i}.json")
            outs.append(os.path.join(runner.workdir, f"check{i}.out.json"))
            with open(spec, "w") as fh:
                json.dump({"command": command, "reps": [{"input": r["input"], "rc": r["rc"]} for r in part]}, fh)
            procs.append(
                subprocess.Popen(
                    [sys.executable, os.path.join(HERE, "check.py"), spec, outs[-1]],
                    cwd=runner.root,
                    env=runner.env,
                )
            )
        for proc in procs:
            left = START + CHECK_LIMIT - perf_counter()
            try:
                if proc.wait(timeout=max(left, 1.0)) != 0:
                    raise BenchError(f"output check exited {proc.returncode}")
            except subprocess.TimeoutExpired:
                raise BenchError("output checks did not finish within the time limit")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    failed = 0
    for out in outs:
        with open(out) as fh:
            failed += sum(json.load(fh))
    return failed


# ---- workloads ----


def setup_times(runner: Runner) -> list[dict]:
    return [runner.run({"mode": "setup"}) for _ in range(SETUP_REPS // 2)]


def cold_passes(runner: Runner, cfg: dict, seconds: float) -> list[dict]:
    """Fresh-interpreter passes until `seconds` and MIN_SAMPLES are both reached."""
    reps: list[dict] = []
    start = perf_counter()
    while perf_counter() - start < seconds or sum(len(r["latencies"]) for r in reps) < MIN_SAMPLES:
        reps.append(runner.run(cfg))
    return reps


def stream_pass(runner: Runner, cfg: dict, seed: int, **how) -> dict:
    """One worker over the seeded batch stream; `how` bounds it by time or batches."""
    workdir = os.path.join(runner.workdir, "traced" if how.get("trace") else "plain")
    os.makedirs(workdir)
    return runner.run(dict(cfg, seed=seed, workdir=workdir, **how))


def check_passes(runner: Runner, cfg: dict, passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed): graphs for the streams, passes for the cold workloads."""
    if cfg["mode"] == "stream":
        reps = [r for p in passes for r in p["reps"]]
        return sum(r["graphs"] for r in reps), check_all(runner, cfg["command"], reps)
    if cfg["mode"] == "catalog":
        with open(os.path.join(runner.root, "src", "resnum", "data", "res3_catalog.g6")) as fh:
            fixture = fh.read()
        return len(passes), sum(check_catalog(r, fixture) for r in passes)
    return len(passes), sum(check_enum_trees(r) for r in passes)


def describe_inputs(reps: list[dict]) -> dict:
    graphs = sum(r["graphs"] for r in reps)
    densities = Counter(p for r in reps for p in r["densities"])
    return {
        "graphs": graphs,
        "batches": len(reps),
        "input_bytes": sum(r["bytes"] for r in reps),
        "tree_share": sum(r["trees"] for r in reps) / graphs,
        "density_shares": {str(p): c / graphs for p, c in sorted(densities.items())},
        "order_histogram": dict(sorted(Counter(n for r in reps for n in r["orders"]).items())),
    }


def end_to_end(reps: list[dict], setup: list[dict], rss: float) -> dict:
    walls = [r["wall"] for r in reps]
    latencies = sorted(x for r in reps for x in r["latencies"])
    return {
        "setup_s": median(s["setup_s"] for s in setup),
        "wall_s": median(walls),
        "graphs_per_s": sum(r["graphs"] for r in reps) / sum(walls),
        "first_output_s": median(r["first"] for r in reps),
        "latency_p50_ms": percentile(latencies, 0.50) * 1000,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000,
        "peak_rss_mb": rss,
    }


def timed_run(runner: Runner, cfg: dict, args) -> tuple[dict, int, int, list[str]]:
    """Untraced run: end-to-end metrics, with setup timed before and after."""
    setup = setup_times(runner)
    if cfg["mode"] == "stream":
        passes = [stream_pass(runner, cfg, args.seed, seconds=args.seconds, min_samples=MIN_SAMPLES)]
        reps = passes[0]["reps"]
        rss = passes[0]["rss_mb"]
        notes = ["inputs " + json.dumps(describe_inputs(reps))]
    else:
        passes = reps = cold_passes(runner, cfg, args.seconds)
        rss = max(r["rss_mb"] for r in reps)
        notes = [f"inputs deterministic; {reps[0]['graphs']} graphs per pass"]
    attempted, failed = check_passes(runner, cfg, passes)
    setup += setup_times(runner)
    probe = median(r["probe"] for r in reps + setup)
    notes.append(f"latency samples {sum(len(r['latencies']) for r in reps)}; passes or batches {len(reps)}")
    notes.append(f"speed probe median {probe * 1000:.3f} ms; times are scaled to the 5 ms reference")
    metrics = end_to_end(reps, setup, rss)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, attempted, failed, notes


def traced_run(runner: Runner, cfg: dict, args) -> tuple[dict, int, int, list[str]]:
    """A fixed amount of work, untraced and then traced, so the counts repeat."""
    load_s = runner.run({"mode": "setup", "trace": True})["load_s"]
    if cfg["mode"] == "stream":
        plain, traced = (
            stream_pass(runner, cfg, args.seed, batches=TRACE_BATCHES, trace=t) for t in (False, True)
        )
        attempted, failed = check_passes(runner, cfg, [plain])
        # the traced pass ran the same batches and must print the same lines
        for a, b in zip(plain["reps"], traced["reps"]):
            attempted += a["graphs"]
            failed += 0 if read_batch(a)[1] == read_batch(b)[1] and b["rc"] == 0 else a["graphs"]
        walls = [sum(r["wall"] for r in p["reps"]) for p in (plain, traced)]
    else:
        plain, traced = runner.run(cfg), runner.run(dict(cfg, trace=True))
        attempted, failed = check_passes(runner, cfg, [plain, traced])
        walls = [plain["wall"], traced["wall"]]
    metrics = dict(traced["layers"])
    metrics["catalog.load_default_catalog.s"] = load_s
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    notes = [f"traced spans written to {os.path.relpath(runner.workdir, runner.root)}"]
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}, attempted, failed, notes


def run(args, root: str) -> tuple[dict, int, int, list[str]]:
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(root, workdir)
    cfg = WORKLOADS[args.workload]
    return (traced_run if args.trace else timed_run)(runner, cfg, args)


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("per_class") or name.endswith("per_graph"):
        return "1"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "resnum", "__init__.py")):
        print("perfbench: no src/resnum here; run from the root of a resnum checkout", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, notes = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

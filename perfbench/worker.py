"""One workload pass in a fresh interpreter, started by run.py.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the mode (setup, catalog, enum_trees or stream), whether
to trace, and the file the pass writes its JSON result to.  Timing
covers calls into resnum only; input generation, file writes and
checks stay outside the timed sections.  Every reported time is scaled
to reference machine speed (see Speedometer).
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import sys
from time import perf_counter

# Times are reported at the machine speed where speed_probe() takes this
# long.  Shared hosts drift by up to 1.7x within tens of seconds; the
# probe tracks that drift and scaling by it cancels most of it.
PROBE_REF = 0.005
SAMPLE_EVERY = 0.1  # seconds between speed samples inside a long timed call


def speed_probe(runs: int = 5) -> float:
    """Seconds the machine takes right now for a fixed reference loop.

    The loop mixes interpreter work with small numpy comparisons, like the
    code under test, and runs no resnum code; the median of `runs` runs
    is taken.
    """
    import numpy as np

    a = np.arange(64 * 64).reshape(64, 64)
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        x = 0
        d = {}
        for i in range(30_000):
            x += i * i
            d[i & 255] = x
        for i in range(300):
            (a[i % 63 + 1 :] == a[i % 63]).sum(axis=1)
        times.append(perf_counter() - t0)
    return sorted(times)[runs // 2]


class Speedometer:
    """Clock for one timed section that also measures the machine's speed.

    Probes run right before and right after the section.  With `inside`,
    a SIGALRM handler also probes every SAMPLE_EVERY seconds during it, and
    `now()` leaves the time those probes took out.  `scaled(t)` turns a
    value of `now()` into reference seconds since the section began: between
    two consecutive probes the machine runs at their mean speed.  Short
    sections use the outside probes only, so that no probe lands between
    two of their lines.
    """

    def __init__(self, inside: bool):
        self.inside = inside
        self.samples: list[tuple[float, float]] = []  # (now(), probe seconds)
        self.spent = 0.0

    def __enter__(self) -> "Speedometer":
        probe = speed_probe()
        if self.inside:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self.t0 = perf_counter()
        self.samples.append((0.0, probe))
        return self

    def _tick(self, signum, frame) -> None:
        at = self.now()
        t = perf_counter()
        probe = speed_probe(1)
        self.spent += perf_counter() - t
        self.samples.append((at, probe))

    def now(self) -> float:
        """Seconds since the section began, without the time spent probing."""
        return perf_counter() - self.t0 - self.spent

    def __exit__(self, *exc) -> None:
        self.elapsed = self.now()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append((self.elapsed, speed_probe()))
        self.probe = sum(p for _, p in self.samples) / len(self.samples)
        self._at = [a for a, _ in self.samples]
        self._ref = [0.0]  # reference seconds up to each sample
        for i in range(len(self.samples) - 1):
            self._ref.append(self.scaled(self._at[i + 1], i))

    def scaled(self, t: float, i: int | None = None) -> float:
        """Reference seconds from the start of the section to `t`."""
        if i is None:
            i = min(max(bisect.bisect_right(self._at, t) - 1, 0), len(self.samples) - 2)
        (a, pa), (_, pb) = self.samples[i], self.samples[i + 1]
        return self._ref[i] + (t - a) * 2 * PROBE_REF / (pa + pb)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LineClock:
    """Stands in for sys.stdout: keeps the text and when each line ended."""

    def __init__(self, clock):
        self.clock = clock
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        if "\n" in s:
            self.stamps.append(self.clock())
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def call_cli(argv: list[str], sm: Speedometer):
    """cli.main(argv) with stdout captured; returns (rc or error, LineClock)."""
    import resnum.cli

    clock = LineClock(sm.now)
    saved = sys.stdout
    sys.stdout = clock
    try:
        rc = resnum.cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed call, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdout = saved
    return rc, clock


def start_tracer(spec):
    if not spec.get("trace"):
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def mode_setup(spec) -> dict:
    t0 = perf_counter()
    import resnum

    tracer = start_tracer(spec)
    resnum.load_default_catalog()
    t1 = perf_counter()
    probe = speed_probe()  # needs numpy, so it cannot run before the import
    out = {"setup_s": (t1 - t0) * PROBE_REF / probe, "probe": probe}
    if tracer:
        out["load_s"] = sum(s.busy for s in tracer.spans if s.name == "catalog.load_default_catalog")
    return out


def mode_catalog(spec) -> dict:
    import resnum.catalog
    import resnum.cli
    import resnum.enumeration

    tracer = start_tracer(spec)
    derived = []
    build = resnum.cli.build_res3_catalog

    def keep_build(*args, **kwargs):
        derived.append(build(*args, **kwargs))
        return derived[-1]

    resnum.cli.build_res3_catalog = keep_build
    sm = Speedometer(inside=not tracer)
    waits: list[tuple[float, float]] = []  # (call start, delivery) per candidate
    enumerate_graphs = resnum.enumeration.enumerate_graphs

    def stamp_candidates(*args, **kwargs):
        start = sm.now()
        for g in enumerate_graphs(*args, **kwargs):
            waits.append((start, sm.now()))
            yield g

    resnum.enumeration.enumerate_graphs = stamp_candidates
    with sm:
        rc, clock = call_cli(["catalog", "--res", "3"], sm)
    out = {
        "rc": rc,
        "wall": sm.scaled(sm.elapsed),
        "first": sm.scaled(clock.stamps[0] if clock.stamps else sm.elapsed),
        "latencies": [sm.scaled(b) - sm.scaled(a) for a, b in waits],
        "graphs": len(waits),
        "rss_mb": rss_mb(),
        "probe": sm.probe,
        "stdout": clock.text(),
    }
    if derived:
        cat = derived[0]
        out["rendered"] = resnum.catalog.render_fixture(cat)
        out["girth3"] = len(cat.slice_by_girth(3))
        out["girth5"] = len(cat.slice_by_girth(5))
    if tracer:
        out["spans"] = tracer
    return out


def _is_tree(g) -> bool:
    """Connected with n - 1 edges, checked on the adjacency rows directly."""
    edges = sum(bin(row).count("1") for row in g.adj) // 2
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v in range(g.n):
            if g.adj[u] >> v & 1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return edges == g.n - 1 and len(seen) == g.n


def mode_enum_trees(spec) -> dict:
    import resnum.enumeration as en

    tracer = start_tracer(spec)
    waits: list[tuple[float, float]] = []  # (call start, delivery) per tree
    firsts = []
    per_k = []
    with Speedometer(inside=not tracer) as sm:
        for k in range(1, spec["max_order"] + 1):
            graphs = []
            start = sm.now()
            for g in en.enumerate_graphs(en.EnumConstraints(k, trees_only=True)):
                waits.append((start, sm.now()))
                graphs.append(g)
            if graphs:
                firsts.append(waits[-len(graphs)])
            per_k.append(graphs)
    out = {
        "rc": 0,
        "wall": sm.scaled(sm.elapsed),
        "first": sum(sm.scaled(b) - sm.scaled(a) for a, b in firsts),
        "latencies": [sm.scaled(b) - sm.scaled(a) for a, b in waits],
        "graphs": len(waits),
        "rss_mb": rss_mb(),
        "probe": sm.probe,
        "counts": [len(gs) for gs in per_k],
        "non_trees": sum(1 for gs in per_k for g in gs if not _is_tree(g)),
        "duplicates": sum(len(gs) - len({g.adj for g in gs}) for gs in per_k),
    }
    if tracer:
        out["spans"] = tracer
    return out


def mode_stream(spec) -> dict:
    from inputs import batch, graph6

    tracer = start_tracer(spec)
    reps = []
    samples = 0
    start = perf_counter()
    i = 0
    while True:
        if "batches" in spec:
            if i >= spec["batches"]:
                break
        elif perf_counter() - start >= spec["seconds"] and samples >= spec["min_samples"]:
            break
        items = batch(spec["seed"], i, tuple(spec["orders"]), spec["per_bucket"])
        text = "".join(graph6(n, edges) + "\n" for n, _, edges in items)
        path = f"{spec['workdir']}/batch{i}.g6"
        with open(path, "w") as fh:
            fh.write(text)
        with Speedometer(inside=False) as sm:
            rc, clock = call_cli([spec["command"], "--input", path], sm)
        with open(path + ".out", "w") as fh:
            fh.write(clock.text())
        stamps = clock.stamps
        reps.append(
            {
                "rc": rc,
                "wall": sm.scaled(sm.elapsed),
                "first": sm.scaled(stamps[0] if stamps else sm.elapsed),
                "latencies": [sm.scaled(b) - sm.scaled(a) for a, b in zip(stamps, stamps[1:])],
                "graphs": len(items),
                "probe": sm.probe,
                "input": path,
                "bytes": len(text),
                "orders": [n for n, _, _ in items],
                "densities": [p for _, p, _ in items],
                "trees": sum(1 for n, _, edges in items if len(edges) == n - 1),
            }
        )
        samples += max(len(stamps) - 1, 0)
        i += 1
    out = {"reps": reps, "rss_mb": rss_mb()}
    if tracer:
        out["spans"] = tracer
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = {
        "setup": mode_setup,
        "catalog": mode_catalog,
        "enum_trees": mode_enum_trees,
        "stream": mode_stream,
    }[spec["mode"]]
    out = mode(spec)
    tracer = out.pop("spans", None)
    if tracer is not None:
        from tracing import layer_metrics

        fed = out.get("graphs", sum(r["graphs"] for r in out.get("reps", ())))
        out["layers"] = layer_metrics(tracer.spans, fed)
        tracer.dump(spec["out"] + ".spans.json")
    with open(spec["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

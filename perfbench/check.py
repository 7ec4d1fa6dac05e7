"""Output checks of the stream workloads, run after the timed passes.

Usage: python3 perfbench/check.py <spec.json> <out.json>

The spec holds the subcommand (compute or verify) and the batches to
check, each with its input file and the call's return code; the output
is the number of failed graphs per batch.  run.py starts one of these per
core as a plain subprocess and waits for it, so no process outlives a run.
"""

from __future__ import annotations

import json
import math
import sys


def read_batch(rep: dict) -> tuple[list[str], list[str]]:
    with open(rep["input"]) as fh:
        inputs = fh.read().splitlines()
    with open(rep["input"] + ".out") as fh:
        outputs = fh.read().splitlines()
    return inputs, outputs


def compute_line_ok(g6: str, line: str) -> bool:
    """res, diameter and girth of one line against networkx distances."""
    import networkx as nx

    G = nx.from_graph6_bytes(g6.encode())
    n = G.number_of_nodes()
    D = nx.floyd_warshall_numpy(G, nodelist=range(n))
    res = 1 + max(int((D[x + 1 :] == D[x]).sum(axis=1).max()) for x in range(n - 1))
    girth = nx.girth(G)
    want = {
        "n": n,
        "m": G.number_of_edges(),
        "res": res,
        "diameter": int(D.max()),
        "girth": None if math.isinf(girth) else int(girth),
    }
    got = json.loads(line)
    return all(got[k] == v for k, v in want.items())


def verify_line_ok(g6: str, line: str) -> bool:
    """res against the subset-scan oracle; every applicable row must hold."""
    import networkx as nx
    from resnum import from_edge_list, resolving_number_oracle

    G = nx.from_graph6_bytes(g6.encode())
    g = from_edge_list(G.number_of_nodes(), G.edges())
    rows = json.loads(line)
    res = [r["lhs"] for r in rows if r["prop_id"] == "Chain" and r["part"] == "res_le_order"]
    return (
        len(rows) == 12
        and res == [resolving_number_oracle(g)]
        and all(r["holds"] is True for r in rows if r["applicable"])
    )


LINE_CHECKS = {"compute": compute_line_ok, "verify": verify_line_ok}


def check_batch(line_ok, rep: dict) -> int:
    """Failed graphs of one batch: all of them if the call failed."""
    inputs, outputs = read_batch(rep)
    if rep["rc"] != 0 or len(outputs) != len(inputs):
        return len(inputs)
    failed = 0
    for g6, line in zip(inputs, outputs):
        try:
            failed += not line_ok(g6, line)
        except (ValueError, KeyError, TypeError, AttributeError):  # a malformed line
            failed += 1
    return failed


def main() -> int:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    line_ok = LINE_CHECKS[spec["command"]]
    failed = [check_batch(line_ok, rep) for rep in spec["reps"]]
    with open(out_path, "w") as fh:
        json.dump(failed, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

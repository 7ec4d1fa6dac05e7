"""Seeded random connected graphs, written as graph6 text.

The program under test only ever sees the written files.  Every batch is
stratified: each density bucket gets the same number of graphs, and the
orders of a bucket spread evenly over the order range, so batches of one
workload carry the same mix and differ only in the random draws.
"""

from __future__ import annotations

from random import Random

# edge probability on top of a random spanning tree; 0.0 gives a tree
DENSITIES = (0.0, 0.02, 0.05, 0.1, 0.3, 0.6)


def random_connected(rng: Random, n: int, p: float) -> list[tuple[int, int]]:
    """A random recursive spanning tree on shuffled labels plus G(n, p) extras."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {
        tuple(sorted((labels[v], labels[rng.randrange(v)]))) for v in range(1, n)
    }
    if p > 0:
        for j in range(1, n):
            for i in range(j):
                if rng.random() < p:
                    edges.add((i, j))
    return sorted(edges)


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 for n <= 62: header byte, then the column-wise upper triangle."""
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k : k + 6]:
            v = v << 1 | b
        out.append(chr(v + 63))
    return "".join(out)


def batch(seed: int, index: int, orders: tuple[int, int], per_bucket: int):
    """Batch `index` of the stream for `seed`: (order, density, edges) triples."""
    rng = Random(f"{seed}/{index}")
    lo, hi = orders
    span = hi - lo + 1
    out = []
    for p in DENSITIES:
        for j in range(per_bucket):
            n = lo + (j * span + rng.randrange(span)) // per_bucket
            out.append((n, p, random_connected(rng, n, p)))
    rng.shuffle(out)
    return out

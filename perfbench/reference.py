"""A fixed reference task, timed beside every workload child.

    python3 perfbench/reference.py

The machine the benchmark runs on is shared, and its speed drifts by tens of
percent from one minute to the next, for the program and for everything
else alike.  A workload's median wall time divided by this task's median
wall time, both taken in the same run, cancels most of that drift (the
`wall_rel` metric).  The task uses nothing from the program, so no change to
the program moves it.  Like a workload child it starts Python and imports
numpy; then it builds and searches a seeded random graph of Python sets
(work like the graph, diffusion and analysis layers) and evaluates RBF
kernel blocks with numpy (work like the classifier layer).  It prints one
checksum, which is the same on every run.
"""

from __future__ import annotations

import numpy as np

N = 6000
EDGES = 60000
POINTS = 600
DIMS = 20


def graph_part(rng: np.random.Generator) -> int:
    neighbors = [set() for _ in range(N)]
    for a, b in rng.integers(0, N, size=(EDGES, 2)).tolist():
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    total = 0
    for source in range(0, N, N // 4):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in neighbors[v]:
                    if u not in depth:
                        depth[u] = depth[v] + 1
                        nxt.append(u)
            frontier = nxt
        total += sum(depth.values())
    return total


def kernel_part(rng: np.random.Generator) -> float:
    x = rng.standard_normal((POINTS, DIMS))
    total = 0.0
    for block in np.array_split(x, 6):
        d2 = ((block[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        total += float(np.exp(-d2 / (2 * 12.0 ** 2)).sum())
    return total


def main() -> None:
    rng = np.random.default_rng(20121118)
    print(f"{graph_part(rng)} {kernel_part(rng):.6f}")


if __name__ == "__main__":
    main()

"""Influence propagation: reachability over a realization's live edges.

``spread_local`` is the fast CSR BFS the adaptive harness uses to
*observe* a batch's actual influence (paper Alg. 1 line 4); it supports
an ``active`` mask so observation is restricted to still-inactive nodes,
which is provably equivalent to full-graph live-edge reachability when
the previously activated nodes are exactly the previously reached ones
(tested in tests/test_propagate.py).

``spread_spark`` is the distributed DataFrame equivalent — an iterative
frontier-join BFS — oracle-checked against DuckDB ``WITH RECURSIVE``.
"""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.diffusion.realization import IC, Realization


def truncated(spread: int, eta: int) -> int:
    """Γ = min{I, η} (paper Def. 2.2)."""
    return min(int(spread), int(eta))


def spread_local(
    real: Realization,
    seeds,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Nodes reached from ``seeds`` via live edges, as a sorted int array.

    ``active`` restricts traversal to a node subset (the residual graph);
    seeds outside the mask are ignored. The returned array includes the
    (active) seeds themselves.
    """
    g = real.graph
    if active is None:
        active = np.ones(g.n, dtype=bool)
    visited = np.zeros(g.n, dtype=bool)
    frontier = [int(s) for s in seeds if active[int(s)] and not visited[int(s)]]
    for s in frontier:
        visited[s] = True
    while frontier:
        nxt = []
        for u in frontier:
            lo, hi = g.fwd_indptr[u], g.fwd_indptr[u + 1]
            if real.model == IC:
                nbrs = g.fwd_indices[lo:hi][real.live_fwd[lo:hi]]
            else:
                out = g.fwd_indices[lo:hi]
                nbrs = out[real.chosen_src[out] == u]
            for v in nbrs.tolist():
                if active[v] and not visited[v]:
                    visited[v] = True
                    nxt.append(v)
        frontier = nxt
    return np.nonzero(visited)[0]


def spread_spark(
    spark: SparkSession,
    live_edges: DataFrame | pd.DataFrame,
    seeds,
    *,
    max_iter: int = 10_000,
) -> DataFrame:
    """Distributed reachability: DataFrame ``(node)`` of all reached nodes.

    Standard iterative-BFS-as-joins: the reached set grows by joining the
    frontier against the live edge list until a fixpoint.
    """
    if isinstance(live_edges, pd.DataFrame):
        if len(live_edges) == 0:
            live_edges = spark.createDataFrame([], "src long, dst long")
        else:
            live_edges = spark.createDataFrame(live_edges[["src", "dst"]])
    live_edges = live_edges.select("src", "dst").persist()
    reached = spark.createDataFrame(
        pd.DataFrame({"node": sorted(int(s) for s in set(seeds))})
    ).persist()
    frontier = reached
    for _ in range(max_iter):
        nxt = (
            live_edges.join(frontier, live_edges.src == frontier.node)
            .select(F.col("dst").alias("node"))
            .distinct()
            .join(reached, "node", "left_anti")
            .persist()
        )
        if nxt.limit(1).count() == 0:
            break
        reached = reached.union(nxt).persist()
        frontier = nxt
    live_edges.unpersist()
    return reached


def exact_expected_spread(g, seeds, model: str = IC) -> float:
    """E[I(S)] by enumerating all 2^m realizations (tiny graphs only).

    Used as a test oracle for sampler unbiasedness and the paper's
    Example 2.3. IC only; m must be small (≤ ~16). Since I(S) ≤ n, this
    is the truncated expectation at η = n.
    """
    return exact_expected_truncated(g, seeds, g.n, model)


def exact_expected_truncated(g, seeds, eta: int, model: str = IC) -> float:
    """E[Γ(S)] = E[min{I(S), η}] by exact enumeration (tiny IC graphs)."""
    from itertools import product

    from repro.diffusion.realization import Realization

    if model != IC:
        raise ValueError("exact enumeration implemented for IC only")
    if g.m > 16:
        raise ValueError("graph too large for exact enumeration")
    total = 0.0
    for bits in product([False, True], repeat=g.m):
        live = np.array(bits, dtype=bool)
        p = np.prod(np.where(live, g.fwd_probs, 1.0 - g.fwd_probs))
        real = Realization(graph=g, model=IC, live_fwd=live, chosen_src=None)
        total += p * truncated(len(spread_local(real, seeds)), eta)
    return float(total)

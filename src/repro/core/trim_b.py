"""TRIM-B — batched truncated influence maximization (paper Algorithm 3).

Selects a size-b seed batch per round via greedy max coverage over mRR
sets, with the generalized schedule (ln C(n_i, b), θ scaled by b, upper
bound divided by ρ_b, stop threshold ρ_b(1−ε̂)). Approximation
ρ_b(1−1/e)(1−ε); b = 1 degenerates to TRIM.
Its doubling-and-stop loop is ``core.trim.doubling_round``.
"""
import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.csr import GraphCSR
from repro.core.trim import TrimResult, doubling_round, on_spark
from repro.sampling.mrr import pairs_to_sets, sample_sets_local, sample_sets_pairs


def greedy_picks(
    sets: list[np.ndarray], n: int, max_picks: int
) -> tuple[list[int], list[int]]:
    """Greedy max coverage: up to ``max_picks`` nodes, each covering the
    most still-uncovered sets (lowest id on ties), and the covered-set
    count after each pick. Stops early once no node covers a new set.

    Runs in O(n·picks + Σ|R| log Σ|R|): an argsort inverted node→sets
    index over the concatenated members, and per pick one count update
    over the members of the newly covered sets — the linear-time greedy
    the paper cites [43], with numpy doing the inner loops.
    """
    lens = np.fromiter((len(m) for m in sets), dtype=np.int64, count=len(sets))
    set_ptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(lens, out=set_ptr[1:])
    members = np.concatenate([np.zeros(0, np.int64), *sets])
    counts = np.bincount(members, minlength=n)
    node_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=node_ptr[1:])
    # Sets containing node v: set_of[by_node[node_ptr[v]:node_ptr[v+1]]].
    by_node = np.argsort(members, kind="stable")
    set_of = np.repeat(np.arange(len(sets)), lens)
    covered = np.zeros(len(sets), dtype=bool)
    picks: list[int] = []
    curve: list[int] = []
    covered_total = 0
    for _ in range(max_picks):
        v = int(np.argmax(counts))
        if counts[v] <= 0:
            break
        hit = set_of[by_node[node_ptr[v] : node_ptr[v + 1]]]
        hit = np.unique(hit[~covered[hit]])  # a set may list v twice
        covered[hit] = True
        covered_total += len(hit)
        lo, size = set_ptr[hit], lens[hit]
        start = np.cumsum(size) - size
        gone = members[np.repeat(lo - start, size) + np.arange(int(size.sum()))]
        np.subtract.at(counts, gone, 1)
        counts[v] = -1  # never re-pick
        picks.append(v)
        curve.append(covered_total)
    return picks, curve


def greedy_max_coverage(
    sets: list[np.ndarray], n: int, b: int
) -> tuple[list[int], int]:
    """Standard greedy max coverage: pick b nodes, return (nodes, covered).

    Stops early once everything coverable is covered.
    """
    chosen, curve = greedy_picks(sets, n, min(b, n))
    return chosen, curve[-1] if curve else 0


def _collect_sets(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    need: int,
    seed: int,
) -> list[np.ndarray]:
    """Sample ``need`` mRR sets and materialize their member arrays."""
    if on_spark(spark, need):
        sets = pairs_to_sets(sample_sets_pairs(spark, g, active, eta_i, model, need, seed))
    else:
        sets = sample_sets_local(g, active, eta_i, model, need, seed)
    return [members for _, members in sets]


def _pad_batch(
    g: GraphCSR, active: np.ndarray, chosen: list[int], b: int
) -> list[int]:
    """``chosen`` filled up to ``b`` nodes when greedy ran out of coverable
    sets: the unpicked active nodes with the most out-edges into active
    nodes (residual out-degree), lowest id on ties."""
    if len(chosen) >= b:
        return chosen
    src = np.repeat(np.arange(g.n), np.diff(g.fwd_indptr))
    residual_outdeg = np.bincount(src[active[g.fwd_indices]], minlength=g.n)
    cand = np.setdiff1d(np.flatnonzero(active), chosen)
    order = cand[np.argsort(-residual_outdeg[cand], kind="stable")]
    return chosen + order[: b - len(chosen)].tolist()


def trim_b(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    eps: float,
    seed: int,
    b: int,
) -> TrimResult:
    """One round of Algorithm 3 on the residual graph given by ``active``.

    The sample is the pooled list of mRR sets and the pick a greedy
    max-coverage batch, padded to b nodes if greedy stops short.
    """
    sets: list[np.ndarray] = []

    def grow_and_pick(eta_i: int, b: int, need: int, seed: int) -> tuple[list[int], int]:
        sets.extend(_collect_sets(spark, g, active, eta_i, model, need, seed))
        chosen, lam = greedy_max_coverage(sets, g.n, b)
        return _pad_batch(g, active, chosen, b), lam

    return doubling_round(active, eta_i, eps, seed, b, grow_and_pick)

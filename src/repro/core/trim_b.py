"""TRIM-B — batched truncated influence maximization (paper Algorithm 3).

Selects a size-b seed batch per round via greedy max coverage over mRR
sets, with the generalized schedule (ln C(n_i, b), θ scaled by b, upper
bound divided by ρ_b, stop threshold ρ_b(1−ε̂)). Approximation
ρ_b(1−1/e)(1−ε); b = 1 degenerates to TRIM.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.csr import GraphCSR
from repro.core.trim import SPARK_MIN_SETS, TrimSchedule, rho
from repro.sampling.bounds import coverage_lower_bound, coverage_upper_bound
from repro.sampling.mrr import sample_sets_local, sample_sets_pairs


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
    id_offset: int,
    use_spark: bool,
) -> list[np.ndarray]:
    """Sample ``need`` mRR sets and materialize their member arrays."""
    if use_spark and spark is not None and need >= SPARK_MIN_SETS:
        pairs = sample_sets_pairs(
            spark, g, active, eta_i, model, need, seed, id_offset=id_offset
        ).toPandas()
        grouped = pairs.groupby("set_id")["node"]
        return [grp.to_numpy(np.int64) for _, grp in grouped]
    sets = sample_sets_local(
        g, active, eta_i, model, need, seed, id_offset=id_offset
    )
    return [members for _, members in sets]


@dataclass
class TrimBResult:
    """Outcome of one TRIM-B round."""

    nodes: list[int]
    coverage: int
    n_sets: int
    iterations: int
    est_truncated_spread: float  # η_i · Λ_R(S_b)/|R|


def trim_b(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    eps: float,
    seed: int,
    b: int,
    *,
    use_spark: bool = True,
) -> TrimBResult:
    """One round of Algorithm 3 on the residual graph given by ``active``."""
    n_i = int(active.sum())
    if n_i == 0:
        raise ValueError("empty residual graph")
    eta_i = min(eta_i, n_i)
    b_eff = min(b, n_i)
    sched = TrimSchedule.build(n_i, eta_i, eps, b=b_eff)
    rb = rho(b_eff)
    sets: list[np.ndarray] = []
    for t in range(1, sched.T + 1):
        target = sched.theta_o * (2 ** (t - 1))
        need = target - len(sets)
        if need > 0:
            sets.extend(
                _collect_sets(
                    spark,
                    g,
                    active,
                    eta_i,
                    model,
                    need,
                    seed + 104729 * t,
                    id_offset=len(sets),
                    use_spark=use_spark,
                )
            )
        chosen, lam = greedy_max_coverage(sets, g.n, b_eff)
        lam_l = coverage_lower_bound(lam, sched.a1)
        lam_u = coverage_upper_bound(lam / rb, sched.a2)
        if (lam_u > 0 and lam_l / lam_u >= rb * (1.0 - sched.eps_hat)) or t == sched.T:
            # Pad with highest-degree unpicked active nodes if greedy ran
            # out of coverable sets before filling the batch.
            if len(chosen) < b_eff:
                order = np.argsort(-g.outdeg)
                for v in order.tolist():
                    if active[v] and v not in chosen:
                        chosen.append(int(v))
                        if len(chosen) == b_eff:
                            break
            return TrimBResult(
                nodes=chosen,
                coverage=lam,
                n_sets=len(sets),
                iterations=t,
                est_truncated_spread=eta_i * lam / len(sets),
            )
    raise AssertionError("unreachable: loop returns at t == T")

"""ASTI — the adaptive seed-minimization framework (paper Algorithm 1).

Repeatedly: select the node (or size-b batch) with maximum expected
marginal *truncated* spread on the residual graph via TRIM/TRIM-B,
observe its actual influence under the hidden ground-truth realization,
remove activated nodes, and stop once η nodes are active. The selector
is pluggable so the ADAPTIM baseline (untruncated greedy) reuses the
identical loop and observation machinery.
"""
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro.diffusion.propagate import spread_local
from repro.diffusion.realization import Realization, sample_realization
from repro.graphs.csr import GraphCSR
from repro.core.trim import trim
from repro.core.trim_b import trim_b

# A selector maps (spark, g, active, eta_i, model, eps, seed) to the
# chosen batch plus the number of sample sets it generated.
Selector = Callable[..., tuple[list[int], int]]


@dataclass
class RoundInfo:
    """Bookkeeping for one select-observe-update round."""

    round: int
    nodes: list[int]
    n_i: int
    eta_i: int
    n_sets: int
    observed_gain: int
    time_s: float


@dataclass
class AstiResult:
    """Outcome of one adaptive run on one realization."""

    seeds: list[int]
    spread: int
    eta: int
    model: str
    b: int
    rounds: list[RoundInfo] = field(default_factory=list)
    total_time_s: float = 0.0

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)


def _default_selector(b: int) -> Selector:
    def select(spark, g, active, eta_i, model, eps, seed):
        if b == 1:
            res = trim(spark, g, active, eta_i, model, eps, seed)
        else:
            res = trim_b(spark, g, active, eta_i, model, eps, seed, b)
        return res.nodes, res.n_sets

    return select


def asti(
    spark: SparkSession | None,
    g: GraphCSR,
    eta: int,
    model: str,
    realization_seed: int,
    *,
    eps: float = 0.5,
    b: int = 1,
    seed: int = 0,
    selector: Selector | None = None,
    realization: Realization | None = None,
) -> AstiResult:
    """Run Algorithm 1 until at least η nodes are activated.

    The ground truth φ is sampled from ``realization_seed`` (or passed
    in) and is *only* consulted by the observation step — the selector
    never sees it, exactly the paper's adaptive protocol.
    """
    if not 1 <= eta <= g.n:
        raise ValueError(f"eta must be in [1, n]; got {eta} with n={g.n}")
    real = realization or sample_realization(g, model, realization_seed)
    if real.model != model:
        raise ValueError("realization model mismatch")
    select = selector or _default_selector(b)
    active = np.ones(g.n, dtype=bool)
    activated = 0
    result = AstiResult(seeds=[], spread=0, eta=eta, model=model, b=b)
    t_start = time.perf_counter()
    i = 0
    while activated < eta:
        i += 1
        t0 = time.perf_counter()
        eta_i = eta - activated
        n_i = int(active.sum())
        batch, n_sets = select(spark, g, active, eta_i, model, eps, seed + 7 * i)
        # Observe: actual influence of the batch among inactive nodes,
        # equivalent to full-graph live-edge reachability (tested).
        reached = spread_local(real, batch, active)
        active[reached] = False
        activated += len(reached)
        result.seeds.extend(int(v) for v in batch)
        result.rounds.append(
            RoundInfo(
                round=i,
                nodes=[int(v) for v in batch],
                n_i=n_i,
                eta_i=eta_i,
                n_sets=n_sets,
                observed_gain=len(reached),
                time_s=time.perf_counter() - t0,
            )
        )
    result.spread = activated
    result.total_time_s = time.perf_counter() - t_start
    return result

"""ADAPTIM — adaptive influence maximization repurposed for ASM (§6.1).

The same select-observe-update loop as ASTI, but each round greedily
maximizes the *untruncated* expected marginal spread using single-root
RR sets (EPIC/OPIM-style). Two consequences the paper demonstrates and
we reproduce:

- empirically it selects nearly as few seeds as ASTI (Fig. 4/6), but
- it needs Θ(n_i/OPT′_i) RR sets per round versus TRIM's Θ(η_i/OPT_i)
  mRR sets, so in late rounds (OPT′_i ≈ η_i ≪ n_i) it is 10–20×
  slower (Fig. 5/7), and it carries no ASM approximation guarantee.
"""
from pyspark.sql import SparkSession

from repro.core.asti import AstiResult, asti
from repro.core.trim import trim
from repro.graphs.csr import GraphCSR


def _adaptim_selector(spark, g, active, eta_i, model, eps, seed):
    """Per-round untruncated greedy: RR sets, OPIM-C-style stopping.

    Reuses the TRIM doubling/stop machinery with single-root RR sets and
    the OPIM-C failure budget δ = 1/n_i (the truncation-aware δ of
    Algorithm 2 does not apply to the untruncated objective).
    """
    n_i = int(active.sum())
    res = trim(
        spark,
        g,
        active,
        eta_i,
        model,
        eps,
        seed,
        roots="rr",
        delta=1.0 / max(2, n_i),
    )
    return res.nodes, res.n_sets


def adaptim(
    spark: SparkSession | None,
    g: GraphCSR,
    eta: int,
    model: str,
    realization_seed: int,
    *,
    eps: float = 0.5,
    seed: int = 0,
    realization=None,
) -> AstiResult:
    """Run the ADAPTIM policy until η nodes are activated."""
    return asti(
        spark,
        g,
        eta,
        model,
        realization_seed,
        eps=eps,
        b=1,
        seed=seed,
        selector=_adaptim_selector,
        realization=realization,
    )

"""Single-root reverse reachable (RR) sets — Borgs et al. [5].

Thin wrappers over the shared generator in ``mrr.py`` with ``k = 1``.
A random RR set gives the unbiased *untruncated* spread estimator
``E[I(S)] = n · Pr[R ∩ S ≠ ∅]``; the baselines (ATEUC, ADAPTIM) are
built on these, and tests/test_mrr.py demonstrates the paper's §3.2
point that they are biased by ``η/n`` for *truncated* spread.
"""
import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.csr import GraphCSR
from repro.sampling.mrr import sample_sets_local, sample_sets_pairs


def sample_rr_local(
    g: GraphCSR,
    active: np.ndarray,
    model: str,
    n_sets: int,
    seed: int,
) -> list[tuple[int, np.ndarray]]:
    """Driver-local single-root RR sets over the active subgraph."""
    return sample_sets_local(g, active, 1, model, n_sets, seed, roots="rr")


def sample_rr_pairs(
    spark: SparkSession,
    g: GraphCSR,
    active: np.ndarray,
    model: str,
    n_sets: int,
    seed: int,
) -> DataFrame:
    """Distributed single-root RR sets as (set_id, node) membership rows."""
    return sample_sets_pairs(spark, g, active, 1, model, n_sets, seed, roots="rr")

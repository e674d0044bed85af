"""TRIM — Truncated Influence Maximization (paper Algorithm 2).

Selects the single node with (approximately) maximum expected marginal
*truncated* spread on the residual graph, via mRR sets with an
OPIM-C-style doubling schedule and the Lemma A.2 stopping rule. Returns
a (1−1/e)(1−ε)-approximate node.

TRIM is TRIM-B (Algorithm 3) at b = 1, so ``doubling_round`` runs both;
each supplies only the step that grows its sample and picks nodes.
``on_spark`` is the one venue rule of every sampling dispatcher.

The same machinery, switched to single-root RR sets and the ``n_i``
estimator scale, implements ADAPTIM's per-round selection (baselines/).
"""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.csr import GraphCSR
from repro.sampling.bounds import coverage_lower_bound, coverage_upper_bound
from repro.sampling.mrr import pairs_to_sets, sample_sets_local, sample_sets_pairs

# Below this many sets, executor fan-out costs more than it saves; the
# schedule still matches the paper, only the execution venue changes.
# A one-stage sampling job plus its Arrow collect costs 0.8–1.3 s at lite
# scale for 4k–32k sets, while the batched local kernel takes 6–9 µs per
# mRR set and ~3 µs per RR set (4 vCPUs, local[4], nethept/epinions lite),
# i.e. 15–40 ms for 4096 sets. So at lite scale Spark only pays past a few
# hundred thousand sets; the constant stays until the venue rule becomes a
# measured cost model.
SPARK_MIN_SETS = 4096


def on_spark(spark: SparkSession | None, need: int) -> bool:
    """The venue rule: sample ``need`` sets on executors, not locally."""
    return spark is not None and need >= SPARK_MIN_SETS


def ln_choose(n: int, b: int) -> float:
    """ln C(n, b) via lgamma (b=1 reduces to ln n)."""
    return (
        math.lgamma(n + 1) - math.lgamma(b + 1) - math.lgamma(n - b + 1)
    )


def rho(b: int) -> float:
    """Greedy max-coverage ratio ρ_b = 1 − (1 − 1/b)^b (ρ₁ = 1)."""
    return 1.0 - (1.0 - 1.0 / b) ** b


@dataclass(frozen=True)
class TrimSchedule:
    """The sample-size schedule of Algorithms 2/3 (lines 1–5)."""

    delta: float
    eps_hat: float
    theta_max: float
    theta_o: int
    T: int
    a1: float
    a2: float

    @staticmethod
    def build(n_i: int, eta_i: int, eps: float, *, b: int = 1, delta: float | None = None) -> "TrimSchedule":
        if delta is None:
            delta = eps / (100.0 * (1.0 - 1.0 / math.e) * (1.0 - eps) * eta_i)
        eps_hat = 99.0 * eps / (100.0 - eps)
        rb = rho(b)
        lnc = ln_choose(n_i, b)
        theta_max = (
            2.0
            * n_i
            * (
                math.sqrt(math.log(6.0 / delta))
                + math.sqrt((lnc + math.log(6.0 / delta)) / rb)
            )
            ** 2
            / (b * eps_hat**2)
        )
        theta_o = max(1, int(math.ceil(theta_max * b * eps_hat**2 / n_i)))
        T = int(math.ceil(math.log2(theta_max / theta_o))) + 1
        a1 = math.log(3.0 * T / delta) + lnc
        a2 = math.log(3.0 * T / delta)
        return TrimSchedule(
            delta=delta,
            eps_hat=eps_hat,
            theta_max=theta_max,
            theta_o=theta_o,
            T=T,
            a1=a1,
            a2=a2,
        )


@dataclass
class TrimResult:
    """Outcome of one TRIM / TRIM-B round."""

    nodes: list[int]
    coverage: int
    n_sets: int
    iterations: int
    est_truncated_spread: float  # η_i · Λ_R(S)/|R|


def doubling_round(
    active: np.ndarray,
    eta_i: int,
    eps: float,
    seed: int,
    b: int,
    grow_and_pick: Callable[[int, int, int, int], tuple[list[int], int]],
    *,
    delta: float | None = None,
) -> TrimResult:
    """One round of Algorithm 3 (Algorithm 2 at b = 1) on the residual
    graph given by ``active``: double the sample until
    Λ^l / Λ^u ≥ ρ_b(1−ε̂) (ρ₁ = 1) or t = T.

    ``grow_and_pick(eta_i, b, need, seed)`` adds ``need`` sets sampled
    with ``seed`` to the caller's sample and returns its best size-b batch
    and that batch's coverage Λ. It gets η_i and b capped at the residual
    size n_i.
    """
    n_i = int(active.sum())
    if n_i == 0:
        raise ValueError("empty residual graph")
    eta_i = min(eta_i, n_i)
    b = min(b, n_i)
    sched = TrimSchedule.build(n_i, eta_i, eps, b=b, delta=delta)
    rb = rho(b)
    n_sets = 0
    for t in range(1, sched.T + 1):
        target = sched.theta_o * (2 ** (t - 1))
        nodes, lam = grow_and_pick(eta_i, b, target - n_sets, seed + 104729 * t)
        n_sets = target
        lam_l = coverage_lower_bound(lam, sched.a1)
        lam_u = coverage_upper_bound(lam / rb, sched.a2)
        if (lam_u > 0 and lam_l / lam_u >= rb * (1.0 - sched.eps_hat)) or t == sched.T:
            return TrimResult(
                nodes=nodes,
                coverage=lam,
                n_sets=n_sets,
                iterations=t,
                est_truncated_spread=eta_i * lam / n_sets,
            )
    raise AssertionError("unreachable: loop returns at t == T")


def _coverage_increment(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    need: int,
    seed: int,
    roots: str,
) -> np.ndarray:
    """Coverage-count vector over nodes for ``need`` freshly sampled sets."""
    if on_spark(spark, need):
        sets = pairs_to_sets(
            sample_sets_pairs(spark, g, active, eta_i, model, need, seed, roots=roots)
        )
    else:
        sets = sample_sets_local(g, active, eta_i, model, need, seed, roots=roots)
    return np.bincount(np.concatenate([m for _, m in sets]), minlength=g.n)


def trim(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    eps: float,
    seed: int,
    *,
    roots: str = "mrr",
    delta: float | None = None,
) -> TrimResult:
    """One round of Algorithm 2 on the residual graph given by ``active``.

    The sample is a running coverage vector and the pick its argmax.
    ``roots="rr"`` with an explicit ``delta`` turns this into ADAPTIM's
    per-round untruncated selection (coverage logic is identical; only
    the sampler and the estimator scale differ — handled by callers).
    """
    cov = np.zeros(g.n, dtype=np.int64)

    def grow_and_pick(eta_i: int, b: int, need: int, seed: int) -> tuple[list[int], int]:
        cov[:] += _coverage_increment(spark, g, active, eta_i, model, need, seed, roots)
        v_star = int(np.argmax(cov))
        return [v_star], int(cov[v_star])

    return doubling_round(active, eta_i, eps, seed, 1, grow_and_pick, delta=delta)

"""Multi-root reverse reachable (mRR) set generation — distributed.

A random mRR set of the residual graph ``G_i`` is produced by (paper
§3.3): (1) draw the root-set size ``k`` via randomized rounding so that
``E[k] = n_i/η_i``; (2) draw ``k`` roots uniformly *without replacement*
from the still-active nodes; (3) run a stochastic reverse BFS from the
roots — IC flips each in-edge with probability ``p(u, v)`` the first
time it is examined (each edge is examined at most once per set, so the
statuses are consistent, exactly the argument in §3.3); LT lets each
popped node keep its single live in-edge choice.

One numpy kernel samples a whole batch of sets at once: a
level-synchronous reverse BFS whose frontier is (set, node) pairs over a
dense per-chunk visited bitmap. Each IC level flips all its coins in one
``rng.random`` call; each LT level makes one vectorized pick per popped
node (``diffusion.realization.pick_in_edges``). A batch comes back packed
as ``(indptr, members)``.

Single-root RR sets for the baselines are the ``roots="rr"`` mode of the
same machinery.

The distributed path (``sample_sets_pairs``) runs the same kernel in one
Spark stage: ``mapInPandas`` over ``spark.range``, one task per batch,
each traversing a broadcast CSR payload and emitting ``(set_id, node)``
membership rows. ``pairs_to_sets`` collects such a frame into the
``(set_id, members)`` list that ``sample_sets_local`` returns, so callers
see one shape whichever venue drew the sets.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.diffusion.realization import IC, LT, check_lt_weights, pick_in_edges
from repro.graphs.csr import GraphCSR

PAIRS_SCHEMA = StructType(
    [StructField("set_id", LongType()), StructField("node", LongType())]
)


# Budget of the dense visited bitmap (sets per chunk × n bools). Larger
# chunks cut per-level numpy overhead until the bitmap outgrows the cache;
# 2 MiB measured fastest on nethept_lite and epinions_lite.
VISITED_BYTES = 1 << 21
# Budget of the random-key matrix (sets × n_i floats) of the dense root draw.
ROOT_KEYS = 1 << 18


def sample_root_sizes(
    n_i: int, eta_i: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` randomized-rounded root counts with E[k] = n_i/η_i (Thm 3.3).

    k = ⌊n_i/η_i⌋ + 1 with probability frac(n_i/η_i), else ⌊n_i/η_i⌋,
    clipped to [1, n_i].
    """
    ratio = n_i / eta_i
    k_low = int(ratio)
    ks = k_low + (rng.random(count) < ratio - k_low)
    return np.clip(ks, 1, n_i).astype(np.int64)


def sample_root_size(n_i: int, eta_i: int, rng: np.random.Generator) -> int:
    """One root count; see ``sample_root_sizes``."""
    return int(sample_root_sizes(n_i, eta_i, 1, rng)[0])


def _draw_roots(
    active_idx: np.ndarray, ks: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``ks[s]`` distinct active roots for each set ``s``, as ``(set, node)``
    pairs.

    Both draws treat node labels symmetrically, so every k-subset of the
    active nodes is equally likely — the without-replacement law
    C(n−x,k)/C(n,k) of Thm 3.3. Small k: draw uniformly and re-draw the
    duplicates within a set until none is left. Large k (> n_i/4, where
    re-drawing would crawl): take the k smallest of one random key per
    (set, active node).
    """
    n_i = len(active_idx)
    sid = np.repeat(np.arange(len(ks)), ks)
    if 4 * int(ks.max()) > n_i:
        rows = max(1, ROOT_KEYS // n_i)
        slots = []
        for lo in range(0, len(ks), rows):
            k = ks[lo : lo + rows]
            order = np.argsort(rng.random((len(k), n_i)), axis=1)
            slots.append(order[np.arange(n_i) < k[:, None]])
        return sid, active_idx[np.concatenate(slots)]
    pick = sid * n_i + rng.integers(0, n_i, size=len(sid))
    while True:
        pick.sort()
        dup = np.flatnonzero(pick[1:] == pick[:-1]) + 1
        if len(dup) == 0:
            break
        pick[dup] += rng.integers(0, n_i, size=len(dup)) - pick[dup] % n_i
    return sid, active_idx[pick % n_i]


def _reverse_bfs(
    payload: dict,
    active: np.ndarray,
    sid: np.ndarray,
    node: np.ndarray,
    c: int,
    rng: np.random.Generator,
    model: str,
    visited: np.ndarray,
) -> np.ndarray:
    """Level-synchronous stochastic reverse BFS of a chunk of ``c`` sets.

    Starts from the root pairs ``(sid, node)``; returns every visited pair
    as a key ``set·n + node``, sorted (so grouped by set). Each (set, node)
    enters the frontier once, so each in-edge is examined at most once per
    set. The frontier is keyed ``node·c + set`` so it stays sorted by node,
    which keeps the edge gathers and the LT search near-sequential.
    ``visited`` is the chunk's flat bitmap; it is left all-False on return.
    """
    n = payload["n"]
    rev_indptr = payload["rev_indptr"]
    rev_indices = payload["rev_indices"]
    keys = np.sort(node * c + sid)
    out = [keys]
    visited[keys] = True
    while len(keys):
        node, sid = np.divmod(keys, c)
        if model == IC:
            lo = rev_indptr[node]
            deg = rev_indptr[node + 1] - lo
            # Edge slots of every frontier node, and one coin per slot.
            start = np.cumsum(deg) - deg
            slots = np.repeat(lo - start, deg) + np.arange(int(start[-1] + deg[-1]))
            live = rng.random(len(slots)) < payload["rev_probs"][slots]
            src = rev_indices[slots[live]]
            sid = np.repeat(sid, deg)[live]
        else:  # LT: each node keeps its single live in-edge choice.
            src = pick_in_edges(
                rev_indptr, rev_indices, payload["rev_cum"], node, rng.random(len(node))
            )
            sid = sid[src >= 0]
            src = src[src >= 0]
        keep = active[src]
        cand = src[keep] * c + sid[keep]
        keys = np.unique(cand[~visited[cand]])
        visited[keys] = True
        out.append(keys)
    found = np.concatenate(out)
    visited[found] = False
    node, sid = np.divmod(found, c)
    return np.sort(sid * n + node)


def _generate_batch(
    payload: dict,
    active: np.ndarray,
    active_idx: np.ndarray,
    eta_i: int,
    model: str,
    roots: str,
    count: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``count`` sets as a packed CSR batch ``(indptr, members)``:
    set ``j`` is ``members[indptr[j]:indptr[j+1]]``, sorted."""
    if model not in (IC, LT):
        raise ValueError(f"unknown model {model!r}")
    if roots not in ("mrr", "rr"):
        raise ValueError(f"unknown roots mode {roots!r}")
    n_i = len(active_idx)
    if n_i == 0:
        raise ValueError("no active nodes to sample roots from")
    if model == LT:
        check_lt_weights(payload["rev_indptr"], payload["rev_cum"])
    rng = np.random.default_rng(seed)
    if roots == "mrr":
        ks = sample_root_sizes(n_i, eta_i, count, rng)
    else:
        ks = np.ones(count, dtype=np.int64)
    n = payload["n"]
    chunk = max(1, min(count, VISITED_BYTES // n))
    visited = np.zeros(chunk * n, dtype=bool)
    sizes, members = [np.zeros(1, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, count, chunk):
        k = ks[lo : lo + chunk]
        sid, node = _draw_roots(active_idx, k, rng)
        found = _reverse_bfs(payload, active, sid, node, len(k), rng, model, visited)
        sid, node = np.divmod(found, n)
        sizes.append(np.bincount(sid, minlength=len(k)))
        members.append(node)
    return np.cumsum(np.concatenate(sizes)), np.concatenate(members)


def sample_sets_local(
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: int,
    *,
    roots: str = "mrr",
) -> list[tuple[int, np.ndarray]]:
    """Driver-local generation: (set_id, members) per set, as views into
    one packed batch."""
    active_idx = np.nonzero(active)[0]
    indptr, members = _generate_batch(
        g.payload(), active, active_idx, eta_i, model, roots, n_sets, seed
    )
    return [(j, members[indptr[j] : indptr[j + 1]]) for j in range(n_sets)]


def sample_sets_pairs(
    spark: SparkSession,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: int,
    *,
    roots: str = "mrr",
) -> DataFrame:
    """Distributed generation: DataFrame of (set_id, node) membership rows.

    One stage of ``2·defaultParallelism`` tasks at most, no shuffle: task
    ``i`` draws its share of the ``n_sets`` sets with seed
    ``seed + 7919·i`` over the broadcast CSR payload, numbering them on
    from the sets of the tasks before it (ids 0 … n_sets−1).
    """
    if not active.any():
        raise ValueError("no active nodes to sample roots from")
    tasks = max(1, min(n_sets, 2 * spark.sparkContext.defaultParallelism))
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    sizes = np.full(tasks, n_sets // tasks, dtype=np.int64)
    sizes[: n_sets % tasks] += 1
    first = np.cumsum(sizes) - sizes

    def gen(task_ids: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        act_idx = np.nonzero(act)[0]
        for pdf in task_ids:
            for i in pdf["id"].tolist():
                indptr, nodes = _generate_batch(
                    payload, act, act_idx, eta_i, model, roots, int(sizes[i]), seed + 7919 * i
                )
                ids = np.arange(first[i], first[i] + sizes[i])
                yield pd.DataFrame({"set_id": np.repeat(ids, np.diff(indptr)), "node": nodes})

    return spark.range(0, tasks, 1, tasks).mapInPandas(gen, PAIRS_SCHEMA)


def pairs_to_sets(pairs: DataFrame) -> list[tuple[int, np.ndarray]]:
    """(set_id, members) per set of a ``(set_id, node)`` pairs frame, in
    set-id order — the shape ``sample_sets_local`` returns. Members keep
    their row order within a set."""
    pdf = pairs.toPandas()
    set_id = pdf["set_id"].to_numpy(np.int64)
    order = np.argsort(set_id, kind="stable")
    set_id, node = set_id[order], pdf["node"].to_numpy(np.int64)[order]
    ids, starts = np.unique(set_id, return_index=True)
    return list(zip(ids.tolist(), np.split(node, starts[1:])))

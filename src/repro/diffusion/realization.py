"""Live-edge realizations of a probabilistic social network (paper §2.1).

A realization φ fixes the status of every edge:

- **IC**: each directed edge ⟨u, v⟩ is live independently with
  probability p(u, v). Stored as a boolean per forward-CSR edge slot.
- **LT**: each node v picks exactly one live in-edge, edge ⟨u, v⟩ with
  probability p(u, v); since the weighted-cascade weights of v's
  in-edges sum to 1 (each is 1/indeg(v)), every node with indeg > 0
  picks one. Stored as the chosen source node per node (−1 for none).
  In-weights summing past 1 are rejected rather than truncated.

Spread under φ is then plain reachability over live edges, which is the
classic live-edge equivalence of both models (Kempe et al.).
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.csr import GraphCSR

IC = "IC"
LT = "LT"

# Float slack allowed on an LT node's in-weight sum before it is an error.
LT_MASS_TOL = 1e-9


def choose_in_edge(weights: np.ndarray, r: float) -> int:
    """LT live-edge choice: index of the chosen in-edge, or -1 for none.

    Edge j is chosen iff ``cum[j-1] <= r < cum[j]``; leftover mass
    ``1 - sum(weights)`` (zero under weighted cascade) selects no edge.
    The scalar reference for ``pick_in_edges``, which realization sampling
    and the reverse mRR/RR sampler share.
    """
    cum = np.cumsum(weights)
    j = int(np.searchsorted(cum, r, side="right"))
    return j if j < len(weights) else -1


def check_lt_weights(rev_indptr: np.ndarray, rev_cum: np.ndarray) -> None:
    """Raise if some node's in-weights sum past 1: LT needs a distribution.

    ``rev_cum`` is the global in-edge prefix sum (``GraphCSR.rev_cum``).
    """
    mass = rev_cum[rev_indptr[1:]] - rev_cum[rev_indptr[:-1]]
    over = np.nonzero(mass > 1.0 + LT_MASS_TOL)[0]
    if len(over):
        v = int(over[0])
        raise ValueError(
            f"LT in-weights of node {v} sum to {mass[v]!r} > 1 "
            f"({len(over)} node(s) over)"
        )


def pick_in_edges(
    rev_indptr: np.ndarray,
    rev_indices: np.ndarray,
    rev_cum: np.ndarray,
    nodes: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """Vectorized ``choose_in_edge``: the chosen in-neighbour of each node.

    Node ``nodes[i]`` picks its in-edge whose slice of the global prefix
    sum ``rev_cum`` holds ``rev_cum[lo] + r[i]``; past its last edge (the
    leftover mass) it picks none, reported as -1.
    """
    lo = rev_indptr[nodes]
    slot = np.searchsorted(rev_cum, rev_cum[lo] + r, side="right") - 1
    hit = slot < rev_indptr[nodes + 1]
    src = np.full(len(nodes), -1, dtype=np.int64)
    src[hit] = rev_indices[slot[hit]]
    return src


@dataclass
class Realization:
    """One sampled φ; ``model`` is ``"IC"`` or ``"LT"``."""

    graph: GraphCSR
    model: str
    # IC: live flag per forward-CSR edge slot. LT: unused (None).
    live_fwd: np.ndarray | None
    # LT: chosen live in-neighbor per node, -1 if none. IC: unused.
    chosen_src: np.ndarray | None

    def live_edges_pdf(self) -> pd.DataFrame:
        """The live directed edges of φ as a src/dst frame (for oracles)."""
        g = self.graph
        src_all = np.repeat(np.arange(g.n), np.diff(g.fwd_indptr))
        if self.model == IC:
            mask = self.live_fwd
            return pd.DataFrame(
                {"src": src_all[mask], "dst": g.fwd_indices[mask]}
            )
        dst = np.nonzero(self.chosen_src >= 0)[0]
        return pd.DataFrame({"src": self.chosen_src[dst], "dst": dst})

    def is_live(self, u: int, v: int) -> bool:
        """Status of edge ⟨u, v⟩ under φ (edge must exist in the graph)."""
        g = self.graph
        lo, hi = g.fwd_indptr[u], g.fwd_indptr[u + 1]
        slots = np.nonzero(g.fwd_indices[lo:hi] == v)[0]
        if len(slots) == 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        slot = lo + slots[0]
        if self.model == IC:
            return bool(self.live_fwd[slot])
        return self.chosen_src[v] == u


def sample_realization(g: GraphCSR, model: str, seed: int) -> Realization:
    """Draw φ ~ Ω with a fixed seed (the harness's hidden ground truth)."""
    rng = np.random.default_rng(seed)
    if model == IC:
        live = rng.random(g.m) < g.fwd_probs
        return Realization(graph=g, model=IC, live_fwd=live, chosen_src=None)
    if model == LT:
        check_lt_weights(g.rev_indptr, g.rev_cum)
        r = rng.random(g.n)
        chosen = pick_in_edges(
            g.rev_indptr, g.rev_indices, g.rev_cum, np.arange(g.n), r
        )
        return Realization(graph=g, model=LT, live_fwd=None, chosen_src=chosen)
    raise ValueError(f"unknown model {model!r}")

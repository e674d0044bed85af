"""Compressed-sparse-row storage for probabilistic social networks.

One ``GraphCSR`` holds both adjacency directions plus the weighted-cascade
propagation probabilities, as flat numpy arrays — the shape every sampler
(forward diffusion, reverse RR/mRR BFS) consumes, and the payload we
broadcast to Spark executors so that ``mapInPandas`` tasks can traverse
the graph without shuffling edges.

Residual graphs are *not* materialized: samplers take a boolean
``active`` mask over nodes and skip inactive endpoints, which is
equivalent to traversing the induced subgraph (tested).
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


@dataclass
class GraphCSR:
    """A directed graph with per-edge propagation probabilities in CSR form.

    Attributes
    ----------
    n, m : node / directed-edge counts.
    fwd_indptr, fwd_indices : out-adjacency, CSR over source node.
    fwd_probs : p(u, v) aligned with ``fwd_indices``.
    rev_indptr, rev_indices : in-adjacency, CSR over destination node.
    rev_probs : p(u, v) aligned with ``rev_indices``; under weighted
        cascade all in-edges of ``v`` share ``1/indeg(v)``.
    rev_cum : prefix sum of ``rev_probs`` with a leading 0 (length m+1);
        node ``v``'s in-edges own ``[rev_cum[lo], rev_cum[hi])``, which is
        what the vectorized LT pick searches.
    indeg, outdeg : degree arrays.
    """

    n: int
    m: int
    fwd_indptr: np.ndarray
    fwd_indices: np.ndarray
    fwd_probs: np.ndarray
    rev_indptr: np.ndarray
    rev_indices: np.ndarray
    rev_probs: np.ndarray
    rev_cum: np.ndarray
    indeg: np.ndarray
    outdeg: np.ndarray
    # (SparkContext, Broadcast) of the last broadcast.
    _bc: tuple | None = field(default=None, repr=False)

    @staticmethod
    def from_edges(
        edges: pd.DataFrame,
        n: int | None = None,
        probs: np.ndarray | None = None,
        wc_scale: float = 1.0,
    ) -> "GraphCSR":
        """Build from a ``src``/``dst`` edge list.

        ``probs`` overrides the default weighted-cascade assignment
        ``p(u, v) = wc_scale/indeg(v)`` (aligned with the row order of
        ``edges``). ``wc_scale`` is the lite-scale damping documented in
        ``graphs.generator.DatasetSpec``. Probabilities outside [0, 1]
        (or NaN) raise ``ValueError``.
        """
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        if n is None:
            n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
        m = len(src)
        indeg = np.bincount(dst, minlength=n).astype(np.int64)
        outdeg = np.bincount(src, minlength=n).astype(np.int64)
        if probs is None:
            with np.errstate(divide="ignore"):
                p_edge = wc_scale / indeg[dst]
        else:
            p_edge = np.asarray(probs, dtype=np.float64)
            if p_edge.shape != (m,):
                raise ValueError(f"probs has shape {p_edge.shape}, expected ({m},)")
        bad = ~((p_edge >= 0.0) & (p_edge <= 1.0))
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(
                f"edge probability {p_edge[j]!r} of ({src[j]}, {dst[j]}) "
                "is outside [0, 1]"
            )
        # Forward CSR, sorted by src.
        order_f = np.argsort(src, kind="stable")
        fwd_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(outdeg, out=fwd_indptr[1:])
        fwd_indices = dst[order_f]
        fwd_probs = p_edge[order_f]
        # Reverse CSR, sorted by dst.
        order_r = np.argsort(dst, kind="stable")
        rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indeg, out=rev_indptr[1:])
        rev_indices = src[order_r]
        rev_probs = p_edge[order_r]
        rev_cum = np.zeros(m + 1, dtype=np.float64)
        np.cumsum(rev_probs, out=rev_cum[1:])
        return GraphCSR(
            n=n,
            m=m,
            fwd_indptr=fwd_indptr,
            fwd_indices=fwd_indices,
            fwd_probs=fwd_probs,
            rev_indptr=rev_indptr,
            rev_indices=rev_indices,
            rev_probs=rev_probs,
            rev_cum=rev_cum,
            indeg=indeg,
            outdeg=outdeg,
        )

    def edges_pdf(self) -> pd.DataFrame:
        """Edge list (src, dst, p) reconstructed from the forward CSR."""
        src = np.repeat(np.arange(self.n), np.diff(self.fwd_indptr))
        return pd.DataFrame(
            {"src": src, "dst": self.fwd_indices, "p": self.fwd_probs}
        )

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.fwd_indices[self.fwd_indptr[v] : self.fwd_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.rev_indices[self.rev_indptr[v] : self.rev_indptr[v + 1]]

    def payload(self) -> dict:
        """The plain-numpy dict that gets broadcast to executors: what the
        reverse sampler reads, the in-adjacency and its probabilities."""
        return {
            "n": self.n,
            "rev_indptr": self.rev_indptr,
            "rev_indices": self.rev_indices,
            "rev_probs": self.rev_probs,
            "rev_cum": self.rev_cum,
        }

    def broadcast(self, spark: SparkSession):
        """Broadcast the CSR payload once per SparkContext and cache it.

        Sessions on one context share the broadcast; a new context (the
        old one stopped) gets a fresh one, never the dead one."""
        sc = spark.sparkContext
        if self._bc is None or self._bc[0] is not sc:
            self._bc = (sc, sc.broadcast(self.payload()))
        return self._bc[1]

"""Live-edge realization sampling (paper §2.1) — IC and LT semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.diffusion.realization import (
    IC,
    LT,
    choose_in_edge,
    pick_in_edges,
    sample_realization,
)
from repro.graphs.csr import GraphCSR
from repro.graphs.generator import DATASETS, dataset_csr


@pytest.fixture(scope="module")
def tri():
    """1 and 2 both feed 0; 0 feeds 1. WC probabilities."""
    edges = pd.DataFrame({"src": [1, 2, 0], "dst": [0, 0, 1]})
    return GraphCSR.from_edges(edges, n=3)


def test_ic_shapes(tri):
    real = sample_realization(tri, IC, 0)
    assert real.model == IC
    assert real.live_fwd.shape == (tri.m,)
    assert real.chosen_src is None


def test_lt_shapes(tri):
    real = sample_realization(tri, LT, 0)
    assert real.model == LT
    assert real.live_fwd is None
    assert real.chosen_src.shape == (tri.n,)


def test_deterministic_in_seed(tri):
    a = sample_realization(tri, IC, 5)
    b = sample_realization(tri, IC, 5)
    np.testing.assert_array_equal(a.live_fwd, b.live_fwd)
    c = sample_realization(tri, LT, 5)
    d = sample_realization(tri, LT, 5)
    np.testing.assert_array_equal(c.chosen_src, d.chosen_src)


def test_ic_live_frequency_matches_p(tri):
    """Each edge is live with probability p(e) (statistical)."""
    n_trials = 4000
    live = np.zeros(tri.m)
    for s in range(n_trials):
        live += sample_realization(tri, IC, s).live_fwd
    freq = live / n_trials
    np.testing.assert_allclose(freq, tri.fwd_probs, atol=0.04)


def test_lt_exactly_one_in_edge_when_weights_sum_to_one(tri):
    """Under WC the in-weights of each non-source node sum to 1, so the
    LT live-edge process picks exactly one in-edge for it."""
    for s in range(50):
        real = sample_realization(tri, LT, s)
        for v in range(tri.n):
            if tri.indeg[v] > 0:
                assert real.chosen_src[v] in tri.in_neighbors(v)
            else:
                assert real.chosen_src[v] == -1


def test_lt_choice_distribution_uniform(tri):
    """WC in-weights are equal, so the chosen in-neighbor is uniform."""
    n_trials = 4000
    counts = {1: 0, 2: 0}
    for s in range(n_trials):
        real = sample_realization(tri, LT, s)
        counts[int(real.chosen_src[0])] += 1
    assert counts[1] / n_trials == pytest.approx(0.5, abs=0.04)


def test_live_edges_pdf_ic(tri):
    real = sample_realization(tri, IC, 3)
    pdf = real.live_edges_pdf()
    assert len(pdf) == int(real.live_fwd.sum())
    for row in pdf.itertuples():
        assert real.is_live(row.src, row.dst)


def test_live_edges_pdf_lt(tri):
    real = sample_realization(tri, LT, 3)
    pdf = real.live_edges_pdf()
    # One live in-edge per node with indeg > 0.
    assert len(pdf) == int((tri.indeg > 0).sum())
    for row in pdf.itertuples():
        assert real.is_live(row.src, row.dst)


def test_is_live_raises_for_missing_edge(tri):
    real = sample_realization(tri, IC, 0)
    with pytest.raises(KeyError):
        real.is_live(2, 1)


def test_unknown_model_rejected(tri):
    with pytest.raises(ValueError):
        sample_realization(tri, "SIR", 0)


def test_choose_in_edge_full_mass():
    # weights sum to 1: always picks an index, proportional to weight.
    w = np.array([0.25, 0.75])
    assert choose_in_edge(w, 0.1) == 0
    assert choose_in_edge(w, 0.25) == 1
    assert choose_in_edge(w, 0.9) == 1


def test_choose_in_edge_deficient_mass():
    # weights sum to 0.5: r beyond the mass selects no edge (-1).
    w = np.array([0.2, 0.3])
    assert choose_in_edge(w, 0.1) == 0
    assert choose_in_edge(w, 0.4) == 1
    assert choose_in_edge(w, 0.7) == -1


def test_lt_respects_partial_weights():
    """With damped weights (sum < 1) some nodes legitimately pick no edge."""
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, wc_scale=0.4)
    none = 0
    n_trials = 2000
    for s in range(n_trials):
        real = sample_realization(g, LT, s)
        if real.chosen_src[0] == -1:
            none += 1
    assert none / n_trials == pytest.approx(0.6, abs=0.05)


@pytest.mark.parametrize("name", list(DATASETS))
def test_vectorized_lt_pick_matches_choose_in_edge(name):
    """``sample_realization``'s vectorized pick equals the per-node
    ``choose_in_edge`` loop on the same uniforms."""
    g = dataset_csr(name)
    for seed in range(20):
        r = np.random.default_rng(seed).random(g.n)
        want = np.full(g.n, -1, dtype=np.int64)
        for v in range(g.n):
            lo, hi = g.rev_indptr[v], g.rev_indptr[v + 1]
            j = choose_in_edge(g.rev_probs[lo:hi], r[v])
            if j >= 0:
                want[v] = g.rev_indices[lo + j]
        np.testing.assert_array_equal(sample_realization(g, LT, seed).chosen_src, want)


def test_pick_in_edges_leftover_mass_and_sources():
    # Node 0 has in-weights (0.2, 0.3) from 1 and 2; node 1 has none.
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.2, 0.3]))
    nodes = np.array([0, 0, 0, 1])
    r = np.array([0.1, 0.4, 0.7, 0.1])
    got = pick_in_edges(g.rev_indptr, g.rev_indices, g.rev_cum, nodes, r)
    np.testing.assert_array_equal(got, [1, 2, -1, -1])


def test_lt_rejects_in_weights_above_one():
    """Overweight in-edges are an error, not silently truncated mass."""
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="sum to"):
        sample_realization(g, LT, 0)
    sample_realization(g, IC, 0)  # IC has no such constraint

"""Tests for the CSR graph representation (DESIGN.md S1)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.csr import GraphCSR
from repro.graphs.generator import DATASETS, dataset_csr


@pytest.fixture(scope="module")
def diamond():
    """0→1, 0→2, 1→3, 2→3 with default WC probabilities."""
    edges = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3]})
    return GraphCSR.from_edges(edges, n=4)


def test_counts(diamond):
    assert diamond.n == 4
    assert diamond.m == 4


def test_degrees(diamond):
    np.testing.assert_array_equal(diamond.outdeg, [2, 1, 1, 0])
    np.testing.assert_array_equal(diamond.indeg, [0, 1, 1, 2])


def test_forward_adjacency(diamond):
    assert sorted(diamond.out_neighbors(0).tolist()) == [1, 2]
    assert diamond.out_neighbors(1).tolist() == [3]
    assert diamond.out_neighbors(3).tolist() == []


def test_reverse_adjacency(diamond):
    assert sorted(diamond.in_neighbors(3).tolist()) == [1, 2]
    assert diamond.in_neighbors(0).tolist() == []


def test_wc_probabilities(diamond):
    # p(u, v) = 1/indeg(v): edges into 3 carry 1/2, into 1 and 2 carry 1.
    pdf = diamond.edges_pdf()
    got = {(r.src, r.dst): r.p for r in pdf.itertuples()}
    assert got[(0, 1)] == 1.0 and got[(0, 2)] == 1.0
    assert got[(1, 3)] == 0.5 and got[(2, 3)] == 0.5


def test_wc_scale():
    edges = pd.DataFrame({"src": [0, 0], "dst": [1, 2]})
    g = GraphCSR.from_edges(edges, n=3, wc_scale=0.25)
    assert set(g.fwd_probs.tolist()) == {0.25}


def test_explicit_probs_override():
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.9, 0.1]))
    pdf = g.edges_pdf()
    got = {(r.src, r.dst): r.p for r in pdf.itertuples()}
    assert got[(0, 1)] == 0.9 and got[(1, 2)] == 0.1


def test_edges_pdf_round_trip(diamond):
    pdf = diamond.edges_pdf()[["src", "dst"]].sort_values(["src", "dst"])
    expected = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3]})
    pd.testing.assert_frame_equal(pdf.reset_index(drop=True), expected)


def test_payload_keys(diamond):
    """Only what the reverse sampler reads is broadcast."""
    assert set(diamond.payload()) == {
        "n",
        "rev_indptr",
        "rev_indices",
        "rev_probs",
        "rev_cum",
    }


@pytest.mark.parametrize("name", list(DATASETS))
def test_fwd_rev_edge_multisets_agree(name):
    g = dataset_csr(name)
    src_f = np.repeat(np.arange(g.n), np.diff(g.fwd_indptr))
    fwd = set(zip(src_f.tolist(), g.fwd_indices.tolist()))
    dst_r = np.repeat(np.arange(g.n), np.diff(g.rev_indptr))
    rev = set(zip(g.rev_indices.tolist(), dst_r.tolist()))
    assert fwd == rev
    assert len(fwd) == g.m


@pytest.mark.parametrize("name", list(DATASETS))
def test_indptr_monotone(name):
    g = dataset_csr(name)
    assert (np.diff(g.fwd_indptr) >= 0).all()
    assert (np.diff(g.rev_indptr) >= 0).all()
    assert g.fwd_indptr[-1] == g.m and g.rev_indptr[-1] == g.m


def test_broadcast_cached(spark, diamond):
    b1 = diamond.broadcast(spark)
    b2 = diamond.broadcast(spark)
    assert b1 is b2
    assert b1.value["n"] == 4


class _StubContext:
    """Counts broadcasts; stands in for a SparkContext."""

    def __init__(self):
        self.made = []

    def broadcast(self, value):
        self.made.append(object())
        return self.made[-1]


class _StubSession:
    def __init__(self, ctx):
        self.sparkContext = ctx


def test_broadcast_cache_follows_the_context():
    """Sessions on one context share a broadcast; a session whose context
    changed (or a new session reusing a dead one's id) gets a fresh one."""
    g = GraphCSR.from_edges(pd.DataFrame({"src": [0], "dst": [1]}), n=2)
    ctx = _StubContext()
    first = g.broadcast(_StubSession(ctx))
    assert g.broadcast(_StubSession(ctx)) is first
    assert len(ctx.made) == 1
    session = _StubSession(ctx)
    g.broadcast(session)
    session.sparkContext = new_ctx = _StubContext()  # same session id, new context
    fresh = g.broadcast(session)
    assert fresh is new_ctx.made[0] and fresh is not first


def test_n_inferred_when_omitted():
    edges = pd.DataFrame({"src": [0, 4], "dst": [4, 2]})
    g = GraphCSR.from_edges(edges)
    assert g.n == 5


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
def test_from_edges_rejects_bad_probabilities(bad):
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    with pytest.raises(ValueError):
        GraphCSR.from_edges(edges, n=3, probs=np.array([0.5, bad]))


def test_from_edges_rejects_wc_scale_above_one():
    edges = pd.DataFrame({"src": [0], "dst": [1]})
    with pytest.raises(ValueError):
        GraphCSR.from_edges(edges, n=2, wc_scale=1.5)


def test_rev_cum_is_in_edge_prefix_sum(diamond):
    np.testing.assert_allclose(diamond.rev_cum, [0.0, 1.0, 2.0, 2.5, 3.0])
    assert diamond.payload()["rev_cum"] is diamond.rev_cum

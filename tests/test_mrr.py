"""mRR-set sampling (paper §3.3): root-size law, Theorem 3.3 sandwich,
RR-set truncation bias, and the distributed pairs path vs its oracle."""
import importlib
from math import comb

import numpy as np
import pandas as pd
import pytest

from repro.diffusion.propagate import (
    exact_expected_truncated,
    spread_local,
    truncated,
)
from repro.diffusion.realization import IC, LT, sample_realization
from repro.graphs.csr import GraphCSR
from repro.oracle import assert_equivalent
from repro.sampling.mrr import (
    sample_root_size,
    sample_root_sizes,
    sample_sets_local,
    sample_sets_pairs,
)
from repro.sampling.rr import sample_rr_local


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (4, 2), (1000, 999)])
def test_root_size_support(n_i, eta_i):
    rng = np.random.default_rng(0)
    k_low = int(n_i / eta_i)
    for _ in range(200):
        k = sample_root_size(n_i, eta_i, rng)
        assert k in (max(1, k_low), min(n_i, k_low + 1))


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (7, 2)])
def test_root_size_mean(n_i, eta_i):
    """Randomized rounding gives E[k] = n_i/η_i (Thm 3.3)."""
    rng = np.random.default_rng(1)
    ks = [sample_root_size(n_i, eta_i, rng) for _ in range(20000)]
    assert np.mean(ks) == pytest.approx(n_i / eta_i, rel=0.02)


def test_root_size_integer_ratio_is_deterministic():
    rng = np.random.default_rng(2)
    assert all(sample_root_size(8, 4, rng) == 2 for _ in range(100))


def test_members_are_active_and_contain_roots(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:40] = False
    sets = sample_sets_local(g, active, 20, IC, 50, seed=3)
    for sid, members in sets:
        assert len(members) > 0
        assert active[members].all(), "inactive nodes never enter a set"


def test_local_deterministic(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    a = sample_sets_local(g, active, 20, IC, 10, seed=9)
    b = sample_sets_local(g, active, 20, IC, 10, seed=9)
    for (ia, ma), (ib, mb) in zip(a, b):
        assert ia == ib
        np.testing.assert_array_equal(np.sort(ma), np.sort(mb))


@pytest.mark.parametrize("model", [IC, LT])
def test_rr_sets_single_root(small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    sets = sample_rr_local(g, active, model, 30, seed=4)
    assert len(sets) == 30
    for _, members in sets:
        assert len(members) >= 1


def test_theorem_3_3_sandwich_ex23(ex23_graph):
    """(1−1/e)·E[Γ(S)] ≤ E[Γ̃(S)] ≤ E[Γ(S)] on the Example 2.3 graph."""
    g = ex23_graph
    eta = 2
    active = np.ones(g.n, bool)
    n_sets = 20000
    sets = sample_sets_local(g, active, eta, IC, n_sets, seed=5)
    for v in range(4):
        hit = sum(1 for _, m in sets if v in m)
        est = eta * hit / n_sets  # E[Γ̃({v})]
        exact = exact_expected_truncated(g, [v], eta)
        assert est <= exact * 1.05
        assert est >= (1 - 1 / np.e) * exact * 0.95


def test_mrr_estimator_exact_values_ex23(ex23_graph):
    """Closed-form check: with η=2, k=2 roots without replacement,
    E[Γ̃(v)] = η·Pr[v ∈ R] works out to (1.75, 5/3, 5/3, 1) for v1..v4
    (e.g. v2 always reaches {v2, v4}, so Pr[hit] = 1 − C(2,2)/C(4,2) = 5/6).
    Note the estimator keeps every node inside the Theorem 3.3 band but
    does not preserve the exact Γ-ordering — that is precisely why TRIM's
    guarantee is (1−1/e)(1−ε) rather than exact greedy."""
    g = ex23_graph
    active = np.ones(g.n, bool)
    n_sets = 20000
    sets = sample_sets_local(g, active, 2, IC, n_sets, seed=6)
    cov = np.zeros(4)
    for _, m in sets:
        cov[m] += 1
    est = 2 * cov / n_sets
    np.testing.assert_allclose(est, [1.75, 5 / 3, 5 / 3, 1.0], rtol=0.05)


def _mc_expected(g, seeds, model, eta, n_trials=3000, seed0=0):
    tot_i, tot_g = 0.0, 0.0
    for s in range(n_trials):
        real = sample_realization(g, model, seed0 + s)
        x = len(spread_local(real, seeds))
        tot_i += x
        tot_g += truncated(x, eta)
    return tot_i / n_trials, tot_g / n_trials


def test_rr_truncation_bias(small_cl_graph):
    """Paper §3.2: single-root RR sets estimate truncated spread as
    (η/n)·E[I(S)], badly biased when η ≪ n, while mRR stays in the
    Theorem 3.3 band."""
    g = small_cl_graph
    eta = 5
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, e_g = _mc_expected(g, [v], IC, eta)
    n_sets = 8000
    rr = sample_rr_local(g, active, IC, n_sets, seed=7)
    rr_est = eta * sum(1 for _, m in rr if v in m) / n_sets
    mrr = sample_sets_local(g, active, eta, IC, n_sets, seed=8)
    mrr_est = eta * sum(1 for _, m in mrr if v in m) / n_sets
    # RR underestimates by roughly η/n (here η/n = 1/30).
    assert rr_est == pytest.approx(eta / g.n * e_i, rel=0.3)
    assert rr_est < 0.5 * e_g
    # mRR lands inside the (1-1/e) sandwich of the truth.
    assert (1 - 1 / np.e) * e_g * 0.9 <= mrr_est <= e_g * 1.1


def test_rr_untruncated_unbiased(small_cl_graph):
    """E[I(S)] = n·Pr[R ∩ S ≠ ∅] for single-root RR sets (Borgs et al.)."""
    g = small_cl_graph
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, _ = _mc_expected(g, [v], IC, eta=g.n)
    n_sets = 8000
    rr = sample_rr_local(g, active, IC, n_sets, seed=9)
    est = g.n * sum(1 for _, m in rr if v in m) / n_sets
    assert est == pytest.approx(e_i, rel=0.15)


@pytest.mark.parametrize("model", [IC, LT])
def test_spark_pairs_shape(spark, small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    pairs = sample_sets_pairs(spark, g, active, 20, model, 40, seed=10)
    pdf = pairs.toPandas()
    assert set(pdf.columns) == {"set_id", "node"}
    assert pdf["set_id"].nunique() == 40
    assert sorted(pdf["set_id"].unique()) == list(range(40))
    assert pdf["node"].isin(range(g.n)).all()
    # No duplicate membership rows within a set.
    assert not pdf.duplicated(["set_id", "node"]).any()


def test_spark_pairs_plan_has_no_exchange(spark, small_cl_graph):
    """A Spark sampling job is one stage: no shuffle anywhere in its plan."""
    g = small_cl_graph
    pairs = sample_sets_pairs(spark, g, np.ones(g.n, bool), 20, IC, 40, seed=10)
    pairs.collect()
    plan = pairs._jdf.queryExecution().executedPlan().toString()
    assert "MapInPandas" in plan
    assert "Exchange" not in plan


def test_spark_coverage_vs_duckdb_oracle(spark, small_cl_graph, monkeypatch):
    """Λ_R(v) from the Spark venue of ``_coverage_increment`` equals the
    SQL GROUP BY oracle over the same pairs frame."""
    trim_mod = importlib.import_module("repro.core.trim")
    monkeypatch.setattr(trim_mod, "SPARK_MIN_SETS", 1)
    monkeypatch.setattr(trim_mod, "sample_sets_local", None)  # Spark venue only
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:30] = False
    cov = trim_mod._coverage_increment(spark, g, active, 20, IC, 100, 11, "mrr")
    pairs = sample_sets_pairs(spark, g, active, 20, IC, 100, seed=11)
    got = pd.DataFrame({"node": np.flatnonzero(cov), "cov": cov[cov > 0]})
    assert_equivalent(
        spark.createDataFrame(got),
        "SELECT node, count(*) AS cov FROM pairs GROUP BY node",
        pairs=pairs,
    )


def test_spark_rejects_empty_active(spark, small_cl_graph):
    g = small_cl_graph
    with pytest.raises(ValueError):
        sample_sets_pairs(spark, g, np.zeros(g.n, bool), 5, IC, 10, seed=0)


def test_unknown_roots_mode(small_cl_graph):
    g = small_cl_graph
    with pytest.raises(ValueError):
        sample_sets_local(g, np.ones(g.n, bool), 5, IC, 1, seed=0, roots="xyz")


def test_root_sizes_vector_law():
    rng = np.random.default_rng(3)
    ks = sample_root_sizes(100, 7, 20000, rng)
    assert set(np.unique(ks).tolist()) == {14, 15}
    assert ks.mean() == pytest.approx(100 / 7, rel=0.01)
    assert (sample_root_sizes(5, 9, 100, rng) == 1).all()  # clipped to ≥ 1


@pytest.fixture(scope="module")
def edgeless():
    """60 isolated nodes: a sampled set is exactly its root set."""
    return GraphCSR.from_edges(pd.DataFrame({"src": [], "dst": []}), n=60)


# (η_i, model): k ∈ {4, 5} takes the re-draw path, k ∈ {22, 23} the
# random-key path of the root draw.
@pytest.mark.parametrize("eta_i,model", [(10, IC), (10, LT), (2, IC), (2, LT)])
def test_roots_distinct_active_uniform_on_edgeless(edgeless, eta_i, model):
    g = edgeless
    active = np.ones(g.n, bool)
    active[::4] = False
    n_i = int(active.sum())  # 45
    ratio = n_i / eta_i
    n_sets = 20000
    sets = sample_sets_local(g, active, eta_i, model, n_sets, seed=13)
    ks = np.array([len(m) for _, m in sets])
    assert set(ks.tolist()) <= {int(ratio), int(ratio) + 1}
    assert ks.mean() == pytest.approx(ratio, rel=0.01)
    for _, m in sets:
        assert len(np.unique(m)) == len(m), "roots are drawn without replacement"
        assert active[m].all()
    freq = np.bincount(np.concatenate([m for _, m in sets]), minlength=g.n)
    assert (freq[~active] == 0).all()
    expected = n_sets * ratio / n_i
    np.testing.assert_allclose(freq[active], expected, rtol=0.08)
    # The Thm 3.3 law: Pr[R ∩ X = ∅] = E[C(n_i−x, k)/C(n_i, k)].
    x_nodes = np.nonzero(active)[0][:5]
    miss = np.mean([not np.isin(x_nodes, m).any() for _, m in sets])
    p_hi = ratio - int(ratio)
    law = sum(
        w * comb(n_i - 5, k) / comb(n_i, k)
        for k, w in ((int(ratio), 1 - p_hi), (int(ratio) + 1, p_hi))
    )
    assert miss == pytest.approx(law, abs=0.015)


def test_rr_roots_uniform_on_edgeless(edgeless):
    active = np.ones(edgeless.n, bool)
    sets = sample_rr_local(edgeless, active, IC, 12000, seed=14)
    assert all(len(m) == 1 for _, m in sets)
    freq = np.bincount(np.concatenate([m for _, m in sets]), minlength=edgeless.n)
    np.testing.assert_allclose(freq, 12000 / edgeless.n, rtol=0.25)


def test_lt_sampler_rejects_in_weights_above_one():
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.6, 0.6]))
    with pytest.raises(ValueError, match="sum to"):
        sample_sets_local(g, np.ones(3, bool), 1, LT, 5, seed=0)
    assert len(sample_sets_local(g, np.ones(3, bool), 1, IC, 5, seed=0)) == 5


def test_packed_views_cover_batch(small_cl_graph):
    """Local sets are ordered, sorted views of one packed batch."""
    g = small_cl_graph
    sets = sample_sets_local(g, np.ones(g.n, bool), 20, LT, 300, seed=15)
    base = sets[0][1].base
    assert all(m.base is base for _, m in sets)
    assert sum(len(m) for _, m in sets) == len(base)
    assert all((np.diff(m) > 0).all() for _, m in sets)


def test_chunked_batch_matches_its_sets(small_cl_graph, monkeypatch):
    """A batch split over many bitmap chunks still yields valid sets."""
    import repro.sampling.mrr as mrr

    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:20] = False
    monkeypatch.setattr(mrr, "VISITED_BYTES", 7 * g.n)
    sets = sample_sets_local(g, active, 20, IC, 100, seed=16)
    assert [sid for sid, _ in sets] == list(range(100))
    for _, m in sets:
        assert len(m) >= 1 and active[m].all()
        assert len(np.unique(m)) == len(m)

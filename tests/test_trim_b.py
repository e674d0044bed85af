"""TRIM-B (paper Algorithm 3): greedy max coverage and batched selection."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.baselines.ateuc import _greedy_coverage_curve
from repro.core.trim import rho
from repro.core.trim_b import greedy_max_coverage, trim_b
from repro.diffusion.realization import IC, LT
from repro.graphs.csr import GraphCSR


def _brute_force_best(sets, n, b):
    best = 0
    for combo in combinations(range(n), b):
        covered = sum(1 for s in sets if any(v in combo for v in s.tolist()))
        best = max(best, covered)
    return best


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("b", [1, 2, 3])
def test_greedy_vs_brute_force(seed, b):
    """Greedy achieves ≥ ρ_b × optimal coverage on random instances."""
    rng = np.random.default_rng(seed)
    n = 8
    sets = [
        np.unique(rng.integers(0, n, size=rng.integers(1, 4)))
        for _ in range(25)
    ]
    chosen, covered = greedy_max_coverage(sets, n, b)
    best = _brute_force_best(sets, n, b)
    assert covered >= rho(b) * best - 1e-9
    assert len(chosen) == len(set(chosen)) <= b


def test_greedy_first_pick_is_max_coverage():
    sets = [np.array([0]), np.array([0, 1]), np.array([2])]
    chosen, covered = greedy_max_coverage(sets, 3, 1)
    assert chosen == [0]
    assert covered == 2


def test_greedy_stops_when_everything_covered():
    sets = [np.array([1]), np.array([1, 2])]
    chosen, covered = greedy_max_coverage(sets, 5, 4)
    assert covered == 2
    assert len(chosen) <= 2  # no pointless zero-gain picks


def test_greedy_empty_sets():
    chosen, covered = greedy_max_coverage([], 5, 2)
    assert chosen == [] and covered == 0


@pytest.mark.parametrize("b", [2, 4])
@pytest.mark.parametrize("model", [IC, LT])
def test_trim_b_returns_b_active_nodes(small_cl_graph, b, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:30] = False
    res = trim_b(None, g, active, 20, model, eps=0.5, seed=1, b=b)
    assert len(res.nodes) == b
    assert len(set(res.nodes)) == b
    assert all(active[v] for v in res.nodes)


def test_trim_b_b1_matches_trim_choice_on_ex23(ex23_graph):
    # Same admissible set as TRIM (see test_trim_guarantee_on_ex23).
    res = trim_b(None, ex23_graph, np.ones(4, bool), 2, IC, eps=0.1, seed=2, b=1)
    assert res.nodes[0] in (0, 1, 2)


def test_trim_b_bookkeeping(small_cl_graph):
    g = small_cl_graph
    res = trim_b(None, g, np.ones(g.n, bool), 15, IC, eps=0.5, seed=3, b=4)
    assert res.n_sets > 0 and res.iterations >= 1
    assert 0 <= res.coverage <= res.n_sets
    assert res.est_truncated_spread == pytest.approx(15 * res.coverage / res.n_sets)


def test_trim_b_caps_batch_at_residual_size(small_cl_graph):
    g = small_cl_graph
    active = np.zeros(g.n, bool)
    active[:3] = True
    res = trim_b(None, g, active, 3, IC, eps=0.5, seed=4, b=8)
    assert len(res.nodes) == 3
    assert all(active[v] for v in res.nodes)


def test_trim_b_empty_residual_raises(small_cl_graph):
    with pytest.raises(ValueError):
        trim_b(None, small_cl_graph, np.zeros(small_cl_graph.n, bool), 5, IC, 0.5, 0, b=2)


def test_trim_b_padding_when_coverage_exhausted(line_graph):
    """On a tiny graph where few nodes cover everything, the batch is
    padded with other active nodes rather than short-changed."""
    g = line_graph
    res = trim_b(None, g, np.ones(g.n, bool), 2, IC, eps=0.5, seed=5, b=4)
    assert len(res.nodes) == 4
    assert len(set(res.nodes)) == 4


def test_trim_b_pads_by_residual_out_degree():
    """Hub 1's out-edges all lead to activated nodes, so it ranks below
    node 6 (one out-edge into the residual graph) when padding.

    With η_i = 1 every mRR set holds all four active nodes as roots, so
    greedy picks node 0 (lowest id) and stops after one pick.
    """
    edges = pd.DataFrame({"src": [1, 1, 1, 1, 6], "dst": [2, 3, 4, 5, 7]})
    g = GraphCSR.from_edges(edges, n=8, probs=np.ones(5))
    active = np.zeros(g.n, bool)
    active[[0, 1, 6, 7]] = True
    res = trim_b(None, g, active, 1, IC, eps=0.5, seed=6, b=2)
    assert res.nodes == [0, 6]


def _greedy_oracle(sets, n, max_picks):
    """The per-member dict-of-lists greedy the numpy core replaced."""
    node_sets: dict[int, list[int]] = {}
    for si, members in enumerate(sets):
        for v in members.tolist():
            node_sets.setdefault(v, []).append(si)
    counts = np.zeros(n, dtype=np.int64)
    for v, lst in node_sets.items():
        counts[v] = len(lst)
    covered = np.zeros(len(sets), dtype=bool)
    picks, curve, total = [], [], 0
    for _ in range(max_picks):
        v = int(np.argmax(counts))
        if counts[v] <= 0:
            break
        picks.append(v)
        for si in node_sets.get(v, []):
            if not covered[si]:
                covered[si] = True
                total += 1
                for u in sets[si].tolist():
                    counts[u] -= 1
        counts[v] = -1
        curve.append(total)
    return picks, curve


@pytest.mark.parametrize("seed", range(30))
def test_greedy_matches_loop_oracle(seed):
    """Same picks (lowest-id ties included) and curve as the loop greedy."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    sets = [
        np.unique(rng.integers(0, n, size=rng.integers(0, 6)))
        for _ in range(int(rng.integers(0, 120)))
    ]
    if seed % 3 == 0:  # duplicate members within a set
        sets = [np.concatenate([m, m[:1]]) for m in sets]
    picks, curve = _greedy_oracle(sets, n, n)
    assert _greedy_coverage_curve(sets, n, n) == (picks, curve)
    for b in (1, 3, 8):
        want = _greedy_oracle(sets, n, min(b, n))
        assert greedy_max_coverage(sets, n, b) == (
            want[0], want[1][-1] if want[1] else 0
        )

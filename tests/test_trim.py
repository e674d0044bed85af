"""TRIM (paper Algorithm 2): schedule arithmetic and selection quality."""
import math

import numpy as np
import pytest

from repro.core.trim import TrimSchedule, ln_choose, rho, trim
from repro.diffusion.propagate import exact_expected_truncated
from repro.diffusion.realization import IC, LT


@pytest.mark.parametrize("n_i,eta_i,eps", [(100, 10, 0.5), (1200, 240, 0.5), (500, 5, 0.1)])
def test_schedule_matches_paper_formulas(n_i, eta_i, eps):
    """Recompute lines 1–5 of Algorithm 2 independently."""
    s = TrimSchedule.build(n_i, eta_i, eps)
    delta = eps / (100 * (1 - 1 / math.e) * (1 - eps) * eta_i)
    eps_hat = 99 * eps / (100 - eps)
    theta_max = (
        2 * n_i
        * (math.sqrt(math.log(6 / delta)) + math.sqrt(math.log(n_i) + math.log(6 / delta))) ** 2
        / eps_hat**2
    )
    assert s.delta == pytest.approx(delta)
    assert s.eps_hat == pytest.approx(eps_hat)
    assert s.theta_max == pytest.approx(theta_max, rel=1e-9)
    assert s.theta_o == max(1, math.ceil(theta_max * eps_hat**2 / n_i))
    assert s.T == math.ceil(math.log2(theta_max / s.theta_o)) + 1
    assert s.a1 == pytest.approx(math.log(3 * s.T / delta) + math.log(n_i))
    assert s.a2 == pytest.approx(math.log(3 * s.T / delta))


def test_schedule_batched_generalization():
    """Algorithm 3 lines 1–5: ln C(n,b), θ scaled by b, ρ_b in θ_max."""
    n_i, eta_i, eps, b = 300, 30, 0.5, 4
    s = TrimSchedule.build(n_i, eta_i, eps, b=b)
    delta = eps / (100 * (1 - 1 / math.e) * (1 - eps) * eta_i)
    eps_hat = 99 * eps / (100 - eps)
    rb = rho(b)
    lnc = ln_choose(n_i, b)
    theta_max = (
        2 * n_i
        * (math.sqrt(math.log(6 / delta)) + math.sqrt((lnc + math.log(6 / delta)) / rb)) ** 2
        / (b * eps_hat**2)
    )
    assert s.theta_max == pytest.approx(theta_max, rel=1e-9)
    assert s.a1 == pytest.approx(math.log(3 * s.T / delta) + lnc)


def test_rho_values():
    assert rho(1) == pytest.approx(1.0)
    assert rho(2) == pytest.approx(0.75)
    assert rho(4) == pytest.approx(1 - (3 / 4) ** 4)
    # ρ_b decreases toward 1 − 1/e.
    vals = [rho(b) for b in (1, 2, 4, 8, 64)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] > 1 - 1 / math.e


@pytest.mark.parametrize("n,b", [(10, 1), (10, 3), (100, 5), (50, 50)])
def test_ln_choose(n, b):
    assert ln_choose(n, b) == pytest.approx(math.log(math.comb(n, b)), rel=1e-9)


def test_schedule_t_at_least_one():
    s = TrimSchedule.build(4, 2, 0.5)
    assert s.T >= 1 and s.theta_o >= 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_trim_guarantee_on_ex23(ex23_graph, seed):
    """On Example 2.3 with η=2 the exact mRR expectations are
    E[Γ̃] = (1.75, 5/3, 5/3, 1) for (v1..v4): the estimator may rank v1
    first (its Δ = 1.75 is within (1−1/e)(1−ε) of the optimum 2), but
    v4 (Δ = 1) violates the ε=0.1 guarantee and must never be chosen."""
    active = np.ones(4, bool)
    res = trim(None, ex23_graph, active, 2, IC, eps=0.1, seed=seed)
    assert res.nodes[0] in (0, 1, 2)


def test_trim_estimate_in_theorem_band(ex23_graph):
    res = trim(None, ex23_graph, np.ones(4, bool), 2, IC, eps=0.2, seed=7)
    exact = exact_expected_truncated(ex23_graph, [res.nodes[0]], 2)
    assert res.est_truncated_spread <= exact * 1.15
    assert res.est_truncated_spread >= (1 - 1 / math.e) * exact * 0.8


@pytest.mark.parametrize("model", [IC, LT])
def test_trim_respects_active_mask(small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[: g.n // 2] = False
    res = trim(None, g, active, 10, model, eps=0.5, seed=1)
    assert active[res.nodes[0]]


def test_trim_result_bookkeeping(small_cl_graph):
    g = small_cl_graph
    res = trim(None, g, np.ones(g.n, bool), 10, IC, eps=0.5, seed=2)
    assert 1 <= res.iterations
    assert res.n_sets >= TrimSchedule.build(g.n, 10, 0.5).theta_o
    assert 0 <= res.coverage <= res.n_sets
    assert res.est_truncated_spread == pytest.approx(10 * res.coverage / res.n_sets)


def test_trim_eta_capped_at_n_i(small_cl_graph):
    g = small_cl_graph
    active = np.zeros(g.n, bool)
    active[:10] = True
    # eta_i larger than the residual size must not crash (k capping).
    res = trim(None, g, active, 50, IC, eps=0.5, seed=3)
    assert active[res.nodes[0]]


def test_trim_empty_residual_raises(small_cl_graph):
    with pytest.raises(ValueError):
        trim(None, small_cl_graph, np.zeros(small_cl_graph.n, bool), 5, IC, 0.5, 0)


def test_trim_selection_near_optimal_quality(small_cl_graph):
    """The returned node's exact-ish Δ is within the guarantee of the
    best node's (Monte-Carlo ground truth over 149 candidates)."""
    from repro.diffusion.propagate import spread_local, truncated
    from repro.diffusion.realization import sample_realization

    g = small_cl_graph
    eta = 10
    res = trim(None, g, np.ones(g.n, bool), eta, IC, eps=0.3, seed=5)

    def mc_delta(v, trials=400):
        tot = 0
        for s in range(trials):
            real = sample_realization(g, IC, 9000 + s)
            tot += truncated(len(spread_local(real, [v])), eta)
        return tot / trials

    # Ground truth best over out-degree-ranked candidates (covers the hubs).
    cands = np.argsort(-g.outdeg)[:15].tolist() + [res.nodes[0]]
    best = max(mc_delta(v) for v in set(cands))
    # (1-1/e)(1-0.3) ≈ 0.44; allow MC slack.
    assert mc_delta(res.nodes[0]) >= 0.4 * best

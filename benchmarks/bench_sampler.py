"""Sampler microbenchmark: driver-local mRR/RR sets per second.

    pytest benchmarks/bench_sampler.py --benchmark-only

Times ``sample_sets_local`` on the full (all-active) nethept_lite and
epinions_lite graphs at η/n = 0.2, for {IC, LT} × {mrr, rr}, and
reports sets/s and members/s (from the median round) plus the mean set
size in each benchmark's ``extra_info``; they also print to stderr.
"""
import sys

import numpy as np
import pytest

from repro.diffusion.realization import IC, LT
from repro.graphs.generator import dataset_csr
from repro.sampling.mrr import sample_sets_local

N_SETS = 20000
ETA_FRAC = 0.2


@pytest.mark.parametrize("roots", ["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
@pytest.mark.parametrize("dataset", ["nethept_lite", "epinions_lite"])
def test_sampler_throughput(benchmark, dataset, model, roots):
    g = dataset_csr(dataset)
    active = np.ones(g.n, dtype=bool)
    eta = int(ETA_FRAC * g.n)
    seeds = iter(range(1000))

    def run():
        return sample_sets_local(g, active, eta, model, N_SETS, next(seeds), roots=roots)

    sets = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    members = sum(len(m) for _, m in sets)
    secs = benchmark.stats.stats.median
    info = {
        "sets_per_s": N_SETS / secs,
        "members_per_s": members / secs,
        "mean_set_size": members / N_SETS,
    }
    benchmark.extra_info.update(info)
    print(
        f"\n[sampler] {dataset} {model} {roots}: {info['sets_per_s']:,.0f} sets/s, "
        f"{info['members_per_s']:,.0f} members/s, mean |R| {info['mean_set_size']:.2f}",
        file=sys.stderr,
    )
    assert len(sets) == N_SETS

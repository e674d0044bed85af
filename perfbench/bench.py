"""Campaigns of one workload: inputs, checked outcomes and metrics.

Imported by ``run.py`` once ``src/`` is on ``sys.path``.
"""
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import summarize
from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import ateuc
from repro.core.asti import asti
from repro.diffusion.propagate import spread_local
from repro.diffusion.realization import sample_realization
from repro.experiments.harness import realization_seed
from repro.graphs.generator import dataset_csr
from repro.sampling.mrr import sample_sets_pairs

SETUP_REPS = 3
# Campaign seeds of one run: seed * CAMPAIGN_SEEDS + 100 * j.
CAMPAIGN_SEEDS = 10_000
# round_s_tail is the round latency with this many rounds above it.
TAIL_BEYOND = 10


def src_digest(src: Path) -> str:
    """Hash of the program sources: seed lists compare only within one."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Campaign:
    index: int
    seed: int
    seeds: list[int] | None = None  # seed list of the first execution
    round_sets: list[int] | None = None  # sets per round, first execution
    times: list[float] = field(default_factory=list)
    round_times: list[list[float]] = field(default_factory=list)
    ateuc: dict | None = None


class Bench:
    """The workload's inputs, its campaigns and their checked outcomes."""

    def __init__(self, spark, wl, seed: int):
        self.spark, self.wl = spark, wl
        # Every campaign plays on realization 0 and the seed picks the
        # algorithm seeds: campaign time swings between realizations far
        # more than between algorithm seeds. See README.md. Campaign seeds
        # lie 100 apart, so their per-round seeds (seed + 7i) never meet.
        self.campaigns = [Campaign(j, seed * CAMPAIGN_SEEDS + 100 * j) for j in range(wl.campaigns)]
        self.attempted = 0
        self.failures: list[str] = []
        self.setup: dict[str, float] = {}

    def set_up(self) -> None:
        """Graph, realization and broadcast, SETUP_REPS times from scratch.

        Medians are reported, so set-up work a change adds shows in
        ``setup_s`` without one slow repetition deciding it.
        """
        wl = self.wl
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            g = dataset_csr(wl.dataset)
            t1 = time.perf_counter()
            real = sample_realization(g, wl.model, realization_seed(wl.dataset, wl.model, 0))
            t2 = time.perf_counter()
            g.broadcast(self.spark)
            reps.append((time.perf_counter() - t0, t1 - t0, t2 - t1))
        self.g, self.real, self.eta = g, real, max(1, int(round(wl.eta_frac * g.n)))
        self.setup["prepare_s"] = statistics.median(r[0] for r in reps)
        self.setup["build_s"] = statistics.median(r[1] for r in reps)
        self.setup["realization_s"] = statistics.median(r[2] for r in reps)
        # The first Spark job of a session starts the Python workers and
        # costs ~6 s more than later ones; users pay that once per session,
        # not per campaign. Workloads without Spark jobs skip it.
        t0 = time.perf_counter()
        if wl.spark_jobs:
            pairs = sample_sets_pairs(self.spark, g, np.ones(g.n, dtype=bool), self.eta, wl.model, 256, 0)
            pairs.groupBy("node").count().collect()
        self.setup["warm_s"] = time.perf_counter() - t0

    def _fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"# FAILED {what}", file=sys.stderr)

    def run_campaign(self, c: Campaign, tracer=None) -> None:
        """One adaptive campaign until η is reached, with its output checks."""
        wl = self.wl
        self.attempted += 1
        span = None
        if tracer is not None:
            tracer.campaign, tracer.round = c.index, 0
            span = tracer.begin("campaign")
        t0 = time.perf_counter()
        try:
            if wl.algo == "adaptim":
                res = adaptim(self.spark, self.g, self.eta, wl.model, 0, seed=c.seed, realization=self.real)
            else:
                res = asti(
                    self.spark, self.g, self.eta, wl.model, 0, b=wl.b, seed=c.seed, realization=self.real
                )
        except Exception:
            traceback.print_exc()
            self._fail(f"campaign {c.index} raised")
            return
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        bad = []
        if res.spread < self.eta:
            bad.append(f"spread {res.spread} < eta {self.eta}")
        if len(set(res.seeds)) != len(res.seeds):
            bad.append("a node is seeded twice")
        replay = len(spread_local(self.real, res.seeds))
        if replay != res.spread:
            bad.append(f"replayed spread {replay} != reported {res.spread}")
        round_sets = [r.n_sets for r in res.rounds]
        if c.seeds is None:
            c.seeds, c.round_sets = list(res.seeds), round_sets
        elif list(res.seeds) != c.seeds:
            bad.append("seed list differs from an earlier run at the same seed")
        elif round_sets != c.round_sets:
            bad.append("rounds sampled other set counts than an earlier run at the same seed")
        if bad:
            self._fail(f"campaign {c.index}: " + "; ".join(bad))
            return
        c.times.append(dt)
        c.round_times.append([r.time_s for r in res.rounds])

    def run_ateuc(self, c: Campaign, tracer=None) -> None:
        """One non-adaptive ATEUC selection, evaluated on c's realization.

        ATEUC may miss η on a realization (the paper's N/A); that is
        counted in ``ateuc.miss_share``, not as a failure.
        """
        self.attempted += 1
        span = None
        if tracer is not None:
            tracer.campaign, tracer.round = c.index, 0
            span = tracer.begin("ateuc")
        t0 = time.perf_counter()
        try:
            sel = ateuc(self.spark, self.g, self.eta, self.wl.model, seed=c.seed)
        except Exception:
            traceback.print_exc()
            self._fail(f"ateuc {c.index} raised")
            return
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        if len(set(sel.seeds)) != len(sel.seeds):
            self._fail(f"ateuc {c.index}: a node is seeded twice")
        else:
            c.ateuc = {
                "seeds": list(sel.seeds),
                "time_s": dt,
                "sets": sel.n_sets,
                "iterations": sel.iterations,
                "miss": len(spread_local(self.real, sel.seeds)) < self.eta,
            }

    def one_pass(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for c in self.campaigns:
            self.run_campaign(c, tracer)
        return time.perf_counter() - t0

    def check_recorded_seeds(self, path: Path) -> None:
        """Compare seed lists with earlier runs of the same campaigns and source."""
        lists = {
            str(c.seed): c.seeds for c in self.campaigns if c.seeds is not None
        }
        if path.is_file():
            earlier = json.loads(path.read_text())
            for key, seeds in lists.items():
                if earlier.get(key, seeds) != seeds:
                    self._fail(f"campaign {key}: seed list differs from an earlier run")
            lists = {**earlier, **lists}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(lists))

    def end_to_end(self) -> tuple[dict[str, float], dict]:
        done = [c for c in self.campaigns if c.times]
        rounds = sorted(t for c in done for t in best_rounds(c))
        # The highest percentile with TAIL_BEYOND rounds above it; with
        # too few rounds for that, the slowest round.
        k = len(rounds) - 1 - TAIL_BEYOND if len(rounds) > TAIL_BEYOND else len(rounds) - 1
        # Interquartile mean of campaign times (the mean for up to three
        # campaigns): across seeds it spread ~20% less than the median.
        solve = sorted(best_campaign(c) for c in done)
        q = len(solve) // 4
        metrics = {
            "solve_s": statistics.fmean(solve[q : len(solve) - q]),
            "round_s_p50": statistics.median(rounds),
            "round_s_tail": rounds[k],
            "seeds_mean": statistics.fmean(len(c.seeds) for c in done),
            "setup_s": self.setup["session_s"] + self.setup["prepare_s"] + self.setup["warm_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        info = {
            "rounds": len(rounds),
            "round_tail_pct": round(100.0 * k / max(1, len(rounds) - 1), 2),
            "executions": [len(c.times) for c in done],
            "campaign_s": [[round(t, 4) for t in c.times] for c in done],
            "campaign_best_s": [round(t, 4) for t in solve],
            "n_seeds": [len(c.seeds) for c in done],
            "round_s": [round(t, 4) for t in rounds],
            "round_s_raw": [[[round(t, 4) for t in rep] for rep in c.round_times] for c in done],
        }
        return metrics, info

    def ateuc_metrics(self) -> dict[str, float]:
        sel = [c for c in self.campaigns if c.ateuc is not None and c.times]
        names = ("select_vs_solve", "sets", "iterations", "seeds", "seed_ratio", "miss_share")
        if not sel:
            return {f"ateuc.{k}": 0.0 for k in names}
        seeds = statistics.fmean(len(c.ateuc["seeds"]) for c in sel)
        return {
            "ateuc.select_vs_solve": statistics.median(c.ateuc["time_s"] for c in sel)
            / statistics.median(statistics.median(c.times) for c in sel),
            "ateuc.sets": statistics.fmean(c.ateuc["sets"] for c in sel),
            "ateuc.iterations": statistics.fmean(c.ateuc["iterations"] for c in sel),
            "ateuc.seeds": seeds,
            "ateuc.seed_ratio": seeds / statistics.fmean(len(c.seeds) for c in sel),
            "ateuc.miss_share": sum(c.ateuc["miss"] for c in sel) / len(sel),
        }


def best_rounds(c: Campaign) -> list[float]:
    """Each round's time as the fastest of the campaign's executions.

    Executions at one seed are identical (seed lists and per-round set
    counts are checked), so they differ only by how busy the host was.
    """
    return [min(rep[i] for rep in c.round_times) for i in range(len(c.round_times[0]))]


def best_campaign(c: Campaign) -> float:
    """Campaign time with every round at its fastest execution.

    Time outside the rounds (under 0.1%) is taken as its median.
    """
    outside = statistics.median(t - sum(rep) for t, rep in zip(c.times, c.round_times))
    return sum(best_rounds(c)) + outside


def measure(bench: Bench, seconds: float) -> tuple[dict[str, float], dict]:
    """Untraced run: ``passes`` executions of every campaign, pass by pass.

    Once the list has run once, no execution starts after ``seconds``.
    """
    t_start = time.perf_counter()
    bench.one_pass()
    for _ in range(bench.wl.passes - 1):
        for c in bench.campaigns:
            if time.perf_counter() - t_start > seconds:
                return bench.end_to_end()
            bench.run_campaign(c)
    return bench.end_to_end()


def measure_layers(bench: Bench, tracer) -> tuple[dict[str, float], dict, list[str]]:
    """Traced run: per-layer metrics from one traced pass over the list,
    followed by the workload's traced ATEUC selections.

    Each campaign runs untraced right before its traced execution: the
    pairs give the tracing overhead and the seed lists the traced
    executions must match. Where campaigns run Spark jobs, the first
    execution after set-up still pays ~20% of JIT warm-up, so one more
    untraced pass goes first.
    """
    if bench.wl.spark_jobs:
        bench.one_pass()
    first = len(tracer.spans)
    untraced_s = traced_s = 0.0
    for c in bench.campaigns:
        t0 = time.perf_counter()
        bench.run_campaign(c)
        t1 = time.perf_counter()
        tracer.install(bench.spark.sparkContext)
        try:
            bench.run_campaign(c, tracer)
        finally:
            tracer.remove()
        untraced_s += t1 - t0
        traced_s += time.perf_counter() - t1
    tracer.install(bench.spark.sparkContext)
    try:
        for c in bench.campaigns[: bench.wl.ateuc]:
            bench.run_ateuc(c, tracer)
    finally:
        tracer.remove()
    spans = tracer.spans[first:]
    metrics = summarize(spans, len(bench.campaigns))
    metrics.update(bench.ateuc_metrics())
    metrics["graphs.build_s"] = bench.setup["build_s"]
    metrics["realization.sample_s"] = bench.setup["realization_s"]
    metrics["spark.session_s"] = bench.setup["session_s"]
    metrics["graphs.broadcast_calls"] = float(
        sum(s["layer"] == "graphs.broadcast" for s in tracer.spans)
    )
    metrics["graphs.broadcast_created"] = float(
        sum(s["layer"] == "spark.broadcast" for s in tracer.spans)
    )
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    hit = {s.get("caller") for s in spans}
    problems = [f"timer {t} never hit" for t in bench.wl.must_hit if t not in hit]
    for name in bench.wl.idle:
        if metrics[name]:
            print(f"# note: {name} = {metrics[name]} on this workload", file=sys.stderr)
    info = {"spans": len(tracer.spans), "untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, info, problems

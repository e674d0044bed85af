"""Adaptive seed minimization benchmark: one workload per run.

    python3 perfbench/run.py --workload batch-lt-epinions --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout. One driver process starts a
SparkSession on ``local[N]`` (N = min(4, nproc)) through the program's
own session factory (``jobs/_common.py``), builds the workload's graph
and ground-truth realizations, runs the workload's campaigns and checks
every campaign's output. The last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it print the environment and each metric with its unit.

``--trace 0`` executes every campaign of the workload's list a fixed
number of times (no new execution starts once ``--seconds`` is spent
and the list has run once) and reports the end-to-end metrics.
``--trace 1`` runs each campaign once untraced and once under the
outside-in layer timers of ``perfbench/layers.py``, then the ATEUC
baseline, and reports the per-layer metrics. Metric names and units
come from ``BENCHMARK.json``. Run summaries, spans, seed-list records and Spark scratch space go to
``perfbench/out/``; nothing is written elsewhere. See README.md.
"""
import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DRIVER_MEM = "2g"


@dataclass(frozen=True)
class Workload:
    """One input family. BENCHMARK.json and README.md say why each exists."""

    dataset: str
    model: str
    eta_frac: float
    algo: str  # "asti" or "adaptim"
    b: int
    campaigns: int  # on realization 0, one algorithm seed each
    passes: int  # untraced executions of each campaign
    ateuc: int  # the first this many campaign seeds get one ATEUC selection (traced run)
    spark_jobs: bool  # campaigns run Spark jobs: warm the workers in set-up
    must_hit: tuple[str, ...]  # timers the traced run must see called
    idle: tuple[str, ...] = ()  # per-layer counts expected 0 (noted if not)


WORKLOADS = {
    "adaptim-ic-nethept": Workload(
        "nethept_lite", "IC", 0.1, "adaptim", b=1, campaigns=1, passes=6, ateuc=0, spark_jobs=True,
        must_hit=(
            "repro.baselines.adaptim.trim",
            "repro.core.asti.spread_local",
            "repro.core.trim._coverage_increment",
            "repro.core.trim.sample_sets_local",
            "repro.core.trim.sample_sets_pairs",
        ),
        idle=("greedy.calls",),
    ),
    "batch-lt-epinions": Workload(
        "epinions_lite", "LT", 0.2, "asti", b=8, campaigns=12, passes=3, ateuc=8, spark_jobs=False,
        must_hit=(
            "repro.core.asti.trim_b",
            "repro.core.asti.spread_local",
            "repro.core.trim_b._collect_sets",
            "repro.core.trim_b.sample_sets_local",
            "repro.core.trim_b.greedy_max_coverage",
            "repro.baselines.ateuc._rr_sets",
            "repro.sampling.rr.sample_sets_local",
            "repro.baselines.ateuc._greedy_coverage_curve",
        ),
        idle=("sampling.spark.jobs",),
    ),
}


def spark_env(cores: int) -> None:
    """Environment for the Spark JVM and its Python workers.

    ``repro`` is not installed, so workers find it through PYTHONPATH.
    Spark, the JVM and ``tempfile`` keep their scratch files in
    ``perfbench/out/tmp``.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    q = shlex.quote
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)] + inherited)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_MASTER"] = f"local[{cores}]"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={q(str(tmp))}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--driver-memory {DRIVER_MEM}",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            f"--conf spark.local.dir={q(str(tmp))}",
            f"--conf spark.sql.warehouse.dir={q(str(OUT / 'warehouse'))}",
            "pyspark-shell",
        ]
    )
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(SRC), str(ROOT), str(HERE)]


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Adaptive seed minimization benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [SRC / "repro" / "core" / "asti.py", ROOT / "jobs" / "_common.py", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    wl = WORKLOADS[args.workload]
    cores = max(1, min(4, os.cpu_count() or 1))
    spark_env(cores)

    import numpy
    import pyspark
    from bench import Bench, measure, measure_layers, src_digest
    from jobs._common import get_spark
    from layers import Tracer

    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    problems: list[str] = []
    try:
        bench = Bench(spark, wl, args.seed)
        bench.setup["session_s"] = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(spark.sparkContext)  # counts set-up broadcasts
        try:
            bench.set_up()
        finally:
            if tracer is not None:
                tracer.remove()
        if tracer is None:
            metrics, info = measure(bench, args.seconds)
        else:
            metrics, info, problems = measure_layers(bench, tracer)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        bench.check_recorded_seeds(OUT / "seedlists" / f"{args.workload}-{src_digest(SRC)}.json")
    finally:
        stop_spark(spark)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for p in problems:
        print(f"# FAILED self-check: {p}", file=sys.stderr)
    env = {
        "nproc": os.cpu_count(),
        "master": f"local[{cores}]",
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    info["setup"] = bench.setup
    line = {
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    summary = {**line, "workload": args.workload, "seed": args.seed, "env": env,
               "info": info, "failures": bench.failures + problems}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-summary.json").write_text(
        json.dumps(summary, indent=1) + "\n"
    )
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# info " + json.dumps(info))
    for k in units:
        print(f"# {k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

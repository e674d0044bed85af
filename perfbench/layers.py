"""Outside-in layer timers and span records for the ASM benchmark.

Each timer replaces one module-level function *on the module that calls
it* (callers bind names at import, so patching the defining module would
miss them) with a wrapper that records a span: layer, start, end, the
span that caused it, the campaign and round it belongs to, the sets it
handled and, for sampling dispatch, the venue. Spans stay in memory;
``summarize`` turns one traced pass into per-layer metrics and
``Tracer.dump`` writes the spans out as JSON lines.

``repro.core`` re-exports functions named ``trim``/``trim_b``/``asti``,
which shadow the submodules of the same name, so modules are resolved
with ``importlib.import_module``.
"""
import functools
import importlib
import json
import time

from repro.core.trim import TrimSchedule


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _select(args, kwargs, res):
    """Sets, doubling iterations, and whether the stop came at t = T."""
    active, eta_i, eps = args[2], args[3], args[5]
    n_i = int(active.sum())
    b = min(int(_arg(args, kwargs, 7, "b", 1)), n_i)
    sched = TrimSchedule.build(n_i, min(eta_i, n_i), eps, b=b, delta=kwargs.get("delta"))
    return {"sets": int(res.n_sets), "iterations": int(res.iterations),
            "forced": int(res.iterations) == sched.T}


def _observe(args, kwargs, res):
    return {"reached": len(res)}


def _need(pos):
    return lambda args, kwargs, res: {"sets": int(_arg(args, kwargs, pos, "need"))}


def _local(args, kwargs, res):
    return {"sets": len(res), "members": sum(len(m) for _, m in res)}


def _spark(args, kwargs, res):
    return {"sets": int(_arg(args, kwargs, 5, "n_sets"))}


def _greedy(args, kwargs, res):
    return {"sets": len(args[0]), "members": sum(len(m) for m in args[0])}


# (caller module, attribute, layer, span attributes from args/result).
# A missing attribute fails the traced run: the table no longer matches
# the program's call graph.
TIMERS = [
    ("repro.core.asti", "trim", "select", _select),
    ("repro.core.asti", "trim_b", "select", _select),
    ("repro.baselines.adaptim", "trim", "select", _select),
    ("repro.core.asti", "spread_local", "observe", _observe),
    ("repro.core.trim", "_coverage_increment", "dispatch", _need(5)),
    ("repro.core.trim_b", "_collect_sets", "dispatch", _need(5)),
    ("repro.baselines.ateuc", "_rr_sets", "dispatch", _need(4)),
    ("repro.core.trim", "sample_sets_local", "sampling.local", _local),
    ("repro.core.trim_b", "sample_sets_local", "sampling.local", _local),
    ("repro.sampling.rr", "sample_sets_local", "sampling.local", _local),
    ("repro.core.trim", "sample_sets_pairs", "sampling.spark", _spark),
    ("repro.core.trim_b", "sample_sets_pairs", "sampling.spark", _spark),
    ("repro.sampling.rr", "sample_sets_pairs", "sampling.spark", _spark),
    ("repro.core.trim_b", "greedy_max_coverage", "greedy", _greedy),
    ("repro.baselines.ateuc", "_greedy_coverage_curve", "greedy", _greedy),
]


class Tracer:
    """Span recorder; ``install`` patches the timers, ``remove`` undoes it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.campaign: int | None = None
        self.round = 0

    def begin(self, layer: str, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "layer": layer,
            "campaign": self.campaign,
            "round": self.round or None,
            "start": time.perf_counter(),
            **attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span nesting broken at {span['layer']}")

    def _wrap(self, fn, layer: str, caller: str, info=None):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if layer == "select":
                tracer.round += 1
            span = tracer.begin(layer, caller=caller)
            if layer == "sampling.spark":
                for outer in reversed(tracer._stack):
                    if outer["layer"] == "dispatch":
                        outer["venue"] = "spark"
                        break
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if layer == "dispatch":
                span.setdefault("venue", "local")
            if info is not None:
                span.update(info(args, kwargs, res))
            return res

        return timed

    def install(self, spark_context) -> None:
        for mod_name, attr, layer, info in TIMERS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer, f"{mod_name}.{attr}", info))
        csr = importlib.import_module("repro.graphs.csr").GraphCSR
        self._patches.append((csr, "broadcast", csr.broadcast))
        csr.broadcast = self._wrap(csr.broadcast, "graphs.broadcast", "GraphCSR.broadcast")
        # An instance attribute shadows the method: counts broadcasts created.
        spark_context.broadcast = self._wrap(
            spark_context.broadcast, "spark.broadcast", "SparkContext.broadcast"
        )
        self._patches.append((spark_context, "broadcast", None))

    def remove(self) -> None:
        for obj, attr, fn in reversed(self._patches):
            if fn is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, fn)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def summarize(spans: list[dict], n_campaigns: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``n_campaigns`` campaigns.

    Counts and seconds are per campaign; rates and shares are ratios of
    totals. Only spans under a ``campaign`` root count: the ATEUC
    baseline's spans sit under an ``ateuc`` root.
    """
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["layer"]

    camp = [s for s in spans if root(s) == "campaign"]

    def of(layer):
        return [s for s in camp if s["layer"] == layer]

    def total(pool, key=None):
        return float(sum(s["end"] - s["start"] if key is None else s[key] for s in pool))

    def ratio(a, b):
        return a / b if b else 0.0

    k = max(1, n_campaigns)
    campaign_s = total(of("campaign"))
    local, spark, select, observe, greedy = (
        of(x) for x in ("sampling.local", "sampling.spark", "select", "observe", "greedy")
    )
    disp = of("dispatch")
    local_s = total(local)
    spark_s = total(s for s in disp if s["venue"] == "spark")
    # Local dispatch time not spent sampling: coverage counting or
    # materializing member arrays for the selector. Local sampling only
    # runs under local dispatch.
    coverage_s = total(s for s in disp if s["venue"] == "local") - local_s
    select_s, observe_s = total(select), total(observe)
    ateuc_greedy = [s for s in spans if s["layer"] == "greedy" and root(s) == "ateuc"]
    n_ateuc = sum(s["layer"] == "ateuc" for s in spans)
    forced = sum(s["forced"] for s in select)
    return {
        "sampling.local.calls": len(local) / k,
        "sampling.local.sets": total(local, "sets") / k,
        "sampling.local.members": total(local, "members") / k,
        "sampling.local.busy_s": local_s / k,
        "sampling.local.sets_per_s": ratio(total(local, "sets"), local_s),
        "sampling.local.members_per_s": ratio(total(local, "members"), local_s),
        "sampling.local_share": ratio(local_s, campaign_s),
        "sampling.spark.jobs": len(spark) / k,
        "sampling.spark.sets": total(spark, "sets") / k,
        "sampling.spark.sets_per_s": ratio(total(spark, "sets"), spark_s),
        "sampling.spark.submit_share": ratio(total(spark), spark_s),
        "sampling.spark_share": ratio(spark_s, campaign_s),
        "coverage.local_s": coverage_s / k,
        "select.calls": len(select) / k,
        "select.busy_s": select_s / k,
        "select.iterations": total(select, "iterations") / k,
        "select.sets": total(select, "sets") / k,
        "select.forced_stops": forced / k,
        "select.certified_share": ratio(len(select) - forced, len(select)),
        "greedy.calls": len(greedy) / k,
        "greedy.members": total(greedy, "members") / k,
        "greedy.share": ratio(total(greedy), campaign_s),
        "observe.calls": len(observe) / k,
        "observe.busy_s": observe_s / k,
        "observe.reached": total(observe, "reached") / k,
        "asti.other_s": (campaign_s - select_s - observe_s) / k,
        "ateuc.greedy_members": ratio(total(ateuc_greedy, "members"), n_ateuc),
    }

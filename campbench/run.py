"""Campaign benchmark: seeded AgE / AgEBO campaigns measured end to end.

Usage (from the repository root)::

    python3 campbench/run.py --workload agebo_search --seed 0 --seconds 30 --trace 0
    python3 campbench/run.py --write-manifest      # regenerate BENCHMARK.json

One run executes seeded campaigns of one workload (``workloads.json``)
through ``repro.campaign.build_campaign``, each in a fresh Python process,
until ``--seconds`` have passed and at least the workload's
``min_campaigns`` have run.  It checks every campaign's output and prints
the metrics by name and unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing:

- ``setup_s``: ``build_campaign`` wall time (dataset, spaces, evaluator
  or pool) in a fresh process;
- ``evals_per_s``: evaluations completed over host seconds in
  ``Campaign.run`` (on ``age_churn`` the resume leg, ``resume_campaign``
  included, counts too);
- ``manager_ms_per_eval``: host milliseconds per evaluation that
  ``Campaign.run`` spends outside the evaluations: search, BO, history,
  checkpoints, events.  The simulated backend evaluates inline, so its
  evaluation time is that of the run function; a wall-clock backend's
  manager waits for its workers in ``gather``, so there that wait counts
  as evaluation;
- ``best_objective``: best validation accuracy of a campaign;
- ``sim_utilization``: busy worker-minutes over workers x elapsed, as
  ``repro.analysis.utilization_summary`` computes it from the gathered
  jobs, on the evaluator's clock.  That clock is simulated everywhere
  except on ``age_process``, whose process pool has only the wall clock,
  so there it is the pool's host utilization;
- ``eval_ok_frac``: evaluations with a real (not penalized) result over
  evaluations attempted, i.e. one minus the failed fraction;
- ``peak_rss_mb``: mean ``ru_maxrss`` of the fresh processes that each
  ran one campaign (one campaign's peak depends on the models it draws).

A run cycles through the same ``min_campaigns`` campaigns (indices
0 .. ``min_campaigns`` - 1) until ``--seconds`` have passed, so a faster
program repeats campaigns rather than measuring other ones.  The host-time
metrics take each campaign's median over its repeats, then pool the
campaigns: ``setup_s`` is the median of those medians, ``evals_per_s``
and ``manager_ms_per_eval`` divide summed evaluations by summed seconds.
``best_objective`` (median), ``sim_utilization`` and ``eval_ok_frac``
(pooled) and ``peak_rss_mb`` come from the first round.  On the simulated
workloads the first three are exact functions of the seed, so they repeat
exactly, and a change that preserves behaviour leaves them equal.  The
simulated-clock throughput and time to the workload's target accuracy vary
too much from seed to seed to carry a bound; the run prints them, and the
trace reports them as ``core.sim_evals_per_hour`` and
``core.sim_min_to_target``.

``--trace 1`` runs each campaign of the same cycle twice, untraced and
traced, in alternating order, until ``--seconds`` have passed.  The
traced copy wraps every layer's public functions (``layertrace.py``); the
run reports the per-layer metrics plus ``trace.overhead_frac``, the
traced host time over the untraced one, minus one.  Seconds, calls and
bytes are per campaign.
``dataparallel.allreduce_bytes`` is computed with ``ring_transfer_stats``,
not observed: the default ``fused`` reduction sends nothing.

``age_process`` is defined in ``workloads.json`` but left out of
``BENCHMARK.json`` (``"gated": false``).  Its pool workers oversubscribe
the BLAS threads, and the same 20-evaluation campaign took 1.8 s or 16.4 s
depending on the pool, so no bound on its host figures can hold.  Run it
by name to see that slowdown as measured.

The correctness gate, on every campaign: the evaluation count equals the
budget, every objective is finite and in [0, 1] and, on the simulated
workloads, ``submit <= start <= end``.  On the simulated workloads the
history digest of a traced campaign must equal that of the same campaign
untraced, and ``age_churn``'s killed-and-resumed history must equal an
uninterrupted run's.

``attempted`` counts the evaluations the run's campaigns asked for, and
``failed`` the ones a campaign did not deliver because it raised.  A
penalized result is the fault policy handling an injected fault as
configured; ``eval_ok_frac`` reports those.

The benchmark never sets the BLAS or OpenMP thread variables: the process
pool runs under the environment as found, and the run prints it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
#: Start no campaign after this long, so a run on a slow machine still
#: ends within three minutes.
HARD_STOP_SECONDS = 110
CAMPAIGN_TIMEOUT_SECONDS = 120

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("evals_per_s", "evals/s", "higher", 0.25),
    ("best_objective", "accuracy", "higher", 0.06),
    ("sim_utilization", "ratio", "higher", 0.25),
    ("manager_ms_per_eval", "ms", "lower", 0.25),
    ("eval_ok_frac", "ratio", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# name, unit, better
PER_LAYER = [
    ("bo.ask_s", "s", "lower"),
    ("bo.ask_calls", "count", "lower"),
    ("bo.ask_ms_p90", "ms", "lower"),
    ("bo.forest_fit_s", "s", "lower"),
    ("bo.forest_fit_calls", "count", "lower"),
    ("bo.forest_predict_s", "s", "lower"),
    ("bo.sample_s", "s", "lower"),
    ("bo.tell_s", "s", "lower"),
    ("nn.adam_step_s", "s", "lower"),
    ("nn.adam_step_calls", "count", "lower"),
    ("nn.loss_and_grad_s", "s", "lower"),
    ("nn.loss_and_grad_calls", "count", "lower"),
    ("nn.predict_logits_s", "s", "lower"),
    ("nn.build_s", "s", "lower"),
    ("dataparallel.fit_s", "s", "lower"),
    ("dataparallel.samples_per_s", "1/s", "higher"),
    ("dataparallel.allreduce_bytes", "bytes", "lower"),
    ("datasets.load_s", "s", "lower"),
    ("core.eval_calls", "count", "lower"),
    ("core.eval_ms_p50", "ms", "lower"),
    ("core.eval_ms_p90", "ms", "lower"),
    ("core.manager_ms_p50", "ms", "lower"),
    ("core.manager_ms_p90", "ms", "lower"),
    ("core.checkpoint_s", "s", "lower"),
    ("core.checkpoint_calls", "count", "lower"),
    ("core.checkpoint_bytes", "bytes", "lower"),
    ("core.resume_s", "s", "lower"),
    ("core.sim_evals_per_hour", "evals/sim_h", "higher"),
    ("core.sim_min_to_target", "sim_min", "lower"),
    ("workflow.cache_hits", "count", "higher"),
    ("workflow.cache_hit_rate", "ratio", "higher"),
    ("workflow.retries", "count", "lower"),
    ("workflow.timeouts", "count", "lower"),
    ("workflow.faults_injected", "count", "lower"),
    ("workflow.sim_queue_delay_min", "min", "lower"),
    ("workflow.submit_self_s", "s", "lower"),
    ("workflow.gather_s", "s", "lower"),
    ("workflow.worker_busy_s", "s", "lower"),
    ("campaign.emit_s", "s", "lower"),
    ("campaign.emit_calls", "count", "lower"),
    ("campaign.event_log_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _fail(message: str) -> None:
    print(f"campbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    """The environment a result was measured under, as found."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except Exception as exc:  # show_config's layout differs across numpy versions
        blas = {"error": repr(exc)}
    thread_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in thread_vars},
    }


# --------------------------------------------------------------------- #
# One campaign, in its own process
# --------------------------------------------------------------------- #
def campaign_main(workload, seed: int, index: int, mode: str, tmp: Path) -> None:
    """Run one campaign and print its summary as the last stdout line.

    ``mode`` is ``plain`` (as the workload defines it), ``traced`` (the
    same, with every layer wrapped) or ``uninterrupted`` (no kill at half
    budget: the reference for the kill-and-resume check).
    """
    from campaigns import run_campaign

    interrupted = workload.kill_and_resume and mode != "uninterrupted"
    if mode == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        with tracer.installed():
            run = run_campaign(workload, seed, index, tmp, interrupted, tracer)
    else:
        run = run_campaign(workload, seed, index, tmp, interrupted)
    summary = run.summary(workload.simulated, workload.target_accuracy)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced":
        summary["trace"] = tracer.raw()
    print(json.dumps(summary))


class _Run:
    """The campaigns of one benchmark run and the gate's findings."""

    def __init__(self, args, workload) -> None:
        self.args = args
        self.workload = workload
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.start = time.perf_counter()

    def keep_going(self, done: int, minimum: int) -> bool:
        elapsed = time.perf_counter() - self.start
        if elapsed >= HARD_STOP_SECONDS:
            return False
        return done < minimum or elapsed < self.args.seconds

    def campaign(self, index: int, mode: str = "plain") -> dict | None:
        """Run one campaign in a fresh process; None when it failed."""
        budget = self.workload.config["max_evaluations"]
        self.attempted += budget
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", self.workload.name, "--seed", str(self.args.seed),
            "--campaign", str(index), "--mode", mode,
        ]
        try:
            out = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=CAMPAIGN_TIMEOUT_SECONDS,
            )
        except subprocess.TimeoutExpired:
            out = None
        if out is None or out.returncode != 0:
            if out is not None:
                sys.stderr.write(out.stderr)
            self.failed += budget
            self.problems.append(f"campaign {index} ({mode}) did not finish")
            return None
        summary = json.loads(out.stdout.strip().splitlines()[-1])
        for problem in summary["problems"]:
            self.problems.append(f"campaign {index} ({mode}): {problem}")
        return summary

    def same_history(self, a: dict | None, b: dict | None, what: str) -> None:
        if a is None or b is None or not self.workload.simulated:
            return
        print(f"digest {what}: {a['digest'][:16]} vs {b['digest'][:16]}")
        if a["digest"] != b["digest"]:
            self.problems.append(f"{what}: history digests differ")


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def measure_end_to_end(run: _Run) -> dict:
    workload = run.workload
    k = workload.min_campaigns
    done: list[dict] = []
    while run.keep_going(len(done), k):
        summary = run.campaign(len(done) % k)
        if summary is None:
            return {}
        done.append(summary)
        if workload.kill_and_resume and len(done) == 1:
            reference = run.campaign(0, "uninterrupted")
            run.same_history(summary, reference, "killed-and-resumed vs uninterrupted")
    first = done[:k]
    if len(first) < k:
        run.problems.append(f"only {len(first)} of {k} campaigns ran")
        return {}
    print(f"campaigns {len(done)}: {k} seeded, each run {len(done) / k:.3g} times")
    for s in first:
        if s["digest"] is not None:
            print(f"digest search seed {s['search_seed']}: {s['digest']}")
    print("sim_evals_per_hour", _median([s["evals_per_hour"] for s in first]))
    print("sim_min_to_target", _median([s["minutes_to_target"] for s in first]))

    def per_campaign(key):
        """Each campaign's median of ``key`` over its repeats."""
        return [_median([s[key] for s in done[i::k]]) for i in range(k)]

    evals = sum(s["evals"] for s in first)
    return {
        "setup_s": _median(per_campaign("setup_s")),
        "evals_per_s": evals / sum(per_campaign("host_s")),
        "manager_ms_per_eval": 1e3 * sum(per_campaign("manager_s")) / evals,
        "best_objective": _median([s["best_objective"] for s in first]),
        "sim_utilization": (
            sum(s["busy_min"] for s in first) / sum(s["capacity_min"] for s in first)
        ),
        "eval_ok_frac": 1.0 - sum(s["penalized"] for s in first) / evals,
        "peak_rss_mb": statistics.fmean(s["peak_rss_mb"] for s in first),
    }


def measure_layers(run: _Run) -> dict:
    from layertrace import Tracer

    workload = run.workload
    tracer = Tracer()
    traced: list[dict] = []
    untraced_s = traced_s = 0.0
    while run.keep_going(len(traced), 1):
        index = len(traced) % workload.min_campaigns
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        pair = {mode: run.campaign(index, mode) for mode in order}
        if None in pair.values():
            return {}
        run.same_history(pair["plain"], pair["traced"], f"campaign {index} traced vs untraced")
        untraced_s += pair["plain"]["host_s"]
        traced_s += pair["traced"]["host_s"]
        tracer.merge(pair["traced"]["trace"])
        traced.append(pair["traced"])
    n = len(traced)
    print(f"campaign pairs {n}")
    counters = {k: sum(s["counters"][k] for s in traced) for k in traced[0]["counters"]}
    if workload.simulated:
        eval_ms = [1e3 * d for d in tracer.durations.get("core.eval", [])]
    else:
        # Evaluations run in the pool's workers, out of the trace's sight:
        # time them from dispatch to completion instead.
        eval_ms = [ms for s in traced for ms in s["job_ms"]]
    metrics = tracer.layer_metrics(n)
    metrics.update({
        "core.eval_calls": len(eval_ms) / n,
        "core.eval_ms_p50": _percentile(eval_ms, 50),
        "core.eval_ms_p90": _percentile(eval_ms, 90),
        "core.sim_evals_per_hour": _median([s["evals_per_hour"] for s in traced]),
        "core.sim_min_to_target": _median([s["minutes_to_target"] for s in traced]),
        "workflow.cache_hits": counters["cache_hits"] / n,
        "workflow.cache_hit_rate": (
            counters["cache_hits"] / counters["cache_lookups"]
            if counters["cache_lookups"] else 0.0
        ),
        "workflow.retries": counters["retries"] / n,
        "workflow.timeouts": counters["timeouts"] / n,
        "workflow.faults_injected": counters["faults"] / n,
        "workflow.sim_queue_delay_min": (
            sum(s["queue_delay_min"] * s["jobs_done"] for s in traced)
            / sum(s["jobs_done"] for s in traced)
        ),
        # The simulated backend's one worker is this host, busy while it
        # evaluates inline; a pool's workers are busy for their jobs'
        # wall minutes.
        "workflow.worker_busy_s": sum(
            s["eval_s"] if workload.simulated else 60.0 * s["busy_min"] for s in traced
        ) / n,
        "campaign.event_log_bytes": sum(s["event_log_bytes"] for s in traced) / n,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return metrics


# --------------------------------------------------------------------- #
def write_manifest(workloads) -> None:
    manifest = {
        "command": ["python3", "campbench/run.py"],
        "paths": ["campbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in workloads.values() if w.gated
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    # One campaign in this process (used by the run itself).
    parser.add_argument("--campaign", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="plain", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from campaigns import load_workloads

    workloads = load_workloads()
    if args.write_manifest:
        write_manifest(workloads)
        return
    if args.workload not in workloads:
        _fail(f"--workload must be one of {sorted(workloads)}")
    workload = workloads[args.workload]

    if args.campaign is not None:
        scratch_root = ROOT / ".campbench_tmp"
        scratch_root.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=scratch_root))
        try:
            campaign_main(workload, args.seed, args.campaign, args.mode, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                scratch_root.rmdir()  # only once no other campaign uses it
            except OSError:
                pass
        return

    print("env", json.dumps(environment(), sort_keys=True))
    run = _Run(args, workload)
    metrics = measure_layers(run) if args.trace else measure_end_to_end(run)
    expected = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    for name in expected:
        if name not in metrics:
            run.problems.append(f"metric {name} not measured")
        elif not math.isfinite(metrics[name]):
            run.problems.append(f"metric {name} is {metrics[name]}")
        else:
            print(f"{workload.name:14s} {name:30s} {metrics[name]:.6g} {UNITS[name]}")
    for problem in run.problems:
        print(f"gate FAILED: {problem}")
    print(f"gate {'FAILED' if run.problems else 'ok'}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": UNITS[name]}
            for name in expected
            if name in metrics and math.isfinite(metrics[name])
        },
    }))


if __name__ == "__main__":
    main()

"""Measurement loop of the canvault host-time benchmark.

A closed loop with one client: after one warm-up run, ``run_scenario`` runs
back to back for the requested number of seconds in this one process and
thread. All times are host wall-clock times; simulated time is a result,
checked through the report digest and invariants.

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run (see tracer.py). The last line printed is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import canvault
from canvault import harness

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_RUNS = 3            # timed runs per measurement, even past the deadline
MIN_TRACED_RUNS = 2     # enough to see that call counts repeat
SETUP_PROBES = 7        # fresh processes timed for setup_s, after one discarded
TAIL_BEYOND = 10        # report the highest percentile with this many runs above it

END_TO_END_UNITS = {"scenario_s": "s", "sim_frames_per_s": "frames/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter: what `canvault run` pays before it simulates.
_SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import canvault
from canvault.harness import ScenarioConfig, load_latency_profile
cfg = ScenarioConfig.from_dict(json.loads(sys.argv[2]))
canvault.get_group(cfg.group)
load_latency_profile(cfg.latency_profile)
print(time.perf_counter() - t0)
"""


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    """What changes host cost without changing the code. ``stamp`` hashes
    everything but the commit: compare only runs whose stamps are equal."""
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = "absent"
    env = {"python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "gmpy2": has_gmpy2, "cryptography": crypto,
           "nproc": len(os.sched_getaffinity(0))}
    env["stamp"] = hashlib.sha256(
        json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    env["commit"] = git_commit()
    return env


def measure_setup(raw: dict) -> list[float]:
    """Import-and-build time of fresh processes, one probe discarded."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(raw)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times[1:]


class Scenario:
    """One workload at one seed, driven through canvault's public API."""

    def __init__(self, name: str, seed: int, toy: bool = False):
        self.name = name
        self.toy = toy
        self.raw = workloads.scenario_dict(name, seed, toy)
        self.group = canvault.get_group(self.raw["group"])
        self.attempted = 0
        self.problems: list[str] = []      # one entry per failed run
        self.report = None                 # last report produced
        self.digest = None                 # of the first report produced

    def run_once(self) -> float:
        """Run and check the scenario once; returns its wall time in seconds.

        A run that raises or fails its output check is counted as failed and
        the loop goes on.
        """
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            # Looked up on each call so the tracer's wrapper is the one run.
            report = harness.run_scenario(harness.ScenarioConfig.from_dict(self.raw))
        except Exception as exc:
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        errors = workloads.check_report(self.name, self.raw, report, self.group,
                                        self.toy)
        digest = workloads.report_digest(report)
        self.digest = self.digest or digest
        if digest != self.digest:
            errors.append("report bytes differ from the first run of this seed")
        if errors:
            print(f"perfbench: run {self.attempted} failed: {errors}", file=sys.stderr)
            self.problems.append("; ".join(errors))
        self.report = report
        return elapsed

    def timed_runs(self, seconds: float, min_runs: int, trace=None):
        """Back-to-back runs until ``seconds`` have passed; returns the wall
        times, and with a tracer the per-layer snapshot of each run."""
        times, snaps = [], []
        deadline = time.perf_counter() + seconds
        while len(times) < min_runs or time.perf_counter() < deadline:
            if trace is not None:
                trace.reset()
            times.append(self.run_once())
            if trace is not None:
                snaps.append(trace.snapshot())
        return times, snaps

    def frames_per_run(self) -> int:
        return self.report.frames + self.report.data_frames if self.report else 0


def tail_line(times: list[float]) -> str:
    """The highest percentile with at least TAIL_BEYOND runs beyond it."""
    n = len(times)
    k = n - TAIL_BEYOND
    if k < 1:
        return f"no percentile has {TAIL_BEYOND} runs beyond it (n={n})"
    return (f"p{100 * k / n:.1f} = {sorted(times)[k - 1]:.4f} s "
            f"(n={n}, {TAIL_BEYOND} runs beyond it)")


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> tuple[dict, list[str]]:
    """Run one benchmark measurement; returns (result object, report lines)."""
    scn = Scenario(name, seed, toy)
    setup = None if trace else measure_setup(scn.raw)
    scn.run_once()                         # warm-up
    if trace:
        metrics, lines, problems = per_layer(scn, seconds)
    else:
        # This process is fresh and has run the workload once.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times, _ = scn.timed_runs(seconds, MIN_RUNS)
        scenario_s = statistics.median(times)
        values = {"scenario_s": scenario_s,
                  "sim_frames_per_s": scn.frames_per_run() / scenario_s,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        lines = [f"scenario_s tail: {tail_line(times)}",
                 f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}"]
        problems = []

    failed = len(scn.problems)
    lines.append(f"failed_ratio = {failed / scn.attempted} fraction "
                 f"({failed} of {scn.attempted} runs)")
    lines += [f"problem: {p}" for p in scn.problems + problems]
    result = {"correct": not scn.problems and not problems,
              "attempted": scn.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def per_layer(scn: Scenario, seconds: float):
    """Half the time untraced, half traced; returns (metrics, lines, problems).

    Every traced run must repeat the untraced report bytes (checked by
    Scenario.run_once) and the first traced run's call counts.
    """
    plain, _ = scn.timed_runs(seconds / 2, MIN_TRACED_RUNS)
    tr = tracer.Tracer()
    with tr.installed():
        traced, snaps = scn.timed_runs(seconds / 2, MIN_TRACED_RUNS, tr)
    problems = []
    if any(tracer.counts(s) != tracer.counts(snaps[0]) for s in snaps[1:]):
        problems.append("call counts differ between traced runs")
    metrics = tracer.layer_metrics(snaps)
    name, unit, _ = tracer.OVERHEAD_METRIC
    metrics[name] = (statistics.median(traced) - statistics.median(plain), unit)
    lines = [f"traced scenario_s {statistics.median(traced):.4f} s over "
             f"{len(traced)} runs, untraced {statistics.median(plain):.4f} s "
             f"over {len(plain)} runs"]
    lines += self_time_table(snaps[0], statistics.median(traced))
    return metrics, lines, problems


def self_time_table(snap: dict, scenario_s: float) -> list[str]:
    """Layers by self time in one traced run, with their share of the run."""
    rows = [f"{'layer':<24}{'calls':>10}{'self_s':>10}{'share':>8}  outcomes"]
    for name, s in sorted(snap.items(), key=lambda kv: -kv[1]["self"]):
        outcomes = " ".join(f"{k}={v}" for k, v in sorted(s["outcomes"].items()))
        rows.append(f"{name:<24}{s['calls']:>10}{s['self']:>10.4f}"
                    f"{s['self'] / scenario_s:>8.1%}  {outcomes}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the scenario's rng_seed)")

    print(f"env {json.dumps(environment_stamp(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{json.dumps(workloads.scenario_dict(args.workload, args.seed))}")
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for key, m in result["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0

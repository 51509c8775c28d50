"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload contended --seed 3 --seconds 60 --trace 0

Every measurement runs in a fresh ``worker.py`` process (cold caches,
serial, one core), started one at a time.  ``--trace 0`` times the
untraced call as often as ``--seconds`` allows and reports the
end-to-end metrics; ``--trace 1`` alternates untraced runs with runs
under the layer wrappers of ``layers.py`` and reports the per-layer
table and the tracing overhead.  Host times are expressed at the
nominal speed of the pace loop (``pace.py``), measured beside them, so
that a shared host's drift in speed cancels.  Both modes check the
program's outputs, compare the rows' digest across runs and with
``digests.json``, and print the simulated answers.  The last stdout
line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import NOMINAL_OPS_PER_S

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("paper_grid", "contended", "cluster_elastic", "cluster_failover")
#: Set-up-only processes per run; ``setup_s`` is the median over these
#: and the set-ups of the measured processes.
SETUP_SAMPLES = 8
#: A run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
ANSWER_ORDER = (
    "sim_goodput_qps", "sim_latency_p50_s", "sim_latency_tail_s",
    "sim_unserved_share", "paper_claims_held", "paper_fig14_error_pct",
)


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str, smoke: bool, deadline: float) -> dict:
    """Run one fresh worker process to completion; returns its JSON report."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode] + (["--smoke"] if smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the run's time limit") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def calibration_ops_per_s() -> float:
    """The pure-Python machine-speed proxy of ``benchmarks/bench_perf.py``."""
    sys.path[:0] = ["src", "benchmarks"]
    from bench_perf import calibrate

    return calibrate()


def nominal_s(run: dict) -> float:
    """The timed call's CPU seconds at the pace loop's nominal speed."""
    return run["cpu_s"] * run["run_pace"] / NOMINAL_OPS_PER_S


def pinned_digest(workload: str, seed: int):
    pins = json.loads((HERE / "digests.json").read_text())
    table = pins.get(workload, {})
    return table.get("*", table.get(str(seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests (digests not pinned)")
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    def launch(mode: str) -> dict:
        return worker(args.workload, args.seed, mode, args.smoke, deadline)

    try:
        launch("setup")  # discarded: compiles bytecode in a fresh checkout
        setups = [launch("setup") for _ in range(SETUP_SAMPLES)]
        # --trace 1 alternates untraced/traced pairs (order flipped every
        # pair, so drift in machine speed cancels); --trace 0 repeats the
        # untraced run.  Either way, until the next step would pass --seconds.
        steps = ((("run", "trace"), ("trace", "run")) if args.trace else (("run",),))
        runs, began = [], time.monotonic()
        while True:
            for mode in steps[len(runs) // len(steps[0]) % len(steps)]:
                runs.append(launch(mode))
            spent = time.monotonic() - began
            per_step = spent * len(steps[0]) / len(runs)
            if spent + per_step > args.seconds or time.monotonic() + per_step > deadline:
                break
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calibration = calibration_ops_per_s()

    setups += runs
    plain = [run for run in runs if "layers" not in run]
    traced = [run for run in runs if "layers" in run]
    rates = [run["queries"] / nominal_s(run) for run in plain]
    end_to_end = {
        "host_queries_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "host_peak_rss_mb": {
            "value": statistics.median(run["peak_rss_mb"] for run in plain), "unit": "MB"},
        "setup_s": {"value": statistics.median(
            run["setup_s"] * run["setup_pace"] / NOMINAL_OPS_PER_S for run in setups),
            "unit": "s"},
    }
    pinned = None if args.smoke else pinned_digest(args.workload, args.seed)
    for run in runs:
        if pinned is not None and run["digest"] != pinned:
            run["failures"].append(f"rows digest {run['digest']} != pinned {pinned}")
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        # Runs of one seed (traced or not) must agree; every run is suspect.
        for run in runs:
            run["failures"].append(f"rows differ between runs of one seed: {sorted(digests)}")
    failures = [f for run in runs for f in run["failures"]]
    attempted = sum(run["queries"] for run in runs)
    failed = sum(run["queries"] for run in runs if run["failures"])

    print(f"perfbench {args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced runs of {runs[0]['queries']} simulated queries, "
          "fresh process each")
    print(f"  machine drift: calibration {calibration / 1e6:.2f}M ops/s "
          "(benchmarks/bench_perf.py proxy; information only)")
    walls = [run["queries"] / run["elapsed_s"] for run in plain]
    paces = [run["run_pace"] for run in plain]
    print(f"  host cost: {1000.0 / statistics.median(rates):.2f} ms/query at the nominal "
          f"pace of {NOMINAL_OPS_PER_S:.0f} ops/s (untraced runs: "
          f"{', '.join(f'{r:.3f}' for r in rates)} queries/s; on the wall clock "
          f"{', '.join(f'{r:.3f}' for r in walls)} queries/s at paces "
          f"{', '.join(f'{p:.0f}' for p in paces)} ops/s)")
    for name, entry in end_to_end.items():
        print(f"  {name:<24} {entry['value']:.6g} {entry['unit']}")
    for name in ANSWER_ORDER:
        answer = runs[0]["answers"].get(name)
        if answer is not None:
            detail = {k: v for k, v in answer.items() if k not in ("value", "unit")}
            print(f"  {name:<24} {answer['value']:.6g} {answer['unit']}"
                  + (f" {json.dumps(detail)}" if detail else ""))
    print(f"  digest {runs[0]['digest']} "
          + ("(not pinned for this seed)" if pinned is None else
             "(matches pin)" if digests == {pinned} else "(MISMATCH)"))
    print("  checks: " + ("all passed" if not failures else "FAILED: " + "; ".join(failures[:10])))

    metrics = end_to_end
    if traced:
        metrics = {
            name: {"value": statistics.median(run["layers"][name]["value"] for run in traced),
                   "unit": entry["unit"]}
            for name, entry in traced[0]["layers"].items()
        }
        metrics["trace.overhead_pct"] = {"value": statistics.median(
            100.0 * (1.0 - nominal_s(u) / nominal_s(t)) for u, t in zip(plain, traced)
        ), "unit": "%"}
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

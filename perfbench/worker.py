"""One benchmark process: set up a workload, run it once, report JSON.

``run.py`` starts a fresh worker for every measurement so each starts
cold, as a user's process does.  Run from the repository root with
``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload contended --seed 3 --mode run

Modes: ``setup`` stops after the set-up (import of ``repro`` and input
generation); ``run`` also runs the timed call; ``trace`` runs it with
the layer wrappers installed and adds the per-layer table.  Every mode
measures the pace loop of ``pace.py`` in line after the set-up; the
timed call runs with the pace thread beside it and is timed in CPU
seconds of the main thread.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Scratch space inside the checkout for JSONL reports and span dumps.
OUT_DIR = Path(".perfbench_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import pace
    from repro.cluster.chaos import rows_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed, args.smoke)
    report = {"setup_s": time.perf_counter() - STARTED}
    report["setup_pace"] = pace.measure()
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{args.mode}"
    scratch.mkdir(parents=True, exist_ok=True)
    pacer = pace.PaceThread().start()
    began, began_cpu = time.perf_counter(), time.thread_time()
    raw = workload.run(inputs)
    span = tracer.open("workload.report") if tracer else None
    outcome = workload.report(raw, inputs, scratch)
    if span is not None:
        tracer.close(span)
    elapsed = time.perf_counter() - began
    cpu = time.thread_time() - began_cpu
    run_pace = pacer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(scratch)

    report.update({
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "run_pace": run_pace,
        "queries": outcome.queries,
        "peak_rss_mb": peak_rss_mb,
        "failures": workload.check(outcome, inputs),
        "digest": rows_digest(outcome.rows),
        "answers": outcome.answers,
    })
    if tracer is not None:
        values = tracer.layer_metrics(outcome.queries, workload.layer_counts(outcome))
        units = {m["name"]: m["unit"]
                 for m in json.loads(Path("BENCHMARK.json").read_text())["per_layer"]}
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never enters did no work: it reads 0.
        report["layers"] = {name: {"value": values.get(name, 0), "unit": unit}
                            for name, unit in units.items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

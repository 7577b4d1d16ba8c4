"""liftrisk's benchmark.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 6 --trace 0

Run from the root of a checkout.  It loads liftrisk from the checkout's
`src/`, makes every input from --seed, repeats whole rounds of the
workload's operations until --seconds have passed, checks the outputs, and
prints one JSON object as its last line of output: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
traced run also writes its spans to .perfbench_out/.  Exit code 0 when every
check passed, 1 when one failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_train", "paper_train", "desk_attribute"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR",
                   help="internal: run only the workload's set-up into WORKDIR")
    return p.parse_args(argv)


def _terminate(signum, frame):
    # unwinds like an exception: a set-up child is killed and waited for,
    # and the work directory is removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # one client process; BLAS may use every core but no more
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "liftrisk" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no liftrisk sources under {src} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import probe as probe_mod
    import workloads

    probe = probe_mod.Probe(traced=bool(args.trace))
    if args.setup_only:
        work = Path(args.setup_only)
        run = workloads.Run(args.workload, args.seed, 0, bool(args.trace), work, probe,
                            HERE / "run.py")
        probe.install()
        probe.phase = "setup"
        workloads.SETUPS[args.workload](run)
        probe.phase = None
        if args.trace:
            (work / "setup_trace.json").write_text(json.dumps(probe.export()))
        return 0

    spec = json.loads(spec_path.read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work, probe,
                        HERE / "run.py")
    try:
        workloads.WORKLOADS[args.workload](run)
    except workloads.SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a check that crashed fails the run like one that failed
        traceback.print_exc()
        run.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not run.walls:
        print("error: no timed round completed", file=sys.stderr)
        return 2

    wall_s = statistics.median(run.walls)
    if args.trace:
        values = probe_mod.layer_metrics(probe, len(run.walls))
        values.update(run.layer_extra)
        timed_spans = sum(1 for s in probe.spans if s[4] == "timed") / len(run.walls)
        values.update({"trace.wall_s": wall_s, "trace.spans": timed_spans,
                       "trace.overhead_s": timed_spans * probe_mod.span_overhead_s()})
        listed = spec["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": values,
             "spans": [dict(zip(("name", "start", "end", "parent", "phase"), s))
                       for s in probe.spans]}))
    else:
        values = {"setup_s": run.setup_s, "wall_s": wall_s, "peak_rss_mb": run.peak_rss_mb,
                  **run.metrics}
        listed = spec["end_to_end"]
    idle = workloads.IDLE_METRICS[args.workload] if args.trace else set()
    for m in listed:
        if m["name"] not in values and m["name"] not in idle:
            run.problems.append(f"metric {m['name']} was not measured")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

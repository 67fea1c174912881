"""cyclored benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload census-cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; cyclored is imported from its src/.
--trace 0 measures the end-to-end metrics untraced; --trace 1 runs a
fixed number of rounds traced and reports the per-layer metrics.  The
workloads and metrics are those BENCHMARK.json lists.  Every output is
checked by the oracles in oracles.py; the exit code is 0 when all checks
pass, 1 when one fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path[:0] = [{src!r}, {bench!r}]\n"
    "import cyclored, inputs\n"
    "inputs.generate({workload!r}, {seed})\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of importing cyclored and making the inputs."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in
                             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cyclored" / "__init__.py").is_file():
        print(f"error: no cyclored sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cyclored

    if Path(cyclored.__file__).resolve().parent != SRC / "cyclored":
        print(f"error: imported cyclored from {cyclored.__file__}", file=sys.stderr)
        return 2
    import inputs
    import spans
    import workloads

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir)
    try:
        workloads.warm_up(args.workload)
        setup = setup_seconds(args.workload, args.seed)
        rounds = inputs.generate(args.workload, args.seed)
        ctx = workloads.Context(args.workload, args.seed, workdir)
        counted: list = []
        if args.trace == 0:
            ops = workloads.closed_loop(ctx, rounds, args.seconds)
        else:
            counted, ops, tracer = workloads.trace_run(ctx, rounds)
        rss = peak_rss_mb()
        every = counted + ops  # a counting pass's ops are checked and counted too
        errors = workloads.run_errors(ctx, every)
        print(f"# workload {args.workload}, seed {args.seed}, closed loop, 1 client, "
              f"{sum(o.seconds for o in ops):.1f} s of op time")
        if counted:
            print("# counting pass op seconds (not used): "
                  + " ".join(f"{o.kind}={o.seconds:.3f}" for o in counted))
        print("# op seconds: " + " ".join(f"{o.kind}={o.seconds:.3f}" for o in ops))
        print(f"# ops_failed_frac {sum(1 for o in every if o.error) / len(every):.4f} "
              f"({workloads.failures(every)})")
        if args.trace == 0:
            e2e = workloads.end_to_end(args.workload, ops)
            values = {"setup_s": setup, "peak_rss_mb": rss,
                      "call_s_p50": e2e["call_s_p50"], "work_per_s": e2e["work_per_s"]}
            metrics = {name: (value, workloads.UNITS[name]) for name, value in values.items()}
            for name, (value, unit, n) in e2e["named"].items():
                print(f"# {name} {_fmt(value)} {unit} (n={n})")
        else:
            layers = workloads.per_layer(ops, tracer, counted)
            metrics = {name: (value, workloads.UNITS[name]) for name, value in layers.items()}
            if args.workload == "census-io":
                print(f"# workers={workloads.IO_WORKERS}: parent-side spans only; "
                      f"group_order and Sylow run in the workers and are not traced")
            if args.workload == "census-cold":
                errors += workloads.layer_sum_errors(layers, ops)
            spans_path = out_dir / f"spans-{args.workload}.json"
            spans.dump(tracer.spans, spans_path)
            print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        layout = [m["name"] for m in workloads.LAYOUT["per_layer" if args.trace else "end_to_end"]]
        if list(metrics) != layout:
            print(f"error: metrics {list(metrics)} differ from BENCHMARK.json's {layout}",
                  file=sys.stderr)
            return 2
        for name, (value, unit) in metrics.items():
            print(f"# {name} {_fmt(value)} {unit}")
        for err in errors:
            print(f"CHECK FAILED: {err}", file=sys.stderr)
        result = {
            "correct": not errors,
            "attempted": len(every),
            "failed": sum(1 for o in every if o.error),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if not errors else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

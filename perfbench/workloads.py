"""The benchmark's workloads: timed ops, the closed loop, oracles and metrics.

Every op is one or more public cyclored calls, looked up on their module
at call time so that a Tracer can wrap them.  One client runs the ops of
a workload in a closed loop, a round at a time; each round mixes the
same kinds of op, and call times are medians per kind, so a run's
figures do not depend on how many rounds fit in its time.  Workload and
metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import cyclored
from cyclored import census, curve, density, entangle, utils
from cyclored.registry import REGISTRY

import oracles
import spans

CENSUS_LIMIT = 200_000
IO_LIMIT = 100_000
IO_WORKERS = min(2, os.cpu_count() or 1)
TRUNCATION = 10**5
ORACLE_PRIMES_PER_CURVE = 3
# Rounds of a traced run; fixed, so that per-layer counts depend only on
# the seed.
TRACE_ROUNDS = {"census-cold": 2, "census-io": 4, "density": 1, "entangle": 1}

LAYOUT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in LAYOUT["workloads"]]
UNITS = {m["name"]: m["unit"] for m in LAYOUT["end_to_end"] + LAYOUT["per_layer"]}

# The op kind whose calls call_s_p50 times, per workload.  A kind may have
# sub-kinds after a colon (census:registry, closure:kernel); call_s_p50 is
# the mean of their medians.
MAIN_KIND = {"census-cold": "census", "census-io": "census-io",
             "density": "report", "entangle": "closure"}


@dataclass
class Op:
    kind: str
    seconds: float
    work: int = 0  # primes covered, or group elements
    products: int = 0  # closure products formed, counted in a traced run
    error: str | None = None
    inp: object = None
    out: object = None


@dataclass
class Context:
    workload: str
    seed: int
    workdir: str
    tracer: spans.Tracer | None = None
    errors: list[str] = field(default_factory=list)
    cache: dict = field(default_factory=dict)


def timed(kind: str, inp, fn, *args, **kwargs) -> Op:
    """Run one op; an exception becomes a failed op named by its class."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the loop must go on and count the failure
        return Op(kind, time.perf_counter() - t0, error=type(exc).__name__, inp=inp)
    return Op(kind, time.perf_counter() - t0, inp=inp, out=out)


def span(ctx: Context, name: str):
    """A span around benchmark-side steps of a traced run; else nothing."""
    return ctx.tracer.span(name) if ctx.tracer else nullcontext()


# -- rounds ------------------------------------------------------------------


def _curve(inp):
    label, a, b = inp
    return REGISTRY[label].curve if label else curve.CurveOverQ(a, b)


def census_cold_round(rnd, ctx: Context) -> list[Op]:
    ops = []
    for inp in rnd:
        kind = "census:registry" if inp[0] else "census:random"
        op = timed(kind, inp, census.run_census, _curve(inp), CENSUS_LIMIT, workers=1)
        op.work = op.out.total_primes if op.error is None else 0
        ops.append(op)
    return ops


def _census_io_steps(ctx: Context, c, d: str):
    paths = [os.path.join(d, f) for f in ("ck.jsonl", "primes.csv", "fraction.csv")]
    ck, pp, fr = paths
    reports = []
    for step, x, extra in ((1, IO_LIMIT // 2, {"per_prime_csv": pp, "fraction_csv": fr}),
                           (2, IO_LIMIT, {}), (3, IO_LIMIT, {})):
        with span(ctx, f"census-io.step{step}"):
            reports.append(census.run_census(c, x, checkpoint=ck, workers=IO_WORKERS, **extra))
    return reports, paths


def census_io_round(rnd, ctx: Context) -> list[Op]:
    ops = []
    for inp in rnd:
        d = tempfile.mkdtemp(dir=ctx.workdir)
        op = timed("census-io", inp, _census_io_steps, ctx, _curve(inp), d)
        if op.error is None:
            reports, paths = op.out
            op.work = sum(r.total_primes for r in reports)
            op.out = (reports, paths, _census_io_files(reports, paths))
        ops.append(op)
    return ops


def _census_io_files(reports, paths) -> dict:
    ck, pp, fr = paths
    with open(ck) as fh:
        computed = sum(1 for line in fh if json.loads(line)["kind"] == "chunk")
    chunks = sum(-(-r.total_primes // census.CHUNK_SIZE) for r in reports)
    rows = 0
    for path in (pp, fr):
        with open(path) as fh:
            rows += sum(1 for _ in fh) - 1
    return {"checkpoint_bytes": os.path.getsize(ck), "csv_rows": rows,
            "csv_bytes": os.path.getsize(pp) + os.path.getsize(fr),
            "chunks_computed": computed, "chunks_reused": chunks - computed}


def _profile(inp):
    kind, value = inp
    if kind == "label":
        p = REGISTRY[value].profile
        return p, {"degrees": p.degrees, "superfluous": p.superfluous, "charsum": p.charsum}
    return density.DegreeProfile(degrees=value["degrees"], superfluous=value["superfluous"],
                                 charsum=value["charsum"]), value


def _write_report(report, path: str) -> str:
    utils.write_json_atomic(path, report.to_json_dict())
    return path


def density_round(rnd, ctx: Context) -> list[Op]:
    ops = []
    for inp in rnd:
        profile, _ = _profile(inp)
        rep = timed("report", inp, density.build_density_report, profile, TRUNCATION)
        ops.append(rep)
        if rep.error is not None:
            continue
        rep.work = _prime_count(TRUNCATION)
        fd, path = tempfile.mkstemp(suffix=".json", dir=ctx.workdir)
        os.close(fd)
        with span(ctx, "density.json"):
            ops.append(timed("write", inp, _write_report, rep.out, path))
    return ops


def density_constants(ctx: Context) -> list[Op]:
    op = timed("constants", None, density.artin_constant, TRUNCATION)
    op.work = _prime_count(TRUNCATION) if op.error is None else 0
    return [op]


def _entangle_op(moduli, gens):
    closure = entangle.generate_closure(moduli, gens)
    full = entangle.full_product_group(moduli)
    return closure, full, entangle.delta_exact(closure)


def entangle_round(rnd, ctx: Context) -> list[Op]:
    ops = []
    for inp in rnd:
        kind, moduli, gens = inp
        before = ctx.tracer.counts[MAT_MUL] if ctx.tracer else 0
        op = timed(f"closure:{kind}", inp, _entangle_op, moduli, gens)
        op.work = op.out[0].order if op.error is None else 0
        if ctx.tracer:  # one product of tuples is one matrix product per modulus
            op.products = (ctx.tracer.counts[MAT_MUL] - before) // len(moduli)
        ops.append(op)
    return ops


ROUND = {"census-cold": census_cold_round, "census-io": census_io_round,
         "density": density_round, "entangle": entangle_round}
PRELUDE = {"density": density_constants}


@functools.cache
def _prime_count(x: int) -> int:
    """Primes up to a truncation: the work of one Euler-product op."""
    return len(oracles.primes_upto(x))


# -- closed loop -------------------------------------------------------------

WARM_UP_SECONDS = 1.5
_WARM_UP = {
    "census-cold": lambda: census.run_census(REGISTRY["serre-ex1"].curve, 20_000),
    "census-io": lambda: census.run_census(REGISTRY["serre-ex1"].curve, 20_000),
    "density": lambda: density.artin_constant(10_000),
    "entangle": lambda: entangle.generate_closure(
        (7,), [((3, 0, 0, 1),), ((1, 1, 0, 1),), ((0, 1, 1, 0),)]),
}


def warm_up(workload: str) -> None:
    """Small untimed ops of the workload's kind, so that timing starts with
    warm caches and a CPU clock that has left its idle state."""
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_SECONDS:
        _WARM_UP[workload]()


def closed_loop(ctx: Context, rounds, seconds: float, n_rounds: int | None = None) -> list[Op]:
    """Run whole rounds until the next one would end after `seconds` of
    op time (at least one round), or exactly n_rounds when given.  Each
    round's outputs are checked, outside the op time, before the next."""
    ops: list[Op] = []
    measured = 0.0

    def step(run):
        nonlocal measured
        t0 = time.perf_counter()
        new = run()
        measured += time.perf_counter() - t0
        settle(ctx, new)
        ops.extend(new)

    if ctx.workload in PRELUDE:
        step(lambda: PRELUDE[ctx.workload](ctx))
    for done, rnd in enumerate(rounds, start=1):
        step(lambda: ROUND[ctx.workload](rnd, ctx))
        if done == n_rounds or (n_rounds is None and measured * (done + 1) / done > seconds):
            break
    return ops


MAT_MUL = "entangle.mat_mul"
SPANNED = [
    (census, "run_census", "census.run_census"),
    (census, "sieve_primes", "modmath.sieve_primes"),
    (census, "group_structure", "curve.group_structure"),
    (census, "_load_checkpoint", "census.load_checkpoint"),
    (curve, "group_structure", "curve.group_structure"),
    (curve, "group_order", "curve.group_order"),
    (density, "build_density_report", "density.build_density_report"),
    (density, "artin_constant", "density.artin_constant"),
    (density, "naive_density", "density.naive_density"),
    (entangle, "generate_closure", "entangle.generate_closure"),
    (entangle, "full_product_group", "entangle.full_product_group"),
    (entangle, "delta_exact", "entangle.delta_exact"),
    (entangle, "MatrixTupleGroup", "entangle.group_init"),
]
# Calls too frequent to span; counted in a pass of their own, whose op
# times are not used.
COUNTED = {"entangle": [(entangle, "_mat_mul", MAT_MUL)]}


def _pass(ctx: Context, tracer: spans.Tracer, rnd, patches, count_only=False) -> list[Op]:
    for module, attr, name in patches:
        tracer.patch(module, attr, name, count_only)
    if not count_only:
        tracer.patch_pool(census)
    ctx.tracer = tracer
    try:
        return closed_loop(ctx, [rnd], 0, 1)
    finally:
        tracer.unpatch()
        ctx.tracer = None


def trace_run(ctx: Context, rounds) -> tuple[list[Op], list[Op], spans.Tracer]:
    """TRACE_ROUNDS rounds, each run with counters (on a workload that
    has them) and then with spans on every layer boundary.  Returns the
    counted ops, the traced ops and the tracer."""
    tracer = spans.Tracer()
    counted: list[Op] = []
    traced: list[Op] = []
    for rnd in rounds[:TRACE_ROUNDS[ctx.workload]]:
        if ctx.workload in COUNTED:
            counted += _pass(ctx, tracer, rnd, COUNTED[ctx.workload], count_only=True)
        traced += _pass(ctx, tracer, rnd, SPANNED)
    return counted, traced, tracer


# -- correctness -------------------------------------------------------------


def _main(workload: str, op: Op) -> bool:
    return op.kind.split(":")[0] == MAIN_KIND[workload]


def run_errors(ctx: Context, ops: list[Op]) -> list[str]:
    """Every oracle failure of the run, and a run whose main op never succeeded."""
    if any(_main(ctx.workload, op) and op.error is None for op in ops):
        return ctx.errors
    return ctx.errors + [f"no {MAIN_KIND[ctx.workload]} op succeeded"]


def settle(ctx: Context, ops: list[Op]) -> None:
    """Check each successful op's output, then keep only the small facts
    the metrics need, so that held outputs do not grow the run's memory."""
    if ctx.tracer:
        ctx.tracer.enabled = False
    try:
        for op in ops:
            if op.error is None:
                ctx.errors.extend(check_op(ctx, op))
                op.out = _digest(op)
    finally:
        if ctx.tracer:
            ctx.tracer.enabled = True


def _digest(op: Op):
    if op.kind == "report":
        return {"delta_width": float(op.out.delta.width)}
    if op.kind.startswith("closure:"):
        return None
    if op.kind == "constants":
        return None
    return op.out


def _cached(ctx: Context, key: str, make):
    if key not in ctx.cache:
        ctx.cache[key] = make()
    return ctx.cache[key]


def check_op(ctx: Context, op: Op) -> list[str]:
    """The oracles for one successful op; [] when all pass."""
    rng = _cached(ctx, "rng", lambda: random.Random(f"oracle/{ctx.workload}/{ctx.seed}"))
    if op.kind.startswith("census:"):
        primes = _cached(ctx, "primes", lambda: oracles.primes_upto(CENSUS_LIMIT))
        label, a, b = op.inp
        if label:
            return oracles.check_registry_census(label, op.out)
        delta = -16 * (4 * a**3 + 27 * b**2)
        good = [p for p in primes if p > 1 << 10 and delta % p]
        return (oracles.check_census_report(a, b, CENSUS_LIMIT, op.out, primes)
                + oracles.check_sampled_primes(
                    a, b, rng.sample(good, ORACLE_PRIMES_PER_CURVE), cyclored))
    if op.kind == "census-io":
        primes = _cached(ctx, "primes", lambda: oracles.primes_upto(IO_LIMIT))
        half = sum(1 for p in primes if p <= IO_LIMIT // 2)
        _, a, b = op.inp
        (r1, r2, r3), (_, pp, fr), _ = op.out
        errs = (oracles.check_census_report(a, b, IO_LIMIT // 2, r1, primes)
                + oracles.check_census_report(a, b, IO_LIMIT, r2, primes)
                + oracles.check_csv(pp, half, r1.cyclic_count)
                + oracles.check_csv(fr, half))
        if not oracles.same_counts(r2, r3):
            errs.append(f"({a}, {b}): full-reuse census differs from the resume")
        if "reference" not in ctx.cache:  # one one-worker census per run
            ctx.cache["reference"] = census.run_census(_curve(op.inp), IO_LIMIT, workers=1)
            if not oracles.same_counts(ctx.cache["reference"], r2):
                errs.append(f"({a}, {b}): resumed census differs from one worker")
        return errs
    if op.kind in ("constants", "report", "write"):
        maximal = _cached(ctx, "maximal", oracles.maximal_constant_reference)
        if op.kind == "constants":
            return oracles.check_encloses("artin_constant", op.out, maximal)
        naive, delta = oracles.reference_density(_profile(op.inp)[1], maximal)
        if op.kind == "write":
            return oracles.check_written_report(op.out, delta)
        errs = (oracles.check_encloses(f"{op.inp} a_inf", op.out.a_inf, maximal)
                + oracles.check_encloses(f"{op.inp} naive", op.out.naive, naive)
                + oracles.check_encloses(f"{op.inp} delta", op.out.delta, delta))
        if op.inp[0] == "label":
            errs += oracles.check_printed(op.inp[1], op.out)
        return errs
    kind, moduli, _ = op.inp
    closure, full, delta = op.out
    if kind == "full":
        return oracles.check_full_product(moduli, closure, full, delta)
    return oracles.check_kernel(closure, full, delta)


# -- metrics -----------------------------------------------------------------


def failures(ops: list[Op]) -> str:
    """The failure count with its base, per op kind and exception class."""
    parts = []
    for kind in dict.fromkeys(op.kind for op in ops):
        mine = [op for op in ops if op.kind == kind]
        bad = [op.error for op in mine if op.error]
        classes = ", ".join(sorted(set(bad)))
        parts.append(f"{kind} {len(bad)}/{len(mine)}" + (f" ({classes})" if bad else ""))
    n_bad = sum(1 for op in ops if op.error)
    return f"{n_bad} failed of {len(ops)} ops attempted: " + "; ".join(parts)


def _p50(values):
    return statistics.median(values) if values else None


def call_p50(ops: list[Op]) -> float | None:
    """The mean over op kinds of each kind's median time."""
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op.seconds)
    return statistics.fmean(map(statistics.median, by_kind.values())) if by_kind else None


def end_to_end(workload: str, ops: list[Op]) -> dict:
    """The generic end-to-end metrics, and the same figures under their
    workload-specific names for the printed report."""
    main = [op for op in ops if _main(workload, op) and op.error is None]
    call = call_p50(main)
    worked = [op for op in ops if op.work]
    rate = sum(op.work for op in worked) / sum(op.seconds for op in worked) if worked else None
    named: dict[str, tuple] = {}
    if workload.startswith("census"):
        named["census_primes_per_s"] = (rate, "primes/s", len(worked))
        named["census_call_s_p50"] = (call, "s", len(main))
    elif workload == "density":
        writes = [op.seconds for op in ops if op.kind == "write" and op.error is None]
        tries = [op.seconds for op in ops if op.kind == "write"]
        consts = [op.seconds for op in ops if op.kind == "constants" and op.error is None]
        named["density_report_s_p50"] = (call, "s", len(main))
        named["density_write_s_p50"] = (_p50(writes), "s", len(writes))
        named["density_write_attempt_s_p50"] = (_p50(tries), "s", len(tries))
        named["constants_s"] = (_p50(consts), "s", len(consts))
    else:
        named["entangle_elements_per_s"] = (rate, "elements/s", len(worked))
        named["entangle_call_s_p50"] = (call, "s", len(main))
    return {"call_s_p50": call, "work_per_s": rate, "named": named}


def per_layer(traced: list[Op], tracer: spans.Tracer, counted: list[Op]) -> dict:
    s = spans.summarize(tracer.spans)

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def own(name):
        return s[name]["self_s"] if name in s else 0.0

    go = sorted(s["curve.group_order"]["durations"]) if "curve.group_order" in s else []
    q = statistics.quantiles(go, n=100) if len(go) >= 2 else [0.0] * 99
    reports = []
    for op in traced:
        if op.error is None and op.kind.startswith("census:"):
            reports.append(op.out)
        elif op.error is None and op.kind == "census-io":
            reports.extend(op.out[0])
    io = [op.out[2] for op in traced if op.kind == "census-io" and op.error is None]
    widths = [op.out["delta_width"] for op in traced
              if op.kind == "report" and op.error is None]
    closures = [op for op in traced if op.kind.startswith("closure:") and op.error is None]
    elements = sum(op.work for op in closures)
    grown = [op for op in counted if op.error is None and op.products]
    products = sum(op.products for op in grown)
    closure_s = own("entangle.generate_closure")
    load3 = sum((sp[spans.END] - sp[spans.START] for sp in tracer.spans
                 if sp[spans.NAME] == "census.load_checkpoint"
                 and spans.has_ancestor(tracer.spans, sp, "census-io.step3")), 0.0)
    overhead = len(tracer.spans) * spans.calibrate()[0]
    traced_s = sum(op.seconds for op in traced)
    return {
        "modmath.sieve_s": total("modmath.sieve_primes"),
        "curve.group_order_s": total("curve.group_order"),
        "curve.group_order_calls": len(go),
        "curve.group_order_us_p50": q[49] * 1e6,
        "curve.group_order_us_p99": q[98] * 1e6,
        "curve.group_structure_self_s": own("curve.group_structure"),
        "curve.noncyclic_primes": sum(r.noncyclic_count for r in reports),
        "census.self_s": own("census.run_census"),
        "census.pool_wait_s": total("census.pool_wait"),
        "census.checkpoint_load_s": load3,
        "census.checkpoint_bytes": sum(f["checkpoint_bytes"] for f in io),
        "census.csv_rows": sum(f["csv_rows"] for f in io),
        "census.csv_bytes": sum(f["csv_bytes"] for f in io),
        "census.chunks_reused": sum(f["chunks_reused"] for f in io),
        "census.chunks_computed": sum(f["chunks_computed"] for f in io),
        "density.euler_product_s": total("density.artin_constant") + total("density.naive_density"),
        "density.report_self_s": own("density.build_density_report"),
        "density.json_s": total("density.json"),
        "density.delta_width_max": max(widths, default=0.0),
        "entangle.closure_s": closure_s,
        "entangle.closure_us_per_element":
            closure_s / elements * 1e6 if elements else 0.0,
        "entangle.products_formed": products,
        # The identity seeds a closure; every other element is a new product.
        "entangle.new_per_product":
            sum(op.work - 1 for op in grown) / products if products else 0.0,
        "entangle.group_init_s": total("entangle.group_init"),
        "entangle.full_product_s": own("entangle.full_product_group"),
        "entangle.delta_exact_s": total("entangle.delta_exact"),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / traced_s if traced_s else 0.0,
    }


def layer_sum_errors(layers: dict, traced: list[Op]) -> list[str]:
    """On census-cold, sieve + group_order + Sylow + census.self_s must be
    the traced run_census wall time within the tracing overhead; a layer
    left out or counted twice breaks the sum."""
    summed = (layers["modmath.sieve_s"] + layers["curve.group_order_s"]
              + layers["curve.group_structure_self_s"] + layers["census.self_s"])
    wall = sum(op.seconds for op in traced if op.kind.startswith("census:"))
    print(f"# sieve + group_order + Sylow + census.self_s = {summed:.4f} s; "
          f"traced run_census wall {wall:.4f} s; tracing overhead "
          f"{layers['trace.overhead_s']:.4f} s")
    if abs(summed - wall) > layers["trace.overhead_s"]:
        return [f"census-cold layers sum to {summed:.4f} s, run_census took {wall:.4f} s"]
    return []

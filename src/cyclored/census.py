"""Prime-by-prime cyclicity census for the reductions of a rational curve.

For every prime p up to a bound the reduced point group is classified as
cyclic or not, with bad primes tracked separately.  Work proceeds in fixed
chunks of primes so long runs can checkpoint to a line-delimited JSON file
and resume later, even when the resumed run asks for a different bound.
The unit of computation is the batch: up to _BATCH_CHUNKS consecutive
chunks to compute, classified together as one int64 array of rad(d) per
prime (_obstructions).  A worker returns only that array; the calling
process builds every record, total and row from it.
"""

from __future__ import annotations

import contextlib
import csv
import json
import multiprocessing
import os
import queue
import signal
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from math import gcd, prod

import numpy as np

from . import __version__
from .curve import (
    CurveOverQ,
    ReducedCurve,
    _lane_residues,
    full_torsion_lanes,
    full_two_torsion,
    group_orders,
    group_structure,
)
from .modmath import SIEVE_LIMIT, divisors, factorize, is_prime, moebius, sieve_primes
from .utils import truncate_decimal

CHUNK_SIZE = 4096
_BATCH_CHUNKS = 8  # consecutive chunks to compute that share one _obstructions call
SPLIT_PRIMES = (2, 3, 5, 7)  # the primes l whose counts of l | d a report carries
_CHECKPOINT_VERSION = 1
# curve.group_orders', curve.full_torsion_lanes', _obstructions' and
# curve.group_structure's counters, summed over the batches, and the number
# of batches (chunk_batches) that CensusReport.extra carries
_RUN_COUNTS = ("chunk_batches", "orders_batched", "orders_exhaustive", "lane_points",
               "lane_passes", "lanes_twisted", "lanes_rescanned", "two_by_discriminant",
               "frobenius_lanes", "structure_exact", "sylow_sampled")
# how a report's counts were made, recorded in its JSON
_METHOD = ("group orders by baby-step giant-step in numpy lanes on the curve and its "
           "quadratic twist, exhaustive below 2**10; l | d for l = 2 from the cubic's "
           "discriminant, for l = 3, 5 from Frobenius on division polynomials, for l >= 7 "
           "from the exact group structure with certified Sylow sampling")


class CheckpointCorrupt(Exception):
    """Resume file failed validation (bad JSON, wrong curve, torn record)."""


@dataclass(frozen=True)
class PrimeClassification:
    p: int
    status: str  # "bad_reduction" | "cyclic" | "non_cyclic"
    obstruction_primes: tuple[int, ...] = ()


@dataclass
class CensusReport:
    a: int
    b: int
    limit: int
    total_primes: int
    bad_primes: list[int]
    cyclic_count: int
    split_counts: dict[int, int]
    elapsed_seconds: float
    label: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def good_primes(self) -> int:
        return self.total_primes - len(self.bad_primes)

    @property
    def noncyclic_count(self) -> int:
        return self.good_primes - self.cyclic_count

    @property
    def cyclic_fraction(self) -> float:
        return self.cyclic_count / self.total_primes

    @property
    def cyclic_fraction_exact(self) -> str:
        return f"{self.cyclic_count}/{self.total_primes}"

    @property
    def cyclic_fraction_display(self) -> str:
        # Four decimal places, truncated: matches the published table style.
        return truncate_decimal(self.cyclic_count, self.total_primes, 4)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "label": self.label,
            "a": self.a,
            "b": self.b,
            "limit": self.limit,
            "chunk_size": CHUNK_SIZE,
            "total_primes": self.total_primes,
            "bad_primes": list(self.bad_primes),
            "good_primes": self.good_primes,
            "cyclic_count": self.cyclic_count,
            "noncyclic_count": self.noncyclic_count,
            "cyclic_fraction": self.cyclic_fraction,
            "cyclic_fraction_exact": self.cyclic_fraction_exact,
            "cyclic_fraction_display": self.cyclic_fraction_display,
            "split_counts": {str(l): n for l, n in sorted(self.split_counts.items())},
            "elapsed_seconds": self.elapsed_seconds,
            "extra": self.extra,
            "provenance": {"version": __version__, "method": _METHOD},
        }


def _obstructions(curve: CurveOverQ, primes, stats=None) -> np.ndarray:
    """Per prime, as an int64 array, rad(d): the product of the primes l
    dividing the first invariant factor d of the reduced point group, that
    is those with E[l] in E(F_p); 0 at a prime of bad reduction, 1 for a
    cyclic group.  primes, an int64 array or a list, lie below 2**32, as
    the sieve's do, so rad(d) | d | p - 1 fits.

    One curve.group_orders call gives the group orders n of the good
    primes, and one curve.full_torsion_lanes call decides l | d for
    l = 2, 3 and 5.  A larger l divides d only if it divides
    g = gcd(n, p - 1): the primes whose g keeps a factor once 2, 3 and 5
    are divided out take d from curve.group_structure, which is exact.
    stats, a Counter when given, receives the counts of those three
    functions and the number of primes sent to group_structure
    (structure_exact)."""
    A, B, delta = curve.A, curve.B, curve.delta_E
    primes = np.asarray(primes, dtype=np.int64)
    rad = (_lane_residues(delta, primes.astype(np.uint64)) != 0).astype(np.int64)
    good = primes[rad == 1]
    orders = np.array(group_orders(A, B, good, stats), dtype=np.int64)
    full = full_torsion_lanes(A, B, good, orders, stats)
    g = np.gcd(orders, good - 1)
    for power in (2**32, 3**21, 5**14):  # above any power of 2, 3 or 5 dividing g
        g //= np.gcd(g, power)
    known = 2 ** full[2] * 3 ** full[3] * 5 ** full[5]
    exact = np.flatnonzero(g > 1).tolist()
    for i in exact:
        p, n = int(good[i]), int(orders[i])
        d = group_structure(ReducedCurve(p, A % p, B % p), n, stats,
                            {3: bool(full[3][i]), 5: bool(full[5][i])}).d
        known[i] = prod(q for q, _ in factorize(d))
    if stats is not None:
        stats["structure_exact"] += len(exact)
    rad[rad == 1] = known
    return rad


def _status(r: int) -> tuple[str, tuple[int, ...]]:
    """The status and obstruction primes of a prime whose rad(d) is r."""
    status = "bad_reduction" if r == 0 else "non_cyclic" if r > 1 else "cyclic"
    return status, tuple(q for q, _ in factorize(r)) if r else ()


def _split(rad: np.ndarray, l: int) -> int:
    """How many of the good primes whose rad(d) are in rad have l | d."""
    return int(np.count_nonzero((rad > 0) & (rad % l == 0)))


def classify_prime(curve: CurveOverQ, p: int) -> PrimeClassification:
    """Classify one prime: bad reduction, cyclic group, or non-cyclic group,
    a prime of good reduction by the census's own path (_obstructions on
    the one prime).

    For non-cyclic groups the obstruction primes are the prime divisors of
    the first group invariant d (the primes with full torsion at p).  A
    prime p >= 2**32 of bad reduction returns bad_reduction; a good one,
    whose group order is not computed there, raises ValueError, as do a
    non-prime p and one at or above modmath.PRIMALITY_BOUND.
    """
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    if curve.delta_E % p == 0:
        return PrimeClassification(p, "bad_reduction")
    if p >= SIEVE_LIMIT:
        raise ValueError(f"group orders need primes below 2**32, not {p}")
    return PrimeClassification(p, *_status(int(_obstructions(curve, [p])[0])))


def _record(primes: np.ndarray, rad: np.ndarray) -> dict:
    """The checkpoint record of a chunk of primes whose rad(d) are rad."""
    bad = primes[rad == 0].tolist()
    return {
        "kind": "chunk",
        "first": int(primes[0]),
        "last": int(primes[-1]),
        "count": len(primes),
        "good": len(primes) - len(bad),
        "cyclic": int(np.count_nonzero(rad == 1)),
        "bad": bad,
        "split": {str(l): _split(rad, l) for l in SPLIT_PRIMES},
    }


def _classify_batch(args):
    """Worker body: the _obstructions rad(d) array of a curve at a batch's
    primes, and the batch's counts from _obstructions with
    chunk_batches = 1.  Module-level so multiprocessing can pickle it."""
    curve, primes = args
    counts = Counter(chunk_batches=1)
    return _obstructions(curve, primes, counts), counts


def _load_checkpoint(path: str, a: int, b: int) -> dict:
    """Parse a resume file, validating the header and every chunk record."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckpointCorrupt("checkpoint file is empty")
    try:
        head = json.loads(lines[0])
    except ValueError as exc:  # bad JSON, or an integer too long to convert
        raise CheckpointCorrupt(f"unreadable header: {exc}") from None
    if (
        not isinstance(head, dict)
        or head.get("kind") != "header"
        or head.get("version") != _CHECKPOINT_VERSION
    ):
        raise CheckpointCorrupt("missing or unsupported header record")
    if head.get("a") != a or head.get("b") != b:
        raise CheckpointCorrupt(
            f"checkpoint belongs to curve ({head.get('a')}, {head.get('b')}), "
            f"not ({a}, {b})"
        )
    want_split = sorted(str(l) for l in SPLIT_PRIMES)
    records: dict[tuple[int, int, int], dict] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise CheckpointCorrupt(f"unreadable chunk record: {exc}") from None
        needed = ("kind", "first", "last", "count", "good", "cyclic", "bad", "split")
        if not isinstance(rec, dict) or any(k not in rec for k in needed):
            raise CheckpointCorrupt("chunk record is missing fields")
        if rec["kind"] != "chunk":
            raise CheckpointCorrupt(f"unexpected record kind {rec['kind']!r}")
        if type(rec["bad"]) is not list or type(rec["split"]) is not dict or any(
                type(v) is not int  # JSON true and false load as bool, an int subclass
                for v in [*(rec[k] for k in needed[1:6]), *rec["bad"], *rec["split"].values()]):
            raise CheckpointCorrupt("chunk record has fields of the wrong type")
        if rec["good"] + len(rec["bad"]) != rec["count"] or any(
                not 0 <= v <= rec["good"] for v in [rec["cyclic"], *rec["split"].values()]):
            raise CheckpointCorrupt("chunk record counts are inconsistent")
        bad = rec["bad"]
        if any(not rec["first"] <= q <= rec["last"] for q in bad) or any(
                q >= r for q, r in zip(bad, bad[1:])):
            raise CheckpointCorrupt("chunk record has bad primes out of range or order")
        if sorted(rec["split"].keys()) != want_split:
            raise CheckpointCorrupt("chunk record tracks different split primes")
        key = (rec["first"], rec["last"], rec["count"])
        old = records.get(key)
        if old is not None and old != rec:
            raise CheckpointCorrupt(f"conflicting records for chunk {key}")
        records[key] = rec
    return records


def _ignore_sigint():
    """Pool initializer: SIGINT interrupts the parent, which ends the pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _chunks(stream):
    """The primes of a sieve_primes stream regrouped into int64 arrays of
    CHUNK_SIZE primes, the last possibly shorter."""
    rest = np.empty(0, dtype=np.int64)
    for block in stream:
        block = np.concatenate((rest, block))
        cut = len(block) - len(block) % CHUNK_SIZE
        for k in range(0, cut, CHUNK_SIZE):
            yield block[k : k + CHUNK_SIZE]
        rest = block[cut:]
    if len(rest):
        yield rest


def _key(chunk) -> tuple[int, int, int]:
    """A chunk's checkpoint key: its first and last prime and its length."""
    return int(chunk[0]), int(chunk[-1]), len(chunk)


def _batches(chunks, reuse):
    """The chunks, in order, grouped into (their primes as one array,
    computed): each run of up to _BATCH_CHUNKS consecutive chunks to
    compute is one batch, and a chunk that `reuse` takes ends the run and
    is a batch of its own.  So the batches depend on the chunks and on
    which are reused, nothing else."""
    run = []
    for chunk in chunks:
        if reuse(chunk):
            if run:
                yield np.concatenate(run), True
                run = []
            yield chunk, False
            continue
        run.append(chunk)
        if len(run) == _BATCH_CHUNKS:
            yield np.concatenate(run), True
            run = []
    if run:
        yield np.concatenate(run), True


def _classified(curve, chunks, reuse=lambda chunk: False, workers=1, stack=None):
    """Per batch of _batches, in order: its primes, and the (rad(d),
    counts) of _classify_batch on them, or None for a reused chunk.

    The chunks are walked once and the batches to compute go lazily to
    _classify_batch: in this process, or, once a second batch turns up
    and workers > 1, on a pool of `workers` entered on `stack`, with up
    to 2 * workers batches in flight ahead of the one yielded."""
    feed = queue.SimpleQueue()  # batches to compute, in order; None ends it
    results = map(_classify_batch, iter(feed.get, None))
    window = 0 if workers == 1 else 2 * workers
    pending = deque()
    queued = in_flight = 0
    for primes, work in _batches(chunks, reuse):
        if work:
            feed.put((curve, primes))
            queued += 1
            if queued == 2 and workers > 1:
                pool = stack.enter_context(
                    multiprocessing.Pool(workers, initializer=_ignore_sigint))
                # ends the pool's reader of the feed, which the pool's exit joins
                stack.callback(feed.put, None)
                results = pool.imap(_classify_batch, iter(feed.get, None))
        pending.append((primes, work))
        in_flight += work
        while pending and (not pending[0][1] or in_flight > window):
            primes, work = pending.popleft()
            in_flight -= work
            yield primes, next(results) if work else None
    for primes, work in pending:
        yield primes, next(results) if work else None


def run_census(
    curve: CurveOverQ,
    x: int,
    *,
    checkpoint: str | None = None,
    workers: int = 1,
    per_prime_csv: str | None = None,
    fraction_csv: str | None = None,
    label: str | None = None,
) -> CensusReport:
    """Classify every prime p <= x and aggregate the counts.

    One pass walks the sieve_primes stream in chunks of CHUNK_SIZE
    primes, in order.  Each run of up to _BATCH_CHUNKS consecutive chunks
    to compute is classified as one batch by _classified (on a worker
    pool when workers > 1 and more than one batch is computed), and this
    process cuts its rad(d) array back into chunks and builds their
    records.  A computed record is checked against the saved one or
    appended and flushed; a reused chunk takes its saved record.  The
    totals add up the records, and the CSV rows' running counts start
    from the totals before their batch.  Memory does not grow with x
    beyond the bad primes and the checkpoint's records.

    Checkpointing: with `checkpoint` set, records are appended as each
    batch finishes, in chunk order, so an interrupted run keeps them, and
    reused on the next call, even if that call asks for a different x
    (chunks are keyed by their prime range, which does not depend on the
    bound).  A malformed file, or a recomputed chunk that disagrees with
    its record, raises CheckpointCorrupt rather than silently recomputing.

    The CSV side outputs need a row for every prime, so requesting either
    one disables chunk reuse for that run (the checkpoint file is still
    written).  The denominators of the reported fractions count all primes
    up to x, including 2 and the primes of bad reduction.
    """
    if x < 2:
        raise ValueError("census bound must be at least 2")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.monotonic()
    stream = sieve_primes(x)

    want_rows = per_prime_csv is not None or fraction_csv is not None
    fresh = checkpoint is not None and not os.path.exists(checkpoint)
    saved: dict[tuple[int, int, int], dict] = {}
    if checkpoint is not None and not fresh:
        saved = _load_checkpoint(checkpoint, curve.A, curve.B)

    bad_all: list[int] = []
    counts = Counter()
    totals = Counter()  # the records' count, cyclic and split counts (by str(l)), and chunks
    computed = 0
    with contextlib.ExitStack() as stack:
        ck_fh = pp_writer = fr_writer = None
        if checkpoint is not None:
            ck_fh = stack.enter_context(open(checkpoint, "a"))
            if fresh:
                header = {"kind": "header", "version": _CHECKPOINT_VERSION,
                          "a": curve.A, "b": curve.B}
                ck_fh.write(json.dumps(header, sort_keys=True) + "\n")
                ck_fh.flush()
        if per_prime_csv is not None:
            pp_writer = csv.writer(stack.enter_context(open(per_prime_csv, "w", newline="")))
            pp_writer.writerow(["p", "status", "obstruction_primes"])
        if fraction_csv is not None:
            fr_writer = csv.writer(stack.enter_context(open(fraction_csv, "w", newline="")))
            fr_writer.writerow(["p", "primes_seen", "cyclic_seen", "running_fraction"])

        for primes, result in _classified(
                curve, _chunks(stream), lambda chunk: not want_rows and _key(chunk) in saved,
                workers, stack):
            if result is None:  # a reused chunk comes alone
                chunks = [(primes, None)]
            else:
                rad, batch_counts = result
                counts.update(batch_counts)
                # every chunk but the stream's last holds CHUNK_SIZE primes
                cuts = range(CHUNK_SIZE, len(primes), CHUNK_SIZE)
                chunks = zip(np.split(primes, cuts), np.split(rad, cuts))
            for primes, rad in chunks:
                key = _key(primes)
                if rad is None:
                    rec = saved[key]
                else:
                    rec = _record(primes, rad)
                    computed += 1
                    if saved.get(key, rec) != rec:
                        raise CheckpointCorrupt(
                            f"recomputed chunk {key} disagrees with checkpoint")
                    if key not in saved and ck_fh is not None:
                        ck_fh.write(json.dumps(rec, sort_keys=True) + "\n")
                        ck_fh.flush()
                # rows (no chunk is reused then) count on from the totals before the chunk
                if pp_writer is not None:
                    rads = rad.tolist()
                    labels = {r: _status(r) for r in set(rads)}  # factorised once per rad(d)
                    pp_writer.writerows([p, labels[r][0], ";".join(map(str, labels[r][1]))]
                                        for p, r in zip(primes.tolist(), rads))
                if fr_writer is not None:
                    seen = totals["count"]
                    running = (totals["cyclic"] + np.cumsum(rad == 1)).tolist()
                    fr_writer.writerows([p, k, c, f"{c / k:.6f}"] for k, p, c in
                                        zip(range(seen + 1, seen + 1 + len(primes)),
                                            primes.tolist(), running))
                totals.update(rec["split"], count=rec["count"], cyclic=rec["cyclic"], chunks=1)
                bad_all.extend(rec["bad"])

    elapsed = time.monotonic() - start
    return CensusReport(
        a=curve.A,
        b=curve.B,
        limit=x,
        total_primes=totals["count"],
        bad_primes=sorted(bad_all),
        cyclic_count=totals["cyclic"],
        split_counts={l: totals[str(l)] for l in SPLIT_PRIMES},
        elapsed_seconds=elapsed,
        label=label,
        extra={
            "chunks_computed": computed,
            "chunks_reused": totals["chunks"] - computed,
            **{k: counts[k] for k in _RUN_COUNTS},
        },
    )


def split_count(curve: CurveOverQ, l: int, x: int) -> int:
    """Count good primes p <= x whose reduction has full l-torsion, l | d.

    Full l-torsion forces l | p - 1, so only the primes of the
    sieve_primes stream in that progression are asked; p = l never is.
    For l = 2 each array of the stream goes to curve.full_two_torsion,
    which asks whether the cubic x^3 + ax + b splits over F_p by
    x^p == x modulo it, with no group order: a computation of 2 | d apart
    from the census's Legendre symbol of the discriminant.  For odd l
    there is one path, the census's: _chunks of the progression, whose
    _classified rad(d) arrays _split counts as a chunk record's are.
    An l >= x leaves the progression empty and counts 0.
    """
    if not is_prime(l):
        raise ValueError(f"torsion prime must be a prime: {l}")
    stream = sieve_primes(x)
    if l == 2:
        delta = curve.delta_E
        return sum(sum(full_two_torsion(curve.A, curve.B,
                                        [p for p in block.tolist() if p % 2 and delta % p]))
                   for block in stream)
    if l >= x:  # no p = 1 mod l up to x; keeps l in int64 for block % l
        return 0
    chunks = _chunks(block[block % l == 1] for block in stream)
    return sum(_split(rad, l) for _, (rad, _) in _classified(curve, chunks))


@dataclass(frozen=True)
class InclusionExclusionReport:
    n: int
    limit: int
    direct_count: int
    moebius_sum: int
    terms: dict[int, int]  # m -> #{good p <= x with full m-torsion}

    @property
    def consistent(self) -> bool:
        return self.direct_count == self.moebius_sum


def inclusion_exclusion_check(curve: CurveOverQ, x: int, n: int) -> InclusionExclusionReport:
    """Cross-check the sieve identity behind the density over the primes of n.

    Counts good p <= x with no full l-torsion for any prime l | n two ways:
    directly, and as sum over squarefree m | n of mu(m) times the number of
    primes with full m-torsion (full l-torsion for every prime l | m).
    Inclusion-exclusion is an identity: the two counts agree for any
    per-prime torsion sets, so equality checks the moebius values and the
    squarefree-divisor bookkeeping, not the classification.  The
    statistic is terms: per batch of the census, its good primes by
    g = gcd(rad(d), rad(n)), and terms[m] the count of g divisible by m.
    """
    if n < 1:
        raise ValueError("modulus must be at least 1")
    rad_n = prod(q for q, _ in factorize(n))
    sq_divs = divisors(rad_n)  # the squarefree divisors of n
    by_g = Counter()
    for _, (rad, _) in _classified(curve, _chunks(sieve_primes(x))):
        values, counts = np.unique(rad[rad > 0], return_counts=True)
        for r, k in zip(values.tolist(), counts.tolist()):
            by_g[gcd(r, rad_n)] += k
    full_counts = {m: sum(k for g, k in by_g.items() if g % m == 0) for m in sq_divs}
    msum = sum(moebius(m) * full_counts[m] for m in sq_divs)
    return InclusionExclusionReport(
        n=n, limit=x, direct_count=by_g[1], moebius_sum=msum, terms=full_counts
    )

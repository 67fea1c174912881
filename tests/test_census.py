from __future__ import annotations

import csv
import functools
import hashlib
import json
from collections import Counter
from math import gcd, prod

import numpy as np
import pytest

from conftest import FIVE_CURVES, brute_first_invariant, brute_structure, prime_list, torsion_bands
import cyclored
from cyclored import census
from cyclored.census import (
    SPLIT_PRIMES,
    CensusReport,
    CheckpointCorrupt,
    classify_prime,
    inclusion_exclusion_check,
    run_census,
    split_count,
)
from cyclored.curve import CurveOverQ, group_orders, group_structure, reduce
from cyclored.modmath import factorize, is_prime

E1 = CurveOverQ(-3, 1)
E2 = CurveOverQ(2, 3)

# Frozen counts for the two smallest registry curves at x = 5000,
# cross-checked against the brute-force structure oracle below 150.
EX1_AT_5000 = dict(total=669, cyclic=440, bad=[2, 3],
                   split={2: 221, 3: 8, 5: 2, 7: 0}, display="0.6576")
EX2_AT_5000 = dict(total=669, cyclic=336, bad=[2, 5, 11],
                   split={2: 325, 3: 13, 5: 0, 7: 1}, display="0.5022")


def test_classify_prime_against_brute_force():
    for p in prime_list(100):
        cls = classify_prime(E1, p)
        assert cls.p == p
        if p in (2, 3):
            assert cls.status == "bad_reduction"
            continue
        n, d, e = brute_structure(p, -3 % p, 1)
        if d == 1:
            assert cls.status == "cyclic"
            assert cls.obstruction_primes == ()
        else:
            assert cls.status == "non_cyclic"
            assert cls.obstruction_primes
            for q in cls.obstruction_primes:
                assert d % q == 0
            prod = 1
            for q in cls.obstruction_primes:
                prod *= q
            # obstruction primes are exactly the radical of d
            rad = 1
            m = d
            for q in range(2, d + 1):
                if m % q == 0:
                    rad *= q
                    while m % q == 0:
                        m //= q
            assert prod == rad
    for p in (1, 4, 1001, 2047):  # 2047 = 23 * 89 passes a base-2 Fermat test
        with pytest.raises(ValueError):
            classify_prime(E1, p)
    # a prime from 2**32 on is classified only when its reduction is bad
    for q in (2**32 + 15, 2**64 + 13):
        assert classify_prime(CurveOverQ(0, q), q).status == "bad_reduction"
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            classify_prime(E1, q)


def test_classify_prime_matches_group_structure():
    # classify_prime takes the census path on its one prime: the lanes from
    # 2^10 on, the discriminant and Frobenius lanes, and group_structure
    # where gcd(n, p - 1) has a factor of 7 or more.  It must agree with
    # the sampled group_structure everywhere.
    for E in (E1, E2):
        primes = prime_list(3000)
        orders = iter(group_orders(E.A, E.B, [p for p in primes if E.delta_E % p]))
        for p in primes:
            cls = classify_prime(E, p)
            if E.delta_E % p == 0:
                assert cls.status == "bad_reduction", p
                continue
            d = group_structure(reduce(E, p), next(orders)).d
            assert cls.status == ("cyclic" if d == 1 else "non_cyclic"), (E, p)
            assert cls.obstruction_primes == tuple(q for q in range(2, d + 1)
                                                   if d % q == 0 and is_prime(q)), (E, p)


def test_chunk_classifier_matches_group_structure():
    # On torsion_bands, the census's rad(d) for a chunk is the radical of
    # the sampled group_structure(C, n).d, and 0 exactly at the bad
    # primes.  Every branch is taken both ways: 2 | d by the discriminant,
    # at p = 3 mod 4 too, where its sign matters; 3 | d and 5 | d by the
    # Frobenius lanes; and a prime whose gcd(n, p - 1) keeps a factor
    # l >= 7, routed to group_structure, with l | d.
    seen = Counter()
    for A, B, primes in torsion_bands():
        E = CurveOverQ(A, B)
        good = [p for p in primes if E.delta_E % p]
        rad = census._obstructions(E, primes)
        assert rad.dtype == np.int64
        assert (rad == 0).tolist() == [E.delta_E % p == 0 for p in primes]
        for p, n, r in zip(good, group_orders(A, B, good), rad[rad > 0].tolist()):
            d = group_structure(reduce(E, p), n).d
            assert r == prod(q for q, _ in factorize(d)), (E, p)
            if n % 4 == 0:
                seen[2, r % 2 == 0, p % 4] += 1
            rough = [q for q, _ in factorize(gcd(n, p - 1)) if q >= 7]
            if rough:
                seen[7, any(d % q == 0 for q in rough)] += 1
                continue
            for l in (3, 5):
                if p % l == 1 and n % (l * l) == 0:
                    seen[l, r % l == 0] += 1
    want = [(2, split, r) for split in (True, False) for r in (1, 3)]
    want += [(l, split) for l in (3, 5, 7) for split in (True, False)]
    assert all(seen[k] for k in want), seen


def test_run_census_frozen_counts():
    for E, want in ((E1, EX1_AT_5000), (E2, EX2_AT_5000)):
        r = run_census(E, 5000)
        assert r.total_primes == want["total"]
        assert r.cyclic_count == want["cyclic"]
        assert r.bad_primes == want["bad"]
        assert r.split_counts == want["split"]
        assert r.cyclic_fraction_display == want["display"]
        assert r.limit == 5000
        assert r.elapsed_seconds >= 0


def test_report_derived_fields():
    r = run_census(E1, 5000, label="ex1")
    assert r.good_primes == 667
    assert r.noncyclic_count == 667 - 440
    assert r.cyclic_fraction_exact == "440/669"
    assert abs(r.cyclic_fraction - 440 / 669) < 1e-15
    # display is truncated, not rounded: 440/669 = 0.65769...
    assert r.cyclic_fraction_display == "0.6576"
    assert r.label == "ex1"


def test_report_json_round_trip():
    r = run_census(E2, 3000, label="ex2")
    d = r.to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert (d["schema_version"], d["chunk_size"], d["label"]) == (1, 4096, "ex2")


def test_report_provenance(tmp_path):
    # the version and the method, the same on a resumed run, and never in
    # the checkpoint, whose records resume compares for equality
    ck = tmp_path / "ck.jsonl"
    first = run_census(E1, 3000, checkpoint=str(ck)).to_json_dict()
    resumed = run_census(E1, 3000, checkpoint=str(ck))
    assert resumed.extra["chunks_reused"] == 1
    assert first["provenance"] == resumed.to_json_dict()["provenance"] == {
        "version": cyclored.__version__, "method": census._METHOD}
    assert "baby-step giant-step" in census._METHOD
    assert census._METHOD not in ck.read_text() and "provenance" not in ck.read_text()


def test_run_census_validation():
    with pytest.raises(ValueError):
        run_census(E1, 1)
    with pytest.raises(ValueError):
        run_census(E1, 100, workers=0)


def strip_elapsed(report: CensusReport) -> dict:
    """The report without what describes the run rather than its results:
    the wall time and the run counters."""
    d = report.to_json_dict()
    d.pop("elapsed_seconds")
    d.pop("extra")
    return d


def test_checkpoint_resume_matches_scratch(tmp_path, monkeypatch):
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    ck = str(tmp_path / "ck.jsonl")
    half = run_census(E1, 2500, checkpoint=ck)
    lines_after_half = open(ck).read().splitlines()
    assert json.loads(lines_after_half[0])["kind"] == "header"
    assert len(lines_after_half) > 2  # several chunk records

    resumed = run_census(E1, 5000, checkpoint=ck)
    scratch = run_census(E1, 5000)
    assert strip_elapsed(resumed) == strip_elapsed(scratch)
    chunks = -(-scratch.total_primes // 64)
    reused = half.total_primes // 64  # the shorter run's full chunks
    assert (resumed.extra["chunks_reused"], resumed.extra["chunks_computed"]) == (
        reused, chunks - reused)
    assert (scratch.extra["chunks_reused"], scratch.extra["chunks_computed"]) == (0, chunks)
    assert strip_elapsed(half) == strip_elapsed(run_census(E1, 2500))
    # the run counters count the computed chunks' primes (2 and 3, the bad
    # primes, lie in a reused chunk) and stay out of the records
    computed = resumed.extra["orders_batched"] + resumed.extra["orders_exhaustive"]
    assert computed == scratch.total_primes - 64 * reused
    assert all(resumed.extra[k] <= scratch.extra[k] for k in census._RUN_COUNTS)
    assert not any(set(json.loads(line)) & set(census._RUN_COUNTS)
                   for line in open(ck).read().splitlines())

    # a third run over the same bound, with blank lines among the records,
    # reuses every chunk without rewriting
    header, *records = open(ck).read().splitlines()
    with open(ck, "w") as fh:
        fh.write("\n".join([header, records[0], "", "   "] + records[1:] + [""]) + "\n")
    before = open(ck).read()
    again = run_census(E1, 5000, checkpoint=ck)
    assert strip_elapsed(again) == strip_elapsed(scratch)
    assert open(ck).read() == before
    assert again.extra == {"chunks_computed": 0, "chunks_reused": chunks,
                           **dict.fromkeys(census._RUN_COUNTS, 0)}


def test_checkpoint_corrupt_cases(tmp_path, monkeypatch):
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    ck = str(tmp_path / "ck.jsonl")
    run_census(E1, 1500, checkpoint=ck)
    good_lines = open(ck).read().splitlines()

    def rewrite(lines):
        with open(ck, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    # empty file: no bytes at all
    open(ck, "w").close()
    with pytest.raises(CheckpointCorrupt, match="checkpoint file is empty"):
        run_census(E1, 1500, checkpoint=ck)

    # a header of another version, and a record of another kind
    rewrite([json.dumps(dict(json.loads(good_lines[0]), version=2))] + good_lines[1:])
    with pytest.raises(CheckpointCorrupt, match="missing or unsupported header record"):
        run_census(E1, 1500, checkpoint=ck)
    rewrite([good_lines[0], json.dumps(dict(json.loads(good_lines[1]), kind="note"))]
            + good_lines[2:])
    with pytest.raises(CheckpointCorrupt, match="unexpected record kind 'note'"):
        run_census(E1, 1500, checkpoint=ck)

    # garbage header
    rewrite(["{not json"] + good_lines[1:])
    with pytest.raises(CheckpointCorrupt):
        run_census(E1, 1500, checkpoint=ck)

    # header for a different curve
    wrong = dict(json.loads(good_lines[0]))
    wrong["a"] = 999
    rewrite([json.dumps(wrong)] + good_lines[1:])
    with pytest.raises(CheckpointCorrupt):
        run_census(E1, 1500, checkpoint=ck)

    # torn chunk record
    rewrite(good_lines[:-1] + [good_lines[-1][: len(good_lines[-1]) // 2]])
    with pytest.raises(CheckpointCorrupt):
        run_census(E1, 1500, checkpoint=ck)

    # records with inconsistent counts: cyclic above good, negative cyclic
    # or split counts, a split count above good
    first = json.loads(good_lines[1])
    for field, value in (("cyclic", first["good"] + 5), ("cyclic", -1),
                         ("split", dict(first["split"], **{"2": -1})),
                         ("split", dict(first["split"], **{"3": first["good"] + 1}))):
        rewrite([good_lines[0], json.dumps(dict(first, **{field: value}))] + good_lines[2:])
        with pytest.raises(CheckpointCorrupt, match="counts are inconsistent"):
            run_census(E1, 1500, checkpoint=ck)

    # records whose bad primes lie outside the chunk or are out of order
    assert first["bad"] == [2, 3]
    for bad in ([2, first["last"] + 2], [first["first"] - 1, 3], [3, 2], [2, 2]):
        rewrite([good_lines[0], json.dumps(dict(first, bad=bad))] + good_lines[2:])
        with pytest.raises(CheckpointCorrupt, match="bad primes"):
            run_census(E1, 1500, checkpoint=ck)

    # two copies of one chunk, each consistent on its own, that disagree
    rec = dict(json.loads(good_lines[1]))
    rec["cyclic"] -= 1
    rewrite(good_lines + [json.dumps(rec)])
    with pytest.raises(CheckpointCorrupt, match=r"conflicting records for chunk \(2, 311, 64\)"):
        run_census(E1, 1500, checkpoint=ck)

    # chunk tracking different split primes
    rec = dict(json.loads(good_lines[1]))
    rec["split"] = {"2": rec["split"]["2"], "3": rec["split"]["3"]}
    rewrite([good_lines[0], json.dumps(rec)] + good_lines[2:])
    with pytest.raises(CheckpointCorrupt, match="different split primes"):
        run_census(E1, 1500, checkpoint=ck)

    # a record holding an integer too long to convert
    rewrite([good_lines[0], good_lines[1][:-1] + ', "huge": ' + "1" * 4400 + "}"] + good_lines[2:])
    with pytest.raises(CheckpointCorrupt, match="unreadable chunk record"):
        run_census(E1, 1500, checkpoint=ck)

    # a record missing a required field
    rec = dict(json.loads(good_lines[1]))
    del rec["split"]
    rewrite([good_lines[0], json.dumps(rec)] + good_lines[2:])
    with pytest.raises(CheckpointCorrupt):
        run_census(E1, 1500, checkpoint=ck)

    # records whose fields have the wrong types
    for field, value in (("bad", 5), ("bad", ["2"]), ("split", []), ("split", {"2": "1"}),
                         ("cyclic", "3"), ("first", 2.0), ("count", True), ("good", None)):
        rec = dict(json.loads(good_lines[1]))
        rec[field] = value
        rewrite([good_lines[0], json.dumps(rec)] + good_lines[2:])
        with pytest.raises(CheckpointCorrupt):
            run_census(E1, 1500, checkpoint=ck)


def test_interrupted_census_keeps_finished_chunks(tmp_path, monkeypatch):
    # with two chunks a batch, a run interrupted after k batches keeps
    # their 2k chunk records, and the resume reuses them
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    monkeypatch.setattr("cyclored.census._BATCH_CHUNKS", 2)
    ck = str(tmp_path / "ck.jsonl")
    classify = census._classify_batch
    k = 2  # of the 3 batches of the 6 chunks to 2500
    done = []

    def interrupted(args):
        if len(done) == k:
            raise KeyboardInterrupt
        done.append(args)
        return classify(args)

    monkeypatch.setattr(census, "_classify_batch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_census(E1, 2500, checkpoint=ck)
    lines = open(ck).read().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert [json.loads(line)["kind"] for line in lines[1:]] == ["chunk"] * (2 * k)

    monkeypatch.setattr(census, "_classify_batch", classify)
    resumed = run_census(E1, 2500, checkpoint=ck)
    assert resumed.extra["chunks_reused"] == 2 * k
    assert strip_elapsed(resumed) == strip_elapsed(run_census(E1, 2500))


def _census_files(tmp_path, name, x, csvs=()):
    """run_census(E2, x) on two workers with a checkpoint, appended to when
    it exists, and the CSV outputs named in csvs, each in tmp_path under
    `name`: the report and each file's bytes."""
    paths = {k: str(tmp_path / f"{name}.{k}") for k in ("ck", *csvs)}
    r = run_census(E2, x, checkpoint=paths["ck"], workers=2, **{k: paths[k] for k in csvs})
    return r, {k: open(path, "rb").read() for k, path in paths.items()}


def test_batches_leave_records_rows_and_reports_unchanged(tmp_path, monkeypatch):
    # Batches of three chunks write the same checkpoint, CSV rows and
    # report as batches of one: on a plain census, on a resume whose saved
    # chunks split the runs of chunks to compute, and with both CSVs.
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    runs, batches = {}, {}
    for bound in (1, 3):
        monkeypatch.setattr("cyclored.census._BATCH_CHUNKS", bound)
        plain = _census_files(tmp_path, f"plain{bound}", 5000)
        # keep the records of chunks 0, 2 and 3 of a census to 3000: the
        # resume to 5000 computes chunk 1, then chunks 4 to 10
        _census_files(tmp_path, f"resume{bound}", 3000)
        ck = tmp_path / f"resume{bound}.ck"
        header, *records = ck.read_text().splitlines()
        ck.write_text("\n".join([header] + [records[i] for i in (0, 2, 3)]) + "\n")
        resume = _census_files(tmp_path, f"resume{bound}", 5000)
        rows = _census_files(tmp_path, f"rows{bound}", 5000, ("per_prime_csv", "fraction_csv"))
        runs[bound] = [(strip_elapsed(r), files) for r, files in (plain, resume, rows)]
        batches[bound] = [r.extra["chunk_batches"] for r, _ in (plain, resume, rows)]
    assert runs[1] == runs[3]
    assert len(runs[3][2][1]) == 3  # the checkpoint and both CSVs
    assert batches == {1: [11, 8, 11], 3: [4, 4, 4]}


def test_checkpoint_detects_silent_edit_on_recompute(tmp_path, monkeypatch):
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    ck = str(tmp_path / "ck.jsonl")
    run_census(E1, 1500, checkpoint=ck)
    lines = open(ck).read().splitlines()
    rec = dict(json.loads(lines[1]))
    # stays internally consistent, so plain loading accepts it
    rec["cyclic"] = max(0, rec["cyclic"] - 1)
    with open(ck, "w") as fh:
        fh.write("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    # CSV output forces every chunk to be recomputed, exposing the edit
    with pytest.raises(CheckpointCorrupt):
        run_census(E1, 1500, checkpoint=ck,
                   per_prime_csv=str(tmp_path / "pp.csv"))


def test_csv_outputs(tmp_path):
    pp = str(tmp_path / "per_prime.csv")
    fr = str(tmp_path / "fractions.csv")
    r = run_census(E1, 2000, per_prime_csv=pp, fraction_csv=fr)

    with open(pp) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "status", "obstruction_primes"]
    assert len(rows) - 1 == r.total_primes
    by_p = {int(row[0]): row for row in rows[1:]}
    assert by_p[2][1] == "bad_reduction"
    for p in (5, 7, 11, 13, 101):
        cls = classify_prime(E1, p)
        assert by_p[p][1] == cls.status
        assert by_p[p][2] == ";".join(map(str, cls.obstruction_primes))

    with open(fr) as fh:
        frows = list(csv.reader(fh))
    assert frows[0] == ["p", "primes_seen", "cyclic_seen", "running_fraction"]
    assert len(frows) - 1 == r.total_primes
    last = frows[-1]
    assert int(last[1]) == r.total_primes
    assert int(last[2]) == r.cyclic_count
    assert last[3] == f"{r.cyclic_count / r.total_primes:.6f}"
    # running counts never decrease
    prev = 0
    for row in frows[1:]:
        assert int(row[2]) >= prev
        prev = int(row[2])


def test_csv_run_reuses_nothing_but_keeps_checkpoint(tmp_path, monkeypatch):
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    ck = str(tmp_path / "ck.jsonl")
    first = run_census(E1, 2000, checkpoint=ck)
    n_lines = len(open(ck).read().splitlines())
    second = run_census(E1, 2000, checkpoint=ck,
                        per_prime_csv=str(tmp_path / "pp.csv"))
    assert strip_elapsed(first) == strip_elapsed(second)
    assert len(open(ck).read().splitlines()) == n_lines


def test_workers_agree(tmp_path, monkeypatch):
    # 7 chunks of 64 primes in batches of two: the two-worker run computes
    # four batches, so it starts a pool
    monkeypatch.setattr("cyclored.census.CHUNK_SIZE", 64)
    monkeypatch.setattr("cyclored.census._BATCH_CHUNKS", 2)
    pools = []
    pool = census.multiprocessing.Pool

    def counted(*args, **kwargs):
        pools.append(args)
        return pool(*args, **kwargs)

    monkeypatch.setattr(census.multiprocessing, "Pool", counted)
    solo = run_census(E2, 3000, workers=1)
    assert pools == []
    duo = run_census(E2, 3000, workers=2)
    assert pools == [(2,)]
    assert strip_elapsed(solo) == strip_elapsed(duo)
    # The run counters are deterministic: the same with one worker or two.
    # Every good prime's order is counted exhaustively below 2^10 and
    # settled in the lanes above, on one point or more, each on the curve
    # or on its twist, in one lane pass or more per batch, more in some.
    assert solo.extra == duo.extra
    primes = prime_list(3000)
    good = [p for p in primes if E2.delta_E % p]
    assert solo.extra["orders_exhaustive"] == sum(1 for p in good if p < 1 << 10)
    assert solo.extra["orders_batched"] == sum(1 for p in good if p > 1 << 10)
    assert solo.extra["orders_batched"] < solo.extra["lane_points"]
    assert 0 < solo.extra["lanes_twisted"] < solo.extra["lane_points"]
    batches = [primes[k : k + 128] for k in range(0, len(primes), 128)]
    assert solo.extra["chunk_batches"] == len(batches) == 4
    lane_batches = sum(1 for batch in batches if batch[-1] > 1 << 10)
    assert solo.extra["lane_passes"] > lane_batches
    # The discriminant lanes run where 4 | n, the Frobenius lanes where
    # p = 1 mod l and l^2 | n for l = 3, 5, and group_structure where
    # gcd(n, p - 1) has a prime factor of 7 or more; it samples no more
    # Sylow subgroups than that gcd has prime factors.
    orders = group_orders(E2.A, E2.B, good)
    assert solo.extra["two_by_discriminant"] == sum(n % 4 == 0 for n in orders)
    assert solo.extra["frobenius_lanes"] == sum(p % l == 1 and n % (l * l) == 0
                                                for p, n in zip(good, orders) for l in (3, 5))
    routed = [factorize(gcd(n, p - 1)) for p, n in zip(good, orders)]
    routed = [f for f in routed if any(q >= 7 for q, _ in f)]
    assert solo.extra["structure_exact"] == len(routed) > 0
    assert solo.extra["sylow_sampled"] <= sum(map(len, routed))


# Curves whose discriminants exceed 2**63 in absolute value, so that a
# prime held as an int64 overflows in delta % p and in B % p.  Their counts
# at 50,000 and the SHA-256 digests of the files a checkpointed two-worker
# census writes there, with both CSVs, were recorded from the census's
# list-of-primes sieve.
BIG = [
    (CurveOverQ(10**12 + 11, -(10**13 + 17)),
     dict(cyclic=4177, bad=[2, 3], split={2: 872, 3: 85, 5: 5, 7: 2},
          resumed=(5647, 6935, {2: 1168, 3: 121, 5: 15, 7: 2}),
          terms={1: 5131, 2: 872, 3: 85, 6: 10, 5: 5, 10: 1, 15: 0, 30: 0},
          sha256=("ea331f4d40e6184380f705e5957eff3236aabf6efaf0c4f30d625352b9d119ed",
                  "0ff2ecb004d6e03b64c3fc0b3ea25b3c3fff3c60353549f3805ff417586dee61",
                  "af1aa6af836f65ef721d1a8bdaca8504e11d50ea6b6fddf35d3c8a34f2741095"))),
    (CurveOverQ(-(3 * 10**12 + 1), 2**64 + 13),
     dict(cyclic=4110, bad=[2, 11, 13, 31, 457, 1487], split={2: 929, 3: 109, 5: 6, 7: 0},
          resumed=(5551, 6935, {2: 1262, 3: 141, 5: 8, 7: 1}),
          terms={1: 5127, 2: 929, 3: 109, 6: 25, 5: 6, 10: 2, 15: 0, 30: 0},
          sha256=("ae6e679d608a44040951c1582b7d5d6ed018f2dc860de750cee3a08dcdf1c952",
                  "4138b253fb8a1ba5a6debef8a92c74db75634ee044926f3e9e97346f031f8cdc",
                  "a290b0250ea47a91a2c7b03a5d4e6394f5fa65a89743818c4af6a8099ed16992"))),
]


@pytest.mark.parametrize("E, want", BIG)
def test_big_coefficient_curves_on_the_stream(tmp_path, E, want):
    assert abs(E.delta_E) >= 1 << 63
    paths = [tmp_path / name for name in ("ck.jsonl", "pp.csv", "fr.csv")]
    ck, pp, fr = map(str, paths)
    r = run_census(E, 50_000, checkpoint=ck, workers=2, per_prime_csv=pp, fraction_csv=fr)
    assert (r.cyclic_count, r.total_primes, r.bad_primes, r.split_counts) == (
        want["cyclic"], 5133, want["bad"], want["split"])
    assert r.extra["chunks_computed"] == 2
    resumed = run_census(E, 70_000, checkpoint=ck, workers=2)
    assert (resumed.cyclic_count, resumed.total_primes, resumed.split_counts) == want["resumed"]
    assert (resumed.extra["chunks_reused"], resumed.extra["chunks_computed"]) == (1, 1)
    run_census(E, 50_000, checkpoint=ck)  # reuses both chunks, writes nothing
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths) == want["sha256"]
    assert {l: split_count(E, l, 50_000) for l in SPLIT_PRIMES} == want["split"]
    rep = inclusion_exclusion_check(E, 50_000, 30)
    assert rep.terms == want["terms"] and rep.consistent


def test_split_count():
    # l = 2 by the cubic against the census's discriminant; a prime l at
    # or above x has no p = 1 mod l to count, even one past int64
    assert split_count(E1, 2, 3000) == 142
    assert split_count(E1, 2, 5000) == run_census(E1, 5000).split_counts[2]
    for l in (2**61 - 1, 2**64 + 13):
        assert split_count(E1, l, 3000) == 0, l
    for l in (1, 4):
        with pytest.raises(ValueError):
            split_count(E1, l, 3000)


@functools.lru_cache(maxsize=None)
def _torsion_invariants(A: int, B: int, x: int) -> list[int]:
    """d at every good prime below x of y^2 = x^3 + Ax + B, by counting
    torsion points."""
    delta = CurveOverQ(A, B).delta_E
    return [brute_first_invariant(p, A % p, B % p) for p in prime_list(x) if delta % p]


# serre-ex1, serre-ex3 and serre-ex2; serre-ex2 has full 7-torsion at p = 1667
TORSION_CURVES = (FIVE_CURVES[0], FIVE_CURVES[2], FIVE_CURVES[1])


def test_split_count_matches_torsion_count():
    # every good prime below 2000 against a count of torsion points
    found = Counter()
    for A, B in TORSION_CURVES:
        E = CurveOverQ(A, B)
        d = _torsion_invariants(A, B, 2000)
        for l in (2, 3, 5, 7):
            count = split_count(E, l, 2000)
            assert count == sum(v % l == 0 for v in d), (A, B, l)
            found[l] += count
    assert all(found[l] for l in (2, 3, 5, 7)), found


def test_inclusion_exclusion_matches_brute_torsion():
    # each term, primes 7 and 11 included, and the direct count against a
    # count of torsion points at every good prime below 2000
    found = Counter()
    for A, B in TORSION_CURVES:
        E = CurveOverQ(A, B)
        d = _torsion_invariants(A, B, 2000)
        for n in (210, 2310):
            rep = inclusion_exclusion_check(E, 2000, n)
            assert sorted(rep.terms) == [m for m in range(1, n + 1) if n % m == 0]
            assert rep.terms == {m: sum(v % m == 0 for v in d) for m in rep.terms}, (A, B, n)
            assert rep.direct_count == sum(gcd(v, n) == 1 for v in d), (A, B, n)
            assert rep.consistent
            found.update(rep.terms)
    assert found[7] and found[6], found


def test_inclusion_exclusion_frozen():
    rep = inclusion_exclusion_check(E1, 3000, 6)
    assert rep.terms == {1: 428, 2: 142, 3: 6, 6: 3}
    assert rep.direct_count == 283
    assert rep.moebius_sum == 283
    assert rep.consistent
    # the terms themselves satisfy in/out counting
    assert rep.direct_count == rep.terms[1] - rep.terms[2] - rep.terms[3] + rep.terms[6]


def test_inclusion_exclusion_various_moduli():
    for n in (1, 2, 4, 10, 30):
        rep = inclusion_exclusion_check(E2, 1200, n)
        assert rep.consistent, n
        assert rep.n == n
    # n = 4 behaves like its radical
    assert (inclusion_exclusion_check(E2, 1200, 4).terms
            == inclusion_exclusion_check(E2, 1200, 2).terms)
    with pytest.raises(ValueError):
        inclusion_exclusion_check(E2, 1200, 0)

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import cyclored.census as census
import cyclored.cli as cli
import cyclored.curve as curve
from conftest import prime_list
from cyclored.density import DegreeProfile, build_density_report
from cyclored.modmath import factorize
from cyclored.registry import REGISTRY, CurveSpec, get_curve
from cyclored.utils import truncate_decimal, write_json_atomic, write_text_atomic

LABELS = ["serre-ex1", "serre-ex2", "serre-ex3", "serre-ex4", "serre-ex5"]


# ---------------------------------------------------------------------------
# utils


def test_truncate_decimal():
    assert truncate_decimal(1, 3, 4) == "0.3333"
    assert truncate_decimal(2, 3, 4) == "0.6666"  # truncation, never rounding
    assert truncate_decimal(440, 669, 4) == "0.6576"
    assert truncate_decimal(7, 1, 3) == "7.000"
    assert truncate_decimal(-1, 8, 3) == "-0.125"
    assert truncate_decimal(1, 10**30, 4) == "0.0000"


def test_atomic_writers(tmp_path, capsys):
    path = tmp_path / "out.json"
    write_json_atomic(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2], "b": 1}
    assert text.index('"a"') < text.index('"b"')  # keys sorted
    write_text_atomic(str(path), "replaced")
    assert path.read_text() == "replaced"
    assert list(tmp_path.iterdir()) == [path]  # no temp droppings
    with pytest.raises(OSError):
        write_text_atomic(str(tmp_path / "missing" / "out.txt"), "x")
    # onto a directory the temp file is made and written, the rename
    # fails, and the temp file is removed before the error propagates
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_text_atomic(str(target), "x")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "taken"]
    assert list(target.iterdir()) == []
    code, out, err = run_cli(capsys, "density", "--label", "serre-ex1",
                             "--output", str(target))
    assert code == 4
    assert "report written" not in out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "taken"]


# ---------------------------------------------------------------------------
# registry


def test_registry_contents():
    assert sorted(REGISTRY) == LABELS
    for label in LABELS:
        spec = get_curve(label)
        assert spec.label == label
        assert spec.curve.delta_E != 0
        assert spec.expected_total == 78498
        assert spec.expected_cyclic_count is not None
        assert len(spec.expected_fraction.split(".")[1]) == 4
        assert isinstance(spec.profile, DegreeProfile)


def test_registry_unknown_label():
    with pytest.raises(KeyError) as err:
        get_curve("serre-ex9")
    assert "serre-ex1" in str(err.value)


def test_registry_profiles_build_reports():
    for label in LABELS:
        rep = build_density_report(get_curve(label).profile, L=100)
        assert rep.vanishing == "positive", label
        assert rep.delta.lo > 0


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_census_label(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "census", "--label", "serre-ex1", "--limit", "3000",
        "--output", str(out_path))
    assert code == 0
    assert "cyclic" in out
    assert "report written" in out
    doc = json.loads(out_path.read_text())
    assert doc["limit"] == 3000
    assert doc["label"] == "serre-ex1"
    assert set(doc["provenance"]) == {"version", "method"}
    # re-serializing the parsed report reproduces the file byte for byte
    second = tmp_path / "again.json"
    write_json_atomic(str(second), doc)
    assert second.read_bytes() == out_path.read_bytes()


def test_cli_census_explicit_coefficients(capsys):
    # the last two curves have a prime where one giant set is blind to
    # every point on the curve or on its twist (test_curve.BLIND)
    for a, b, limit in (("-3", "1", "1000"), ("-512007", "-339773", "4000"),
                        ("745260", "-980378", "5000")):
        code, out, err = run_cli(capsys, "census", "--a", a, "--b", b, "--limit", limit)
        assert (code, err) == (0, ""), (a, b, err)
        assert f"curve ({a}, {b}) limit {limit}:" in out


def test_cli_census_stats_leave_the_checkpoint_alone(capsys, tmp_path):
    # --stats prints the run counters as one JSON line on stderr and
    # writes the checkpoint byte for byte as a run without it does.
    plain, counted = tmp_path / "plain.jsonl", tmp_path / "counted.jsonl"
    argv = ["census", "--label", "serre-ex3", "--limit", "3000", "--checkpoint"]
    code, out, err = run_cli(capsys, *argv, str(plain))
    assert code == 0 and err == ""
    code, out_stats, err = run_cli(capsys, *argv, str(counted), "--stats")
    assert code == 0 and out_stats.rsplit(",", 1)[0] == out.rsplit(",", 1)[0]
    extra = json.loads(err)
    assert extra["frobenius_lanes"] > 0 and extra["structure_exact"] > 0
    assert extra["chunks_computed"] == 1 and extra["chunks_reused"] == 0
    assert counted.read_bytes() == plain.read_bytes()


def test_cli_census_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "census", "--limit", "500")
    assert code == 2 and "need either" in err
    code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--a", "1", "--limit", "500")
    assert code == 2 and "conflicts" in err
    code, _, err = run_cli(capsys, "census", "--a", "0", "--b", "0",
                           "--limit", "500")
    assert code == 2
    code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--limit", "1")
    assert code == 2


def test_cli_census_io_errors(capsys, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir.json"
    code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--limit", "500", "--output", str(missing_dir))
    assert code == 4

    ck = tmp_path / "ck.jsonl"
    ck.write_text("garbage\n")
    code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--limit", "500", "--checkpoint", str(ck))
    assert code == 4 and "checkpoint" in err

    # a chunk record whose fields are present but of the wrong type
    header = {"kind": "header", "version": 1, "a": -3, "b": 1}
    for bad, split in ((5, {}), ([], [])):
        chunk = {"kind": "chunk", "first": 2, "last": 3, "count": 2, "good": 0,
                 "cyclic": 0, "bad": bad, "split": split}
        ck.write_text(json.dumps(header) + "\n" + json.dumps(chunk) + "\n")
        code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                               "--limit", "500", "--checkpoint", str(ck))
        assert code == 4 and "checkpoint" in err and "Traceback" not in err


def test_cli_census_expected_value_gate(capsys, monkeypatch):
    # expectations only apply at the reference limit; fake a tiny one
    spec = REGISTRY["serre-ex1"]
    monkeypatch.setattr(cli, "REFERENCE_LIMIT", 3000)
    good = CurveSpec(label=spec.label, A=spec.A, B=spec.B, profile=spec.profile,
                     expected_cyclic_count=282, expected_fraction="0.6558",
                     expected_total=430)
    monkeypatch.setitem(REGISTRY, "serre-ex1", good)
    code, out, _ = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--limit", "3000")
    assert code == 0
    assert "expected values confirmed" in out

    bad = CurveSpec(label=spec.label, A=spec.A, B=spec.B, profile=spec.profile,
                    expected_cyclic_count=9999, expected_fraction="0.6558",
                    expected_total=430)
    monkeypatch.setitem(REGISTRY, "serre-ex1", bad)
    code, out, err = run_cli(capsys, "census", "--label", "serre-ex1",
                             "--limit", "3000")
    assert code == 3
    assert "MISMATCH" in err

    # away from the reference limit the expectations are ignored
    code, _, err = run_cli(capsys, "census", "--label", "serre-ex1",
                           "--limit", "2000")
    assert code == 0


def test_cli_density_label(capsys):
    code, out, _ = run_cli(capsys, "density", "--label", "serre-ex3",
                           "--truncation", "1000")
    assert code == 0
    assert "delta in [" in out
    assert "vanishing: positive" in out
    assert "alpha = 615596/615595" in out


def test_cli_density_profile_file(tmp_path, capsys):
    prof_path = tmp_path / "prof.json"
    prof_path.write_text(json.dumps(
        {"degrees": {"7": 2, "11": 2, "13": 2}, "charsum": [7, 11, 13]}))
    out_path = tmp_path / "density.json"
    code, out, _ = run_cli(capsys, "density", "--profile", str(prof_path),
                           "--truncation", "100", "--output", str(out_path))
    assert code == 0
    assert "vanishing: non_trivial" in out
    doc = json.loads(out_path.read_text())
    assert doc["alpha"]["exact"] == "0/1"
    assert doc["delta"]["lo_exact"] == "0/1"
    assert doc["vanishing"] == "non_trivial"


def test_cli_density_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "density", "--profile", str(bad))
    assert code == 2
    code, _, err = run_cli(capsys, "density",
                           "--profile", str(tmp_path / "ghost.json"))
    assert code == 4
    code, _, err = run_cli(capsys, "density", "--label", "serre-ex1",
                           "--profile", str(bad))
    assert code == 2 and "choose one" in err
    code, _, err = run_cli(capsys, "density", "--label", "serre-ex1",
                           "--truncation", "1")
    assert code == 2


def test_cli_density_annotated_prime_near_2_32(tmp_path, capsys):
    # an annotated prime above the truncation enters by its exact ratio,
    # with no sieve up to it, and the report records the truncation asked
    # for; primes on both sides of 2**32 and 2**64 pass, as does the
    # largest prime below 318665857834031151167461, where is_prime stops
    for prime in ("4294967291", "4294967311", "18446744073709551557",
                  "18446744073709551629", "318665857834031151167441"):
        prof_path = tmp_path / "prof.json"
        prof_path.write_text(json.dumps({"degrees": {prime: 2}}))
        out_path = tmp_path / "density.json"
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "density", "--profile", str(prof_path),
                               "--truncation", "100", "--output", str(out_path))
        assert code == 0 and "vanishing: positive" in out, prime
        assert time.monotonic() - start < 10
        doc = json.loads(out_path.read_text())
        assert doc["truncation"] == doc["provenance"]["truncation"] == 100
        assert doc["profile"]["degrees"] == {prime: 2}


def test_cli_density_output_at_default_truncation(tmp_path, capsys):
    for label in LABELS:
        out_path = tmp_path / f"{label}.json"
        code, _, _ = run_cli(capsys, "density", "--label", label,
                             "--output", str(out_path))
        assert code == 0, label
        doc = json.loads(out_path.read_text())
        assert doc["truncation"] == 10**5
        assert doc["provenance"]["truncation"] == 10**5
        for part in ("a_inf", "naive", "delta"):
            iv = doc[part]
            assert len(iv["lo_exact"]) < 200 and len(iv["hi_exact"]) < 200
            assert Fraction(iv["lo_decimal"]) <= Fraction(iv["hi_decimal"])
        for part in ("charsum_factor", "superfluous_factor", "alpha", "c"):
            assert len(doc[part]["exact"]) < 200


@pytest.mark.parametrize("doc, reason", [
    ({"degrees": {"2": 1, "3": 2}, "charsum": [2, 3]}, "degree 1 at 2"),
    ({"degrees": {"11": 1}, "superfluous": [11]}, "degree 1 at superfluous prime 11"),
    ([{"degrees": {"2": 3}}], "a profile must be a JSON object"),
    ({"degrees": [[2, 3]]}, "degrees must be a JSON object"),
    # at psi_12, the least strong pseudoprime to is_prime's twelve witnesses
    ({"degrees": {"318665857834031151167461": 2}}, "decided only below 318665857834031151167461"),
    ({"degrees": {str(l): 10**2000 for l in (2, 3, 5)}}, "integer string conversion"),
    ({"degrees": {"5": 3.9}}, "degree values must be integers"),
    ({"degrees": {"5": True}}, "degree values must be integers"),
    ({"degrees": {"5": "7"}}, "degree values must be integers"),
    ({"degrees": {"1_1": 2}}, "degree keys must be decimal integers"),
    ({"degrees": {" 2": 3}}, "degree keys must be decimal integers"),
    ({"superfluous": [11.5]}, "superfluous primes must be integers"),
    ({"charsum": ["2", "3"]}, "charsum primes must be integers"),
    ({"overrides": {"6": 2.0}}, "override values must be integers"),
    ({"degrees": {"2": 6, "3": 48}, "overrides": {"6": 144}}, "overrides feed delta_partial only"),
    ({"charsum": [2, 318665857834031151167461]}, "decided only below 318665857834031151167461"),
])
def test_cli_density_profile_errors(tmp_path, capsys, doc, reason):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "density", "--profile", str(path),
                             "--truncation", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: profile: ") and err.count("\n") == 1
    assert reason in err


_EDGE_KEYS = ["2", "3", "5", "7", "11", "13", "19", "997", "1", "0", "-3", "4",
              "x", "4294967311", str(10**30), "1e3", "10000019", "4294967291"]
_EDGE_VALUES = [1, 2, 3, 4, 48, 123119, 0, -1, 10**30, 10**1500, "7", "x", None,
                1.5, True, [], {}]
_EDGE_TRUNCATIONS = ["-5", "0", "1", "2", "3", "97", "1000", "4294967297",
                     "5000000000", str(10**30), "abc", "1e3"]


def _edge_profile(rng):
    """A profile document built from valid and invalid pieces."""
    if rng.random() < 0.1:
        return rng.choice([[], [1, 2], 5, "profile", None, [[[[]]]]])
    doc = {}
    if rng.random() < 0.8:
        if rng.random() < 0.1:
            doc["degrees"] = rng.choice([[], "2", 5])
        else:
            doc["degrees"] = {rng.choice(_EDGE_KEYS): rng.choice(_EDGE_VALUES)
                              for _ in range(rng.randrange(4))}
    for role in ("superfluous", "charsum"):
        if rng.random() < 0.4:
            picks = [int(k) for k in rng.sample(_EDGE_KEYS[:10], rng.randrange(4))]
            doc[role] = rng.choice([picks, picks, "11", 7, [None], {"11": 2}])
    if rng.random() < 0.2:
        doc["overrides"] = rng.choice([{"6": 1}, {"12": 5}, {str(10**30): 2},
                                       {"6": 10**30}, [6]])
    return doc


def _sweep_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects malformed integers
        code = exc.code
    except Exception as exc:  # an uncaught exception ends in a traceback
        pytest.fail(f"{argv}: {exc!r}")
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err, argv
    if code in (2, 4):
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    return code


def test_cli_density_and_constants_edge_sweep(tmp_path, capsys):
    # Accepted truncations stay small, so no case sieves a large bound.
    rng = random.Random(2718)
    codes = []
    for i in range(150):
        doc = _edge_profile(rng)
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(doc))
        argv = ["density", "--profile", str(path),
                "--truncation", rng.choice(_EDGE_TRUNCATIONS)]
        if rng.random() < 0.3:
            argv += ["--output", str(tmp_path / f"out{i}.json")]
        codes.append(_sweep_cli(argv, capsys))
        if isinstance(doc, dict):  # the same document at an accepted truncation
            codes.append(_sweep_cli(["density", "--profile", str(path),
                                     "--truncation", "100"], capsys))
    (tmp_path / "broken.json").write_text("{oops")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for name in ("broken.json", "deep.json", "missing.json", "."):
        codes.append(_sweep_cli(["density", "--profile", str(tmp_path / name)], capsys))
    for trunc in _EDGE_TRUNCATIONS:
        codes.append(_sweep_cli(["constants", "--truncation", trunc], capsys))
    # the sweep reaches both the accepted and the rejected paths
    assert codes.count(0) >= 20 and codes.count(2) >= 20 and 4 in codes


_EDGE_COEFFS = [0, 1, -1, 2, -3, 4, 2**62 - 1, 2**62, -(2**62), 2**63 - 1, 2**64,
                2**200, -(2**200)]
_EDGE_LIMITS = ["-1", "0", "1", "2", "3", "1000", "3000", "4294967297", str(10**30)]
_PSI_12 = 318665857834031151167461  # where is_prime stops deciding
_EDGE_ELLS = ["-3", "0", "1", "2", "3", "4", "5", "7", "13", str(2**61 - 1), str(_PSI_12),
              str(10**30)]
_EDGE_BOUNDS = ["-1", "0", "1", "2", "3", "100", "1000", "4294967297"]
_EDGE_MODULI = [[3, 5, 7], [4], [2, 2], [-3], [0], [3.5], [2**61 - 1], [_PSI_12], [10**30],
                [None], ["3"], 3, None, [5.0], [True]]
_EDGE_MATRICES = [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [2, 0, 0, 1], [-1, 0, 0, 1],
                  [1, 2, 2, 4], [2.9, 0, 0, 1.5], [1, True, 0, 1]]
_EDGE_GENERATORS = [[], [[[1, 1, 0, 1]]], [[[0, 1, 1, 0]], [[1, 1, 0, 1]]],
                    [[[1, 1, 0, 1], [0, 1, 1, 0]]], [[[1, 2, 2, 4]]], [[[1, 1, 0]]],
                    [[["a", 1, 0, 1]]], [[[10**30, 1, 0, 1]]], [[5]], [5], 5, None]
_SMALL_MODULI = [[2], [3], [2, 3], [5], []]
# JSON texts; every cap but the last keeps a closure short on any moduli
_EDGE_CAPS = ["1", "2", "48", "300", "0", "-1", "1.5", "true", "null", '"5"', "1e400",
              str(10**30)]


def _edge_group_text(rng):
    """A group description file built from valid and invalid pieces."""
    if rng.random() < 0.1:
        return rng.choice(["{oops", "", "[" * 100_000 + "]" * 100_000, "[1, 2]", "5",
                           "null", '"group"'])
    doc = {}
    kind = rng.choice(["closure", "closure", "full_product", "norm_one", "index2",
                       "banana", None, 5])
    if kind is not None:
        doc["construction"] = kind
    if rng.random() < 0.9:
        doc["moduli"] = rng.choice(_SMALL_MODULI * 3 + _EDGE_MODULI)
    if rng.random() < 0.5 and isinstance(doc.get("moduli"), list):
        doc["generators"] = [[rng.choice(_EDGE_MATRICES) for _ in doc["moduli"]]
                             for _ in range(rng.randrange(4))]
    elif rng.random() < 0.8:
        doc["generators"] = rng.choice(_EDGE_GENERATORS)
    if kind == "norm_one":
        doc["involutions"] = rng.choice([[[2, 0, 0, 2], [4, 0, 0, 4], [6, 0, 0, 6]],
                                         [[2, 0, 0, 2], [4, 0, 0, 4], [1, 0, 0, 1]],
                                         [[2, 0, 0, 2]], 5, [[0, 0, 0, 0]] * 3,
                                         [[2.0, 0, 0, 2], [4, 0, 0, 4], [6, 0, 0, 6]]])
    if kind == "index2":
        doc["factor_sizes"] = rng.choice([[6, 13200], [2, 2], [6], [6, 9], 5, [0, 2],
                                          [6.5, 13200], [True, True]])
        doc["kernel_sizes"] = rng.choice([[3, 6600], [1, 1], [3], [3, 3], None, [1.0, 1]])
    text = json.dumps(doc)
    caps = _EDGE_CAPS[:4] * 2 + _EDGE_CAPS[4:]  # accepted caps twice as often
    if doc.get("moduli") in _SMALL_MODULI:
        cap = rng.choice(caps + [None])  # None: the default cap
    else:
        cap = rng.choice(caps[:-1])
    if cap is not None:
        text = text[:-1] + (", " if doc else "") + f'"cap": {cap}}}'
    return text


def test_cli_census_entangle_galois_edge_sweep(tmp_path, capsys):
    # Every accepted census stays at a limit of 3000 or less, every
    # accepted certification at a sample bound of 1000 or less.
    rng = random.Random(1729)
    bad_ck = tmp_path / "bad.jsonl"
    bad_ck.write_text("garbage\n")
    paths = [str(tmp_path), str(bad_ck)]
    codes = []
    for i in range(100):
        a, b = rng.choice(_EDGE_COEFFS), rng.choice(_EDGE_COEFFS)
        argv = ["census", "--a", str(a), "--b", str(b)]
        if rng.random() < 0.15:  # a label beside both, one or none of --a, --b
            argv[1:1 + 2 * rng.randrange(3)] = ["--label", "serre-ex1"]
        argv += ["--limit", rng.choice(_EDGE_LIMITS),
                 "--workers", rng.choice(["0", "-1", "1", "1", "2"])]
        if rng.random() < 0.4:
            argv += ["--checkpoint", rng.choice(paths + [str(tmp_path / f"ck{i}.jsonl")])]
        if rng.random() < 0.3:
            argv += [rng.choice(["--per-prime-csv", "--fraction-csv"]),
                     rng.choice(paths + [str(tmp_path / f"rows{i}.csv")])]
        codes.append(_sweep_cli(argv, capsys))
    for i in range(80):
        a, b = rng.choice(_EDGE_COEFFS), rng.choice(_EDGE_COEFFS)
        argv = ["galois", "--a", str(a), "--b", str(b)]
        if rng.random() < 0.6:
            argv += ["--l", rng.choice(_EDGE_ELLS), "--sample-bound", rng.choice(_EDGE_BOUNDS)]
        codes.append(_sweep_cli(argv, capsys))
    for i in range(200):
        path = tmp_path / f"g{i}.json"
        path.write_text(_edge_group_text(rng))
        codes.append(_sweep_cli(["entangle", str(path)], capsys))
    for name in ("missing.json", "."):
        codes.append(_sweep_cli(["entangle", str(tmp_path / name)], capsys))
    path = tmp_path / "inf.json"
    path.write_text('{"moduli": [3], "generators": [[[1, 1, 0, 1]]], "cap": 1e400}')
    assert _sweep_cli(["entangle", str(path)], capsys) == 2
    # integers of more than 4300 digits: in a checkpoint header or record,
    # in a group file, and as an index-2 group order to print
    huge = "1" * 4400
    header = '{"a": -3, "b": 1, "kind": "header", "version": 1}'
    for lines in ([header.replace("-3", huge)], [header, '{"kind": "chunk", "first": %s}' % huge]):
        bad_ck.write_text("\n".join(lines) + "\n")
        argv = ["census", "--a", "-3", "--b", "1", "--limit", "1000", "--checkpoint", str(bad_ck)]
        assert _sweep_cli(argv, capsys) == 4
    path.write_text('{"construction": "full_product", "moduli": [%s]}' % huge)
    assert _sweep_cli(["entangle", str(path)], capsys) == 2
    path.write_text(json.dumps({"construction": "index2", "factor_sizes": [2 * 10**70] * 64,
                                "kernel_sizes": [10**70] * 64}))
    assert _sweep_cli(["entangle", str(path)], capsys) == 2
    # numbers that are not JSON integers are refused, not truncated
    for doc in ({"moduli": [3.5]}, {"moduli": [5], "generators": [[[2.9, 0, 0, 1.5]]]},
                {"construction": "full_product", "moduli": [True]},
                {"construction": "index2", "factor_sizes": [6.0, 4], "kernel_sizes": [3, 2]}):
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "entangle", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1), doc
        assert err.startswith("error: group description:"), doc
    # the sweep reaches both the accepted and the rejected paths
    assert codes.count(0) >= 30 and codes.count(2) >= 60 and codes.count(4) >= 5


def test_cli_entangle(tmp_path, capsys):
    doc = {"construction": "full_product", "moduli": [2, 3]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "entangle", str(path))
    assert code == 0
    assert "order 288" in out
    assert "delta 235/288" in out

    idx = tmp_path / "idx.json"
    idx.write_text(json.dumps({"construction": "index2",
                               "factor_sizes": [2, 2], "kernel_sizes": [1, 1]}))
    code, out, _ = run_cli(capsys, "entangle", str(idx))
    assert code == 0
    assert "delta 1/2" in out

    code, _, err = run_cli(capsys, "entangle", str(tmp_path / "none.json"))
    assert code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "entangle", str(bad))
    assert code == 2
    weird = tmp_path / "weird.json"
    weird.write_text(json.dumps({"construction": "banana", "moduli": [2]}))
    code, _, err = run_cli(capsys, "entangle", str(weird))
    assert code == 2
    # a closure over psi_12, which passes all twelve Miller-Rabin witnesses
    weird.write_text(json.dumps({"moduli": [318665857834031151167461],
                                 "generators": [[[-1, 0, 0, 1]]]}))
    code, out, err = run_cli(capsys, "entangle", str(weird))
    assert code == 2 and out == ""
    assert err.startswith("error: group description: primality is decided only below ")
    assert err.count("\n") == 1
    # a generator with more matrices than moduli is refused, not truncated
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"construction": "closure", "moduli": [3],
                                 "generators": [[[1, 1, 0, 1], [0, 1, 1, 0]]]}))
    code, out, err = run_cli(capsys, "entangle", str(extra))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_entangle_index2_many_factors(tmp_path, capsys):
    # 64 factors: the count is a closed form, not a walk over 2**64 sign patterns
    path = tmp_path / "idx.json"
    path.write_text(json.dumps({"construction": "index2",
                                "factor_sizes": [4] * 64, "kernel_sizes": [2] * 64}))
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "entangle", str(path))
    assert time.monotonic() - start < 1
    assert code == 0
    assert f"order {4**64 // 2}, everywhere-nontrivial {(3**64 + 1) // 2}," in out


def test_cli_galois(capsys):
    code, out, _ = run_cli(capsys, "galois", "--label", "serre-ex4")
    assert code == 0
    assert "two-division degree: 6" in out

    code, out, _ = run_cli(capsys, "galois", "--label", "serre-ex4", "--l", "7")
    assert code == 0
    assert "certified (heuristic)" in out

    code, out, _ = run_cli(capsys, "galois", "--label", "serre-ex5", "--l", "5",
                           "--sample-bound", "3000")
    assert code == 0
    assert "inconclusive" in out

    code, _, err = run_cli(capsys, "galois", "--label", "serre-ex4", "--l", "2")
    assert code == 2

    # psi_12 = 399165290221 * 798330580441 passes all twelve Miller-Rabin
    # witnesses; the certification is refused, not run
    code, out, err = run_cli(capsys, "galois", "--a", "1", "--b", "1",
                             "--l", "318665857834031151167461", "--sample-bound", "2000")
    assert code == 2 and "mod-" not in out
    assert err == "error: primality is decided only below 318665857834031151167461, " \
                  "not for 318665857834031151167461\n"

    # |B| >= 2^62: x^3 + x + 2^62 has no rational root and a negative
    # discriminant; (x - r)(x - s)(x + r + s) splits
    r, s = 2**70 + 3, -(2**65)
    for a, b, want in ((1, 2**62, 6), (r * s - (r + s) ** 2, r * s * (r + s), 1)):
        code, out, _ = run_cli(capsys, "galois", "--a", str(a), "--b", str(b))
        assert code == 0 and f"two-division degree: {want}" in out


def test_cli_constants(capsys):
    code, out, _ = run_cli(capsys, "constants", "--truncation", "100")
    assert code == 0
    assert "lo    0.813" in out
    assert "hi    0.813" in out
    code, _, _ = run_cli(capsys, "constants", "--truncation", "1")
    assert code == 2


def test_interval_widths_print_40_digits(capsys, monkeypatch):
    # A width of 10^-25 would print as twenty zeros with 20 digits.
    from cyclored.density import Interval, _interval_json

    lo = Fraction(1, 3)
    iv = Interval(lo, lo + Fraction(1, 10**25))
    width = "0." + "0" * 24 + "1" + "0" * 15
    assert _interval_json(iv)["width_decimal"] == width
    monkeypatch.setattr(cli, "artin_constant", lambda L: iv)
    code, out, _ = run_cli(capsys, "constants", "--truncation", "100")
    assert code == 0 and f"  width {width}\n" in out


@pytest.mark.parametrize("exc", [curve.IterationCap, curve.BadWitness])
def test_cli_census_structure_errors_exit_2(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc("forced")

    # The census sends group_structure the good primes whose gcd(n, p - 1)
    # has a prime factor of 7 or more: 16 of them on this curve below 3000.
    E = curve.CurveOverQ(-3, 1)
    good = [p for p in prime_list(3000) if E.delta_E % p]
    orders = curve.group_orders(E.A, E.B, good)
    assert sum(any(q >= 7 for q, _ in factorize(gcd(n, p - 1)))
               for p, n in zip(good, orders)) == 16
    monkeypatch.setattr(census, "group_structure", fail)
    code, out, err = run_cli(capsys, "census", "--a", "-3", "--b", "1", "--limit", "3000")
    assert code == 2 and out == ""
    assert err == "error: group structure: forced\n"


def test_cli_census_interrupt_exits_130(tmp_path):
    # Ctrl-C in a terminal signals the whole foreground process group: the
    # census and its pool workers.
    ck = tmp_path / "ck.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclored.cli", "census", "--label", "serre-ex3",
         "--limit", "1000000", "--workers", "2", "--checkpoint", str(ck)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not (ck.exists() and len(ck.read_text().splitlines()) >= 2):  # header, chunk
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err == "error: interrupted\n" and out == ""
    spec = get_curve("serre-ex3")
    assert census._load_checkpoint(str(ck), spec.A, spec.B)


def _capped_cli(*argv: str) -> subprocess.Popen:
    """cyclored.cli.main(argv) in a child that caps its own address space
    at 1.5 GiB after its imports."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import resource, sys\n"
            "import cyclored.cli\n"
            "cap = 3 << 29\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "sys.exit(cyclored.cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)


def test_cli_out_of_memory_exits_2(tmp_path):
    # GL2(F2) x GL2(F3) x GL2(F5) x GL2(F7) has 278,691,840 elements: 2.1 GiB
    # of int64 codes, which a cap of 10**9 elements allows and the
    # address-space cap does not.
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"construction": "full_product", "moduli": [2, 3, 5, 7],
                                "cap": 10**9}))
    proc = _capped_cli("entangle", str(path))
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # nothing to do once the child has exited
        proc.wait()
    assert proc.returncode == 2, err
    assert err == "error: entangle: out of memory\n" and out == ""


def test_cli_census_to_2_32_checkpoints_then_exits_130(tmp_path):
    # The sieve streams its primes and the pool's input is lazy, so a census
    # up to 2**32 runs under the same cap: it writes its first chunks and
    # stops at Ctrl-C.
    ck = tmp_path / "ck.jsonl"
    proc = _capped_cli("census", "--label", "serre-ex1", "--limit", "4294967296",
                       "--workers", "2", "--checkpoint", str(ck))
    try:
        deadline = time.monotonic() + 60
        while not (ck.exists() and len(ck.read_text().splitlines()) >= 4):  # header, chunks
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 130
    assert err == "error: interrupted\n" and out == ""
    spec = get_curve("serre-ex1")
    records = census._load_checkpoint(str(ck), spec.A, spec.B)
    assert (2, 38873, 4096) in records


@pytest.mark.parametrize("argv, option", [
    (("census", "--label", "serre-ex1", "--limit", "100", "--workers", "0"), "--workers"),
    (("census", "--a", "1", "--b", "3", "--limit", "5000000000"), "--limit"),
    (("galois", "--a", "1", "--b", "3", "--l", "5", "--sample-bound", "5000000000"),
     "--sample-bound"),
    (("galois", "--a", "1", "--b", "3", "--l", "5", "--sample-bound", "1"), "--sample-bound"),
    (("constants", "--truncation", "5000000000"), "--truncation"),
    (("density", "--truncation", "5000000000"), "--truncation"),
])
def test_cli_rejects_out_of_range_options(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2

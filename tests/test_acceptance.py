"""Acceptance gate: one test per shipping criterion, each printing a
single PASS line with the measured numbers (run pytest with -s or -v
plus -rP to see them).  Tolerances are stated inline; everything not
explicitly a tolerance is an exact equality."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as F
from math import prod

import pytest

from conftest import brute_structure, prime_list
from cyclored.census import inclusion_exclusion_check, run_census, split_count
from cyclored.curve import CurveOverQ, group_structure, reduce
from cyclored.density import (
    DegreeProfile,
    Interval,
    artin_constant,
    build_density_report,
    classify_vanishing,
    delta_partial,
    gl2_order,
)
from cyclored.entangle import (
    MatrixTuple,
    delta_exact,
    full_product_group,
    generate_closure,
    index2_character_subgroup,
    norm_one_construction,
)
from cyclored.modmath import divisors
from cyclored.registry import REFERENCE_LIMIT, REGISTRY

LABELS = ["serre-ex1", "serre-ex2", "serre-ex3", "serre-ex4", "serre-ex5"]

PRINTED_DENSITIES = {
    "serre-ex1": ("0.6510015", "0.6510015"),
    "serre-ex2": ("0.48825114", "0.4882881"),
    "serre-ex3": ("0.4155329", "0.4155335"),
    "serre-ex4": (None, None),  # naive is the maximal constant itself
    "serre-ex5": ("0.6115881", "0.6115973"),
}


@pytest.fixture(scope="module")
def full_census():
    """One full-limit census per registry curve, shared by criteria 1 and 7."""
    out = {}
    for label in LABELS:
        spec = REGISTRY[label]
        t0 = time.monotonic()
        out[label] = (run_census(spec.curve, REFERENCE_LIMIT, label=label),
                      time.monotonic() - t0)
    return out


def test_criterion_1_census_table(full_census):
    # exact cyclic counts and truncated 4-digit fractions at a million;
    # runtime budget 60 s per curve
    for label in LABELS:
        spec = REGISTRY[label]
        report, elapsed = full_census[label]
        assert report.total_primes == spec.expected_total == 78498, label
        assert report.cyclic_count == spec.expected_cyclic_count, label
        assert report.cyclic_fraction_display == spec.expected_fraction, label
        assert elapsed < 60, (label, elapsed)
    rows = ", ".join(
        f"{lb.split('-')[1]}={full_census[lb][0].cyclic_count}"
        f"({full_census[lb][0].cyclic_fraction_display},{full_census[lb][1]:.0f}s)"
        for lb in LABELS
    )
    print(f"ACCEPTANCE 1 census table: PASS [{rows}]")


def test_criterion_2_maximal_constant():
    t0 = time.monotonic()
    iv = artin_constant(10**5)
    elapsed = time.monotonic() - t0
    assert iv.width < F(1, 10**9)
    # the printed 7-digit constant: both endpoints render as 0.8137519
    lo, hi = iv.decimal_bounds(7)
    assert lo == hi == "0.8137519"
    # sanity: a deeper truncation stays inside this enclosure
    assert iv.encloses(artin_constant(2 * 10**5))
    assert elapsed < 5
    print(
        f"ACCEPTANCE 2 maximal constant: PASS "
        f"[width {float(iv.width):.2e}, 7-digit {lo}, {elapsed:.2f}s]"
    )


def test_criterion_3_density_pipeline():
    reports = {lb: build_density_report(REGISTRY[lb].profile, L=10**5) for lb in LABELS}

    def close(iv: Interval, printed: str) -> bool:
        digits = len(printed.split(".")[1])
        return abs(iv.mid - F(printed)) <= F(1, 10**digits)

    for label, (naive_s, corrected_s) in PRINTED_DENSITIES.items():
        rep = reports[label]
        if naive_s is None:
            assert rep.naive == rep.a_inf  # no degree annotations at all
            assert rep.alpha == 1 - F(1, 5 * 26207 * 123119)
            assert abs(rep.alpha - F("0.999999999938")) < F(1, 10**12)
            continue
        assert close(rep.naive, naive_s), (label, "naive")
        assert close(rep.delta, corrected_s), (label, "corrected")
    assert reports["serre-ex1"].alpha == 1
    assert reports["serre-ex3"].alpha == F(615596, 615595)
    assert reports["serre-ex2"].superfluous_factor == F(13200, 13199)
    assert reports["serre-ex5"].alpha == 1 + F(1, 5 * 13199)
    print(
        "ACCEPTANCE 3 density pipeline: PASS "
        "[5 profiles at printed precision, exact correction rationals]"
    )


def test_criterion_4a_structure_vs_enumeration():
    mismatches = 0
    checked = 0
    for label in LABELS:
        E = REGISTRY[label].curve
        for p in prime_list(199):
            if E.delta_E % p == 0:
                continue
            st = group_structure(reduce(E, p))
            if (st.n, st.d, st.e) != brute_structure(p, E.A % p, E.B % p):
                mismatches += 1
            checked += 1
    assert mismatches == 0
    print(f"ACCEPTANCE 4a structure oracle: PASS [{checked} good primes p < 200, 0 mismatches]")


def test_criterion_4b_full_product_density():
    # every set of distinct primes whose full product group has order <= 1e7
    cap = 10**7
    base = [l for l in prime_list(100) if gl2_order(l) <= cap]
    sets: list[tuple[int, ...]] = []

    def extend(prefix, rest, order):
        for i, l in enumerate(rest):
            o = order * gl2_order(l)
            if o <= cap:
                sets.append(tuple(prefix + [l]))
                extend(prefix + [l], rest[i + 1:], o)

    extend([], base, 1)
    assert len(sets) == 39  # 16 singletons (up to 53), 18 pairs, 5 triples
    for moduli in sets:
        G = full_product_group(moduli, cap=cap)
        want = prod(F(gl2_order(l) - 1, gl2_order(l)) for l in moduli)
        assert delta_exact(G) == want, moduli
        assert G.order == prod(gl2_order(l) for l in moduli)
    print(f"ACCEPTANCE 4b full products: PASS [{len(sets)} modulus sets, exact]")


def test_criterion_4c_index2_randomized():
    def brute(sizes, kernels):
        hits = total = 0
        for tup in itertools.product(*(range(n) for n in sizes)):
            sign = 1
            for x, k in zip(tup, kernels):
                sign *= 1 if x < k else -1
            if sign == 1:
                total += 1
                hits += all(x != 0 for x in tup)
        return hits, total

    rng = random.Random(41)
    done = 0
    while done < 24:
        r = rng.randrange(2, 6)
        sizes = tuple(2 * rng.randrange(1, 8) for _ in range(r))
        if prod(sizes) > 10**4:
            continue
        kernels = tuple(n // 2 for n in sizes)
        hits, total = brute(sizes, kernels)
        model, delta = index2_character_subgroup(sizes, kernels)
        assert (model.nontrivial_count, model.group_order) == (hits, total), sizes
        assert delta == F(hits, total)
        done += 1
    print(f"ACCEPTANCE 4c index-2 kernels: PASS [{done} randomized configurations, exact]")


def test_criterion_4d_inclusion_exclusion():
    E = REGISTRY["serre-ex1"].curve
    for n in (1, 2, 6, 30):
        rep = inclusion_exclusion_check(E, 10**4, n)
        assert rep.consistent, (n, rep.direct_count, rep.moebius_sum)
    print("ACCEPTANCE 4d inclusion-exclusion at 1e4: PASS [n in {1, 2, 6, 30}, exact]")


def test_criterion_5_vanishing():
    moduli = (3, 5, 7)
    invs = [(l - 1, 0, 0, l - 1) for l in moduli]
    emb = [
        MatrixTuple(moduli, tuple(invs[i] if j == i else (1, 0, 0, 1) for j in range(3)))
        for i in range(3)
    ]
    ambient = generate_closure(moduli, emb)
    H = norm_one_construction(invs, ambient)
    assert delta_exact(H) == 0
    # each component factor is 1/2, so the independence model predicts 1/8
    assert delta_exact(ambient) == F(1, 8)

    profile = DegreeProfile(degrees={3: 2, 5: 2, 7: 2}, charsum=frozenset(moduli))
    rep = build_density_report(profile, L=50)
    assert rep.alpha == 0
    assert rep.vanishing == "non_trivial"
    assert rep.delta == Interval.point(0)

    trivial_rep = build_density_report(DegreeProfile(degrees={5: 1}), L=50)
    assert trivial_rep.vanishing == "trivial"
    assert classify_vanishing(Interval.point(0), F(1), DegreeProfile(degrees={5: 1})) == "trivial"
    print(
        "ACCEPTANCE 5 vanishing: PASS "
        "[norm-one delta 0 vs ambient 1/8, labels non_trivial / trivial]"
    )


def test_criterion_6_monotonicity():
    rng = random.Random(210)
    levels = divisors(210)
    built = 0
    for _ in range(100):
        degs = {}
        for l in (2, 3, 5, 7):
            if rng.random() < 0.8:
                degs[l] = rng.randrange(2, gl2_order(l) + 1)
        charsum = frozenset()
        if len(degs) >= 2 and rng.random() < 0.5:
            pick = rng.sample(sorted(degs), rng.randrange(2, len(degs) + 1))
            if prod(degs[l] for l in pick) % 2 == 0:
                charsum = frozenset(pick)
        prof = DegreeProfile(degrees=degs, charsum=charsum)
        vals = {m: delta_partial(m, prof) for m in levels}
        for m in levels:
            assert vals[m] >= 0, (degs, charsum, m)
            for n in levels:
                if n % m == 0:
                    assert vals[m] >= vals[n], (degs, charsum, m, n)
        built += 1
    assert built == 100
    print("ACCEPTANCE 6 monotonicity: PASS [100 admissible profiles over n | 210, exact]")


def test_criterion_7_chebotarev_split(full_census):
    count = split_count(REGISTRY["serre-ex1"].curve, 2, REFERENCE_LIMIT)
    ratio = count / 78498
    assert abs(ratio - 1 / 3) <= 0.01
    # the independent census pass tallies the same statistic
    assert count == full_census["serre-ex1"][0].split_counts[2]
    print(f"ACCEPTANCE 7 split counts: PASS [{count}/78498 = {ratio:.5f} in 1/3 +- 0.01]")

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import cyclored
from conftest import ProfileLeak, delta_factored, exact_euler_interval, prime_list
from cyclored import density
from cyclored.density import (
    DegreeOne,
    DegreeProfile,
    Indeterminate,
    Interval,
    MissingDegree,
    artin_constant,
    build_density_report,
    c_factor,
    charsum_alpha,
    classify_vanishing,
    delta_partial,
    gl2_order,
    naive_density,
    superfluous_correction,
)
from cyclored.entangle import index2_character_subgroup
from cyclored.modmath import LimitTooLarge, factorize
from cyclored.registry import REGISTRY
from cyclored.utils import truncate_decimal

F = Fraction
UNIT = F(1, 2**256)  # one step of the fixed-point Euler product
TRUNCATIONS = (2, 100, 1000)


def assert_rescaled_enclosure(iv, r, L, covering):
    """iv is A_inf truncated at L times the exact factor r.  It encloses
    the covering interval, an exact product taken at some L' >= L that
    holds every substituted or omitted prime, and lies within pi(L) + 1
    units, times r, of r times the exact maximal product at L.

    The covering check is sound because P(L') (1 - 1/L'^3) is at least
    P(L) (1 - 1/L^3), by the telescoping tail bound."""
    lo, hi = covering
    assert iv.lo <= lo and hi <= iv.hi, (iv, covering)
    lo, hi = exact_euler_interval(L, gl2_order)
    assert_tight_enclosure(iv, (r * lo, r * hi), L, r)


def assert_tight_enclosure(iv, exact, L, scale=1):
    """iv encloses the exact interval (lo, hi), and each endpoint lies
    within pi(L) + 1 fixed-point units of the exact one, times the exact
    factor the product was rescaled by: one unit per rounded factor and
    one for the tail."""
    lo, hi = exact
    slack = scale * (len(prime_list(L)) + 1) * UNIT
    assert iv.lo <= lo and hi <= iv.hi, (iv, exact)
    assert lo - iv.lo <= slack and iv.hi - hi <= slack, (iv, exact)


def test_gl2_order():
    # |GL_2(F_l)| = (l^2 - 1)(l^2 - l)
    want = {2: 6, 3: 48, 5: 480, 7: 2016, 11: 13200, 13: 26208, 19: 123120}
    for l, n in want.items():
        assert gl2_order(l) == n
    for bad in (1, 4, 6, 0, -3):
        with pytest.raises(ValueError):
            gl2_order(bad)


def test_interval_basics():
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.width == F(1, 6)
    assert iv.mid == F(5, 12)
    assert Interval(F(0), F(1)).encloses(iv)
    assert not iv.encloses(Interval(F(0), F(1)))
    with pytest.raises(ValueError):
        Interval(F(1), F(0))
    pt = Interval.point(F(3, 7))
    assert pt.lo == pt.hi == F(3, 7)
    assert pt.width == 0


def test_interval_scale():
    # every density factor is a non-negative rational
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.scale(2) == Interval(F(2, 3), F(1))
    assert iv.scale(F(3, 4)) == Interval(F(1, 4), F(3, 8))
    assert iv.scale(0) == Interval.point(0)
    with pytest.raises(ValueError):
        iv.scale(-2)


def test_interval_decimal_bounds():
    iv = Interval(F(1, 3), F(2, 3))
    lo, hi = iv.decimal_bounds(5)
    assert lo == "0.33333"
    assert hi == "0.66666"  # truncated, not rounded


def test_profile_validation():
    DegreeProfile()
    DegreeProfile(degrees={2: 3}, superfluous=frozenset({11}))
    with pytest.raises(ValueError):
        DegreeProfile(degrees={4: 2})
    with pytest.raises(ValueError):
        DegreeProfile(degrees={2: 0})
    with pytest.raises(ValueError):
        DegreeProfile(superfluous=frozenset({9}))
    with pytest.raises(ValueError):
        DegreeProfile(superfluous=frozenset({3}), charsum=frozenset({3, 5}))
    with pytest.raises(ValueError):
        DegreeProfile(charsum=frozenset({7}))  # a character needs company
    with pytest.raises(ValueError):
        DegreeProfile(overrides={12: 5})  # not squarefree
    with pytest.raises(ValueError):
        DegreeProfile(overrides={6: 0})


def test_profile_composite_degree_precedence():
    prof = DegreeProfile(degrees={2: 6, 3: 48}, overrides={15: 7})
    assert prof.composite_degree(1) == 1
    assert prof.composite_degree(2) == 6
    assert prof.composite_degree(5) == gl2_order(5)
    assert prof.composite_degree(6) == 6 * 48
    assert prof.composite_degree(15) == 7  # override wins over the product
    # a charsum subset halves the plain product
    prof2 = DegreeProfile(degrees={2: 6, 3: 48}, charsum=frozenset({2, 3}))
    assert prof2.composite_degree(6) == 6 * 48 // 2
    assert prof2.composite_degree(2) == 6  # single primes unaffected
    assert prof2.composite_degree(10) == 6 * gl2_order(5)  # partial overlap: no halving
    # override still beats the halving rule
    prof3 = DegreeProfile(degrees={2: 6, 3: 48}, charsum=frozenset({2, 3}),
                          overrides={6: 288})
    assert prof3.composite_degree(6) == 288


def test_profile_missing_degree_paths():
    prof = DegreeProfile(degrees={2: 2}, superfluous=frozenset({11}))
    assert prof.composite_degree(11) == gl2_order(11)
    with pytest.raises(MissingDegree):
        prof.composite_degree(22)  # contains a superfluous prime
    odd = DegreeProfile(degrees={3: 3, 5: 5}, charsum=frozenset({3, 5}))
    with pytest.raises(MissingDegree):
        odd.composite_degree(15)  # odd joint degree cannot halve


def test_profile_json_round_trip():
    prof = DegreeProfile(degrees={2: 3, 19: 123119}, superfluous=frozenset({11}),
                         charsum=frozenset({5, 7}), overrides={35: 100})
    d = json.loads(json.dumps(prof.to_json_dict()))
    assert DegreeProfile.from_json_dict(d) == prof
    assert DegreeProfile.from_json_dict({}) == DegreeProfile()


def test_artin_constant_endpoints():
    # at L = 2 the product is 1 - 1/6 = 5/6, rounded up for hi; lo rounds
    # 5/6 down, then folds in the tail bound 1/8, rounding down again;
    # each truncation is a memo miss, equal to the unmemoised product
    density._artin_product.cache_clear()
    scale = 2**256
    iv = artin_constant(2)
    assert iv.hi == F(-(-5 * scale // 6), scale)
    assert iv.lo == F(5 * scale // 6 * 7 // 8, scale)
    for L in TRUNCATIONS:
        iv = artin_constant(L)
        assert iv == density._artin_product.__wrapped__(L)
        assert_tight_enclosure(iv, exact_euler_interval(L, gl2_order), L)
    with pytest.raises(ValueError):
        artin_constant(1)


def test_artin_constant_memo_walks_one_sieve_per_truncation(monkeypatch):
    # a repeated truncation, from any caller, returns the first Interval
    # itself; the sieve raises if it is walked a second time
    density._artin_product.cache_clear()
    real, walks = density.sieve_primes, []

    def sieve_once(x):
        if walks:
            raise AssertionError(f"second sieve walk, to {x}")
        walks.append(x)
        return real(x)

    monkeypatch.setattr(density, "sieve_primes", sieve_once)
    first = artin_constant(1000)
    assert artin_constant(1000) is first
    prof = REGISTRY["serre-ex3"].profile
    assert build_density_report(prof, 1000).a_inf is first
    assert naive_density(DegreeProfile(), 1000) == first
    assert walks == [1000]
    with pytest.raises(AssertionError, match="second sieve walk"):
        artin_constant(1001)


def test_artin_constant_memo_is_bounded():
    density._artin_product.cache_clear()
    maxsize = density._artin_product.cache_info().maxsize
    for L in range(2, maxsize + 3):
        artin_constant(L)
    info = density._artin_product.cache_info()
    assert info.misses == maxsize + 1
    assert info.currsize <= maxsize
    artin_constant(2)  # the oldest entry was evicted
    assert density._artin_product.cache_info().misses == maxsize + 2


def test_artin_constant_truncation_key():
    density._artin_product.cache_clear()
    iv = artin_constant(np.int64(10**5))
    assert artin_constant(10**5) is iv
    info = density._artin_product.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    for bad, exc in ((1000.0, TypeError), (np.float64(1000), TypeError),
                     ("1000", TypeError), (True, ValueError), (False, ValueError),
                     (1, ValueError), (np.int64(1), ValueError), (-7, ValueError),
                     (2**32 + 1, LimitTooLarge)):
        with pytest.raises(exc):
            artin_constant(bad)
    assert density._artin_product.cache_info() == info._replace(misses=2)


def test_artin_constant_nesting():
    # enclosures at increasing truncation must be nested and shrinking
    bounds = [artin_constant(L) for L in (2, 3, 5, 10, 50, 100, 1000)]
    for outer, inner in zip(bounds, bounds[1:]):
        assert outer.encloses(inner)
        assert inner.width < outer.width
    # the final interval pins the classical leading digits
    lo, hi = bounds[-1].decimal_bounds(8)
    assert lo.startswith("0.813751")
    assert hi.startswith("0.813751")


def test_naive_density_no_annotations_is_artin():
    prof = DegreeProfile()
    for L in (10, 100):
        assert naive_density(prof, L) == artin_constant(L)


def _covering_truncation(profile, L):
    return max(L, max(profile.annotated_primes(), default=0))


def test_naive_density_substitutes_exactly():
    # the substituted product, against the exact product with the
    # profile's degrees taken far enough to hold every annotated prime,
    # on registry and random profiles and one prime above every L
    for prof in _profiles() + [DegreeProfile(degrees={3: 5, 1009: 2})]:
        c1 = c_factor(prof, F(1))
        for L in TRUNCATIONS:
            Lc = _covering_truncation(prof, L)
            assert_rescaled_enclosure(naive_density(prof, L), c1, L,
                                      exact_euler_interval(Lc, prof.degree))
    # a degree-1 annotation zeroes the whole product
    assert naive_density(DegreeProfile(degrees={7: 1}), 50) == Interval.point(0)
    # an annotated prime above L enters by its exact ratio, without a sieve
    # up to it
    for l in (19, 4294967291):
        prof = DegreeProfile(degrees={l: 2})
        assert naive_density(prof, 2) == artin_constant(2).scale(c_factor(prof, F(1)))


def test_delta_partial_examples():
    prof = DegreeProfile(degrees={2: 6, 3: 48})
    assert delta_partial(1, prof) == 1
    assert delta_partial(2, prof) == F(5, 6)
    assert delta_partial(6, prof) == F(235, 288)
    with pytest.raises(ValueError):
        delta_partial(12, prof)
    with pytest.raises(ValueError):
        delta_partial(0, prof)


def test_delta_partial_multiplicative_over_coprime_levels():
    rng = random.Random(2026)
    primes = (2, 3, 5, 7)
    for _ in range(30):
        degs = {l: rng.randrange(2, 60) for l in primes}
        prof = DegreeProfile(degrees=degs)
        m, n = 2 * 3, 5 * 7
        assert (delta_partial(m * n, prof)
                == delta_partial(m, prof) * delta_partial(n, prof))


def test_delta_partial_charsum_matches_group_count():
    # the halved-degree rule must agree with literal index-2 subgroup
    # counting; the kernels have index 2 in each factor
    degs = {2: 6, 3: 48}
    prof = DegreeProfile(degrees=degs, charsum=frozenset({2, 3}))
    part = delta_partial(6, prof)
    _, group_delta = index2_character_subgroup((6, 48), (3, 24))
    assert part == group_delta == F(59, 72)
    # and equals alpha times the plain product
    alpha = charsum_alpha(degs)
    plain = delta_partial(6, DegreeProfile(degrees=degs))
    assert part == alpha * plain


def test_delta_partial_superfluous_cancellation():
    # declaring 11 superfluous with an override for the joint level makes
    # the level-22 density collapse to the level-2 one
    prof = DegreeProfile(degrees={2: 2}, superfluous=frozenset({11}),
                         overrides={22: 2 * gl2_order(11) // 2})
    assert delta_partial(22, prof) == F(1, 2)
    assert delta_partial(2, prof) == F(1, 2)


def _maximal_at(N):
    return math.prod((1 - F(1, gl2_order(q)) for q, _ in factorize(N)), start=F(1))


def test_delta_factored_reassembly():
    # deltaN times the maximal product over primes not dividing N, where
    # deltaN is the product of the profile's Euler factors at the primes
    # of N; against the exact product over the same primes, taken far
    # enough to hold every prime of N
    for prof in _profiles():
        N = math.prod({2, 3, 5} | prof.annotated_primes())
        dN = math.prod((1 - F(1, prof.degree(q)) for q, _ in factorize(N)), start=F(1))
        for L in TRUNCATIONS:
            Lc = max(L, max(q for q, _ in factorize(N)))
            lo, hi = exact_euler_interval(Lc, gl2_order, skip=lambda l: N % l == 0)
            assert_rescaled_enclosure(delta_factored(N, dN, prof, L), dN / _maximal_at(N),
                                      L, (dN * lo, dN * hi))
    # with the level density of a profile multiplicative over the primes
    # of N, reassembling gives the substituted product: both routes
    # enclose the same exact interval
    prof = DegreeProfile(degrees={2: 3})
    L = 500
    N = 6
    dN = delta_partial(N, prof)
    lo, hi = exact_euler_interval(L, gl2_order, skip=lambda l: N % l == 0)
    direct = exact_euler_interval(L, prof.degree)
    assert (dN * lo, dN * hi) == direct
    assert_tight_enclosure(delta_factored(N, dN, prof, L), direct, L, dN / _maximal_at(N))
    assert_tight_enclosure(naive_density(prof, L), direct, L)
    with pytest.raises(ProfileLeak):
        delta_factored(15, F(1, 2), prof, 50)  # annotated prime 2 missing
    with pytest.raises(ValueError):
        delta_factored(12, F(1, 2), prof, 50)
    with pytest.raises(ValueError):
        delta_factored(6, F(-1, 2), prof, 50)


def test_charsum_alpha_values():
    assert charsum_alpha({2: 6, 3: 48}) == F(236, 235)
    # three degree-2 characters cancel exactly
    assert charsum_alpha({7: 2, 11: 2, 13: 2}) == 0
    # two primes with degrees 5*123119 pattern from a registry profile
    assert charsum_alpha({2: 6, 19: 123120}) == 1 + F(1, 5 * 123119)
    with pytest.raises(ValueError):
        charsum_alpha({2: 6})
    with pytest.raises(DegreeOne):
        charsum_alpha({2: 1, 3: 48})


def test_superfluous_correction():
    prof = DegreeProfile(superfluous=frozenset({11}))
    assert superfluous_correction(prof) == F(13200, 13199)
    prof2 = DegreeProfile(degrees={11: 2}, superfluous=frozenset({11}))
    assert superfluous_correction(prof2) == F(2, 1)
    assert superfluous_correction(DegreeProfile()) == 1
    with pytest.raises(DegreeOne):
        superfluous_correction(
            DegreeProfile(degrees={11: 1}, superfluous=frozenset({11})))


def test_c_factor():
    # c(profile, 1) is the ratio of the substituted product to the maximal
    # one, so the rescaled maximal enclosure holds the exact substituted one
    for prof in _profiles():
        c = c_factor(prof, F(1))
        for L in TRUNCATIONS:
            Lc = _covering_truncation(prof, L)
            assert_tight_enclosure(artin_constant(Lc).scale(c),
                                   exact_euler_interval(Lc, prof.degree), Lc, c)
    assert c_factor(DegreeProfile(degrees={2: 3}), F(1)) == F(4, 5)
    assert c_factor(DegreeProfile(), F(7, 3)) == F(7, 3)


def test_classify_vanishing():
    pos = Interval(F(1, 2), F(2, 3))
    prof = DegreeProfile(degrees={2: 3})
    assert classify_vanishing(pos, F(1), prof) == "positive"
    assert classify_vanishing(pos, F(0), prof) == "non_trivial"
    triv = DegreeProfile(degrees={2: 1})
    assert classify_vanishing(Interval.point(0), F(1), triv) == "trivial"
    trov = DegreeProfile(overrides={6: 1})
    assert classify_vanishing(pos, F(1), trov) == "trivial"
    with pytest.raises(Indeterminate):
        classify_vanishing(Interval(F(-1), F(1)), F(1), prof)
    with pytest.raises(Indeterminate):
        classify_vanishing(Interval(F(0), F(1)), F(0), prof)


def test_build_density_report_consistency():
    prof = DegreeProfile(degrees={2: 2}, superfluous=frozenset({11}))
    rep = build_density_report(prof, L=200)
    assert rep.truncation == 200
    assert rep.superfluous_factor == F(13200, 13199)
    assert rep.charsum_factor == 1
    assert rep.alpha == F(13200, 13199)
    assert rep.delta.lo == rep.a_inf.lo * rep.c
    assert rep.delta.hi == rep.a_inf.hi * rep.c
    assert rep.vanishing == "positive"
    # report JSON is pure data and survives a round trip
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert json.loads(blob) == rep.to_json_dict()


def _random_admissible_profile(rng):
    degs = {}
    for l in (2, 3, 5, 7, 13):
        if rng.random() < 0.7:
            degs[l] = rng.randrange(2, gl2_order(l) + 1)
    charsum = frozenset()
    if len(degs) >= 2 and rng.random() < 0.5:
        pick = rng.sample(sorted(degs), rng.randrange(2, len(degs) + 1))
        if math.prod(degs[l] for l in pick) % 2 == 0:
            charsum = frozenset(pick)
    superfluous = frozenset(l for l in degs if l not in charsum and rng.random() < 0.2)
    return DegreeProfile(degrees=degs, charsum=charsum, superfluous=superfluous)


def _profiles():
    rng = random.Random(31)
    profiles = [spec.profile for spec in REGISTRY.values()]
    return profiles + [_random_admissible_profile(rng) for _ in range(40)]


def test_build_density_report_matches_reference_product():
    # The report rescales the maximal product at L by exact factors; naive
    # and delta must enclose the exact substituted product and its alpha
    # multiple, taken far enough to hold every annotated prime, within the
    # rounding of that one product.
    for prof in _profiles():
        c1 = c_factor(prof, F(1))
        for L in TRUNCATIONS:
            rep = build_density_report(prof, L=L)
            assert rep.truncation == L
            lo, hi = exact_euler_interval(_covering_truncation(prof, L), prof.degree)
            assert_rescaled_enclosure(rep.naive, c1, L, (lo, hi))
            assert_rescaled_enclosure(rep.delta, rep.c, L, (rep.alpha * lo, rep.alpha * hi))


def test_build_density_report_matches_delta_factored():
    # delta from c_factor against delta reassembled from delta_partial's
    # Moebius sum over the divisors of N: the same interval, exactly
    checked = skipped = 0
    for prof in _profiles():
        N = math.prod({2, 3, 5} | prof.annotated_primes())
        try:
            dN = delta_partial(N, prof)
        except MissingDegree:
            skipped += 1
            continue
        for L in (10**3, 10**4):
            assert build_density_report(prof, L).delta == delta_factored(N, dN, prof, L), prof
            checked += 1
    assert (checked, skipped) == (62, 14)


def test_build_density_report_provenance():
    prof = REGISTRY["serre-ex3"].profile
    rep = build_density_report(prof, L=1000, provenance={"source": "test"})
    width = rep.delta.width
    assert rep.provenance == {
        "version": cyclored.__version__,
        "method": rep.provenance["method"],
        "truncation": 1000,
        "scale_bits": 256,
        "delta_width": truncate_decimal(width.numerator, width.denominator, 40),
        "source": "test",
    }
    assert "2**256" in rep.provenance["method"] and "1/L^3" in rep.provenance["method"]
    assert rep.to_json_dict()["provenance"] == rep.provenance
    # deterministic: a second build records the same provenance
    again = build_density_report(prof, L=1000)
    assert again.provenance == {k: v for k, v in rep.provenance.items() if k != "source"}
    assert build_density_report(DegreeProfile(degrees={19: 5}), L=2).provenance[
        "truncation"] == 2


def test_build_density_report_charsum_vanishing():
    prof = DegreeProfile(degrees={7: 2, 11: 2, 13: 2},
                         charsum=frozenset({7, 11, 13}))
    rep = build_density_report(prof, L=50)
    assert rep.alpha == 0
    assert rep.delta == Interval.point(0)
    assert rep.naive.lo > 0
    assert rep.vanishing == "non_trivial"


def test_build_density_report_trivial():
    rep = build_density_report(DegreeProfile(degrees={5: 1}), L=50)
    assert rep.naive == Interval.point(0)
    assert rep.vanishing == "trivial"


def test_build_density_report_keeps_truncation():
    # annotated primes above L enter by their exact ratios: the report
    # evaluates A_inf at the truncation asked for and records it
    prof = DegreeProfile(degrees={19: 123119}, charsum=frozenset({2, 19}))
    rep = build_density_report(prof, L=2)
    assert rep.truncation == rep.provenance["truncation"] == 2
    assert rep.a_inf == artin_constant(2)
    lo, hi = exact_euler_interval(19, prof.degree)
    assert rep.naive.lo <= lo and hi <= rep.naive.hi
    assert rep.delta.lo <= rep.alpha * lo and rep.alpha * hi <= rep.delta.hi
    big = DegreeProfile(degrees={4294967291: 2})
    rep = build_density_report(big, L=100)
    assert rep.truncation == 100 and rep.a_inf == artin_constant(100)
    assert rep.naive == rep.delta == naive_density(big, 100)

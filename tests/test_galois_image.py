from __future__ import annotations

import random

import pytest

from conftest import prime_list
from cyclored import galois_image
from cyclored.curve import CurveOverQ
from cyclored.galois_image import (
    InvalidPrime,
    _integer_roots,
    certify_surjective,
    two_division_degree,
)
from cyclored.modmath import divisors

# splitting field degrees of the five registry cubics
DEGREES = {(-3, 1): 3, (2, 3): 2, (-12096, -544752): 6,
           (1, 3): 6, (-13392, -1080432): 6}


def test_two_division_degree_registry():
    for (A, B), want in DEGREES.items():
        assert two_division_degree(CurveOverQ(A, B)) == want, (A, B)


def test_two_division_degree_small_cases():
    assert two_division_degree(CurveOverQ(-1, 0)) == 1   # x(x-1)(x+1)
    assert two_division_degree(CurveOverQ(-4, 0)) == 1   # x(x-2)(x+2)
    assert two_division_degree(CurveOverQ(1, 0)) == 2    # x(x^2+1)
    assert two_division_degree(CurveOverQ(-2, 0)) == 2   # x(x^2-2)
    assert two_division_degree(CurveOverQ(0, 2)) == 6    # irreducible, nonsquare disc
    assert two_division_degree(CurveOverQ(0, 1)) == 2    # root -1, quadratic rest


def _divisor_roots(A, B):
    """Integer roots of x^3 + Ax + B for B != 0 among the divisors of B."""
    return {r for d in divisors(abs(B)) for r in (d, -d) if r**3 + A * r + B == 0}


def test_integer_roots_match_divisor_walk():
    # Seeded curves with |B| < 2^62: random ones, ones with a planted root
    # r, (x - r)(x^2 + rx + c) = x^3 + (c - r^2)x - rc, and split ones,
    # (x - r)(x - s)(x + r + s) = x^3 - (r^2 + rs + s^2)x + rs(r + s).
    rng = random.Random(31)
    counts = set()
    for _ in range(600):
        r, s = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
        A, B = rng.choice([
            (rng.randrange(-10**9, 10**9), rng.randrange(-(2**61), 2**61)),
            (s - r * r, -r * s),
            (-(r * r + r * s + s * s), r * s * (r + s)),
        ])
        if B == 0 or 4 * A**3 + 27 * B**2 == 0:
            continue
        roots = _integer_roots(A, B)
        assert roots == _divisor_roots(A, B), (A, B)
        counts.add(len(roots))
    assert counts == {0, 1, 3}


def test_integer_roots_of_split_cubics():
    # (x - r)(x - s)(x + r + s) with roots up to 2^100, and with B = 0
    rng = random.Random(37)
    for _ in range(200):
        r, s = (rng.choice([1, -1]) * rng.randrange(2 ** rng.randrange(1, 101)) for _ in range(2))
        t = -r - s
        if len({r, s, t}) < 3:
            continue
        assert _integer_roots(r * s + r * t + s * t, -r * s * t) == {r, s, t}, (r, s)
    assert _integer_roots(-(2**200), 0) == {0, 2**100, -(2**100)}
    assert _integer_roots(2**200, 0) == {0}


def test_degree_controls_root_counts_mod_p():
    # Chebotarev constraint: the set of root counts of the cubic over
    # the first 100 good primes is characteristic of the degree
    expected_sets = {1: {3}, 2: {1, 3}, 3: {0, 3}, 6: {0, 1, 3}}
    curves = list(DEGREES) + [(-1, 0), (1, 0)]
    for A, B in curves:
        E = CurveOverQ(A, B)
        deg = two_division_degree(E)
        seen = set()
        used = 0
        for p in prime_list(10**4):
            if used >= 100:
                break
            if E.delta_E % p == 0:
                continue
            used += 1
            cnt = sum(1 for x in range(p) if (x**3 + A * x + B) % p == 0)
            seen.add(cnt)
        assert seen == expected_sets[deg], (A, B, deg, seen)


def test_certify_surjective_maximal_cases():
    # curves whose mod-7 image is the full group certify quickly
    for A, B in ((1, 3), (-3, 1)):
        res = certify_surjective(CurveOverQ(A, B), 7)
        assert res.certified
        assert res.heuristic  # positive answers stay flagged
        fp = res.fingerprint
        assert fp.w1 and fp.w2 and fp.w3
        assert fp.samples <= 25  # early exit long before the bound
        for t, d in fp.trace_det_pairs:
            assert 0 <= t < 7 and 0 < d < 7


def test_certify_surjective_nonmaximal_cases():
    # mod-5 image of this curve is nonmaximal: certification must fail
    res = certify_surjective(CurveOverQ(-13392, -1080432), 5)
    assert not res.certified
    assert not res.fingerprint.w1  # reducible image: no irreducible pairs
    # mod-3 never certifies, whatever the data says
    res3 = certify_surjective(CurveOverQ(1, 3), 3)
    assert not res3.certified
    assert res3.fingerprint.samples > 0


def test_certify_surjective_rejects_bad_l():
    E = CurveOverQ(1, 3)
    for l in (2, 1, 4, 9, -5):
        with pytest.raises(InvalidPrime):
            certify_surjective(E, l)


def test_certification_deterministic_and_serializable():
    E = CurveOverQ(-3, 1)
    r1 = certify_surjective(E, 7)
    r2 = certify_surjective(E, 7)
    assert r1 == r2


def test_small_sample_bound_is_inconclusive_not_wrong():
    # with almost no data the certifier must simply decline
    res = certify_surjective(CurveOverQ(1, 3), 7, sample_bound=20)
    assert not res.certified
    assert res.fingerprint.samples <= 8


@pytest.mark.parametrize("E, want", [
    (CurveOverQ(10**12 + 11, -(10**13 + 17)),
     {3: (2260, {(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)}),
      5: (4, {(0, 3), (1, 2), (2, 2), (4, 1)}), 7: (3, {(2, 5), (2, 6), (6, 4)})}),
    (CurveOverQ(-(3 * 10**12 + 1), 2**64 + 13),
     {3: (2255, {(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)}),
      5: (3, {(1, 2), (2, 2), (3, 3)}), 7: (2, {(3, 3), (5, 5)})}),
])
def test_certify_surjective_on_big_coefficient_curves(E, want):
    # |discriminant| >= 2**63: a prime held as an int64 overflows in delta % p;
    # the samples and pairs are those of the census's list-of-primes sieve
    assert abs(E.delta_E) >= 1 << 63
    for l, (samples, pairs) in want.items():
        res = certify_surjective(E, l, sample_bound=20_000)
        assert res.certified == (l >= 5)
        assert (res.fingerprint.samples, res.fingerprint.trace_det_pairs) == (samples, pairs)


@pytest.mark.parametrize("bound, lengths, samples", [
    (10**5, [64, 128, 256, 512, 1024, 2048, 4096, 1460], 9588),
    (2 * 10**5, [64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096, 1660], 17980),
])
def test_certification_batches_stop_doubling_at_chunk_size(monkeypatch, bound, lengths, samples):
    # l = 3 never stops early, so every good prime up to the bound is
    # sampled; batches double up to the census chunk of 4096 primes and
    # stay there, and the fingerprint is that of unbounded doubling
    real, seen = galois_image.group_orders, []

    def recording(A, B, primes):
        seen.append(len(primes))
        return real(A, B, primes)

    monkeypatch.setattr(galois_image, "group_orders", recording)
    res = certify_surjective(CurveOverQ(1, 3), 3, sample_bound=bound)
    assert seen == lengths
    assert not res.certified
    assert res.fingerprint.samples == samples
    assert res.fingerprint.trace_det_pairs == {(t, d) for t in range(3) for d in (1, 2)}

from __future__ import annotations

import random

import pytest

from cyclored.modmath import (
    LimitTooLarge,
    divisors,
    factorize,
    is_prime,
    legendre,
    moebius,
    primitive_root,
    sieve_primes,
    sqrt_residue,
)

# First 25 primes, checked against any printed table.
FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

# moebius(1..30) from the standard table.
MOEBIUS_TABLE = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0,
                 -1, 0, -1, 0, 1, 1, -1, 0, 0, 1, 0, 0, -1, -1]


def test_sieve_small():
    assert sieve_primes(97) == FIRST_PRIMES
    assert sieve_primes(2) == [2]
    assert sieve_primes(3) == [2, 3]
    assert sieve_primes(4) == [2, 3]
    # prime counting checkpoints: pi(10**4) = 1229, pi(10**5) = 9592
    assert len(sieve_primes(10**4)) == 1229
    assert len(sieve_primes(10**5)) == 9592


def test_sieve_bounds():
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(LimitTooLarge):
        sieve_primes((1 << 32) + 1)


def test_is_prime_against_sieve():
    primes = set(sieve_primes(2000))
    for n in range(2000 + 1):
        assert is_prime(n) == (n in primes), n


def test_is_prime_known_hard_cases():
    # strong pseudoprimes to small bases, and Carmichael numbers
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert is_prime(10**9 + 7)
    assert is_prime(10**9 + 9)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_legendre_squares_mod_7():
    squares = {x * x % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    for a in range(1, 7):
        assert legendre(a, 7) == (1 if a in squares else -1)
    assert legendre(0, 7) == 0
    assert legendre(14, 7) == 0


def test_legendre_multiplicative():
    rng = random.Random(20260816)
    for p in (11, 101, 997, 10007):
        for _ in range(50):
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_sqrt_mod_exhaustive_small():
    # sqrt_residue of every nonzero square, from a table of the squares
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        squares = {y * y % p for y in range(1, p)}
        assert len(squares) == (p - 1) // 2
        for a in squares:
            r = sqrt_residue(a, p)
            assert r * r % p == a
            assert r <= p - r  # canonical representative


def test_sqrt_mod_both_branches():
    # p = 3 mod 4 takes the direct-exponent branch, p = 1 mod 4 Tonelli
    rng = random.Random(7)
    for p in (10**9 + 7, 10**9 + 9, 2**61 - 1, 13, 41, 97):
        for _ in range(25):
            x = rng.randrange(1, p)
            a = x * x % p
            r = sqrt_residue(a, p)
            assert r * r % p == a
            assert r == min(r, p - r)


def test_factorize_known():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(60) == [(2, 2), (3, 1), (5, 1)]
    assert factorize(2**60) == [(2, 60)]
    assert factorize(600851475143) == [(71, 1), (839, 1), (1471, 1), (6857, 1)]
    assert factorize(10**9 + 7) == [(10**9 + 7, 1)]
    # product of two 31-bit primes forces the rho path
    p, q = 2147483647, 2147483629
    assert factorize(p * q) == [(q, 1), (p, 1)]
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 62)


def test_factorize_round_trip_random():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(2, 1 << 60)
        fac = factorize(n)
        prod = 1
        for q, e in fac:
            assert e >= 1
            assert is_prime(q)
            prod *= q**e
        assert prod == n
        assert [q for q, _ in fac] == sorted(q for q, _ in fac)


def test_moebius_table():
    for m, want in enumerate(MOEBIUS_TABLE, start=1):
        assert moebius(m) == want
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_divisor_sum():
    # sum of mu(d) over d | n is 1 at n = 1 and 0 otherwise
    for n in range(1, 200):
        total = sum(moebius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(60) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]
    assert divisors(97) == [1, 97]
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(1, 10**6)
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == len(set(ds))
        assert ds == sorted(ds)


def test_primitive_root():
    assert primitive_root(2) == 1
    assert primitive_root(3) == 2
    assert primitive_root(7) == 3
    assert primitive_root(191) == 19
    for p in sieve_primes(100):
        g = primitive_root(p)
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        assert len(seen) == p - 1, p
    with pytest.raises(ValueError):
        primitive_root(10)

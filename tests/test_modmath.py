from __future__ import annotations

import os
import random
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from conftest import prime_list, primes_below
from cyclored import modmath
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


def stream(x):
    """sieve_primes(x) as one list, checking the arrays on the way."""
    blocks = list(sieve_primes(x))
    assert all(b.dtype == np.int64 and len(b) for b in blocks)
    out = np.concatenate(blocks)
    assert np.all(np.diff(out) > 0)
    return out.tolist()


def test_sieve_small():
    assert stream(97) == FIRST_PRIMES
    assert stream(2) == [2]
    assert stream(3) == [2, 3]
    assert stream(4) == [2, 3]
    for x in range(2, 400):
        assert stream(x) == prime_list(x), x
    # prime counting checkpoints: pi(10**4) = 1229, pi(10**5) = 9592
    assert len(stream(10**4)) == 1229
    assert len(stream(10**5)) == 9592


def test_sieve_segment_edges():
    # segment k holds the odd numbers from 2k * _SEGMENT + 1 on
    edge = 2 * modmath._SEGMENT + 1
    reference = prime_list(2 * edge + 3)
    for x in (edge - 2, edge - 1, edge, edge + 1, edge + 2, 2 * edge - 1, 2 * edge + 3):
        assert stream(x) == [p for p in reference if p <= x], x


def test_sieve_base_prime_straddles_a_segment_edge():
    # q^2 lies in the second segment, so q starts marking there, while the
    # multiples of the prime before q run from the first segment across
    edge = 2 * modmath._SEGMENT + 1
    q = next(p for p in prime_list(isqrt(edge) + 100) if p * p > edge)
    below = max(p for p in prime_list(q - 1))
    assert below * below < edge < q * q
    x = q * q + 4 * q
    got = stream(x)
    assert got == prime_list(x)
    assert q * q not in got and q * (q + 2) not in got
    assert not set(range(below * (edge // below), below * (edge // below + 3), below)) & set(got)


def test_sieve_primes_just_below_2_32():
    # the last segment of a stream to 2**32, without walking the rest
    base = prime_list(1 << 16)[1:]
    n = 10**5
    lo = (1 << 32) - 2 * n + 1
    got = modmath._segment(lo, n, base)
    want = primes_below(1 << 32, len(got))
    assert got.dtype == np.int64 and got.tolist() == want
    assert want[0] - 2 * n < lo <= want[0] and want[-1] == (1 << 32) - 5


def test_sieve_bounds():
    # the call itself raises, before the first next()
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(LimitTooLarge):
        sieve_primes((1 << 32) + 1)
    it = sieve_primes(1 << 32)  # lazy: the first segment only
    assert next(it)[:5].tolist() == [2, 3, 5, 7, 11]


def test_sieve_memory_is_flat():
    # A walk to 10**8 peaks within a few MiB of a walk to 10**6 in the same
    # process; one prime list to 10**8 would hold 5.7 million ints.
    code = ("import resource\n"
            "from cyclored.modmath import sieve_primes\n"
            "peaks = []\n"
            "for x in (10**6, 10**8):\n"
            "    assert sum(map(len, sieve_primes(x))) == {10**6: 78498, 10**8: 5761455}[x]\n"
            "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "print(peaks[1] - peaks[0])\n")
    src = str(Path(modmath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 << 10  # KiB


def test_is_prime_against_sieve():
    primes = set(stream(2000))
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


def test_is_prime_refuses_at_psi_12():
    # psi_12, the least strong pseudoprime to the twelve witnesses 2..37,
    # would pass them all; from it on, primes and even numbers alike are
    # refused rather than answered
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 == modmath.PRIMALITY_BOUND
    for n in (psi12, psi12 + 1, 2**89 - 1, 10**30):
        with pytest.raises(ValueError, match="decided only below 318665857834031151167461"):
            is_prime(n)
        with pytest.raises(ValueError, match="decided only below"):
            primitive_root(n)
    # below it the answers stand: the largest prime below psi_12, and the
    # odd composite just under it
    assert is_prime(2**64 + 13)
    assert is_prime(psi12 - 20)
    assert not is_prime(psi12 - 2)  # = 137 * 2326028159372490154507


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
    for p in prime_list(100):
        g = primitive_root(p)
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        assert len(seen) == p - 1, p
    with pytest.raises(ValueError):
        primitive_root(10)

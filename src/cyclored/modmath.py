"""Modular arithmetic and factorization primitives.

Everything here is deterministic: primality testing uses a fixed
Miller-Rabin witness set, exact below PRIMALITY_BOUND and refused at or
above it, and the Pollard rho fallback in ``factorize`` walks a fixed
schedule of cycle parameters, so repeated runs factor the same integer
the same way.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from functools import lru_cache
from math import gcd, isqrt

import numpy as np


class LimitTooLarge(Exception):
    """Raised by sieve_primes when the requested bound exceeds 2**32."""


# The first twelve primes as witnesses decide primality exactly below
# psi_12, the least strong pseudoprime to all of them (OEIS A014233;
# Sorenson and Webster, Math. Comp. 86, 2017): psi_12 itself is
# 399165290221 * 798330580441.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_BOUND = 318_665_857_834_031_151_167_461

_TRIAL_BOUND = 100_000
SIEVE_LIMIT = 1 << 32
_SEGMENT = 1 << 18  # odd numbers per sieve segment: 256 KiB of marks
_small_primes_cache: list[int] | None = None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, as -1, 0 or 1."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) >> 1, p)
    return 1 if t == 1 else -1


@lru_cache(maxsize=64)
def _least_nonresidue(p: int) -> int:
    z = 2
    while legendre(z, p) != -1:
        z += 1
    return z


def sqrt_residue(a: int, p: int) -> int:
    """Square root of a non-zero square a, 0 < a < p, modulo an odd prime p,
    canonicalized to min(r, p-r); a is not checked.

    The p % 4 == 3 branch is a single exponentiation; the general case is
    Tonelli-Shanks seeded with the least quadratic non-residue, so the
    output never depends on external randomness.  The non-residue is
    remembered for the last few primes, since point sampling asks for
    many roots modulo one prime in a row.
    """
    if p % 4 == 3:
        r = pow(a, (p + 1) >> 2, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p-1 = q * 2^s with q odd.
    q = p - 1
    s = 0
    while q % 2 == 0:
        q >>= 1
        s += 1
    m = s
    c = pow(_least_nonresidue(p), q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) >> 1, p)
    while t != 1:
        # find least i with t^(2^i) = 1
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIMALITY_BOUND (psi_12,
    about 3.2 * 10**23); at or above it, where the witnesses prove
    nothing, raises ValueError naming the bound."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}, not for {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d >>= 1
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(x: int) -> Iterator[np.ndarray]:
    """The primes <= x (2 <= x <= 2**32) as a stream of ascending int64
    arrays, whose concatenation is every prime in order.

    Odd-only segmented Eratosthenes, after Bays and Hudson: the odd primes
    up to isqrt(x) come from the same stream, one level down, and mark
    each segment of _SEGMENT odd numbers in turn, so memory is
    O(sqrt(x) + _SEGMENT) whatever x.  The bound is checked here, so
    ValueError and LimitTooLarge (above 2**32) raise before anything is
    allocated; the returned iterator does the sieving.
    """
    if x < 2:
        raise ValueError("sieve bound must be at least 2")
    if x > SIEVE_LIMIT:
        raise LimitTooLarge(f"sieve bound {x} exceeds 2**32")
    return _segments(x)


def _segments(x: int) -> Iterator[np.ndarray]:
    root = isqrt(x)
    base = [q for block in _segments(root) for q in block.tolist()][1:] if root > 2 else []
    for lo in range(1, x + 1, 2 * _SEGMENT):
        primes = _segment(lo, min(_SEGMENT, (x - lo) // 2 + 1), base)
        if lo == 1:
            primes = np.concatenate(([2], primes))
        if len(primes):
            yield primes


def _segment(lo: int, n: int, base: list[int]) -> np.ndarray:
    """The primes among the n odd numbers lo, lo + 2, ..., lo + 2(n - 1),
    for odd lo, given base: the odd primes in ascending order up to at
    least the square root of the last of them."""
    marks = np.ones(n, dtype=bool)
    for q in base[: bisect_right(base, isqrt(lo + 2 * (n - 1)))]:
        # q marks its odd multiples from max(q^2, the first one >= lo)
        start = max(q * q, -(-lo // q) * q)
        if start % 2 == 0:
            start += q
        marks[(start - lo) // 2 :: q] = False
    if lo == 1:
        marks[0] = False  # 1 is not prime
    primes = np.flatnonzero(marks)
    primes *= 2  # in place: one array of primes at a time, not three
    primes += lo
    return primes


def _small_primes() -> list[int]:
    global _small_primes_cache
    if _small_primes_cache is None:
        _small_primes_cache = [q for block in sieve_primes(_TRIAL_BOUND) for q in block.tolist()]
    return _small_primes_cache


def _rho_brent(n: int) -> int:
    """Nontrivial factor of odd composite n via Brent's rho, fixed schedule."""
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")  # unreachable in 62 bits


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as a sorted list of (prime, exponent).

    Valid for 1 <= n < 2**62.  Trial division by primes below 10**5
    first; any remaining cofactor is split recursively with Brent rho.
    factorize(1) == [].
    """
    if not 1 <= n < (1 << 62):
        raise ValueError(f"factorize expects 1 <= n < 2**62, got {n}")
    out: dict[int, int] = {}
    m = n
    for q in _small_primes():
        if q * q > m:
            break
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out[q] = e
    if m > 1:
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            # cofactor below the trial bound squared is necessarily prime
            out[m] = out.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                v = stack.pop()
                if is_prime(v):
                    out[v] = out.get(v, 0) + 1
                    continue
                d = _rho_brent(v)
                stack.append(d)
                stack.append(v // d)
    return sorted(out.items())


def moebius(m: int) -> int:
    """Moebius function: 0 on non-squarefree m, else (-1)^(number of primes)."""
    if m < 1:
        raise ValueError("moebius expects m >= 1")
    fac = factorize(m)
    for _, e in fac:
        if e > 1:
            return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n."""
    out = [1]
    for q, e in factorize(n):
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group modulo a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    radicals = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in radicals):
            return g
    raise AssertionError(f"no primitive root below {p}")

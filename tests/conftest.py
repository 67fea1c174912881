"""Shared brute-force oracles for the test suite.

The oracles never call the code paths they validate: point counting is
a full quadratic-residue scan, group invariants come from the order
statistics of every single point or from counts of torsion points, and
truncated Euler products are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from cyclored.curve import ReducedCurve
from cyclored.modmath import sieve_primes

FIVE_CURVES = [
    (-3, 1),
    (2, 3),
    (-12096, -544752),
    (1, 3),
    (-13392, -1080432),
]


def brute_points(p: int, a: int, b: int) -> list:
    """Every affine point of y^2 = x^3 + ax + b over F_p, plus None."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    pts: list = [None]
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in roots.get(rhs, ()):
            pts.append((x, y))
    return pts


def brute_add(P, Q, p, a):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def brute_mul(k, P, p, a):
    R = None
    while k:
        if k & 1:
            R = brute_add(R, P, p, a)
        P = brute_add(P, P, p, a)
        k >>= 1
    return R


def brute_point_order(P, p, a) -> int:
    n = 1
    T = P
    while T is not None:
        T = brute_add(T, P, p, a)
        n += 1
    return n


def brute_structure(p: int, a: int, b: int) -> tuple[int, int, int]:
    """(n, d, e) with the group isomorphic to Z/d x Z/e, d | e, via the
    exponent: e = lcm of all point orders, d = n / e."""
    pts = brute_points(p, a, b)
    n = len(pts)
    exponent = 1
    for P in pts:
        if P is None:
            continue
        o = brute_point_order(P, p, a)
        exponent = exponent * o // gcd(exponent, o)
    assert n % exponent == 0
    return n, n // exponent, exponent


def brute_first_invariant(p: int, a: int, b: int) -> int:
    """First invariant factor d by counting torsion points: for each prime
    l with l^2 | n, the l-part of d is l^k for the largest k with
    #E[l^k](F_p) = l^(2k), where E[l^(k+1)] is every point that
    multiplication by l sends into E[l^k]."""
    pts = brute_points(p, a, b)
    n = len(pts)
    d = 1
    for l in range(2, isqrt(n) + 1):
        if n % (l * l) or any(l % q == 0 for q in range(2, l)):
            continue
        times_l = [brute_mul(l, P, p, a) for P in pts]
        killed = {None}
        k = 0
        while True:
            bigger = {P for P, lP in zip(pts, times_l) if lP in killed}
            if len(bigger) != l ** (2 * k + 2):
                break
            killed = bigger
            k += 1
        d *= l**k
    return d


def reduced(A: int, B: int, p: int) -> ReducedCurve:
    return ReducedCurve(p, A % p, B % p)


def _euler_product(L: int, degree_of, skip=None) -> Fraction | None:
    """Exact partial product of (1 - 1/degree_of(l)) over primes l <= L,
    omitting primes matched by the skip predicate.

    Returns None when some factor vanishes (a degree of 1), since the
    whole product is then exactly zero.
    """
    num = 1
    den = 1
    for l in sieve_primes(L):
        if skip is not None and skip(l):
            continue
        d = degree_of(l)
        if d == 1:
            return None
        num *= d - 1
        den *= d
    return Fraction(num, den)


def exact_euler_interval(L: int, degree_of, skip=None) -> tuple[Fraction, Fraction]:
    """The exact truncated product P with its 1/L^3 tail: (P (1 - 1/L^3), P),
    or (0, 0) when a factor vanishes."""
    P = _euler_product(L, degree_of, skip)
    if P is None:
        return Fraction(0), Fraction(0)
    return P * (1 - Fraction(1, L**3)), P

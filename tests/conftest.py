"""Shared brute-force oracles for the test suite.

The oracles never call the code paths they validate: point counting is
a full quadratic-residue scan, group orders above 10^4 come from a
one-prime baby-step giant-step in Python on this module's group law,
group invariants come from the order statistics of every single point or
from counts of torsion points, truncated Euler products are exact
Fractions, and packed matrix-tuple codes are read back digit by digit.
delta_factored reassembles a density from artin_constant and a rational
part that comes from delta_partial's Moebius sum, not from c_factor, as
build_density_report's does.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from cyclored.density import Interval, artin_constant, gl2_order
from cyclored.modmath import factorize, is_prime

FIVE_CURVES = [
    (-3, 1),
    (2, 3),
    (-12096, -544752),
    (1, 3),
    (-13392, -1080432),
]


def prime_list(x: int) -> list[int]:
    """Every prime <= x, ascending, by one plain odd-only Eratosthenes
    over a bytearray in Python."""
    half = (x + 1) // 2  # index i stands for 2i + 1
    marks = bytearray(half)
    for i in range(1, (isqrt(x) + 1) // 2):
        if not marks[i]:
            q = 2 * i + 1
            marks[q * q // 2 :: q] = b"\x01" * len(range(q * q // 2, half, q))
    return [2] * (x >= 2) + [2 * i + 1 for i in range(1, half) if not marks[i]]


def primes_below(top: int, count: int) -> list[int]:
    """The count largest primes below top, ascending."""
    out = []
    q = top - 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out[::-1]


def torsion_bands() -> list[tuple[int, int, list[int]]]:
    """(A, B, primes) for the full-torsion tests: every prime below 2*10^4
    on the five curves and four seeded random ones, and the 150 primes
    below 2^29 (the Frobenius lanes' lazy sums), just above it and below
    2^32 (a reduction per product) on serre-ex3 and serre-ex5, rich in 3-
    and 5-torsion."""
    rng = random.Random(13)
    curves = FIVE_CURVES + [(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
                            for _ in range(4)]
    bands = [(A, B, prime_list(20_000)) for A, B in curves]
    bands += [(*curves[k], primes_below(top, 150)) for k in (2, 4)
              for top in (1 << 29, (1 << 29) + 5000, 1 << 32)]
    return bands


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


def brute_count(p: int, a: int, b: int) -> int:
    """len(brute_points(p, a, b)), counted in numpy: one plus the number
    of pairs (x, y) with y^2 = x^3 + ax + b, found by tabling how many y
    square to each residue."""
    v = np.arange(p, dtype=np.int64)
    roots = np.bincount(v * v % p, minlength=p)
    return 1 + int(roots[(v * v % p * v + a * v + b) % p].sum())


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


def _window_multiples(P, p, a, lo, hi):
    """Sorted multiples of ord(P) inside [lo, hi], by baby-step giant-step.

    Walks j*P for j < m as baby steps, then (lo + i*m)*P as giant steps.
    An x-coordinate collision resolves to lo + i*m + j or lo + i*m - j by
    the y sign, and either way the resolved value is a genuine multiple of
    ord(P).  Every multiple in the window is emitted.
    """
    width = hi - lo + 1
    m = isqrt(width - 1) + 1
    tab = {P[0]: (1, P[1])}
    B = P
    order = 0
    for j in range(2, m):
        # the baby walk meets O first at j = ord(P)
        B = brute_add(B, P, p, a)
        if B is None:
            order = j
            break
        tab.setdefault(B[0], (j, B[1]))
    G = None
    if not order:
        G = brute_mul(m, P, p, a)
        if G is None:
            order = m
        else:
            # ord in [m, 2m) makes the baby table mirror-collide and the
            # giant scan incomplete, but then G = m*P = -(j*P) sits in the
            # table and pins the order to m + j exactly; ord >= 2m keeps
            # every baby x distinct and the giant scan complete
            hit = tab.get(G[0])
            if hit is not None:
                assert G[1] == (p - hit[1]) % p
                order = m + hit[0]
    if order:
        return list(range(-(-lo // order) * order, hi + 1, order))
    T = brute_mul(lo, P, p, a)
    hits = []
    base = lo
    for _ in range((width - 1) // m + 2):
        if T is None:
            hits.append(base)
        else:
            hit = tab.get(T[0])
            if hit is not None:
                j, yj = hit
                if T[1] == p - yj or yj == 0:
                    hits.append(base + j)
                if T[1] == yj:
                    hits.append(base - j)
        T = brute_add(T, G, p, a)
        base += m
    return sorted(k for k in set(hits) if lo <= k <= hi)


def scalar_group_order(p: int, a: int, b: int) -> int:
    """#E(F_p) for a prime p > 457 of good reduction, one point at a time:
    a seeded point on the curve or on its quadratic twist (the point
    (x c, c^2) of y^2 = x^3 + a c^2 x + b c^3 for c = x^3 + ax + b), its
    window multiples by _window_multiples, and the lcms L_E, L_T of the
    point orders found on each side, until one window value k has
    L_E | k and L_T | 2p + 2 - k."""
    t = isqrt(4 * p)
    lo, hi = p + 1 - t, p + 1 + t
    total = 2 * p + 2
    rng = random.Random(p * 1_000_003 + a * 1009 + b)
    L = [1, 1]
    for _ in range(64):
        x = rng.randrange(p)
        c = (x * x * x + a * x + b) % p
        if c == 0:
            continue
        cc = c * c % p
        twisted = pow(c, (p - 1) >> 1, p) != 1
        multiples = _window_multiples((x * c % p, cc), p, a * cc % p, lo, hi)
        if len(multiples) == 1:
            return total - multiples[0] if twisted else multiples[0]
        n = multiples[1] - multiples[0]
        L[twisted] = L[twisted] * n // gcd(L[twisted], n)
        # walk the window by the larger lcm, test the other
        step, r = max((L[0], 0), (L[1], total % L[1]))
        cands = [k for k in range(lo + (r - lo) % step, hi + 1, step)
                 if k % L[0] == 0 and (total - k) % L[1] == 0]
        if len(cands) == 1:
            return cands[0]
    raise AssertionError(f"no group order over F_{p} after 64 points")


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


def decode(code, moduli) -> tuple:
    """The matrices (a, b, c, d) of a packed tuple code: one base-l digit
    per entry, big-endian, the components in the order of moduli, read
    off one Python integer by divmod."""
    code, mats = int(code), []
    for l in reversed(moduli):
        digits = []
        for _ in range(4):
            code, x = divmod(code, l)
            digits.append(x)
        mats.append(tuple(digits[::-1]))
    assert code == 0, "code outside the code space"
    return tuple(mats[::-1])


def mat_mul(m, n, l):
    """The 2x2 matrix product m n modulo l, row-major quadruples."""
    (a, b, c, d), (e, f, g, h) = m, n
    return ((a * e + b * g) % l, (a * f + b * h) % l,
            (c * e + d * g) % l, (c * f + d * h) % l)


def _euler_product(L: int, degree_of, skip=None) -> Fraction | None:
    """Exact partial product of (1 - 1/degree_of(l)) over primes l <= L,
    omitting primes matched by the skip predicate.

    Returns None when some factor vanishes (a degree of 1), since the
    whole product is then exactly zero.
    """
    num = 1
    den = 1
    for l in prime_list(L):
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


class ProfileLeak(Exception):
    """A profile-annotated prime falls outside the factorization modulus."""


def delta_factored(N: int, deltaN: Fraction, profile, L: int = 10**5) -> Interval:
    """Enclosure of deltaN times the maximal Euler product over primes
    not dividing N: A_inf divided by the maximal factors at the primes
    of N, an exact rational.  Sound only when every annotated prime
    divides N; a leak raises ProfileLeak instead of silently
    double-counting."""
    if N < 1 or any(e > 1 for _, e in factorize(N)):
        raise ValueError("modulus must be a positive squarefree integer")
    for l in sorted(profile.annotated_primes()):
        if N % l != 0:
            raise ProfileLeak(f"annotated prime {l} does not divide {N}")
    deltaN = Fraction(deltaN)
    if deltaN < 0:
        raise ValueError("density at the modulus cannot be negative")
    maximal_at_N = prod(1 - Fraction(1, gl2_order(q)) for q, _ in factorize(N))
    return artin_constant(L).scale(deltaN / maximal_at_N)

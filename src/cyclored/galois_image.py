"""Division-field degree inputs from the curve itself.

The 2-division degree comes from exact factorization of the cubic.  For
l >= 5 a sampling certifier can rule out every proper subgroup class of
the mod-l image from Frobenius trace data; certification is one-sided
and flagged heuristic, non-certification is never a claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt

from .census import CHUNK_SIZE
from .curve import CurveOverQ, group_orders
from .modmath import is_prime, legendre, sieve_primes

DEFAULT_SAMPLE_BOUND = 10**4


class InvalidPrime(Exception):
    """Certification is undefined for this torsion prime."""


@dataclass(frozen=True)
class ImageFingerprint:
    l: int
    samples: int
    w1: bool  # some trace with irreducible characteristic polynomial
    w2: bool  # some nonzero trace with split characteristic polynomial
    w3: bool  # some trace ratio outside the exceptional-image values
    trace_det_pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class CertificationResult:
    l: int
    certified: bool
    fingerprint: ImageFingerprint
    # The witness criterion is classical subgroup classification, not
    # something this package proves; consumers must treat a positive
    # answer as heuristic evidence, so the flag ships in every result.
    heuristic: bool = True


def _integer_roots(A: int, B: int) -> set[int]:
    """All integer roots of f = x^3 + Ax + B.

    Every real root lies in [-R, R] for R = 1 + max(|A|, |B|).  f rises on
    the integers up to -t - 1 and from t + 1 on, and falls on [-t, t],
    where t = isqrt(-A // 3) is the integer part of the critical point
    sqrt(-A/3) (A >= 0: f rises everywhere).  On each such run an integer
    bisection finds the first integer at which f has crossed zero, the
    only integer there that can be a root."""
    def f(x):
        return (x * x + A) * x + B

    R = 1 + max(abs(A), abs(B))
    if A >= 0:
        runs = [(-R, R, 1)]
    else:
        t = isqrt(-A // 3)
        runs = [(-R, -t - 1, 1), (-t, t, -1), (t + 1, R, 1)]
    roots = set()
    for lo, hi, sign in runs:
        while lo < hi:
            mid = (lo + hi) // 2
            if sign * f(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if f(lo) == 0:
            roots.add(lo)
    return roots


def two_division_degree(curve: CurveOverQ) -> int:
    """Degree over the rationals of the splitting field of x^3 + Ax + B:
    1, 2, 3, or 6 according to the rational roots and whether the cubic
    discriminant -4A^3 - 27B^2 is a square."""
    roots = _integer_roots(curve.A, curve.B)
    if len(roots) == 3:
        return 1
    if len(roots) == 1:
        return 2
    if roots:
        raise AssertionError("cubic with a repeated root escaped the singular check")
    disc = -4 * curve.A**3 - 27 * curve.B**2
    if disc > 0 and isqrt(disc) ** 2 == disc:
        return 3
    return 6


def _group_orders_in_batches(curve: CurveOverQ, bound: int, l: int):
    """(p, #E(F_p)) for the good primes p <= bound other than l, in order,
    in batches of 64, 128, ... primes that stop doubling at the census's
    CHUNK_SIZE, so memory stays flat however large the bound."""
    good = (p for block in sieve_primes(bound) for p in block.tolist()
            if p != l and curve.delta_E % p)
    size = 64
    while batch := list(islice(good, size)):
        yield from zip(batch, group_orders(curve.A, curve.B, batch))
        size = min(2 * size, CHUNK_SIZE)


def certify_surjective(
    curve: CurveOverQ, l: int, sample_bound: int = DEFAULT_SAMPLE_BOUND
) -> CertificationResult:
    """Sample Frobenius data at good primes p <= sample_bound and try to
    witness that the mod-l image is the full matrix group.

    The group orders come from curve.group_orders in batches of 64, 128,
    ..., CHUNK_SIZE (4096), 4096, ... primes, so a run that certifies
    early pays for few of them and a long run holds one batch at a time.
    Witnesses over pairs (t, d) = (a_p mod l, p mod l) with t != 0:
    W1 needs t^2 - 4d a nonzero non-square, W2 a nonzero square, and W3
    a ratio u = t^2/d outside {0, 1, 2, 4} with u^2 - 3u + 1 != 0.
    Together they exclude the reducible, dihedral, and exceptional
    subgroup classes for l >= 5, so all three certify surjectivity.
    For l = 3 the classification shortcut fails and only the fingerprint
    is reported; l = 2 is rejected (the cubic answers that case exactly),
    as is a non-prime l and one at or above modmath.PRIMALITY_BOUND.
    """
    try:
        prime = l >= 3 and is_prime(l)
    except ValueError as exc:  # l past the bound where primality is decided
        raise InvalidPrime(str(exc)) from None
    if not prime:
        raise InvalidPrime(f"certification undefined for l={l}")
    w1 = w2 = w3 = False
    pairs: set[tuple[int, int]] = set()
    samples = 0
    certifiable = l >= 5
    for p, n in _group_orders_in_batches(curve, sample_bound, l):
        t = (p + 1 - n) % l
        samples += 1
        d = p % l
        pairs.add((t, d))
        if t != 0:
            disc = (t * t - 4 * d) % l
            if disc != 0:
                if legendre(disc, l) == -1:
                    w1 = True
                else:
                    w2 = True
            u = t * t * pow(d, -1, l) % l
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % l != 0:
                w3 = True
        if certifiable and w1 and w2 and w3:
            break
    fp = ImageFingerprint(
        l=l, samples=samples, w1=w1, w2=w2, w3=w3, trace_det_pairs=frozenset(pairs)
    )
    certified = certifiable and w1 and w2 and w3
    return CertificationResult(l=l, certified=certified, fingerprint=fp)

"""Exact rational and interval arithmetic for cyclic-reduction densities.

Every density is the everywhere-maximal constant A_inf, the product over
all primes l of 1 - 1/#GL_2(F_l), times an exact rational: the ratio of
each annotated Euler factor to its maximal one, and the entanglement
corrections.  A_inf alone is enclosed, by one truncated product in
directed-rounding fixed point, so its endpoints are dyadic rationals
k / 2**256 rounded outward, with the 1/L^3 tail folded into the lower
one.  Every other factor stays an exact Fraction, so that vanishing is
decided by exact arithmetic, never by a float comparison.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod

from . import __version__
from .modmath import divisors, factorize, is_prime, moebius, sieve_primes
from .utils import json_ints, truncate_decimal


class DegreeOne(Exception):
    """A formula with a 1/(degree-1) or 1/(1-1/degree) pole met degree 1."""


class MissingDegree(Exception):
    """A composite division-field degree is entangled beyond the profile's
    annotations and no explicit override was supplied."""


class Indeterminate(Exception):
    """Interval straddles zero where the classification needs a sign."""


def gl2_order(l: int) -> int:
    """Order of the group of invertible 2x2 matrices over the field of l
    elements: (l^2 - 1)(l^2 - l)."""
    if l < 2 or not is_prime(l):
        raise ValueError(f"{l} is not prime")
    return (l * l - 1) * (l * l - l)


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, x) -> "Interval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def scale(self, r) -> "Interval":
        """The interval times a non-negative rational r."""
        r = Fraction(r)
        return Interval(self.lo * r, self.hi * r)

    def decimal_bounds(self, digits: int = 20) -> tuple[str, str]:
        """Decimal renderings of both endpoints, truncated toward zero.

        For the nonnegative quantities handled here the lo string stays a
        valid lower bound; the hi string is for display, since truncation
        can shave it below the exact upper endpoint.
        """
        return (
            truncate_decimal(self.lo.numerator, self.lo.denominator, digits),
            truncate_decimal(self.hi.numerator, self.hi.denominator, digits),
        )


@dataclass(frozen=True)
class DegreeProfile:
    """Division-field degree annotations for one curve.

    degrees maps a prime l to [K_l : K]; absent primes are maximal, with
    degree gl2_order(l).  superfluous marks primes whose splitting
    condition is implied by another division field (their Euler factor
    must be cancelled).  charsum marks a set of primes tied together by a
    quadratic character, cutting the joint degree in half.  overrides
    pins the degree of specific squarefree composites directly.  Each
    annotated prime is checked once by is_prime, so one at or above
    modmath.PRIMALITY_BOUND raises ValueError there.
    """

    degrees: dict[int, int] = field(default_factory=dict)
    superfluous: frozenset[int] = frozenset()
    charsum: frozenset[int] = frozenset()
    overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "superfluous", frozenset(self.superfluous))
        object.__setattr__(self, "charsum", frozenset(self.charsum))
        for l in sorted(self.annotated_primes()):
            if not is_prime(l):
                raise ValueError(f"annotated prime {l} is not prime")
        for l, d in self.degrees.items():
            if d < 1:
                raise ValueError(f"degree for {l} must be positive")
        if self.superfluous & self.charsum:
            raise ValueError("a prime may carry at most one entanglement role")
        if len(self.charsum) == 1:
            raise ValueError("character entanglement needs at least two primes")
        for m, d in self.overrides.items():
            if m < 2 or any(e > 1 for _, e in factorize(m)):
                raise ValueError(f"override key {m} must be squarefree and > 1")
            if d < 1:
                raise ValueError(f"override degree for {m} must be positive")

    def degree(self, l: int) -> int:
        """[K_l : K] for a prime l: the annotation, else the generic value."""
        return self.degrees.get(l, gl2_order(l))

    def composite_degree(self, m: int) -> int:
        """[K_m : K] for squarefree m >= 1, resolved by precedence:
        explicit override, then the prime degree, then the product of
        prime degrees halved when m absorbs the whole character set."""
        if m == 1:
            return 1
        if m in self.overrides:
            return self.overrides[m]
        ell = [q for q, _ in factorize(m)]
        if len(ell) == 1:
            return self.degree(m)
        if any(q in self.superfluous for q in ell):
            raise MissingDegree(
                f"degree of the composite level {m} depends on a containment "
                f"not captured by annotations; add an override"
            )
        d = prod(self.degree(q) for q in ell)
        if self.charsum and self.charsum <= set(ell):
            if d % 2:
                raise MissingDegree(
                    f"character entanglement at level {m} needs an even "
                    f"joint degree, got {d}"
                )
            d //= 2
        return d

    def annotated_primes(self) -> frozenset[int]:
        return frozenset(self.degrees) | self.superfluous | self.charsum

    def to_json_dict(self) -> dict:
        return {
            "degrees": {str(l): d for l, d in sorted(self.degrees.items())},
            "superfluous": sorted(self.superfluous),
            "charsum": sorted(self.charsum),
            "overrides": {str(m): d for m, d in sorted(self.overrides.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DegreeProfile":
        """The one reader of profile JSON: keys must be canonical decimal
        integers and values JSON integers, never floats, strings or bools."""
        if not isinstance(d, dict):
            raise ValueError("a profile must be a JSON object")
        tables = {}
        for key, what in (("degrees", "degree"), ("overrides", "override")):
            table = d.get(key, {})
            if not isinstance(table, dict):
                raise ValueError(f"{key} must be a JSON object")
            for k in table:
                try:
                    canonical = str(int(k)) == k  # not "1_1", " 2" or "02"
                except ValueError:
                    canonical = False
                if not canonical:
                    raise ValueError(f"{what} keys must be decimal integers, got {k!r}")
            values = json_ints(table.values(), f"{what} values")
            tables[key] = dict(zip(map(int, table), values))
        return cls(
            degrees=tables["degrees"],
            superfluous=frozenset(json_ints(d.get("superfluous", ()), "superfluous primes")),
            charsum=frozenset(json_ints(d.get("charsum", ()), "charsum primes")),
            overrides=tables["overrides"],
        )


SCALE_BITS = 256
_ONE = 1 << SCALE_BITS


def artin_constant(L: int) -> Interval:
    """Enclosure of the everywhere-maximal density constant A_inf, the
    product over all primes l of 1 - 1/((l^2-1)(l^2-l)), truncated at L.

    Primes beyond L have factors bounded below by 1 - 1/L^3: the sum
    over integers n > L of 1/((n^2-1)(n^2-n)) telescopes below 1/L^3,
    each term being at most 1/(n-1)^3 - 1/n^3.

    The product runs in fixed point, on integers scaled by 2**SCALE_BITS:
    lo is rounded down and hi up at every factor, and the tail is folded
    into lo, rounded down, so both endpoints are dyadic rationals
    k / 2**SCALE_BITS.  Each rounding costs at most one unit, and a unit
    stays below the 1/L^3 tail for every L <= 2**32.

    L is read as an exact integer (operator.index, so an np.int64 works
    and a float raises TypeError).  The product is computed once per
    truncation per process: the enclosure is immutable, so a repeated L
    returns the same Interval from a small memo without a sieve.
    """
    L = operator.index(L)
    if L < 2:
        raise ValueError("truncation bound must be at least 2")
    return _artin_product(L)


@lru_cache(maxsize=64)
def _artin_product(L: int) -> Interval:
    lo = hi = _ONE
    for block in sieve_primes(L):
        for l in block.tolist():
            ll = l * l
            d = (ll - 1) * (ll - l)
            # x (d - 1) / d = x - x / d: floor for lo, ceiling for hi
            lo -= -(-lo // d)
            hi -= hi // d
    lo -= -(-lo // L**3)
    return Interval(Fraction(lo, _ONE), Fraction(hi, _ONE))


def naive_density(profile: DegreeProfile, L: int = 10**5) -> Interval:
    """Enclosure of the independence-model density: the Euler product of
    1 - 1/[K_l : K] over all primes, with the profile's degrees
    substituted.  That is A_inf times the exact ratio c_factor(profile, 1)
    of the annotated Euler factors to their maximal ones, wherever the
    annotated primes lie relative to L."""
    return artin_constant(L).scale(c_factor(profile, 1))


def delta_partial(n: int, profile: DegreeProfile) -> Fraction:
    """Exact inclusion-exclusion sum over divisors m of squarefree n of
    mu(m)/[K_m : K]: the density of primes with no full l-torsion for
    any l | n, under the profile's degree data."""
    if n < 1:
        raise ValueError("level must be positive")
    if any(e > 1 for _, e in factorize(n)):
        raise ValueError(f"level {n} must be squarefree")
    total = Fraction(0)
    for m in divisors(n):
        total += Fraction(moebius(m), profile.composite_degree(m))
    return total


def charsum_alpha(degrees: dict[int, int]) -> Fraction:
    """Exact correction 1 + prod(-1/(deg - 1)) for an index-2 quadratic
    character entanglement across the given prime degrees."""
    if len(degrees) < 2:
        raise ValueError("character entanglement needs at least two primes")
    acc = Fraction(1)
    for l, d in degrees.items():
        if d == 1:
            raise DegreeOne(f"degree 1 at {l} is a pole of the character sum")
        acc *= Fraction(-1, d - 1)
    return 1 + acc


def superfluous_correction(profile: DegreeProfile) -> Fraction:
    """Product of 1/(1 - 1/[K_l : K]) over the superfluous primes,
    cancelling their redundant Euler factors."""
    acc = Fraction(1)
    for l in sorted(profile.superfluous):
        d = profile.degree(l)
        if d == 1:
            raise DegreeOne(f"degree 1 at superfluous prime {l}")
        acc *= Fraction(d, d - 1)
    return acc


def c_factor(profile: DegreeProfile, alpha: Fraction) -> Fraction:
    """Exact rational c with delta = c times the everywhere-maximal
    constant: alpha times the ratio of each annotated Euler factor to
    its maximal counterpart."""
    c = Fraction(alpha)
    for l, d in sorted(profile.degrees.items()):
        g = gl2_order(l)
        c *= Fraction((d - 1) * g, d * (g - 1))
    return c


def classify_vanishing(
    naive: Interval, alpha: Fraction, profile: DegreeProfile
) -> str:
    """Label the density: 'trivial' when some annotated degree is 1,
    'non_trivial' when the naive density is positive but the exact
    correction vanishes, 'positive' otherwise."""
    alpha = Fraction(alpha)
    degree_values = list(profile.degrees.values()) + list(profile.overrides.values())
    if 1 in degree_values:
        return "trivial"
    if alpha == 0:
        if naive.lo > 0:
            return "non_trivial"
        raise Indeterminate("correction vanishes but the naive sign is unclear")
    if naive.lo > 0:
        return "positive"
    raise Indeterminate("naive density interval straddles zero")


def _frac_json(x: Fraction) -> dict:
    return {
        "exact": f"{x.numerator}/{x.denominator}",
        "decimal": truncate_decimal(x.numerator, x.denominator, 20),
    }


def _interval_json(iv: Interval) -> dict:
    lo, hi = iv.decimal_bounds(20)
    return {
        "lo_exact": f"{iv.lo.numerator}/{iv.lo.denominator}",
        "hi_exact": f"{iv.hi.numerator}/{iv.hi.denominator}",
        "lo_decimal": lo,
        "hi_decimal": hi,
        # 40 digits, like the provenance's delta_width: a truncation at
        # L <= 2**32 leaves a width of at least 1/L**3 >= 2**-96
        "width_decimal": truncate_decimal(
            iv.width.numerator, iv.width.denominator, 40
        ),
    }


@dataclass
class DensityReport:
    profile: DegreeProfile
    truncation: int
    a_inf: Interval
    naive: Interval
    charsum_factor: Fraction
    superfluous_factor: Fraction
    alpha: Fraction
    c: Fraction
    delta: Interval
    vanishing: str
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "profile": self.profile.to_json_dict(),
            "truncation": self.truncation,
            "a_inf": _interval_json(self.a_inf),
            "naive": _interval_json(self.naive),
            "charsum_factor": _frac_json(self.charsum_factor),
            "superfluous_factor": _frac_json(self.superfluous_factor),
            "alpha": _frac_json(self.alpha),
            "c": _frac_json(self.c),
            "delta": _interval_json(self.delta),
            "vanishing": self.vanishing,
            "provenance": self.provenance,
        }


def build_density_report(
    profile: DegreeProfile, L: int = 10**5, provenance: dict | None = None
) -> DensityReport:
    """Assemble the full density picture for one profile.

    A_inf truncated at L is computed once per truncation per process
    (artin_constant's memo); a report is its rescaling by exact
    rationals: naive by c_factor(profile, 1) and delta by c, so an
    annotated prime above L enters by its exact ratio.

    The provenance records the version, the method, the truncation L,
    the fixed-point scale and the width of the delta enclosure; entries
    passed in are added to it.

    A profile with overrides raises ValueError: an override holds at its
    one level, so no Euler product carries it; it feeds delta_partial only.
    """
    if profile.overrides:
        raise ValueError("overrides feed delta_partial only, not a density report")
    a_inf = artin_constant(L)
    if profile.charsum:
        cs = charsum_alpha({l: profile.degree(l) for l in sorted(profile.charsum)})
    else:
        cs = Fraction(1)
    sf = superfluous_correction(profile)
    alpha = cs * sf
    c = c_factor(profile, alpha)
    naive = a_inf.scale(c_factor(profile, 1))
    delta = a_inf.scale(c)
    vanishing = classify_vanishing(naive, alpha, profile)
    width = delta.width
    prov = {
        "version": __version__,
        "method": "fixed-point Euler product scaled by 2**256, lo rounded "
        "down and hi up, 1/L^3 tail folded into lo",
        "truncation": L,
        "scale_bits": SCALE_BITS,
        "delta_width": truncate_decimal(width.numerator, width.denominator, 40),
    }
    prov.update(provenance or {})
    return DensityReport(
        profile=profile,
        truncation=L,
        a_inf=a_inf,
        naive=naive,
        charsum_factor=cs,
        superfluous_factor=sf,
        alpha=alpha,
        c=c,
        delta=delta,
        vanishing=vanishing,
        provenance=prov,
    )

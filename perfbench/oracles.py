"""Correctness oracles that share no code with the timed paths.

Each check returns a list of failure messages; an empty list passes.
Point counts, root counts, the prime sieve, the reference densities and
the kernel's character condition are computed here from first
principles.  They run outside the timed region.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import prod

import numpy as np

# Registry census at 2*10^5 as the parent commit computes it:
# label -> (total primes, cyclic count, bad primes, split counts at 2, 3, 5, 7).
SEED_REGISTRY_COUNTS = {
    "serre-ex1": (17984, 11702, (2, 3), (5994, 377, 29, 8)),
    "serre-ex2": (17984, 8788, (2, 5, 11), (8971, 381, 36, 11)),
    "serre-ex3": (17984, 7495, (2, 3, 19), (2960, 8987, 25, 4)),
    "serre-ex4": (17984, 14645, (2, 13, 19), (2977, 364, 42, 8)),
    "serre-ex5": (17984, 11018, (2, 3, 11), (2968, 362, 4477, 10)),
}

# Acceptance criterion 3: printed (naive, corrected) densities, compared
# at their printed precision; serre-ex4's naive density is the maximal
# constant.
PRINTED_DENSITIES = {
    "serre-ex1": ("0.6510015", "0.6510015"),
    "serre-ex2": ("0.48825114", "0.4882881"),
    "serre-ex3": ("0.4155329", "0.4155335"),
    "serre-ex4": (None, None),
    "serre-ex5": ("0.6115881", "0.6115973"),
}

KERNEL_ORDER = 369360
# delta of the kernel: index2_character_subgroup([6, 123120], [3, 61560]).
KERNEL_DELTA = Fraction(153899, 184680)


def primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def gl2_order(l: int) -> int:
    return (l * l - 1) * (l * l - l)


# -- census ------------------------------------------------------------------


def point_count_and_roots(p: int, a: int, b: int) -> tuple[int, int]:
    """(#E(F_p), number of roots of x^3 + ax + b in F_p) by scanning x."""
    square = bytearray(p)
    for y in range(1, (p + 1) // 2):
        square[y * y % p] = 1
    n, roots = 1, 0
    for x in range(p):
        z = (x * x * x + a * x + b) % p
        if z == 0:
            n += 1
            roots += 1
        elif square[z]:
            n += 2
    return n, roots


def check_registry_census(label: str, report) -> list[str]:
    total, cyclic, bad, split = SEED_REGISTRY_COUNTS[label]
    got = (report.total_primes, report.cyclic_count, list(report.bad_primes),
           [report.split_counts[l] for l in (2, 3, 5, 7)])
    want = (total, cyclic, list(bad), list(split))
    if got != want:
        return [f"{label}: census {got} != seed commit {want}"]
    return []


def check_census_report(a: int, b: int, limit: int, report, primes) -> list[str]:
    """Totals and bad primes of a census against the benchmark's sieve."""
    errs = []
    delta = -16 * (4 * a**3 + 27 * b**2)
    want_bad = [p for p in primes if p <= limit and delta % p == 0]
    total = sum(1 for p in primes if p <= limit)
    if report.total_primes != total:
        errs.append(f"({a}, {b}): {report.total_primes} primes, want {total}")
    if list(report.bad_primes) != want_bad:
        errs.append(f"({a}, {b}): bad primes {report.bad_primes}, want {want_bad}")
    if not 0 <= report.cyclic_count <= total - len(want_bad):
        errs.append(f"({a}, {b}): cyclic count {report.cyclic_count} out of range")
    return errs


def check_sampled_primes(a: int, b: int, sample, cyclored) -> list[str]:
    """Per sampled prime: group_order against a point count, 2 | d from
    classify_prime against three roots of the cubic, d | p - 1, d^2 | n."""
    errs = []
    curve = cyclored.CurveOverQ(a, b)
    for p in sample:
        n_ref, roots = point_count_and_roots(p, a % p, b % p)
        reduced = cyclored.reduce(curve, p)
        n = cyclored.group_order(reduced)
        st = cyclored.group_structure(reduced)
        cls = cyclored.classify_prime(curve, p)
        if n != n_ref or st.n != n_ref:
            errs.append(f"({a}, {b}) p={p}: order {n}/{st.n}, point count {n_ref}")
        if (roots == 3) != (2 in cls.obstruction_primes):
            errs.append(f"({a}, {b}) p={p}: {roots} cubic roots, obstructions "
                        f"{cls.obstruction_primes}")
        if (p - 1) % st.d or n_ref % (st.d * st.d):
            errs.append(f"({a}, {b}) p={p}: d={st.d} fails d | p-1, d^2 | n")
        if (cls.status == "cyclic") != (st.d == 1):
            errs.append(f"({a}, {b}) p={p}: status {cls.status} with d={st.d}")
    return errs


def check_csv(path: str, want_rows: int, want_cyclic: int | None = None) -> list[str]:
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    errs = []
    if len(rows) != want_rows:
        errs.append(f"{path}: {len(rows)} rows, want {want_rows}")
    if want_cyclic is not None:
        cyclic = sum(1 for r in rows if r.split(",")[1] == "cyclic")
        if cyclic != want_cyclic:
            errs.append(f"{path}: {cyclic} cyclic rows, want {want_cyclic}")
    return errs


def same_counts(r1, r2) -> bool:
    return (r1.total_primes, r1.cyclic_count, r1.bad_primes, r1.split_counts) == (
        r2.total_primes, r2.cyclic_count, r2.bad_primes, r2.split_counts)


# -- density -----------------------------------------------------------------

_REF_LIMIT = 10**6
_REF_DIGITS = 60


def maximal_constant_reference() -> Fraction:
    """prod over l <= 10^6 of 1 - 1/#GL2(F_l), to 60 digits.  The rest of
    the product is within 1e-18 of 1, far inside the 1/L^3 enclosure
    width of a truncation at 10^5."""
    with localcontext() as ctx:
        ctx.prec = _REF_DIGITS
        acc = Decimal(1)
        for l in primes_upto(_REF_LIMIT):
            g = gl2_order(l)
            acc *= Decimal(g - 1) / g
    return Fraction(acc)


def reference_density(profile: dict, maximal: Fraction) -> tuple[Fraction, Fraction]:
    """(naive, delta) of a profile dict, from the maximal constant."""
    degrees = profile["degrees"]
    ratio = prod(
        (Fraction(d - 1, d) / Fraction(gl2_order(l) - 1, gl2_order(l))
         for l, d in degrees.items()),
        start=Fraction(1),
    )
    alpha = Fraction(1)
    if profile["charsum"]:
        alpha += prod((Fraction(-1, degrees.get(l, gl2_order(l)) - 1)
                       for l in profile["charsum"]), start=Fraction(1))
    for l in profile["superfluous"]:
        d = degrees.get(l, gl2_order(l))
        alpha *= Fraction(d, d - 1)
    naive = maximal * ratio
    return naive, naive * alpha


def check_encloses(what: str, iv, ref: Fraction) -> list[str]:
    if not iv.lo <= ref <= iv.hi:
        return [f"{what}: [{float(iv.lo)!r}, {float(iv.hi)!r}] misses {float(ref)!r}"]
    return []


def check_printed(label: str, report) -> list[str]:
    naive_s, delta_s = PRINTED_DENSITIES[label]
    if naive_s is None:
        return []
    errs = []
    for what, iv, printed in (("naive", report.naive, naive_s),
                              ("delta", report.delta, delta_s)):
        digits = len(printed.split(".")[1])
        if abs((iv.lo + iv.hi) / 2 - Fraction(printed)) > Fraction(1, 10**digits):
            errs.append(f"{label}: {what} disagrees with printed {printed}")
    return errs


def check_written_report(path: str, delta_ref: Fraction) -> list[str]:
    """A written report parses and its delta lower bound stays below the
    reference (the decimal rendering truncates, so lo stays a bound)."""
    with open(path) as fh:
        doc = json.load(fh)
    if Fraction(doc["delta"]["lo_decimal"]) > delta_ref:
        return [f"{path}: delta lo_decimal above the reference"]
    return []


# -- entangle ----------------------------------------------------------------


def check_full_product(moduli, closure, full, delta) -> list[str]:
    errs = []
    want_order = prod(gl2_order(l) for l in moduli)
    want_delta = prod((Fraction(gl2_order(l) - 1, gl2_order(l)) for l in moduli),
                      start=Fraction(1))
    if closure.order != want_order or full.order != want_order:
        errs.append(f"{moduli}: orders {closure.order}/{full.order}, want {want_order}")
    elif not np.array_equal(np.asarray(closure.elements), np.asarray(full.elements)):
        errs.append(f"{moduli}: closure differs from full_product_group")
    if delta != want_delta:
        errs.append(f"{moduli}: delta {delta}, want {want_delta}")
    return errs


def check_kernel(closure, full, delta) -> list[str]:
    """Every element lies in the kernel of sign x Legendre(det), there
    are 369,360 of them, and delta is the index-2 count."""
    errs = []
    codes = np.asarray(closure.elements, dtype=np.int64)
    if len(codes) != KERNEL_ORDER or np.any(np.diff(codes) <= 0):
        errs.append(f"kernel: {len(codes)} elements, want {KERNEL_ORDER} distinct")
        return errs
    m19 = codes % 19**4
    m2 = codes // 19**4
    a2, b2, c2, d2 = m2 // 8 % 2, m2 // 4 % 2, m2 // 2 % 2, m2 % 2
    a, b, c, d = m19 // 19**3 % 19, m19 // 19**2 % 19, m19 // 19 % 19, m19 % 19
    det2 = (a2 * d2 - b2 * c2) % 2
    det19 = (a * d - b * c) % 19
    squares = np.zeros(19, dtype=bool)
    squares[[x * x % 19 for x in range(1, 19)]] = True
    # GL2(F_2) is S_3 on the nonzero vectors: the odd elements are the
    # three involutions, the non-identity elements of trace 0.
    identity2 = (a2 == 1) & (b2 == 0) & (c2 == 0) & (d2 == 1)
    odd = ((a2 + d2) % 2 == 0) & ~identity2
    if np.any(det2 == 0) or np.any(det19 == 0):
        errs.append("kernel: singular component")
    if np.any(odd == squares[det19]):
        errs.append("kernel: element outside the kernel of sign x Legendre(det)")
    if full.order != gl2_order(2) * gl2_order(19):
        errs.append(f"kernel ambient: order {full.order}")
    elif not np.all(np.isin(codes, np.asarray(full.elements))):
        errs.append("kernel: element outside the ambient product")
    if delta != KERNEL_DELTA:
        errs.append(f"kernel: delta {delta}, want {KERNEL_DELTA}")
    return errs

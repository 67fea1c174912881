"""Seeded workload inputs as plain data.

Curves are (label, A, B) triples, degree profiles are dicts and group
generators are tuples of row-major 2x2 matrices, so nothing here needs
cyclored.  The same (workload, seed) always gives the same inputs.
"""

from __future__ import annotations

import random
from math import prod

REGISTRY_LABELS = ("serre-ex1", "serre-ex2", "serre-ex3", "serre-ex4", "serre-ex5")
COEFF_BOUND = 10**6
ROUNDS = 32  # more rounds than any run completes; a run uses a prefix
DENSITY_ROUNDS = 4  # a density round takes most of a run
DENSITY_RANDOM = 2  # random profiles in a density round, beside the five registry ones

# Standard generators of GL2(F_l): a primitive-root diagonal, the upper
# transvection and the swap.
_STANDARD_GENS = {
    3: ((2, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0)),
    7: ((3, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0)),
}
FULL_MODULI = (3, 7)
# The index-2 kernel of sign x Legendre(det) in GL2(F_2) x GL2(F_19)
# (serre-ex3's {2, 19} character tie).  g1^19 = (C3, I) and g1^3 gives
# the upper transvection, g2 the lower one, so with g3 (odd, non-square
# det) and g3^2 = (I, diag(4, 1)) the three generate all 369,360
# elements.  Conjugation keeps a normal subgroup, so every seed's
# conjugated generators give the same group.
KERNEL_MODULI = (2, 19)
_KERNEL_GENS = (
    ((0, 1, 1, 1), (1, 1, 0, 1)),
    ((1, 0, 0, 1), (1, 0, 1, 1)),
    ((0, 1, 1, 0), (2, 0, 0, 1)),
)


def _gl2_order(l: int) -> int:
    return (l * l - 1) * (l * l - l)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def random_curves(rng: random.Random, n: int) -> list[tuple[None, int, int]]:
    """n non-singular (A, B) with |A|, |B| <= COEFF_BOUND."""
    out = []
    while len(out) < n:
        a = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        b = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        if 4 * a**3 + 27 * b**2 != 0:
            out.append((None, a, b))
    return out


def random_profile(rng: random.Random) -> dict:
    """An admissible degree profile over {2, 3, 5, 7}: each prime annotated
    with probability 0.8, a character tie on two or more of them half the
    time when their joint degree is even."""
    degrees = {}
    for l in (2, 3, 5, 7):
        if rng.random() < 0.8:
            degrees[l] = rng.randrange(2, _gl2_order(l) + 1)
    charsum: tuple[int, ...] = ()
    if len(degrees) >= 2 and rng.random() < 0.5:
        pick = rng.sample(sorted(degrees), rng.randrange(2, len(degrees) + 1))
        if prod(degrees[l] for l in pick) % 2 == 0:
            charsum = tuple(sorted(pick))
    return {"degrees": degrees, "superfluous": (), "charsum": charsum}


def _mat_mul(m, n, l):
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % l, (a * f + b * h) % l,
            (c * e + d * g) % l, (c * f + d * h) % l)


def _random_invertible(rng: random.Random, l: int):
    while True:
        m = tuple(rng.randrange(l) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % l:
            return m


def _conjugate(m, c, l):
    """c^-1 m c."""
    det_inv = pow((c[0] * c[3] - c[1] * c[2]) % l, -1, l)
    c_inv = tuple(x * det_inv % l for x in (c[3], -c[1], -c[2], c[0]))
    return _mat_mul(_mat_mul(c_inv, m, l), c, l)


def full_product_generators(rng: random.Random):
    """Embedded standard generators of GL2(F_3) x GL2(F_7), each
    component conjugated by its own seeded matrix."""
    conj = [_random_invertible(rng, l) for l in FULL_MODULI]
    ident = (1, 0, 0, 1)
    gens = []
    for i, l in enumerate(FULL_MODULI):
        for g in _STANDARD_GENS[l]:
            gens.append(tuple(
                _conjugate(g, conj[i], l) if j == i else ident
                for j in range(len(FULL_MODULI))
            ))
    return tuple(gens)


def kernel_generators(rng: random.Random):
    """The kernel's generators conjugated by a seeded element."""
    conj = [_random_invertible(rng, l) for l in KERNEL_MODULI]
    return tuple(
        tuple(_conjugate(m, c, l) for m, c, l in zip(g, conj, KERNEL_MODULI))
        for g in _KERNEL_GENS
    )


def generate(workload: str, seed: int) -> list[list]:
    """The workload's rounds: each a list of op inputs, balanced so that
    every round costs about the same."""
    rng = _rng(workload, seed)
    if workload == "census-cold":
        # A run completes only a few rounds, so the seed picks the first
        # registry curve; a range of seeds times all five.
        curves = random_curves(rng, ROUNDS)
        n = len(REGISTRY_LABELS)
        return [[(REGISTRY_LABELS[(seed + i) % n], None, None), curves[i]]
                for i in range(ROUNDS)]
    if workload == "census-io":
        return [[c] for c in random_curves(rng, ROUNDS)]
    if workload == "density":
        # Every round holds all five registry profiles.
        return [[("label", label) for label in REGISTRY_LABELS]
                + [("profile", random_profile(rng)) for _ in range(DENSITY_RANDOM)]
                for _ in range(DENSITY_ROUNDS)]
    if workload == "entangle":
        return [[("full", FULL_MODULI, full_product_generators(rng)),
                 ("kernel", KERNEL_MODULI, kernel_generators(rng))]
                for _ in range(ROUNDS)]
    raise ValueError(f"unknown workload {workload!r}")

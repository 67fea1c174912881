from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    FIVE_CURVES,
    brute_add,
    brute_first_invariant,
    brute_points,
    brute_structure,
    reduced,
)
from cyclored import curve
from cyclored.curve import (
    BadReduction,
    BadWitness,
    CurveOverQ,
    GroupStructure,
    ReducedCurve,
    add,
    group_order,
    group_orders,
    group_structure,
    is_cyclic,
    on_curve,
    point_order,
    random_point,
    reduce,
    scalar_mul,
)
from cyclored.curve import _order_exhaustive, full_ell_torsion, full_torsion_lanes
from cyclored.modmath import is_prime, legendre, sieve_primes, sqrt_mod


def test_singular_models_rejected():
    with pytest.raises(ValueError):
        CurveOverQ(0, 0)
    with pytest.raises(ValueError):
        CurveOverQ(-3, 2)  # 4*(-27) + 27*4 = 0


def test_discriminant_values():
    assert CurveOverQ(-3, 1).delta_E == 1296
    assert CurveOverQ(2, 3).delta_E == -4400
    assert CurveOverQ(1, 3).delta_E == -16 * (4 + 243)


def test_bad_reduction_detection():
    E = CurveOverQ(-3, 1)  # delta = 1296 = 2^4 * 3^4
    for p in (2, 3):
        with pytest.raises(BadReduction):
            reduce(E, p)
    C = reduce(E, 5)
    assert (C.p, C.a, C.b) == (5, 2, 1)
    with pytest.raises(ValueError):
        reduce(E, 1)


def test_group_law_matches_brute_force():
    # every pairwise sum on a small curve, against the independent adder
    from conftest import brute_add

    p, a, b = 13, 2, 3
    C = ReducedCurve(p, a, b)
    pts = brute_points(p, a, b)
    for P in pts:
        for Q in pts:
            assert add(P, Q, C) == brute_add(P, Q, p, a)


def test_group_law_properties():
    rng = random.Random(42)
    for p, a, b in ((23, 5, 4), (97, 1, 3), (211, 7, 11)):
        C = ReducedCurve(p, a, b)
        pts = brute_points(p, a, b)
        for _ in range(40):
            P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
            assert on_curve(add(P, Q, C), C)
            assert add(P, Q, C) == add(Q, P, C)
            assert add(add(P, Q, C), R, C) == add(P, add(Q, R, C), C)
            assert add(P, None, C) == P
            if P is not None:
                negP = (P[0], (-P[1]) % p)
                assert add(P, negP, C) is None


def test_add_validates_points():
    C = ReducedCurve(7, 2, 3)
    with pytest.raises(ValueError):
        add((0, 1), None, C)  # (0,1) not on the curve
    with pytest.raises(ValueError):
        scalar_mul(3, (1, 99), C)


def test_scalar_mul_agrees_with_iterated_add():
    C = ReducedCurve(101, -3 % 101, 1)
    P = random_point(C, 0)
    acc = None
    for k in range(1, 30):
        acc = add(acc, P, C)
        assert scalar_mul(k, P, C) == acc
    assert scalar_mul(0, P, C) is None
    # negative multiplier inverts
    assert scalar_mul(-5, P, C) == (scalar_mul(5, (P[0], (-P[1]) % C.p), C))


def test_random_point_deterministic():
    C = ReducedCurve(1009, 13, 17)
    P = random_point(C, 9)
    assert P == random_point(C, 9)
    assert on_curve(P, C)
    seen = {random_point(C, s) for s in range(20)}
    assert len(seen) > 10  # seeds spread out


def test_group_order_small_matches_enumeration():
    # Below 2^10 group_order is _order_exhaustive, the oracle of three other
    # tests here: four curves at the smallest primes, and two curves at
    # every prime 5 <= p < 2^10.
    cases = [(p, a, b) for p in (5, 7, 11, 13, 17) for a, b in ((1, 1), (2, 3), (0, 1), (4, 4))]
    cases += [(p, A % p, B % p) for A, B in (FIVE_CURVES[0], FIVE_CURVES[2])
              for p in sieve_primes((1 << 10) - 1) if p >= 5]
    for p, a, b in cases:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        assert group_order(ReducedCurve(p, a, b)) == len(brute_points(p, a, b)), (p, a, b)


def test_group_order_bsgs_matches_exhaustive():
    # p above the exhaustive cutoff exercises the annihilator scan
    primes = [p for p in sieve_primes(1450) if p > 1024]
    for A, B in ((-3, 1), (2, 3)):
        E = CurveOverQ(A, B)
        for p in primes:
            C = reduce(E, p)
            n = group_order(C)
            assert n == _order_exhaustive(p, C.a, C.b), (A, B, p)


def _good_reductions_above_exhaustive_cutoff():
    """((A, B), reduction) for every good prime in (2^10, 2^12] of the
    five registry curves."""
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        for p in sieve_primes(1 << 12):
            if p > 1 << 10 and E.delta_E % p:
                yield (A, B), reduce(E, p)


def test_group_order_samples_curve_and_twist(monkeypatch):
    # group_order's one loop scans points on the curve and on its
    # quadratic twist.  The oracle tells the sides apart: a scanned point
    # whose order does not divide the exhaustive n lies on the twist, one
    # whose order does not divide the twist's 2p + 2 - n on the curve.
    # Some orders are settled by both sides' lcms together: the last scan
    # left several multiples, after points on both sides.
    window = curve._window_annihilators
    scans = []

    def recording_window(P, p, a, lo, hi):
        scans.append((P, a, window(P, p, a, lo, hi)))
        return scans[-1][2]

    monkeypatch.setattr(curve, "_window_annihilators", recording_window)
    both = jointly = 0
    for AB, C in _good_reductions_above_exhaustive_cutoff():
        scans.clear()
        n = _order_exhaustive(C.p, C.a, C.b)
        assert group_order(C) == n, (AB, C.p)
        sides = {side for P, a, _ in scans
                 for side, m in (("twist", n), ("curve", 2 * C.p + 2 - n))
                 if curve._mul_raw(m, P, C.p, a) is not None}
        both += len(sides) == 2
        jointly += len(sides) == 2 and len(scans[-1][2]) > 1
    assert both >= 20 and jointly >= 5


def test_sylow_certifier_matches_torsion_counts():
    # Every prime where 4 | d or 9 | d is possible (d | p - 1, d^2 | n),
    # plus a seeded sample of the others.
    rng = random.Random(2)
    deep = {4: 0, 9: 0}
    for AB, C in _good_reductions_above_exhaustive_cutoff():
        p, n = C.p, group_order(C)
        if rng.random() > 0.03 and not any(
            (p - 1) % m == 0 and n % (m * m) == 0 for m in deep
        ):
            continue
        d = brute_first_invariant(p, C.a, C.b)
        assert group_structure(C).d == d, (AB, p)
        for m in deep:
            deep[m] += d % m == 0
    assert deep == {4: 30, 9: 5}


def _primes_below(top, count):
    """The count largest primes below top, ascending."""
    out = []
    q = top - 1
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out[::-1]


def test_lane_orders_match_group_order():
    # Every good prime up to 2*10^4 of the registry curves and of seeded
    # random curves, two of them with coefficients above 10^12, and bands
    # just below and just above 2^21, where the lanes' lazy sums end, and
    # just below 2^31 and 2^32, where residue products come closest to
    # 2^64.  Every route to the scalar path is taken at least once, and
    # lanes scan points on the curve and on its twist.
    rng = random.Random(11)
    curves = [CurveOverQ(A, B) for A, B in FIVE_CURVES]
    curves += [CurveOverQ(rng.randrange(-999, 1000), rng.randrange(-999, 1000)) for _ in range(2)]
    curves += [CurveOverQ(rng.randrange(10**12, 10**14), -rng.randrange(10**12, 10**14))
               for _ in range(2)]
    low = sieve_primes(20_000)
    bands = [(E, low) for E in curves]
    bands += [(E, _primes_below(top, 100)) for E in (curves[0], curves[-1])
              for top in (1 << 21, (1 << 21) + 3000, 1 << 31, 1 << 32)]
    assert bands[-3][1][0] > 1 << 21 > bands[-4][1][-1]
    bands.append((curves[1], [p for p in low if p > 10_000][:5]))  # five lanes
    routes = Counter()
    for E, primes in bands:
        good = [p for p in primes if E.delta_E % p]
        before = routes["orders_batched"] + routes["orders_scalar"]
        got = group_orders(E.A, E.B, good, routes)
        assert got == [group_order(reduce(E, p)) for p in good], (E, good[0], good[-1])
        assert routes["orders_batched"] + routes["orders_scalar"] == before + len(good)
    for route in ("scalar_p_range", "scalar_small_order", "scalar_degenerate",
                  "scalar_multiples"):
        assert routes[route] > 0, route
    # the lanes settle most of the primes they scan
    scanned = routes["orders_batched"] + sum(
        routes[r] for r in ("scalar_small_order", "scalar_degenerate", "scalar_multiples"))
    assert routes["orders_batched"] > 0.85 * scanned
    assert 0 < routes["lanes_twisted"] < scanned
    # the second pass, on each open lane's next point, settles most of them
    left = scanned - routes["orders_batched"]
    assert 0 < left < routes["lanes_retried"] / 4


def test_lane_giant_at_infinity_settles():
    # Over F_1031 the window is [968, 1096], m = 9 and the giants sit at
    # 977 + 19i.  y^2 = x^3 + x + 44 has 996 = 977 + 19 points and a point
    # of order 996, so giant 1 is exactly at infinity and the lane stays
    # open.  The shifted giants sit at 967 + 19i, so 996 = 1005 - 9 lies
    # on the baby offset -m of giant 2, and the lane settles.
    p, a, b = 1031, 1, 44
    C = ReducedCurve(p, a, b)
    n = group_order(C)
    P = random_point(C, 1)
    assert n == 977 + 19 and point_order(P, n, C) == n
    orders, why = curve._lane_orders((p,), (a,), (P[0],), (P[1],))
    assert list(orders) == [0]
    assert why == {"scalar_small_order": 0, "scalar_degenerate": 1, "scalar_multiples": 0}
    orders, why = curve._lane_orders((p,), (a,), (P[0],), (P[1],), shifted=True)
    assert list(orders) == [n]
    assert why == {"scalar_small_order": 0, "scalar_degenerate": 0, "scalar_multiples": 0}


def test_lane_doubling_case_falls_back():
    # Over F_1033 the window is [970, 1098], m = 9 and the stride is 19.  For
    # a point of order 24, c0 * P = 979 P = 19 P = S, so the first giant step
    # adds S to itself: H = 0 and R = 0, a doubling outside the formula's
    # domain, and the lane goes to the scalar path.
    p, a, b = 1033, 1, 2
    C = ReducedCurve(p, a, b)
    P = (190, 675)
    assert point_order(P, group_order(C), C) == 24 and (979 - 19) % 24 == 0
    orders, why = curve._lane_orders((p,), (a,), (P[0],), (P[1],))
    assert list(orders) == [0]
    assert why == {"scalar_small_order": 0, "scalar_degenerate": 1, "scalar_multiples": 0}


def test_ladder_matches_scalar_multiplication():
    # _lane_orders' windowed c0*P on random lanes below 2^21 (lazy sums)
    # and near 2^31: a table of j*P for j <= 11 (base-8 digits), scalars of
    # one to six digits with zero digits among them.  Wherever a lane's
    # result is finite it is k*P.
    rng = random.Random(17)
    m = 11
    for top in (1 << 20, 1 << 31):
        lanes = []
        while len(lanes) < 60:
            p = rng.randrange(top // 2, top) | 1
            a, b = rng.randrange(p), rng.randrange(p)
            if not is_prime(p) or (4 * a**3 + 27 * b * b) % p == 0:
                continue
            P = random_point(ReducedCurve(p, a, b), rng.randrange(1 << 30))
            table = [curve._mul_raw(j, P, p, a) for j in range(1, m + 1)]
            if P[1] and None not in table:
                digits = [rng.randrange(1, 8)] + [rng.choice((0, rng.randrange(8)))
                                                  for _ in range(len(lanes) % 6)]
                lanes.append((p, a, P, table, int("".join(map(str, digits)), 8)))
        p, a, k = (np.array([lane[i] for lane in lanes]) for i in (0, 1, 4))
        tx, ty = (np.array([[Q[i] for Q in lane[3]] for lane in lanes], dtype=np.uint64).T
                  for i in (0, 1))
        assert any("0" in oct(v)[2:] for v in k.tolist())
        X, Y, Z = (v.tolist() for v in curve._ladder(
            k, tx, ty, a.astype(np.uint64), p.astype(np.uint64), top < 1 << 21))
        finite = 0
        for (q, c, P, _, s), x, y, z in zip(lanes, X, Y, Z):
            if z:
                zi = pow(z, -1, q)
                assert (x * zi**2 % q, y * zi**3 % q) == curve._mul_raw(s, P, q, c), (q, s)
                finite += 1
        assert finite >= 55, finite


def test_splitmix64_known_answers():
    # The reference splitmix64 outputs from state 0, on Python ints and on
    # the uint64 lanes group_orders draws its points from.
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    s, lanes = 0, np.zeros(2, dtype=np.uint64)
    for z in want:
        s, got = curve._next64(s)
        lanes, lane_z = curve._next64(lanes)
        assert got == z and lane_z.tolist() == [z, z]
    p = np.array([1031, (1 << 32) - 5], dtype=np.uint64)
    seeds = curve._mix_seed(p, p - 7, p - 9, 1)
    assert seeds.tolist() == [curve._mix_seed(q, q - 7, q - 9, 1) for q in p.tolist()]


def test_lane_residues_of_large_coefficients():
    p = np.array([1031, 65537, (1 << 32) - 5], dtype=np.uint64)
    for A in (0, 1, -1, 10**30 + 7, -(10**30 + 7), -(1 << 64), 3**90):
        assert curve._lane_residues(A, p).tolist() == [A % q for q in p.tolist()], A


def test_sample_point_matches_sqrt_mod_path():
    # _sample_point roots its squares without sqrt_mod's checks; the points
    # must be those of the draw-check-root loop with sqrt_mod, bit for bit,
    # for three successive points at every p = 1 mod 4 below 2*10^4.
    def via_sqrt_mod(p, a, b, s):
        while True:
            s, z = curve._next64(s)
            x = z % p
            rhs = (x * x * x + a * x + b) % p
            if rhs == 0:
                return (x, 0), s
            if legendre(rhs, p) == 1:
                r = sqrt_mod(rhs, p)
                s, z = curve._next64(s)
                return ((x, r) if z & 1 == 0 else (x, p - r)), s

    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        for p in sieve_primes(20_000):
            if p % 4 != 1 or E.delta_E % p == 0:
                continue
            s = t = curve._mix_seed(p, A % p, B % p, 1)
            for _ in range(3):
                P, s = curve._sample_point(p, A % p, B % p, s)
                Q, t = via_sqrt_mod(p, A % p, B % p, t)
                assert P == Q and s == t, (A, B, p)


def test_lane_routes_by_point_order():
    # One lane per point of order r, 3 <= r <= 40, on curves over F_1031,
    # whose Hasse window has width 129, so the babies reach m = 9.  Orders
    # up to 2m + 1 = 19 are small: a baby or the stride is the point at
    # infinity, or two babies share an x.  Larger ones leave several
    # multiples in the window, or put one on a giant.  None settles.
    p = 1031
    points = {}
    for a, b in ((a, b) for a in range(1, 40) for b in range(1, 40)):
        if len(points) == 38:
            break
        C = ReducedCurve(p, a, b)
        n = _order_exhaustive(p, a, b)
        for s in range(4):
            P = random_point(C, s)
            if P[1] == 0:
                continue
            o = point_order(P, n, C)
            for r in range(3, 41):
                if o % r == 0 and r not in points:
                    points[r] = (a, scalar_mul(o // r, P, C))
    assert sorted(points) == list(range(3, 41))
    for r, (a, (x, y)) in points.items():
        orders, why = curve._lane_orders((p,), (a,), (x,), (y,))
        assert orders == [0] and sum(why.values()) == 1, r
        assert why["scalar_small_order"] == (r <= 19), (r, why)


def test_two_torsion_by_discriminant_matches_sylow():
    # Every good prime up to 3*10^4 with 4 | n on the registry curves: the
    # discriminant is a square mod p exactly when sampling the 2-Sylow
    # subgroup certifies full 2-torsion.
    seen = Counter()
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        good = [p for p in sieve_primes(30_000) if E.delta_E % p]
        for p, n in zip(good, group_orders(A, B, good)):
            if n % 4:
                continue
            v = (n & -n).bit_length() - 1
            square = legendre(E.delta_E, p) == 1
            assert square == (curve._sylow_first_invariant(p, A % p, B % p, n, 2, v) >= 1), (A, B, p)
            seen[square] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_full_torsion_lanes_match_sylow():
    # Every good prime up to 2*10^4 of the registry curves and of seeded
    # random curves, and bands of primes just below 2^29 (the lanes' lazy
    # sums), just above it and below 2^32 (a reduction per product) on
    # serre-ex3 and serre-ex5, rich in 3- and 5-torsion.  Each lane answer is l | d, or
    # 4 | d, of the sampled structure, and the structure that takes the
    # answers is the sampled one.
    rng = random.Random(13)
    curves = [CurveOverQ(A, B) for A, B in FIVE_CURVES]
    curves += [CurveOverQ(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
               for _ in range(4)]
    bands = [(E, sieve_primes(20_000)) for E in curves]
    bands += [(curves[k], _primes_below(top, 150)) for k in (2, 4)
              for top in (1 << 29, (1 << 29) + 5000, 1 << 32)]
    seen = Counter()
    for E, primes in bands:
        good = [p for p in primes if E.delta_E % p]
        orders = group_orders(E.A, E.B, good)
        for p, n, full in zip(good, orders, full_torsion_lanes(E.A, E.B, good, orders)):
            if not full:
                continue
            C = reduce(E, p)
            st = group_structure(C, n)
            for m, fixed in full.items():
                assert fixed == (st.d % m == 0), (E, p, m)
                seen[m, fixed] += 1
            assert group_structure(C, n, full_torsion=full) == st, (E, p)
    assert all(seen[m, fixed] > 0 for m in (3, 4, 5) for fixed in (True, False)), seen


def _roots(coeffs, p):
    return {x for x in range(p) if sum(c * x**i for i, c in enumerate(coeffs)) % p == 0}


def test_division_polynomial_roots_are_torsion_x():
    # For every other good p in (100, 1000), a root x in F_p of psi_3,
    # g_4 or psi_5 is the x of a point of order 3, of exact order 4 or of
    # order 5 on the curve or, when f(x) is not a square, of the point
    # (cx, cy), y^2 = c f(x), of the quadratic twist
    # y^2 = x^3 + ac^2 x + bc^3 for a non-square c.
    found = Counter()
    for A, B in (FIVE_CURVES[2], (31, -17)):
        E = CurveOverQ(A, B)
        polys = curve._division_polynomials(A, B)
        for p in sieve_primes(1000)[::2]:
            if p < 100 or E.delta_E % p == 0:
                continue
            c = next(c for c in range(2, p) if legendre(c, p) == -1)
            torsion = {3: set(), 4: set(), 5: set()}
            for scale, a, b in ((1, A % p, B % p), (c, A * c * c % p, B * c**3 % p)):
                undo = pow(scale, -1, p)
                for P in brute_points(p, a, b)[1:]:
                    P2 = brute_add(P, P, p, a)
                    P4 = brute_add(P2, P2, p, a)
                    if brute_add(P2, P, p, a) is None:
                        torsion[3].add(P[0] * undo % p)
                    if P4 is None and P2 is not None:
                        torsion[4].add(P[0] * undo % p)
                    if brute_add(P4, P, p, a) is None:
                        torsion[5].add(P[0] * undo % p)
            for m, xs in torsion.items():
                assert _roots(polys[m], p) == xs, (A, B, p, m)
                found[m] += len(xs)
    assert min(found.values()) > 100, found


def test_cubic_splitting_matches_root_count():
    # full_ell_torsion(a, b, 2, [p]) against a count of the cubic's roots
    rng = random.Random(29)
    primes = sieve_primes(5000)[2:]
    for _ in range(300):
        p = rng.choice(primes)
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        roots = sum((x * x * x + a * x + b) % p == 0 for x in range(p))
        assert full_ell_torsion(a, b, 2, [p]) == [roots == 3], (p, a, b)


def test_full_ell_torsion_matches_torsion_count():
    # every good prime below 2000 of serre-ex1 and serre-ex3 against a
    # count of torsion points; no such prime has full 7-torsion
    found = Counter()
    for A, B in (FIVE_CURVES[0], FIVE_CURVES[2]):
        delta = CurveOverQ(A, B).delta_E
        d = {p: brute_first_invariant(p, A % p, B % p)
             for p in sieve_primes(2000) if delta % p}
        for l in (2, 3, 5, 7):
            primes = [p for p in d if p != l]
            for p, full in zip(primes, full_ell_torsion(A, B, l, primes)):
                assert full == (d[p] % l == 0), (A, B, p, l)
                found[l] += full
    assert found[2] and found[3] and found[5] and not found[7], found


def test_group_order_hasse_bound():
    rng = random.Random(5)
    primes = sieve_primes(30000)
    for _ in range(25):
        p = primes[rng.randrange(100, len(primes))]
        C = ReducedCurve(p, rng.randrange(p), rng.randrange(1, p))
        if (4 * C.a**3 + 27 * C.b**2) % p == 0:
            continue
        n = group_order(C)
        assert abs(n - (p + 1)) <= 2 * math.isqrt(p)
        # the whole group is annihilated by its order
        for s in range(4):
            assert scalar_mul(n, random_point(C, s), C) is None


def test_point_order():
    C = reduced(-3, 1, 1013)
    N = group_order(C)
    for s in range(8):
        P = random_point(C, s)
        o = point_order(P, N, C)
        assert N % o == 0
        assert scalar_mul(o, P, C) is None
        if o > 1:
            assert scalar_mul(o // [q for q in range(2, o + 1) if o % q == 0][0],
                              P, C) is not None
    assert point_order(None, N, C) == 1
    with pytest.raises(BadWitness):
        P = random_point(C, 0)
        point_order(P, N + 1, C)  # N+1 does not annihilate this group


def test_group_structure_rejects_a_wrong_order():
    # 1134 is the twist's order; the curve has 1102 points, none of order
    # 3, so no sampled point projects into a 3-Sylow subgroup of order 81
    C = ReducedCurve(1117, 1, 3)
    assert group_order(C) == 1102 and 2 * 1117 + 2 - 1102 == 1134
    with pytest.raises(BadWitness):
        group_structure(C, 1134)


def test_group_structure_matches_brute_force():
    # all good primes below 150 for two registry curves
    for A, B in ((-3, 1), (2, 3)):
        E = CurveOverQ(A, B)
        for p in sieve_primes(150):
            if E.delta_E % p == 0:
                continue
            st = group_structure(reduce(E, p))
            n, d, e = brute_structure(p, A % p, B % p)
            assert (st.n, st.d, st.e) == (n, d, e), (A, B, p)
            assert st.d * st.e == st.n
            assert st.e % st.d == 0
            assert (p - 1) % st.d == 0


def test_structure_invariants_random_curves():
    rng = random.Random(77)
    primes = [p for p in sieve_primes(4000) if p > 1024]
    for _ in range(15):
        p = primes[rng.randrange(len(primes))]
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        C = ReducedCurve(p, a, b)
        st = group_structure(C)
        assert st.d * st.e == st.n == group_order(C)
        assert st.e % st.d == 0 and (p - 1) % st.d == 0
        # d annihilates nothing unless d*e does; spot-check exponent e
        for s in range(3):
            assert scalar_mul(st.e, random_point(C, s), C) is None


def test_full_torsion_and_cyclicity():
    E = CurveOverQ(-3, 1)
    good = [p for p in sieve_primes(150) if E.delta_E % p]
    structures = {p: group_structure(reduce(E, p)) for p in good}
    for p, st in structures.items():
        assert is_cyclic(reduce(E, p)) == (st.d == 1)
    for l in (2, 3, 5):
        primes = [p for p in good if p != l]
        for p, full in zip(primes, full_ell_torsion(E.A, E.B, l, primes)):
            assert full == (structures[p].d % l == 0), (p, l)
        for bad in ([l], [7, l], [7, 2**32 + 15]):  # p = l, p above 2**32
            with pytest.raises(ValueError):
                full_ell_torsion(E.A, E.B, l, bad)


def test_structure_dataclass():
    st = GroupStructure(12, 2, 6)
    assert (st.n, st.d, st.e) == (12, 2, 6)

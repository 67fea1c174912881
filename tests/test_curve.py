from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import (
    FIVE_CURVES,
    brute_add,
    brute_count,
    brute_first_invariant,
    brute_mul,
    brute_point_order,
    brute_points,
    brute_structure,
    prime_list,
    primes_below,
    scalar_group_order,
    torsion_bands,
)
from cyclored import curve
from cyclored.curve import (
    BadReduction,
    BadWitness,
    CurveOverQ,
    GroupStructure,
    IterationCap,
    ReducedCurve,
    group_order,
    group_orders,
    group_structure,
    reduce,
)
from cyclored.curve import _order_exhaustive, full_torsion_lanes, full_two_torsion
from cyclored.modmath import factorize, is_prime, legendre
from cyclored.registry import REGISTRY


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
    p, a, b = 13, 2, 3
    pts = brute_points(p, a, b)
    for P in pts:
        for Q in pts:
            assert curve._add_raw(P, Q, p, a) == brute_add(P, Q, p, a)


def test_group_law_properties():
    rng = random.Random(42)
    for p, a, b in ((23, 5, 4), (97, 1, 3), (211, 7, 11)):
        pts = brute_points(p, a, b)

        def add(P, Q):
            return curve._add_raw(P, Q, p, a)

        for _ in range(40):
            P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
            assert add(P, Q) in pts
            assert add(P, Q) == add(Q, P)
            assert add(add(P, Q), R) == add(P, add(Q, R))
            assert add(P, None) == P
            if P is not None:
                assert add(P, (P[0], (-P[1]) % p)) is None


def test_scalar_mul_agrees_with_iterated_add():
    p, a, b = 101, -3 % 101, 1
    for P in brute_points(p, a, b)[1:6]:
        acc = None
        for k in range(1, 30):
            acc = brute_add(acc, P, p, a)
            assert curve._mul_raw(k, P, p, a) == acc
        assert curve._mul_raw(0, P, p, a) is None


def test_random_point_deterministic():
    # _sample_point, the Sylow sampler's draw: one stream state gives one
    # point on the curve, and successive states spread out
    p, a, b = 1009, 13, 17
    pts = brute_points(p, a, b)
    s = curve._mix_seed(p, a, b, 9)
    assert curve._sample_point(p, a, b, s) == curve._sample_point(p, a, b, s)
    seen = set()
    for _ in range(20):
        P, s = curve._sample_point(p, a, b, s)
        assert P in pts
        seen.add(P)
    assert len(seen) > 10


def test_group_order_small_matches_enumeration():
    # Below 2^10 group_order is _order_exhaustive, the oracle of three other
    # tests here: four curves at the smallest primes, and two curves at
    # every prime 5 <= p < 2^10.  brute_count, the lanes' oracle below
    # 10^4, counts the same points.
    cases = [(p, a, b) for p in (5, 7, 11, 13, 17) for a, b in ((1, 1), (2, 3), (0, 1), (4, 4))]
    cases += [(p, A % p, B % p) for A, B in (FIVE_CURVES[0], FIVE_CURVES[2])
              for p in prime_list((1 << 10) - 1) if p >= 5]
    for p, a, b in cases:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        n = len(brute_points(p, a, b))
        assert group_order(ReducedCurve(p, a, b)) == n == brute_count(p, a, b), (p, a, b)


def test_group_order_bsgs_matches_exhaustive():
    # above the exhaustive cutoff group_order is the lanes on one prime,
    # and group_orders takes the same primes at once; y^2 = x^3 - x is
    # supersingular at p = 3 mod 4, with n = p + 1 on both sides of 2^10
    primes = [p for p in prime_list(1450) if p > 1024]
    ss = [p for p in prime_list(1450) if p % 4 == 3]
    assert group_orders(-1, 0, ss) == [p + 1 for p in ss]
    for A, B in ((-3, 1), (2, 3)):
        E = CurveOverQ(A, B)
        good = [p for p in primes if E.delta_E % p]
        want = [_order_exhaustive(p, A % p, B % p) for p in good]
        assert group_orders(A, B, good) == want, (A, B)
        for p, n in list(zip(good, want))[::8]:
            assert group_order(reduce(E, p)) == n, (A, B, p)


def _good_reductions_above_exhaustive_cutoff():
    """((A, B), reduction, group order) for every good prime in
    (2^10, 2^12] of the five registry curves."""
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        good = [p for p in prime_list(1 << 12) if p > 1 << 10 and E.delta_E % p]
        for p, n in zip(good, group_orders(A, B, good)):
            yield (A, B), reduce(E, p), n


def _record_lane_passes(monkeypatch):
    """A list that receives, per lane pass of group_orders, its primes and
    per lane the settled order, ord(P), whether P lay on the twist and
    whether the scan was blind."""
    passes = []
    lane_pass = curve._lane_pass

    def recording(p, *args):
        out = lane_pass(p, *args)
        passes.append((p.tolist(), *(v.tolist() for v in out)))
        return out

    monkeypatch.setattr(curve, "_lane_pass", recording)
    return passes


def _no_group_order_from_2_10(monkeypatch):
    """Make group_order fail from 2^10 on, where the lanes must settle."""
    exhaustive = curve.group_order

    def below_2_10(C):
        assert C.p < 1 << 10, f"group_order called at p={C.p}"
        return exhaustive(C)

    monkeypatch.setattr(curve, "group_order", below_2_10)


def test_group_order_samples_curve_and_twist(monkeypatch):
    # group_orders' lanes scan points on the curve and on its quadratic
    # twist, and a point with several window multiples gives its order to
    # the lcm of its side.  The oracle checks the side: the order divides n
    # on the curve and 2p + 2 - n on the twist.  Some lanes scan points on
    # both sides, and some settle by the two lcms together: their last
    # point left several multiples, after such a point on the other side.
    passes = _record_lane_passes(monkeypatch)
    both = jointly = 0
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        good = [p for p in prime_list(1 << 15) if p > 1 << 10 and E.delta_E % p]
        passes.clear()
        n = dict(zip(good, group_orders(A, B, good)))
        sides, gap_sides, last_gap = {}, {}, {}
        for primes, _, gaps, twisted, _ in passes:
            for p, gap, tw in zip(primes, gaps, twisted):
                sides.setdefault(p, set()).add(tw)
                last_gap[p] = gap
                if gap:
                    assert (2 * p + 2 - n[p] if tw else n[p]) % gap == 0, (A, B, p)
                    assert n[p] == brute_count(p, A % p, B % p), (A, B, p)
                    gap_sides.setdefault(p, set()).add(tw)
        both += sum(len(s) == 2 for s in sides.values())
        jointly += sum(1 for p, gap in last_gap.items() if gap and len(gap_sides[p]) == 2)
    assert both >= 20 and jointly >= 5, (both, jointly)


def test_sylow_certifier_matches_torsion_counts():
    # Every prime where 4 | d or 9 | d is possible (d | p - 1, d^2 | n),
    # plus a seeded sample of the others.
    rng = random.Random(2)
    deep = {4: 0, 9: 0}
    for AB, C, n in _good_reductions_above_exhaustive_cutoff():
        p = C.p
        if rng.random() > 0.03 and not any(
            (p - 1) % m == 0 and n % (m * m) == 0 for m in deep
        ):
            continue
        d = brute_first_invariant(p, C.a, C.b)
        assert group_structure(C, n).d == d, (AB, p)
        for m in deep:
            deep[m] += d % m == 0
    assert deep == {4: 30, 9: 5}


def test_lane_orders_match_group_order():
    # Every good prime below 10^4 of the registry curves and of seeded
    # random curves, two of them with coefficients above 10^12, against a
    # count of brute_points; bands just below and just above 2^21, where
    # the lanes' lazy sums end, and just below 2^31 and 2^32, where residue
    # products come closest to 2^64, against the one-prime scalar search.
    # Every order from 2^10 on settles in the lanes, on points of the
    # curve and of its twist.
    rng = random.Random(11)
    curves = [CurveOverQ(A, B) for A, B in FIVE_CURVES]
    curves += [CurveOverQ(rng.randrange(-999, 1000), rng.randrange(-999, 1000)) for _ in range(2)]
    curves += [CurveOverQ(rng.randrange(10**12, 10**14), -rng.randrange(10**12, 10**14))
               for _ in range(2)]
    low = prime_list(10_000)
    bands = [(E, low, brute_count) for E in curves]
    bands += [(E, primes_below(top, 100), scalar_group_order) for E in (curves[0], curves[-1])
              for top in (1 << 21, (1 << 21) + 3000, 1 << 31, 1 << 32)]
    assert bands[-3][1][0] > 1 << 21 > bands[-4][1][-1]
    bands.append((curves[1], [p for p in low if p > 5000][:5], brute_count))  # five lanes
    routes = Counter()
    for E, primes, oracle in bands:
        good = [p for p in primes if E.delta_E % p]
        got = group_orders(E.A, E.B, good, routes)
        assert got == [oracle(p, E.A % p, E.B % p) for p in good], (E, good[0], good[-1])
    lanes = sum(1 for E, primes, _ in bands for p in primes if p > 1 << 10 and E.delta_E % p)
    assert routes["orders_batched"] == lanes
    assert routes["orders_exhaustive"] == sum(
        1 for E, primes, _ in bands for p in primes if p < 1 << 10 and E.delta_E % p)
    # most lanes settle on their first point, and every pass after the
    # first scans only the lanes still open
    assert lanes < routes["lane_points"] < 1.1 * lanes
    assert routes["lane_passes"] > len(bands)
    assert 0.4 * routes["lane_points"] < routes["lanes_twisted"] < 0.6 * routes["lane_points"]


def test_lane_giant_at_infinity_settles():
    # Over F_1031 the window is [968, 1096], m = 9 and the giants sit at
    # 977 + 19i.  y^2 = x^3 + x + 44 has 996 = 977 + 19 points and a point
    # of order 996, so giant 1 is exactly at infinity and the lane stays
    # open with nothing learnt.  The shifted giants sit at 967 + 19i, so
    # 996 = 1005 - 9 lies on the baby offset -m of giant 2, and the lane
    # settles.
    p, a, b = 1031, 1, 44
    n = brute_count(p, a, b)
    P = next(P for P in brute_points(p, a, b)[1:] if brute_point_order(P, p, a) == n)
    assert n == 977 + 19
    orders, gaps, _ = curve._lane_orders((p,), (a,), (P[0],), (P[1],))
    assert (orders.tolist(), gaps.tolist()) == ([0], [0])
    orders, gaps, _ = curve._lane_orders((p,), (a,), (P[0],), (P[1],), shifted=True)
    assert (orders.tolist(), gaps.tolist()) == ([n], [0])


# Lanes blind on a pass.  Over F_3301 the window is [3188, 3416], m = 11
# and the plain giants sit at 3199 + 23i.  y^2 = x^3 - 512007x - 339773
# has 3337 = 3199 + 6 * 23 points, so every curve point meets infinity on
# a plain pass, and its twist, Z/33 x Z/99, leaves two window values.
# Over F_4327 the window is [4197, 4459], m = 12, and the other two are
# models of one curve: its group Z/21 x Z/210 leaves 4200 and 4410, and
# its twist has 4246 = 4196 + 2 * 25 points, a shifted giant, so every
# twist point meets infinity on a shifted pass.  With no rescan the
# second stays open, and with rescans after plain passes only the third.
BLIND = [(-512007, -339773, 3301), (745260, -980378, 4327), (4205, 3290, 4327)]


def test_blind_lanes_settle_on_a_rescan():
    # a point the giants missed is scanned again on the other giants
    for A, B, p in BLIND:
        stats = Counter()
        assert group_orders(A, B, [p], stats) == [_order_exhaustive(p, A % p, B % p)], (A, B)
        assert stats["lanes_rescanned"] > 0, (A, B)


def test_random_curves_settle_against_exhaustive_counts():
    # A seeded sweep.  Random models y^2 = x^3 + u^4 a x + u^6 b of the
    # blind curves share their groups, and so their blind giants, but each
    # draws its own points; and random curves over Q at every good prime
    # in (2^10, 2^13].  Every order settles on the exhaustive count.
    rng = random.Random(5)
    for A, B, p in BLIND[:2]:
        for _ in range(150):
            u = rng.randrange(1, p)
            a, b = A * u**4 % p, B * u**6 % p
            assert group_orders(a, b, [p]) == [_order_exhaustive(p, a, b)], (a, b, p)
    primes = [p for p in prime_list(1 << 13) if p > 1 << 10]
    for _ in range(12):
        E = CurveOverQ(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
        good = [p for p in primes if E.delta_E % p]
        assert group_orders(E.A, E.B, good) == [
            _order_exhaustive(p, E.A % p, E.B % p) for p in good], E


def test_lane_doubling_case_settles_on_a_later_pass(monkeypatch):
    # Over F_1033 the window is [970, 1098], m = 9 and the stride is 19.  For
    # a point of order 24, c0 * P = 979 P = 19 P = S, so the first giant step
    # adds S to itself: H = 0 and R = 0, a doubling outside the formula's
    # domain, and the lane stays open with nothing learnt.  The shifted
    # ladder to 969 P passes through 120 P = O, so that pass learns nothing
    # either: the lane needs a new point.
    p, a, b = 1033, 1, 2
    P = (190, 675)
    assert brute_point_order(P, p, a) == 24 and (979 - 19) % 24 == 0
    for shifted in (False, True):
        orders, gaps, _ = curve._lane_orders((p,), (a,), (P[0],), (P[1],), shifted)
        assert (orders.tolist(), gaps.tolist()) == ([0], [0]), shifted
    # group_orders' first pass leaves such lanes, and lanes on a point of
    # small order, open with nothing learnt; every one settles in the lanes
    # on a later pass
    passes = _record_lane_passes(monkeypatch)
    _no_group_order_from_2_10(monkeypatch)
    for A, B in FIVE_CURVES[:2]:
        E = CurveOverQ(A, B)
        good = [p for p in prime_list(1 << 13) if p > 1 << 10 and E.delta_E % p]
        passes.clear()
        n = dict(zip(good, group_orders(A, B, good)))
        primes, settled, gaps, _, _ = passes[0]
        open_ = [q for q, k, gap in zip(primes, settled, gaps) if not k and not gap]
        assert len(open_) >= 10, (A, B)
        assert all(n[q] == brute_count(q, A % q, B % q) for q in open_), (A, B)
    # with a budget of one point per lane such a lane raises IterationCap
    monkeypatch.setattr(curve, "_SAMPLE_BUDGET", 1)
    with pytest.raises(IterationCap, match=f"F_{open_[0]} "):
        group_orders(A, B, [good[0], open_[0]])


def test_lanes_settle_points_with_several_multiples(monkeypatch):
    # Primes whose first two lane points each leave several multiples of
    # their order in the Hasse window, some of them one point on the curve
    # and one on its twist: the lanes fold those orders into their lcms and
    # settle every such prime themselves, with no group_order call from
    # 2^10 on.
    passes = _record_lane_passes(monkeypatch)
    picked, mixed = {}, 0
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        good = [p for p in prime_list(20_000) if p > 1 << 10 and E.delta_E % p]
        passes.clear()
        group_orders(A, B, good)
        (p0, _, g0, t0, _), (p1, _, g1, t1, _) = passes[:2]
        gap0, tw0 = dict(zip(p0, g0)), dict(zip(p0, t0))
        twice = [(p, tw) for p, gap, tw in zip(p1, g1, t1) if gap and gap0[p]]
        picked[A, B] = [p for p, _ in twice]
        mixed += sum(tw != tw0[p] for p, tw in twice)
    assert sum(map(len, picked.values())) >= 10 and mixed >= 2, (picked, mixed)
    _no_group_order_from_2_10(monkeypatch)
    for (A, B), primes in picked.items():
        assert group_orders(A, B, primes) == [brute_count(p, A % p, B % p) for p in primes]


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
            P, _ = curve._sample_point(p, a, b, rng.randrange(1 << 64))
            table = [brute_mul(j, P, p, a) for j in range(1, m + 1)]
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
                assert (x * zi**2 % q, y * zi**3 % q) == brute_mul(s, P, q, c), (q, s)
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
    # _sample_point roots its squares without checks; the points must be
    # those of the draw-check-root loop that takes its roots from a table
    # of every square, bit for bit, for three successive points at every
    # p = 1 mod 4 below 2*10^4 (Tonelli-Shanks; p = 3 mod 4 is one power).
    def via_table(p, a, b, s, root):
        while True:
            s, z = curve._next64(s)
            x = z % p
            rhs = (x * x * x + a * x + b) % p
            if rhs == 0:
                return (x, 0), s
            if root[rhs]:
                r = int(root[rhs])
                s, z = curve._next64(s)
                return ((x, r) if z & 1 == 0 else (x, p - r)), s

    for p in prime_list(20_000):
        if p % 4 != 1:
            continue
        y = np.arange(1, (p + 1) // 2, dtype=np.int64)
        root = np.zeros(p, dtype=np.int64)
        root[y * y % p] = y  # the root min(r, p - r) of every nonzero square
        for A, B in FIVE_CURVES:
            if CurveOverQ(A, B).delta_E % p == 0:
                continue
            s = t = curve._mix_seed(p, A % p, B % p, 1)
            for _ in range(3):
                P, s = curve._sample_point(p, A % p, B % p, s)
                Q, t = via_table(p, A % p, B % p, t, root)
                assert P == Q and s == t, (A, B, p)


def _order(P, n, p, a):
    """ord(P) from a multiple n of it, by brute_mul."""
    o = n
    for q, _ in factorize(n):
        while o % q == 0 and brute_mul(o // q, P, p, a) is None:
            o //= q
    return o


def test_lane_routes_by_point_order():
    # One lane per point of order r, 3 <= r <= 40, on curves over F_1031,
    # whose Hasse window has width 129, so the babies reach m = 9.  Orders
    # up to 2m + 1 = 19 are small: a baby or the stride is the point at
    # infinity, or two babies share an x, and the lane learns nothing.
    # Larger ones leave several multiples in the window, which give r, or
    # meet infinity on the ladder or a giant, and learn nothing.  None
    # settles.
    p = 1031
    points = {}
    for a, b in ((a, b) for a in range(1, 40) for b in range(1, 40)):
        if len(points) == 38:
            break
        n = brute_count(p, a, b)
        s = curve._mix_seed(p, a, b, 0)
        for _ in range(4):
            P, s = curve._sample_point(p, a, b, s)
            if P[1] == 0:
                continue
            o = _order(P, n, p, a)
            for r in range(3, 41):
                if o % r == 0 and r not in points:
                    points[r] = (a, brute_mul(o // r, P, p, a))
    assert sorted(points) == list(range(3, 41))
    found = 0
    for r, (a, (x, y)) in points.items():
        orders, gaps, _ = curve._lane_orders((p,), (a,), (x,), (y,))
        assert orders.tolist() == [0], r
        assert gaps.tolist() == [0] if r <= 19 else gaps.tolist() in ([0], [r]), (r, gaps)
        found += gaps.tolist() == [r]
    assert found >= 10, found


def test_two_torsion_by_discriminant_matches_sylow():
    # Every good prime up to 3*10^4 with 4 | n on the registry curves: the
    # discriminant is a square mod p exactly when sampling the 2-Sylow
    # subgroup certifies full 2-torsion.
    seen = Counter()
    for A, B in FIVE_CURVES:
        E = CurveOverQ(A, B)
        good = [p for p in prime_list(30_000) if E.delta_E % p]
        for p, n in zip(good, group_orders(A, B, good)):
            if n % 4:
                continue
            v = (n & -n).bit_length() - 1
            square = legendre(E.delta_E, p) == 1
            assert square == (curve._sylow_first_invariant(p, A % p, B % p, n, 2, v) >= 1), (A, B, p)
            seen[square] += 1
    assert seen[True] > 1000 and seen[False] > 1000


def test_full_torsion_lanes_match_sylow():
    # On torsion_bands, each answer of the l = 3 and l = 5 Frobenius lanes
    # is l | d of the sampled structure, and the structure that takes the
    # answers is the sampled one.
    seen = Counter()
    for A, B, primes in torsion_bands():
        E = CurveOverQ(A, B)
        good = [p for p in primes if E.delta_E % p]
        orders = group_orders(A, B, good)
        full = full_torsion_lanes(A, B, good, orders)
        for i, (p, n) in enumerate(zip(good, orders)):
            tested = {l: bool(full[l][i]) for l in (3, 5) if p % l == 1 and n % (l * l) == 0}
            if not tested:
                continue
            C = reduce(E, p)
            st = group_structure(C, n)
            for l, fixed in tested.items():
                assert fixed == (st.d % l == 0), (E, p, l)
                seen[l, fixed] += 1
            assert group_structure(C, n, full_torsion=tested) == st, (E, p)
    assert all(seen[l, fixed] > 0 for l in (3, 5) for fixed in (True, False)), seen


@pytest.mark.parametrize("label, lanes", [("serre-ex3", 9185), ("serre-ex5", 5780)])
def test_full_torsion_lanes_slices_agree(monkeypatch, label, lanes):
    # The psi lanes of every good prime to 2*10^5 give the same answers in
    # the default slices as in slices of a small fold budget, which cuts
    # each l into several.
    E = REGISTRY[label].curve
    good = [p for p in prime_list(200_000) if E.delta_E % p]
    orders = group_orders(E.A, E.B, good)
    stats = Counter()
    whole = full_torsion_lanes(E.A, E.B, good, orders, stats)
    assert stats["frobenius_lanes"] == lanes
    calls = Counter()
    power_is_x = curve._lane_x_power_is_x

    def counted(low, p):
        calls[len(low)] += 1
        return power_is_x(low, p)

    monkeypatch.setattr(curve, "_lane_x_power_is_x", counted)
    monkeypatch.setattr(curve, "_FOLD_ENTRIES", 9 << 10)
    sliced = full_torsion_lanes(E.A, E.B, good, orders)
    assert calls[4] >= 2 and calls[12] >= 2, calls  # psi_3 and psi_5 in slices
    assert all(np.array_equal(whole[l], sliced[l]) for l in (2, 3, 5))


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
        for p in prime_list(1000)[::2]:
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
    # full_two_torsion(a, b, [p]) against a count of the cubic's roots
    rng = random.Random(29)
    primes = prime_list(5000)[2:]
    for _ in range(300):
        p = rng.choice(primes)
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        roots = sum((x * x * x + a * x + b) % p == 0 for x in range(p))
        assert full_two_torsion(a, b, [p]) == [roots == 3], (p, a, b)


def test_group_order_hasse_bound():
    rng = random.Random(5)
    primes = prime_list(30000)
    for _ in range(25):
        p = primes[rng.randrange(100, len(primes))]
        C = ReducedCurve(p, rng.randrange(p), rng.randrange(1, p))
        if (4 * C.a**3 + 27 * C.b**2) % p == 0:
            continue
        n = group_order(C)
        assert abs(n - (p + 1)) <= 2 * math.isqrt(p)
        # the whole group is annihilated by its order
        s = curve._mix_seed(p, C.a, C.b, 0)
        for _ in range(4):
            P, s = curve._sample_point(p, C.a, C.b, s)
            assert brute_mul(n, P, p, C.a) is None


def test_group_order_refuses_primes_from_2_32():
    # the lanes hold residues below 2^32; no other algorithm is left
    q = 2**32 + 15
    assert is_prime(q)
    with pytest.raises(ValueError):
        group_order(ReducedCurve(q, 1, 1))
    with pytest.raises(ValueError):
        group_orders(1, 1, [1031, q])
    with pytest.raises(ValueError):
        full_torsion_lanes(1, 1, [1031, q], [1032, q + 1])


def test_point_order():
    # _mul_raw against the walk of brute_point_order: ord(P) kills P and no
    # proper divisor does.  A claimed group order that a point's l-part
    # does not fit raises BadWitness from _l_height.
    p, a, b = 1013, -3 % 1013, 1
    N = brute_count(p, a, b)
    for P in brute_points(p, a, b)[1:40:5]:
        o = brute_point_order(P, p, a)
        assert N % o == 0
        assert curve._mul_raw(o, P, p, a) is None
        for q, _ in factorize(o):
            assert curve._mul_raw(o // q, P, p, a) is not None
    P = next(P for P in brute_points(p, a, b)[1:] if brute_point_order(P, p, a) % 2)
    with pytest.raises(BadWitness):
        curve._l_height(P, 2, 5, p, a)  # P of odd order is no 2-Sylow point


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
        for p in prime_list(150):
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
    primes = [p for p in prime_list(4000) if p > 1024]
    for _ in range(15):
        p = primes[rng.randrange(len(primes))]
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        C = ReducedCurve(p, a, b)
        st = group_structure(C)
        assert st.d * st.e == st.n == brute_count(p, a, b)
        assert st.e % st.d == 0 and (p - 1) % st.d == 0
        # the exponent e annihilates every point
        s = curve._mix_seed(p, a, b, 0)
        for _ in range(3):
            P, s = curve._sample_point(p, a, b, s)
            assert brute_mul(st.e, P, p, a) is None


def test_full_torsion_and_cyclicity():
    E = CurveOverQ(-3, 1)
    good = [p for p in prime_list(150) if E.delta_E % p]
    for p, full in zip(good, full_two_torsion(E.A, E.B, good)):
        assert full == (group_structure(reduce(E, p)).d % 2 == 0), p
    for bad in ([2], [7, 2], [7, 2**32 + 15]):  # p = 2, p above 2**32
        with pytest.raises(ValueError):
            full_two_torsion(E.A, E.B, bad)


def test_structure_dataclass():
    st = GroupStructure(12, 2, 6)
    assert (st.n, st.d, st.e) == (12, 2, 6)

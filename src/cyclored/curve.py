"""Elliptic curve groups over prime fields: orders, structure, cyclicity.

A curve y^2 = x^3 + Ax + B with integer coefficients is reduced modulo an
odd prime p of good reduction.  The group of points is abelian on at most
two generators, Z/d x Z/e with d | e and d | p-1; the reduction is called
cyclic when d = 1.  Everything downstream (the census and its split
counts, the Galois image certifier) sits on top of `group_orders` and
`group_structure`.

`group_orders` counts the points for a list of primes at once: below
2**10 exhaustively, by quadratic-residue counting, and from 2**10 to
2**32 by baby-step giant-step over the Hasse window, for a slice of
primes together in numpy uint64 lanes (Jacobian coordinates, one
inversion per lane), slices sized by their baby tables.  Lane passes run
until every lane settles, each on the lane's next point, with the giants
half a stride off on every other pass; a point that a pass was blind to
(its ladder or giants met infinity) is scanned once more on the other
giants before the lane draws its next one.  A lane keeps one lcm of point
orders on the curve and one on its quadratic twist and settles when one
window value fits both (Mestre's argument).  No lane takes a square
root: for c = f(x0) it scans the point (x0 c, c^2) of
y^2 = x^3 + a c^2 x + b c^3, which is the curve or its quadratic twist
as c is a square or not, and maps a twist's order n back to 2p + 2 - n.
`group_order` is the same on one prime.

Structure determination never touches pairings.  `full_torsion_lanes`
asks, a batch of primes at once in uint64 lanes, whether E[l] lies in
E(F_p), that is l | d: for l = 2 by a Legendre symbol of the cubic's
discriminant where 4 | n, for l = 3 and 5 by Schoof's test x^p == x
modulo the division polynomial psi_3 or psi_5.  `group_structure` gives
the exact d: the discriminant or a lane answer settles the exponent of
l in d unless a deeper level is possible, and the rest is certified by
sampling: a point whose l-part has full length (cyclic Sylow), or two
independent points of order l, independence decided by enumerating the
<= l multiples of one of them.  `full_two_torsion` asks, a list of
primes at once, whether E[2] lies in E(F_p) by x^p == x modulo the cubic
on the same lane kernel, with no group order.

Point sampling is deterministic: a splitmix64 stream seeded by a fixed
mix of (p, a, b) and a tag drives the x-candidates and the y-sign choice
(the lanes draw x0 from the tag-1 stream in uint64, the Sylow sampler
from tag 16 + l), so runs are bit-reproducible regardless of how work is
partitioned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .modmath import factorize, legendre, sqrt_residue

_M64 = (1 << 64) - 1
_EXHAUSTIVE_BELOW = 1 << 10
_SAMPLE_BUDGET = 16         # lane passes, new points or rescans, before IterationCap
_STRUCTURE_BUDGET = 64      # samples before a structure loop aborts
_LANE_LIMIT = 1 << 32       # uint64 lanes: residue products stay below 2**64
_LAZY_BELOW = 1 << 21       # lane slices below it reduce each sum of products once
_BABY_ENTRIES = 3 << 14     # baby-table entries per lane slice, about 1.2 MiB of points
_FOLD_ENTRIES = 3 * _BABY_ENTRIES  # fold residues per psi lane slice, about 1.2 MiB


class BadReduction(Exception):
    """Raised when reducing a curve at a prime dividing its discriminant."""


class BadWitness(Exception):
    """Raised by _l_height when a point outside the l-Sylow subgroup shows
    the group order it was given to be wrong."""


class IterationCap(Exception):
    """Raised when a sampling loop exhausts its deterministic budget."""


@dataclass(frozen=True)
class CurveOverQ:
    """Global curve y^2 = x^3 + A x + B, required non-singular."""

    A: int
    B: int

    def __post_init__(self):
        if self.delta_E == 0:
            raise ValueError(f"singular model: 4*{self.A}^3 + 27*{self.B}^2 = 0")

    @property
    def delta_E(self) -> int:
        return -16 * (4 * self.A**3 + 27 * self.B**2)


@dataclass(frozen=True)
class ReducedCurve:
    """Curve over F_p with coefficients stored as least non-negative residues."""

    p: int
    a: int
    b: int


@dataclass(frozen=True)
class GroupStructure:
    """Invariant factors of the point group: Z/d x Z/e, d | e, d*e = n."""

    n: int
    d: int
    e: int


def reduce(curve: CurveOverQ, p: int) -> ReducedCurve:
    """Reduce a global curve at p.  Raises BadReduction when p | delta_E.

    p = 2 always lands in BadReduction for this model shape (delta_E is
    divisible by 16); odd p must be prime, which is the caller's duty on
    hot paths and is checked at CLI boundaries.
    """
    if p < 2:
        raise ValueError(f"not a prime: {p}")
    if curve.delta_E % p == 0:
        raise BadReduction(f"p={p} divides the discriminant")
    return ReducedCurve(p, curve.A % p, curve.B % p)


# ---------------------------------------------------------------------------
# group law


def _add_raw(P, Q, p, a):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _mul_raw(k, P, p, a):
    if P is None or k == 0:
        return None
    R = None
    Q = P
    while True:
        if k & 1:
            R = _add_raw(R, Q, p, a)
        k >>= 1
        if not k:
            return R
        Q = _add_raw(Q, Q, p, a)


# ---------------------------------------------------------------------------
# deterministic sampling


def _mix_seed(p, a, b, tag):
    return (
        p * 0x9E3779B97F4A7C15
        ^ a * 0xBF58476D1CE4E5B9
        ^ b * 0x94D049BB133111EB
        ^ tag * 0xD6E8FEB86659FD93
    ) & _M64


def _next64(s):
    s = (s + 0x9E3779B97F4A7C15) & _M64
    z = s
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return s, z ^ (z >> 31)


def _sample_point(p, a, b, s):
    """One affine point and the advanced stream state.

    Draws x uniformly, keeps it when x^3 + ax + b is a square, and picks
    the y-root by one extra stream bit.  Terminates for every curve with
    an affine point; the cap can only fire on a trivial group (p = 3).
    """
    e2 = (p - 1) >> 1
    for _ in range(4096):
        s, z = _next64(s)
        x = z % p
        rhs = (x * x % p * x + a * x + b) % p
        if rhs == 0:
            return (x, 0), s
        if pow(rhs, e2, p) == 1:
            r = sqrt_residue(rhs, p)
            s, z = _next64(s)
            return ((x, r) if z & 1 == 0 else (x, p - r)), s
    raise IterationCap(f"no affine point found on y^2=x^3+{a}x+{b} over F_{p}")


# ---------------------------------------------------------------------------
# group order


def _order_exhaustive(p, a, b):
    # one quadratic-character table and one vector of x^3 + ax + b for
    # residues a, b: total points = 1 + sum over x of (1 + chi(rhs))
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[x * x % p] = 1
    chi[0] = 0
    return p + 1 + int(chi[(x * x % p * x + a * x + b) % p].sum())


def group_order(C: ReducedCurve) -> int:
    """Number of points on C including infinity; always exact.

    Below 2**10 the count is exhaustive; from 2**10 on it is group_orders
    on the one prime, and p >= 2**32 raises ValueError.
    """
    if C.p < _EXHAUSTIVE_BELOW:
        return _order_exhaustive(C.p, C.a, C.b)
    return group_orders(C.a, C.b, [C.p])[0]


# ---------------------------------------------------------------------------
# group orders in numpy lanes
#
# One lane per prime.  Residues are uint64, so the product of two residues
# below 2**32 fits before its reduction.  Points are Jacobian, (X : Y : Z)
# standing for (X/Z^2, Y/Z^3).  A step outside its formula's domain (adding
# a point to itself or to its negative, doubling a point of order 2) and
# the point at infinity both give Z = 0, which every later step keeps.  The
# two are not told apart: a lane with Z = 0 anywhere stays open.
#
# Each formula is written once, as sums of terms plus multiples of p with
# one % per sum; _mul and _dif form the terms by the slice's reduction
# rule.  A slice whose primes lie below _LAZY_BELOW = 2**21 is lazy: a
# product of three residues stays below 2**63, so a term is an unreduced
# product of up to three residues, a difference u - v inside a product is
# u + p - v, and every sum stays below 2**64.  Above, a term is reduced on
# the spot and so is a difference, so a sum of a few terms stays below
# 2**36.


def _mul(u, v, p, lazy):
    """The product u * v as a term of a sum: as it is when lazy, else its residue."""
    return u * v if lazy else u * v % p


def _dif(u, v, p, lazy):
    """u - v for residues u, v as a factor of a product: r = u + p - v
    when lazy, else its residue.  When r is below p, r - p wraps past
    2**64, so the smaller of the two is the residue."""
    r = u + p - v
    return r if lazy else np.minimum(r, r - p)


def _lane_pow(u, e, p):
    """u**e mod p per lane, right to left, for exponents below 2**32."""
    r = np.ones_like(u)
    for bit in range(int(e.max()).bit_length()):
        r = np.where((e >> bit) & 1 == 1, r * u % p, r)
        u = u * u % p
    return r


def _lane_residues(A, p):
    """A mod p per lane for any integer A, by Horner's rule on the 32-bit
    limbs of |A|: r * 2**32 + limb stays below p * 2**32 <= 2**64."""
    r = np.zeros_like(p)
    limbs = abs(A).to_bytes(-(-abs(A).bit_length() // 32) * 4, "big")
    for k in range(0, len(limbs), 4):
        r = ((r << 32) | int.from_bytes(limbs[k : k + 4], "big")) % p
    return np.where(r == 0, r, p - r) if A < 0 else r


def _jdbl(X, Y, Z, a, p, lazy):
    """2(X : Y : Z) on y^2 = x^3 + ax + b."""
    XX = X * X % p
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * _mul(X, YY, p, lazy) % p
    M = (3 * XX + _mul(a, _mul(ZZ, ZZ, p, lazy), p, lazy)) % p
    X3 = (_mul(M, M, p, lazy) + 2 * (p - S)) % p
    Y3 = (_mul(M, _dif(S, X3, p, lazy), p, lazy) + 8 * _mul(YY, p - YY, p, lazy)) % p
    return X3, Y3, 2 * _mul(Y, Z, p, lazy) % p


def _jmadd(X, Y, Z, x, y, p, lazy):
    """(X : Y : Z) + (x, y), the second point affine.

    With Z != 0 the result has Z3 = Z * H, so Z3 = 0 exactly when both
    points share x: the sum is at infinity or the points are equal (the
    doubling case, outside the formula's domain)."""
    ZZ = Z * Z % p
    H = (_mul(x, ZZ, p, lazy) + p - X) % p
    R = (_mul(_mul(y, ZZ, p, lazy), Z, p, lazy) + p - Y) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (_mul(R, R, p, lazy) + 3 * p - HHH - 2 * V) % p
    Y3 = (_mul(R, _dif(V, X3, p, lazy), p, lazy) + _mul(Y, p - HHH, p, lazy)) % p
    return X3, Y3, Z * H % p


def _ladder(k, tx, ty, a, p, lazy):
    """k*P per lane, Jacobian, for int64 scalars k >= 1, from the affine
    table tx[j - 1], ty[j - 1] = j*P for 1 <= j <= m.

    Left to right over the base-2^w digits of k, 2^w - 1 <= m: w doublings
    per digit, then one mixed addition of the digit's table point where
    the digit is nonzero.  Each lane starts at its own leading digit."""
    w = (len(tx) + 1).bit_length() - 1
    lane = np.arange(len(p))
    one = np.ones_like(p)
    top = (int(k.max()).bit_length() - 1) // w * w
    d = k >> top
    X, Y, Z = tx[d - 1, lane], ty[d - 1, lane], one
    started = d != 0
    for shift in range(top - w, -1, -w):
        for _ in range(w):
            X, Y, Z = _jdbl(X, Y, Z, a, p, lazy)
        d = (k >> shift) & ((1 << w) - 1)
        x, y = tx[d - 1, lane], ty[d - 1, lane]
        A = _jmadd(X, Y, Z, x, y, p, lazy)
        X, Y, Z = (np.where(d == 0, u, np.where(started, v, t))
                   for u, v, t in zip((X, Y, Z), A, (x, y, one)))
        started |= d != 0
    return X, Y, Z


def _to_affine(P, p, lazy):
    """Turn the Jacobian points stacked along axis 1 of P = (X, Y, Z) into
    affine x and y in place, with one inversion per lane (Montgomery's
    trick, the inverse by Fermat), and return the lanes whose every Z is
    nonzero; the other lanes' coordinates are meaningless.  Z is
    overwritten."""
    X, Y, Z = P
    inv_z = np.empty_like(Z)
    acc = inv_z[0] = Z[0]
    for t in range(1, len(Z)):
        acc = inv_z[t] = acc * Z[t] % p
    ok = acc != 0
    inv = _lane_pow(acc, p - 2, p)
    for t in range(len(Z) - 1, 0, -1):
        inv, inv_z[t] = inv * Z[t] % p, inv * inv_z[t - 1] % p
    inv_z[0] = inv
    np.multiply(inv_z, inv_z, out=Z)
    Z %= p
    X *= Z
    X %= p
    Y *= Z
    if not lazy:  # _mul's rule, in place: y = Y zi^2 zi is one lazy term
        Y %= p
    Y *= inv_z
    Y %= p
    return ok


def _baby_rows(p):
    """m + 1, the rows of the baby table _lane_orders builds for primes up to p."""
    return isqrt(isqrt(4 * p)) + 2


def _lane_orders(ps, As, xs, ys, shifted=False):
    """Baby-step giant-step over the Hasse window for a slice of primes at once.

    Lane i is the curve with coefficient As[i] over F_ps[i] and the point
    P = (xs[i], ys[i]), ys[i] != 0.  Babies are j*P for 1 <= j <= m;
    giants are k*P for k = c0 + i*(2m + 1), c0 = lo + m, so each giant's x
    meets the baby at every offset in [-m, m] but 0, and the y signs say
    which.  shifted puts the giants half a stride back, c0 = lo - 1, with
    one giant more to reach hi.  c0*P comes from _ladder on the affine
    baby table.  A lane whose ladder or giant chain meets Z = 0 anywhere
    stays open: a giant at infinity, or a doubling the formula cannot
    take.  A giant's k does not depend on P, so when the group order n is
    one of them, every point of order n lands on infinity there; the
    shifted giants put n on a baby offset instead.  With ord(P) > 2m + 1
    the babies' x are distinct and each match is one annihilator of P; the
    window's multiples of ord(P) are all among them, so two consecutive
    ones differ by ord(P).  Returns per lane that multiple when it is
    unique, else 0, ord(P) when there are several, else 0, and whether
    the ladder or a giant met Z = 0 with ord(P) > 2m + 1 (the scan was
    blind: the other giants may see P).
    """
    p, a, x, y = (np.asarray(v, dtype=np.uint64) for v in (ps, As, xs, ys))
    n = len(p)
    lazy = int(p.max()) < _LAZY_BELOW
    t = np.sqrt(4 * p.astype(np.float64)).astype(np.int64)  # isqrt(4p), exact below 2**52
    lo = p.astype(np.int64) + 1 - t
    hi = lo + 2 * t
    width = 2 * int(t.max()) + 1
    m = _baby_rows(int(p.max())) - 1
    stride = 2 * m + 1

    # rows j < m hold (j + 1)P, row m the giant stride S = (2m + 1)P
    B = np.empty((3, m + 1, n), dtype=np.uint64)
    B[0, 0], B[1, 0], B[2, 0] = x, y, 1
    B[:, 1] = _jdbl(x, y, B[2, 0], a, p, lazy)
    for j in range(2, m):
        B[:, j] = _jmadd(*B[:, j - 1], x, y, p, lazy)
    B[:, m] = _jmadd(*_jdbl(*B[:, m - 1], a, p, lazy), x, y, p, lazy)
    small = ~_to_affine(B, p, lazy)  # some Z = 0: ord(P) <= 2m + 1
    c0 = lo - 1 if shifted else lo + m
    start = _ladder(c0, B[0, :m], B[1, :m], a, p, lazy)
    S = B[:2, m].copy()
    by = B[1].copy()

    # baby keys (lane, x, j) in bits 48.., 16..47 and 0..15, sorted
    lane = np.arange(n, dtype=np.uint64)
    bkey = (lane << 32) | B[0, :m]
    del B
    bkey <<= 16
    bkey |= np.arange(1, m + 1, dtype=np.uint64)[:, None]
    bkey = bkey.ravel()
    bkey.sort()
    twice = (bkey[1:] >> 16) == (bkey[:-1] >> 16)  # two babies on one x: ord(P) <= 2m
    small[(bkey[1:][twice] >> 48).astype(np.intp)] = True

    G = np.empty((3, -(-width // stride) + shifted, n), dtype=np.uint64)
    G[:, 0] = start
    for i in range(1, G.shape[1]):
        G[:, i] = _jmadd(*G[:, i - 1], *S, p, lazy)
    g_ok = _to_affine(G, p, lazy)

    # giant keys (lane, x, row) in G[2], free after _to_affine, sorted so
    # that the searches walk the baby keys in order; a giant's (lane, x)
    # with the low bits masked off meets the first baby key at or above it
    np.bitwise_or(lane << 32, G[0], out=G[2])
    G[2] <<= 16
    G[2] |= np.arange(G.shape[1], dtype=np.uint64)[:, None]
    gkey = G[2].ravel()
    gkey.sort()
    pos = np.searchsorted(bkey, gkey & ~np.uint64(0xFFFF))
    np.minimum(pos, len(bkey) - 1, out=pos)
    near = bkey[pos]
    near ^= gkey
    hit = np.flatnonzero(near < 0x10000)  # the same lane and x
    del near
    li = (gkey[hit] >> 48).astype(np.int64)
    row = (gkey[hit] & 0xFFFF).astype(np.int64)
    j = (bkey[pos[hit]] & 0xFFFF).astype(np.int64)
    same = G[1][row, li] == by[j - 1, li]
    k = c0[li] + row * stride + np.where(same, -j, j)
    keep = (k >= lo[li]) & (k <= hi[li])
    found = np.sort((li[keep].astype(np.int64) << 34) | k[keep])
    found = found[np.diff(found, prepend=-1) != 0]
    li, k = found >> 34, found & ((1 << 34) - 1)
    count = np.bincount(li, minlength=n)
    scanned = ~small & g_ok
    if (scanned & (count == 0)).any():
        lost = p[int(np.argmax(scanned & (count == 0)))]
        raise AssertionError(f"lane scan lost the group order over F_{lost}")
    orders = np.zeros(n, dtype=np.int64)
    orders[li] = k
    orders[~scanned | (count > 1)] = 0
    gaps = np.zeros(n, dtype=np.int64)
    pair = li[1:] == li[:-1]
    gaps[li[1:][pair]] = np.diff(k)[pair]
    gaps[~scanned] = 0
    return orders, gaps, ~small & ~g_ok


def _next_points(p, a, b, s):
    """Each lane's next point, drawn from its tag-1 stream state in s,
    which advances in place: for c = x0^3 + a x0 + b, the coefficient
    a c^2 of E_c and the point (x0 c, c^2) on it, and whether c is a
    non-square, so that E_c is the twist."""
    x = np.zeros_like(p)
    redo = np.ones(len(p), dtype=bool)
    while redo.any():  # x0^3 + a x0 + b has at most three roots
        s[redo], z = _next64(s[redo])
        x[redo] = z % p[redo]
        c = (x * x % p * x % p + a * x % p + b) % p
        redo = c == 0
    cc = c * c % p
    return a * cc % p, x * c % p, cc, _lane_pow(c, (p - 1) >> 1, p) != 1


def _slices(lanes, width, budget):
    """range(lanes) in the fewest equal slices of up to budget entries, width a lane."""
    count = -(-lanes * width // budget)
    return [slice(k * lanes // count, (k + 1) * lanes // count) for k in range(count)]


def _lane_pass(p, a, b, s, stats, shifted=False):
    """One lane scan of the primes p with coefficient residues a and b, in
    slices of equal size holding up to _BABY_ENTRIES baby-table entries:
    each lane draws its next point by _next_points from its stream state
    in s, which advances in place, and shifted goes to _lane_orders.
    Returns per lane the settled order, mapped back from the twist (0
    while the lane is open), ord(P) where the window held several
    multiples of it (else 0), whether P lay on the twist, and whether the
    scan was blind (_lane_orders); stats receives lane_points and
    lanes_twisted."""
    n = np.empty(len(p), dtype=np.int64)
    gaps = np.empty(len(p), dtype=np.int64)
    twisted = np.empty(len(p), dtype=bool)
    blind = np.empty(len(p), dtype=bool)
    for part in _slices(len(p), _baby_rows(int(p.max())), _BABY_ENTRIES):
        ac, xc, cc, twisted[part] = _next_points(p[part], a[part], b[part], s[part])
        n[part], gaps[part], blind[part] = _lane_orders(p[part], ac, xc, cc, shifted)
    stats["lane_points"] += len(p)
    stats["lanes_twisted"] += int(twisted.sum())
    n = np.where(twisted & (n > 0), 2 * p.astype(np.int64) + 2 - n, n)
    return n, gaps, twisted, blind


def _window_order(p, L):
    """Per lane the one k in the Hasse window of p with L[0] | k and
    L[1] | 2p + 2 - k, else 0.  Walks the window by the larger lcm and
    tests the other; a lane's lcms come from points of order above
    2m + 1, so a lane takes at most about m steps."""
    t = np.sqrt(4 * p.astype(np.float64)).astype(np.int64)  # isqrt(4p), exact below 2**52
    lo = p.astype(np.int64) + 1 - t
    total = 2 * p.astype(np.int64) + 2
    step = L.max(axis=0)
    first = lo + (np.where(L[1] > L[0], total % L[1], 0) - lo) % step
    k = first + step * np.arange(int((2 * t // step).max()) + 1)[:, None]
    ok = (k <= lo + 2 * t) & (k % L[0] == 0) & ((total - k) % L[1] == 0)
    return np.where(ok.sum(axis=0) == 1, (k * ok).sum(axis=0), 0)


def group_orders(A: int, B: int, primes, stats=None) -> list[int]:
    """group_order of y^2 = x^3 + Ax + B at each prime, all of good reduction,
    of a list or an int64 array.

    Primes below 2**10 go to group_order's exhaustive count, and p >= 2**32
    raises ValueError.  The others run baby-step giant-step together in
    numpy lanes, in slices of equal size holding up to _BABY_ENTRIES
    baby-table entries (_baby_rows per lane, set by the largest prime):
    about 1.6k lanes at p ~ 2*10**5, 135 near 2**32.  No lane takes a
    square root.  Each draws x0 from the splitmix64 stream of (p, a, b),
    again while c = x0^3 + a x0 + b is 0, and scans the point (x0 c, c^2)
    of E_c: y^2 = x^3 + a c^2 x + b c^3, which is E for a square c and
    the quadratic twist of E otherwise; one powmod c^((p-1)/2) tells
    which, and a twist's settled order n_c maps back to 2p + 2 - n_c.

    Lane passes run over the lanes still open until none is, each on the
    lane's next point, with the giants half a stride off on every other
    pass, so a group order that fell on a giant falls on a baby offset.
    A pass can be blind to a point of order above 2m + 1, whose ladder or
    giants met Z = 0: the next pass, on the other giants, scans the same
    point again (lanes_rescanned), and a point is scanned at most twice.
    A lane settles on exactly one multiple of its point's order in the
    Hasse window.  A point with several gives its order, folded into one
    lcm per side, L_E on E and L_T on the twist, and the lane settles when
    exactly one window value k has L_E | k and L_T | 2p + 2 - k.  By
    Mestre's theorem one side has a point of unique multiple for p > 457.
    A lane still open after _SAMPLE_BUDGET passes raises IterationCap.

    stats, a Counter when given, receives the number of orders settled in
    lanes (orders_batched) and counted exhaustively (orders_exhaustive),
    of points scanned (lane_points), of them on the twist (lanes_twisted),
    of lane passes (lane_passes) and of points rescanned after a blind
    pass (lanes_rescanned).
    """
    if len(primes) and np.max(primes) >= _LANE_LIMIT:
        raise ValueError("group orders need primes below 2**32")
    counts = Counter()
    p = np.array(primes, dtype=np.uint64)
    out = np.zeros(len(p), dtype=np.int64)
    small = p < _EXHAUSTIVE_BELOW
    for i in np.flatnonzero(small).tolist():
        q = int(p[i])
        out[i] = group_order(ReducedCurve(q, A % q, B % q))
    lanes = np.flatnonzero(~small)  # the open lanes' places in out
    counts["orders_batched"] = len(lanes)
    counts["orders_exhaustive"] = len(p) - len(lanes)
    if len(lanes):
        # the open lanes' state, compacted after every pass
        p = p[lanes]
        a, b = _lane_residues(A, p), _lane_residues(B, p)
        s = _mix_seed(p, a, b, 1)
        L = np.ones((2, len(p)), dtype=np.int64)  # lcms of point orders on E and its twist
        fresh = np.ones(len(p), dtype=bool)  # the lane's point was not scanned before
        for k in range(_SAMPLE_BUDGET):
            drawn = s.copy()
            n, gaps, twisted, blind = _lane_pass(p, a, b, s, counts, k % 2 == 1)
            counts["lane_passes"] += 1
            rescan = blind & fresh  # a point the giants missed goes to the other giants, once
            s[rescan] = drawn[rescan]
            fresh = ~rescan
            counts["lanes_rescanned"] += int(np.count_nonzero(rescan))
            several = np.flatnonzero(gaps)
            if len(several):
                side = twisted[several].astype(np.intp)
                L[side, several] = np.lcm(L[side, several], gaps[several])
                n[several] = _window_order(p[several], L[:, several])
            out[lanes] = n
            keep = n == 0
            if not keep.any():
                break
            lanes, p, a, b, s, L = lanes[keep], p[keep], a[keep], b[keep], s[keep], L[:, keep]
            fresh = fresh[keep]
        else:
            raise IterationCap(f"group order over F_{p[0]} unresolved after "
                               f"{_SAMPLE_BUDGET} lane passes")
    if stats is not None:
        stats.update(counts)
    return out.tolist()


# ---------------------------------------------------------------------------
# full l-torsion for l = 2, 3, 5 in numpy lanes: the discriminant, and Frobenius
# on division polynomials


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, c in enumerate(u):
        for j, w in enumerate(v):
            out[i + j] += c * w
    return out


def _division_polynomials(A: int, B: int) -> dict[int, list[int]]:
    """psi_3, g_4 = psi_4 / 4y and psi_5 of y^2 = x^3 + Ax + B as integer
    coefficient lists, constant term first.  Their roots are the
    x-coordinates of the points of order 3, of exact order 4 and of order
    5.  psi_5 comes from the recursion psi_5 = psi_4 psi_2^3 - psi_3^3
    with psi_2 = 2y, that is 32 f^2 g_4 - psi_3^3 for f = x^3 + Ax + B."""
    f = [B, A, 0, 1]
    psi3 = [-A * A, 12 * B, 6 * A, 0, 3]
    g4 = [-8 * B * B - A**3, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1]
    cube = _poly_mul(_poly_mul(psi3, psi3), psi3)
    return {3: psi3, 4: g4,
            5: [32 * u - w for u, w in zip(_poly_mul(_poly_mul(f, f), g4), cube)]}


def _lane_x_power_is_x(low, p):
    """Whether x^p == x modulo psi = x^k + low[k-1] x^(k-1) + ... + low[0]
    per lane, low a (k, n) array of residues, k >= 2.

    Left to right over the bits of max(p) from r = 1; a lane's leading
    zero bits square 1.  A square is k row products, a set bit shifts it
    by one place, and the rows x^k ... x^(2k-1) fold back through their
    residues mod psi, precomputed per lane, as one sum of products.  Below
    2**29 a sum of 2k products stays below 2k p^2 < 2**64 and takes one
    % at the end; above, each product is reduced first."""
    k, n = low.shape
    lazy = int(p.max()) < 1 << 29
    fold = np.empty((k, k, n), dtype=np.uint64)  # fold[j] = x^(k + j) mod psi
    fold[0] = np.where(low == 0, low, p - low)
    for j in range(1, k):
        top = fold[j - 1, k - 1]
        fold[j, 0] = 0
        fold[j, 1:] = fold[j - 1, :-1]
        fold[j] += top * fold[0] % p
        fold[j] %= p
    r = np.zeros((k, n), dtype=np.uint64)
    r[0] = 1
    for bit in range(int(p.max()).bit_length() - 1, -1, -1):
        sq = np.zeros((2 * k, n), dtype=np.uint64)
        for i in range(k):
            sq[i : i + k] += _mul(r[i], r, p, lazy)
        sq = np.where((p >> bit) & 1 == 1, np.roll(sq, 1, axis=0), sq)
        r, high = sq[:k], sq[k:] % p
        for j in range(k):
            r += _mul(high[j], fold[j], p, lazy)
        r %= p
    return (r[1] == 1) & ~r[0].astype(bool) & ~r[2:].any(axis=0)


def full_torsion_lanes(A: int, B: int, primes, orders, stats=None) -> dict[int, np.ndarray]:
    """Per l in (2, 3, 5), a bool array over the primes: whether E[l] lies
    in E(F_p), that is l | d, decided in numpy lanes.  primes are of good
    reduction and below 2**32, orders their group orders.  E[l] in E(F_p)
    forces p = 1 mod l and l^2 | n, so only those primes are tested.

    l = 2: with 4 | n the cubic x^3 + Ax + B has a root mod p, and by
    Stickelberger three exactly when its discriminant -(4A^3 + 27B^2),
    delta_E / 16, is a square; one Legendre symbol per lane decides.

    l = 3, 5: x^p == x modulo the division polynomial psi_l says every
    root of psi_l is in F_p, so Frobenius sends each point of E[l] to
    itself or its negative and acts on E[l] as I or -I (a map with P -> P
    and Q -> -Q would send P + Q to P - Q).  -I would make
    n = det(1 - Frobenius) = det(2I) = 4 mod l, which l | n rules out, so
    the test is true exactly when E[l] is rational.  psi_3 and psi_5 have
    leading coefficient 3 and 5; a lane makes them monic by
    l^-1 = p - (p - 1)/l, as l | p - 1.  The lanes run in slices of equal
    size whose fold tables, deg(psi_l)^2 residues a lane, hold up to
    _FOLD_ENTRIES residues.

    stats, a Counter when given, receives the number of Legendre lanes
    (two_by_discriminant) and of Frobenius lanes (frobenius_lanes).
    """
    p = np.array(primes, dtype=np.uint64)
    n = np.array(orders, dtype=np.int64)
    if len(p) and int(p.max()) >= _LANE_LIMIT:
        raise ValueError("full torsion lanes need primes below 2**32")
    polys = _division_polynomials(A, B)
    full = {}
    for l in (2, 3, 5):
        full[l] = np.zeros(len(p), dtype=bool)
        lanes = np.flatnonzero((p % l == 1) & (n % (l * l) == 0))
        if not len(lanes):
            continue
        q = p[lanes]
        if l == 2:
            disc = _lane_residues(-4 * A**3 - 27 * B * B, q)
            full[l][lanes] = _lane_pow(disc, (q - 1) >> 1, q) == 1
        else:
            *low, _ = (_lane_residues(c, q) for c in polys[l])
            inv = q - (q - 1) // np.uint64(l)
            low = np.stack([c * inv % q for c in low])
            for part in _slices(len(q), len(low) ** 2, _FOLD_ENTRIES):
                full[l][lanes[part]] = _lane_x_power_is_x(low[:, part], q[part])
        if stats is not None:
            stats["two_by_discriminant" if l == 2 else "frobenius_lanes"] += len(lanes)
    return full


# ---------------------------------------------------------------------------
# group structure


def _valuation(n: int, l: int) -> int:
    v = 0
    while n % l == 0:
        n //= l
        v += 1
    return v


def _l_height(T, l, v, p, a):
    """The least j <= v with l^j T = O; as l^v kills the l-Sylow subgroup,
    no such j proves the group order that T came from wrong."""
    for j in range(v + 1):
        if T is None:
            return j
        T = _mul_raw(l, T, p, a)
    raise BadWitness(f"a point outside the l={l} Sylow subgroup over F_{p}: wrong group order")


def _sylow_point(p, a, b, cof, l, v, s):
    """Sample a point, project into the l-Sylow part, return (point, j, state).

    j is the exact l-valuation of the projected point's order.
    """
    R, s = _sample_point(p, a, b, s)
    S = _mul_raw(cof, R, p, a)
    return S, _l_height(S, l, v, p, a), s


def _sylow_first_invariant(p, a, b, N, l, v) -> int:
    """Exponent of l in the first invariant factor d, certified.

    The l-Sylow subgroup is Z/l^a x Z/l^b with a + b = v and
    a <= min(v // 2, v_l(p-1)).  A sampled point of order l^v certifies
    a = 0.  Otherwise a = v - b is certified from above by a point of
    order l^b and from below by two independent points of order l^a;
    reducing both to order l and listing the <= l multiples of one
    decides independence.  Callers pass v >= 2 and l | p - 1, so that
    bound on a is at least 1.
    """
    amax = min(v // 2, _valuation(p - 1, l))
    cof = N // l**v
    s = _mix_seed(p, a, b, 16 + l)
    best = None
    bestj = 0
    for _ in range(_STRUCTURE_BUDGET):
        S, j, s = _sylow_point(p, a, b, cof, l, v, s)
        if j > bestj:
            best, bestj = S, j
        a0 = v - bestj
        if a0 == 0:
            return 0
        if a0 > amax:
            continue
        # discrete logs in the order-l subgroup under the reduction of best
        Pl = _mul_raw(l ** (bestj - 1), best, p, a)
        dlog = {}
        T = Pl
        c = 1
        while T is not None:
            dlog[T] = c
            T = _add_raw(T, Pl, p, a)
            c += 1
        # peel the <best>-component off S digit by digit; a sample whose
        # order-l reduction leaves <Pl> at level >= a0 certifies, paired
        # with best, that the first invariant factor is exactly l^a0
        T = S
        jt = j
        while T is not None:
            TL = _mul_raw(l ** (jt - 1), T, p, a)
            c = dlog.get(TL)
            if c is None:
                if jt >= a0:
                    return a0
                break
            W = _mul_raw(c * l ** (bestj - jt), best, p, a)
            T = _add_raw(T, (W[0], (p - W[1]) % p), p, a)
            jt = _l_height(T, l, v, p, a)
    raise IterationCap(f"l={l} structure unresolved for p={p} within budget")


def group_structure(C: ReducedCurve, n: int | None = None, stats=None,
                    full_torsion: dict[int, bool] | None = None) -> GroupStructure:
    """Invariant factors (n, d, e) of the point group, always exact.

    n, when given, is the group order computed elsewhere (the census takes
    it from group_orders); otherwise group_order computes it.  Only primes
    l with l^2 | n and l | p-1 can divide d, so only gcd(n, p - 1) is
    factored.  For such an l, whether E[l] lies in E(F_p), that is l | d,
    settles the exponent of l in d when it is false (0) or when
    min(v // 2, v_l(p - 1)) = 1 (1); every other exponent is certified by
    sampling the l-Sylow subgroup.  For l = 2 the discriminant of the
    cubic answers: with 4 | n the cubic has a root, and by Stickelberger
    three exactly when the discriminant is a square.

    full_torsion, when given, holds for some l in (3, 5) whether E[l]
    lies in E(F_p), as full_torsion_lanes decides it.  stats, a Counter
    when given, receives the number of Sylow samplings (sylow_sampled).
    """
    p, a, b = C.p, C.a, C.b
    if n is None:
        n = group_order(C)
    d = 1
    for l, _ in factorize(gcd(n, p - 1)):
        v = _valuation(n, l)
        if v < 2:
            continue
        if l == 2:
            full = legendre(-(4 * a**3 + 27 * b * b), p) == 1
        else:
            full = full_torsion.get(l) if full_torsion else None
        if full is False or (full and min(v // 2, _valuation(p - 1, l)) == 1):
            d *= l if full else 1
            continue
        if stats is not None:
            stats["sylow_sampled"] += 1
        d *= l ** _sylow_first_invariant(p, a, b, n, l, v)
    return GroupStructure(n, d, n // d)


def full_two_torsion(A: int, B: int, primes) -> list[bool]:
    """Per prime, whether all four points of order dividing 2 on
    y^2 = x^3 + Ax + B are rational over F_p, that is 2 | d: whether the
    cubic splits over F_p, x^p == x modulo it, asked of _lane_x_power_is_x
    with no group order.  primes are of good reduction and below 2**32,
    and p = 2 raises ValueError.  Fold tables of 9 residues a lane are
    sliced under _FOLD_ENTRIES, as in full_torsion_lanes.
    """
    if any(p % 2 == 0 or p >= _LANE_LIMIT for p in primes):
        raise ValueError("primes must be odd and below 2**32")
    q = np.array(primes, dtype=np.uint64)
    low = np.stack([_lane_residues(B, q), _lane_residues(A, q), np.zeros_like(q)])
    return [ok for part in _slices(len(q), len(low) ** 2, _FOLD_ENTRIES)
            for ok in _lane_x_power_is_x(low[:, part], q[part]).tolist()]

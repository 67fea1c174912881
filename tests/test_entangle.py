from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import decode, mat_mul, prime_list
from cyclored import entangle
from cyclored.density import charsum_alpha, gl2_order
from cyclored.entangle import (
    CharacterNotSurjective,
    ClosureCapExceeded,
    MatrixTuple,
    MatrixTupleGroup,
    NotCentral,
    NotOrderTwo,
    delta_exact,
    full_product_group,
    generate_closure,
    index2_character_subgroup,
    load_group_description,
    norm_one_construction,
    standard_gl2_generators,
)
from cyclored.modmath import primitive_root

F = Fraction
ID = (1, 0, 0, 1)


def neg_id(l: int) -> tuple[int, int, int, int]:
    return (l - 1, 0, 0, l - 1)


def embed(moduli, i, mat) -> MatrixTuple:
    return MatrixTuple(moduli, tuple(mat if j == i else ID for j in range(len(moduli))))


def test_matrix_tuple_normalization_and_code():
    mt = MatrixTuple((5,), ((6, -1, 0, 1),))
    assert mt.mats == ((1, 4, 0, 1),)
    assert decode(mt.code(), (5,)) == mt.mats
    with pytest.raises(ValueError):
        MatrixTuple((5,), ((1, 2, 2, 4),))  # singular
    with pytest.raises(ValueError):
        MatrixTuple((5,), ((1, 0, 0),))  # not a quadruple
    with pytest.raises(ValueError):
        MatrixTuple((5, 7), ((1, 0, 0, 1),))  # arity mismatch
    with pytest.raises(ValueError):
        MatrixTuple((5,), ((1, 0, 0, 1), (2, 0, 0, 1)))  # extra matrix, not dropped


def test_codes_are_lexicographic():
    G = full_product_group((2, 3), cap=10**3)
    tuples = [decode(c, G.moduli) for c in G.elements]
    assert tuples == sorted(tuples)
    assert list(G.elements) == sorted(int(c) for c in G.elements)


def test_group_constructor_validation():
    G2 = full_product_group((2,))
    with pytest.raises(ValueError):
        MatrixTupleGroup((2, 2), (), list(G2.elements))
    with pytest.raises(ValueError):
        MatrixTupleGroup((4,), (), [0])
    with pytest.raises(ValueError):
        MatrixTupleGroup((2,), (), [])
    # four elements cannot form a subgroup of the six-element full group
    with pytest.raises(AssertionError):
        MatrixTupleGroup((2,), (), list(G2.elements)[:4])


def test_standard_generators_close_to_full_group():
    for l, size in ((2, 6), (3, 48), (5, 480)):
        gens = standard_gl2_generators(l)
        G = generate_closure((l,), [(g,) for g in gens])
        assert G.order == size, l
    assert len(standard_gl2_generators(2)) == 2  # no nontrivial diagonal mod 2
    assert len(standard_gl2_generators(5)) == 3
    with pytest.raises(ValueError):
        standard_gl2_generators(6)


def test_closure_trivial_and_cap():
    G = generate_closure((7,), [])
    assert G.order == 1
    assert delta_exact(G) == 0  # the identity fails the everywhere-nontrivial test
    with pytest.raises(ClosureCapExceeded):
        generate_closure((3,), [(g,) for g in standard_gl2_generators(3)], cap=10)


def test_closure_cap_boundary():
    # a closure of exactly cap elements succeeds and fails at cap - 1,
    # whether the cap fires on a projection or on the product walk
    gens3 = [(g,) for g in standard_gl2_generators(3)]
    assert generate_closure((3,), gens3, cap=48).order == 48
    with pytest.raises(ClosureCapExceeded, match="modulo 3"):
        generate_closure((3,), gens3, cap=47)
    moduli = (2, 3)
    gens = [embed(moduli, i, g) for i, l in enumerate(moduli)
            for g in standard_gl2_generators(l)]
    assert generate_closure(moduli, gens, cap=288).order == 288
    # both projections (6 and 48 elements) fit under 287
    with pytest.raises(ClosureCapExceeded, match="^more than 287 elements$"):
        generate_closure(moduli, gens, cap=287)


def test_closure_is_multiplicatively_closed():
    # the special linear group mod 3 from two standard generators
    G = generate_closure((3,), [((1, 1, 0, 1),), ((0, 1, 2, 0),)])
    assert G.order == 24
    codes = set(int(c) for c in G.elements)
    rng = random.Random(11)
    elems = [decode(c, (3,))[0] for c in G.elements]
    for _ in range(60):
        x = elems[rng.randrange(len(elems))]
        y = elems[rng.randrange(len(elems))]
        assert MatrixTuple((3,), (mat_mul(x, y, 3),)).code() in codes


def test_full_product_orders_and_density():
    assert full_product_group((2,)).order == 6
    assert full_product_group((3,)).order == 48
    assert full_product_group((2, 3)).order == 288
    assert delta_exact(full_product_group((2,))) == F(5, 6)
    assert delta_exact(full_product_group((2, 3))) == F(235, 288)
    assert delta_exact(full_product_group((2, 3, 5))) == F(5, 6) * F(47, 48) * F(479, 480)


def test_full_product_matches_closure():
    # same subgroup, two constructions: direct enumeration vs the closure
    # of the embedded one-component generators, on every acceptance-4b
    # modulus set of order <= 2e5; the two share only _pack_mat
    cap = 2 * 10**5
    sets: list[tuple[int, ...]] = []

    def extend(prefix, rest, order):
        for i, l in enumerate(rest):
            if order * gl2_order(l) <= cap:
                sets.append(prefix + (l,))
                extend(prefix + (l,), rest[i + 1:], order * gl2_order(l))

    extend((), prime_list(100), 1)
    assert len(sets) == 16 and (2, 3, 5) in sets and (2, 13) in sets
    for moduli in sets:
        gens = [embed(moduli, i, g) for i, l in enumerate(moduli)
                for g in standard_gl2_generators(l)]
        walked = generate_closure(moduli, gens, cap)
        direct = full_product_group(moduli, cap)
        assert walked.order == direct.order, moduli
        assert np.array_equal(walked.elements, direct.elements), moduli


def test_serre_ex3_tie_as_a_group():
    # The {2, 19} character tie of serre-ex3 built as an actual group:
    # the index-2 kernel of sign x Legendre(det) in GL2(F_2) x GL2(F_19).
    gens = [((0, 1, 1, 1), (1, 1, 0, 1)),
            ((1, 0, 0, 1), (1, 0, 1, 1)),
            ((0, 1, 1, 0), (2, 0, 0, 1))]
    G = generate_closure((2, 19), gens)
    assert G.order == gl2_order(2) * gl2_order(19) // 2 == 369360
    m2, m19 = np.divmod(G.elements, 19**4)
    # GL2(F_2) acts as S_3; its odd elements are the three involutions,
    # the non-identity elements of trace 0
    odd = ((m2 >> 3) + m2) % 2 == 0
    odd &= m2 != 0b1001
    a, b, c, d = m19 // 19**3, m19 // 19**2 % 19, m19 // 19 % 19, m19 % 19
    squares = np.zeros(19, dtype=bool)
    squares[[x * x % 19 for x in range(1, 19)]] = True
    assert np.all(odd != squares[(a * d - b * c) % 19])
    want = (1 - F(1, 6)) * (1 - F(1, gl2_order(19))) * charsum_alpha({2: 6, 19: gl2_order(19)})
    assert delta_exact(G) == want == F(153899, 184680)


def power(m, k, l):
    out = ID
    while k:
        if k & 1:
            out = mat_mul(out, m, l)
        m, k = mat_mul(m, m, l), k >> 1
    return out


def singer(l):
    """A companion matrix of order l^2 - 1 (a Singer cycle): it acts on
    F_l^2 as a generator of the units of F_{l^2} acts on that field."""
    n, rest, primes, q = l * l - 1, l * l - 1, [], 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    primes += [rest] if rest > 1 else []
    for a, b in itertools.product(range(l), range(1, l)):
        m = (0, 1, b, a)
        if power(m, n, l) == ID and all(power(m, n // q, l) != ID for q in primes):
            return m


def test_long_cyclic_walk_matches_the_powers():
    # A cyclic group's walk has one level per pair of powers g^k, g^-k.
    # The reference is the list of powers, multiplied out one at a time.
    moduli = (31, 37)
    gen = tuple(singer(l) for l in moduli)
    powers, x = [], (ID, ID)
    while True:
        powers.append(MatrixTuple(moduli, x).code())
        x = tuple(mat_mul(m, g, l) for m, g, l in zip(x, gen, moduli))
        if x == (ID, ID):
            break
    assert len(powers) == 960 * 1368 // 24
    G = generate_closure(moduli, [gen])
    assert np.array_equal(G.elements, sorted(powers))


def test_dihedral_walk_takes_seconds():
    # Two reflections in each component generate a dihedral group of
    # order 1,062,960 whose walk is a cycle: 531,480 levels of at most
    # two elements.  Each level costs time in proportion to its own size;
    # in proportion to the elements seen, the walk would take minutes.
    moduli = (1031, 1033)
    roots = [primitive_root(l) for l in moduli]
    w = (0, 1, 1, 0)
    s = tuple((0, pow(a, -1, l), a, 0) for a, l in zip(roots, moduli))  # w * diag(a, 1/a)
    start = time.perf_counter()
    G = generate_closure(moduli, [(w, w), s])
    elapsed = time.perf_counter() - start
    # the rotations diag(a^k, a^-k) and the reflections w * diag(a^k, a^-k)
    k = np.arange(lcm(*(l - 1 for l in moduli)))
    rotations, reflections = np.zeros(len(k), dtype=object), np.zeros(len(k), dtype=object)
    for a, l in zip(roots, moduli):
        table = np.array([pow(a, e, l) for e in range(l - 1)], dtype=np.int64)
        x, y = table[k % (l - 1)], table[-k % (l - 1)]
        rotations = rotations * l**4 + (x * l**3 + y)
        reflections = reflections * l**4 + (y * l**2 + x * l)
    assert np.array_equal(G.elements, sorted(np.concatenate((rotations, reflections))))
    assert elapsed < 90


def test_singer_cycle_closure_takes_seconds():
    # One modulus: the group is its projection, closed once in stage 1.
    l = 1031
    g = singer(l)
    start = time.perf_counter()
    G = generate_closure((l,), [(g,)])
    elapsed = time.perf_counter() - start
    assert G.order == l * l - 1
    rng = random.Random(5)
    for k in rng.sample(range(l * l - 1), 20):
        code = MatrixTuple((l,), (power(g, k, l),)).code()
        assert G.elements[np.searchsorted(G.elements, code)] == code
    assert elapsed < 30


@pytest.mark.parametrize("l", [2, 3, 5, 7, 11])
def test_close_projection_against_matrix_products(l, monkeypatch):
    # Stage 1 on the full group, SL2 (the two transvections), the Borel
    # subgroup, a cyclic one (a Singer cycle) and no generators, read
    # back by conftest's decoder and checked by conftest's matrix product.
    # perfbench counts closure products as _mat_mul calls: one per
    # element and generator.
    z = primitive_root(l)
    groups = [(standard_gl2_generators(l), gl2_order(l)),
              ([(1, 1, 0, 1), (1, 0, 1, 1)], l * (l * l - 1)),
              ([(z, 0, 0, 1), (1, 0, 0, z), (1, 1, 0, 1)], (l - 1) ** 2 * l),
              ([singer(l)], l * l - 1),
              ([], 1)]
    calls = []

    def counted(m, n, modulus):
        calls.append(1)
        return mat_mul(m, n, modulus)

    monkeypatch.setattr(entangle, "_mat_mul", counted)
    for gens, order in groups:
        calls.clear()
        codes, table = entangle._close_projection(gens, l, order)
        assert len(codes) == len(set(codes.tolist())) == order
        assert decode(codes[0], (l,)) == (ID,)
        assert len(calls) == order * len(gens)
        assert table.shape == (len(gens), order) and table.dtype == np.intp
        for g, row in zip(gens, table):
            for h, hg in zip(codes, codes[row]):
                assert decode(hg, (l,))[0] == mat_mul(decode(h, (l,))[0], g, l)
        # breadth-first: positions are numbered in the order first reached
        flat = table.T.ravel()
        _, first = np.unique(flat[flat > 0], return_index=True)
        assert np.all(np.diff(first) > 0)


def test_full_product_caps_and_limits():
    with pytest.raises(ClosureCapExceeded):
        full_product_group((2, 3, 5), cap=10**5)
    # huge code space is refused even when the cap is raised by hand
    with pytest.raises(ValueError):
        full_product_group((2, 3, 5, 7, 11, 13, 17), cap=10**22)


def test_density_multiplicative_over_components():
    d23 = delta_exact(full_product_group((2, 3)))
    d2 = delta_exact(full_product_group((2,)))
    d3 = delta_exact(full_product_group((3,)))
    assert d23 == d2 * d3


def test_python_int_fallback_for_wide_moduli():
    # the packed code space for these moduli overflows 64-bit integers,
    # so the codes are Python integers in an object array
    moduli = (101, 103, 107, 109)
    gen = MatrixTuple(moduli, tuple(neg_id(l) for l in moduli))
    G = generate_closure(moduli, [gen])
    assert G.elements.dtype == object
    assert G.order == 2
    assert delta_exact(G) == F(1, 2)
    assert [decode(c, moduli) for c in G.elements] == [(ID,) * 4, tuple(map(neg_id, moduli))]


def test_wide_index_space():
    # -I over the first 64 odd primes: each projection has two elements,
    # so the product of the projections has 2**64, past 64-bit indices
    moduli = tuple(l for l in prime_list(400) if l > 2)[:64]
    gen = MatrixTuple(moduli, tuple(neg_id(l) for l in moduli))
    G = generate_closure(moduli, [gen])
    assert G.order == 2
    assert G.elements.dtype == object
    assert delta_exact(G) == F(1, 2)
    assert [decode(c, moduli) for c in G.elements] == [(ID,) * 64, tuple(map(neg_id, moduli))]


def test_norm_one_construction():
    moduli = (3, 5, 7)
    invs = [neg_id(l) for l in moduli]
    ambient = generate_closure(moduli, [embed(moduli, i, e) for i, e in enumerate(invs)])
    assert ambient.order == 8
    assert delta_exact(ambient) == F(1, 8)
    H = norm_one_construction(invs, ambient)
    assert H.order == 4
    assert delta_exact(H) == 0
    # every non-identity member is trivial in exactly one component
    for c in H.elements:
        trivial = sum(1 for m in decode(c, moduli) if m == ID)
        assert trivial in (1, 3)
    # subgroup of the ambient group
    ambient_codes = set(int(c) for c in ambient.elements)
    assert all(int(c) in ambient_codes for c in H.elements)


def test_norm_one_accepts_any_commuting_involutions():
    moduli = (3, 5, 7)
    invs = [(1, 0, 0, l - 1) for l in moduli]  # diagonal, not central in GL2
    ambient = generate_closure(moduli, [embed(moduli, i, e) for i, e in enumerate(invs)])
    H = norm_one_construction(invs, ambient)
    assert H.order == 4
    assert delta_exact(H) == 0


def test_norm_one_rejections():
    moduli = (3, 5, 7)
    invs = [neg_id(l) for l in moduli]
    ambient = generate_closure(moduli, [embed(moduli, i, e) for i, e in enumerate(invs)])
    with pytest.raises(NotOrderTwo):
        norm_one_construction([ID, invs[1], invs[2]], ambient)
    with pytest.raises(NotOrderTwo):
        norm_one_construction([(0, 1, 2, 0), invs[1], invs[2]], ambient)  # order 4
    with pytest.raises(ValueError):
        norm_one_construction([(1, 1, 1, 1), invs[1], invs[2]], ambient)  # singular
    with pytest.raises(ValueError):
        norm_one_construction(invs[:2], ambient)
    # an ambient with a transvection exposes a non-central involution
    shear = generate_closure(moduli, [embed(moduli, 0, (1, 1, 0, 1))])
    with pytest.raises(NotCentral):
        norm_one_construction([(1, 0, 0, 2), invs[1], invs[2]], shear)


def test_index2_smallest_case():
    model, delta = index2_character_subgroup((2, 2), (1, 1))
    assert model.group_order == 2
    assert model.nontrivial_count == 1
    assert delta == F(1, 2)


def test_index2_against_literal_enumeration():
    def brute(sizes, kernels):
        hits = 0
        total = 0
        for tup in itertools.product(*(range(n) for n in sizes)):
            sign = 1
            for x, k in zip(tup, kernels):
                sign *= 1 if x < k else -1
            if sign != 1:
                continue
            total += 1
            if all(x != 0 for x in tup):
                hits += 1
        return hits, total

    rng = random.Random(606)
    configs = [((4, 6), (2, 3)), ((2, 4, 6), (1, 2, 3))]
    while len(configs) < 12:
        r = rng.randrange(2, 5)
        sizes = tuple(2 * rng.randrange(1, 7) for _ in range(r))
        if 1 <= np.prod(sizes) <= 10**4:
            configs.append((sizes, tuple(n // 2 for n in sizes)))
    for sizes, kernels in configs:
        hits, total = brute(sizes, kernels)
        model, delta = index2_character_subgroup(sizes, kernels)
        assert model.group_order == total, (sizes, kernels)
        assert model.nontrivial_count == hits
        assert delta == F(hits, total)


def test_index2_validation():
    with pytest.raises(ValueError):
        index2_character_subgroup((6,), (3,))
    with pytest.raises(ValueError):
        index2_character_subgroup((6, 6), (3,))
    with pytest.raises(ValueError):
        index2_character_subgroup((6, 0), (3, 0))
    with pytest.raises(CharacterNotSurjective):
        index2_character_subgroup((6, 9), (3, 3))


def test_load_group_description():
    kind, G = load_group_description(
        {"construction": "closure", "moduli": [2],
         "generators": [[[1, 1, 0, 1]], [[0, 1, 1, 0]]]})
    assert kind == "group" and G.order == 6

    kind, G = load_group_description({"construction": "full_product", "moduli": [2, 3]})
    assert kind == "group" and G.order == 288

    kind, G = load_group_description(
        {"construction": "norm_one", "moduli": [3, 5, 7],
         "involutions": [[2, 0, 0, 2], [4, 0, 0, 4], [6, 0, 0, 6]]})
    assert kind == "group" and G.order == 4 and delta_exact(G) == 0

    kind, (model, delta) = load_group_description(
        {"construction": "index2", "factor_sizes": [6, 13200],
         "kernel_sizes": [3, 6600]})
    assert kind == "index2"
    assert delta == F(16499, 19800)

    with pytest.raises(ValueError):
        load_group_description({"construction": "banana", "moduli": [2]})
    with pytest.raises(ValueError):
        load_group_description([1, 2, 3])
    with pytest.raises(KeyError):
        load_group_description({"construction": "full_product"})
    with pytest.raises(ClosureCapExceeded):
        load_group_description(
            {"construction": "closure", "moduli": [3], "cap": 5,
             "generators": [[[1, 1, 0, 1]], [[0, 1, 2, 0]]]})

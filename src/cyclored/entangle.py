"""Exact computations in subgroups of products of 2x2 matrix groups.

Elements are tuples of invertible 2x2 matrices over prime fields,
packed into integers (base l per entry, components big-endian) so that
integer order equals lexicographic order of the serialized matrices and
deduplication is exact.  A group stores its codes in one sorted numpy
array: int64 when the code space fits 64-bit arithmetic, Python
integers in an object array otherwise.  _encode_array packs and _split
unpacks every tuple code.

A closure is computed in two stages.  Stage 1 closes each modulus's
projection on its own in Python, as an orbit enumeration: a
breadth-first walk over packed matrices with a dict from packed code to
position, giving one permutation table per generator.  Stage 2 walks
the generated subgroup in numpy, a breadth-first level at a time, on
mixed-radix indices into the product of those projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .modmath import is_prime, primitive_root
from .utils import json_ints

DEFAULT_CLOSURE_CAP = 10**7
_INT64_SAFE = 1 << 62

Mat = tuple[int, int, int, int]  # row-major (a, b, c, d)


class ClosureCapExceeded(Exception):
    """Subgroup generation left the configured element budget."""


class NotOrderTwo(Exception):
    """A supplied component element is not an involution."""


class NotCentral(Exception):
    """A supplied component element fails to commute with the ambient."""


class CharacterNotSurjective(Exception):
    """A factor's quadratic character does not reach both signs."""


def _mat_mul(m: Mat, n: Mat, l: int) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (
        (a * e + b * g) % l,
        (a * f + b * h) % l,
        (c * e + d * g) % l,
        (c * f + d * h) % l,
    )


def _mat_det(m: Mat, l: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % l


_ID: Mat = (1, 0, 0, 1)


def _pack_mat(m: Mat, l: int) -> int:
    return ((m[0] * l + m[1]) * l + m[2]) * l + m[3]


def _unpack_mat(code: int, l: int) -> Mat:
    code, d = divmod(code, l)
    code, c = divmod(code, l)
    a, b = divmod(code, l)
    return (a, b, c, d)


def _check_moduli(moduli) -> tuple[int, ...]:
    moduli = tuple(moduli)
    if len(set(moduli)) != len(moduli):
        raise ValueError("moduli must be distinct")
    for l in moduli:
        if not is_prime(l):
            raise ValueError(f"modulus {l} is not prime")
    return moduli


@dataclass(frozen=True)
class MatrixTuple:
    """One element of a product of matrix groups over prime fields."""

    moduli: tuple[int, ...]
    mats: tuple[Mat, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", _check_moduli(self.moduli))
        if len(self.mats) != len(self.moduli):
            raise ValueError("one matrix per modulus required")
        object.__setattr__(
            self, "mats", tuple(tuple(int(x) % l for x in m) for m, l in zip(self.mats, self.moduli))
        )
        for m, l in zip(self.mats, self.moduli):
            if len(m) != 4:
                raise ValueError("matrices are quadruples (a, b, c, d)")
            if _mat_det(m, l) == 0:
                raise ValueError(f"singular component modulo {l}")

    def code(self) -> int:
        return _encode(self.mats, self.moduli)


def _dtype(space: int):
    """The dtype of codes or indices in [0, space): int64 up to a space
    of 2**62, so that _walk's keys 2x + 1 fit too, else Python integers."""
    return np.int64 if space <= _INT64_SAFE else object


def _code_space(moduli: tuple[int, ...]) -> int:
    return prod(l**4 for l in moduli)


def _encode_array(comps, moduli: tuple[int, ...]) -> np.ndarray:
    """The codes of the tuples whose component i is the packed matrix
    comps[i] modulo moduli[i]; the arrays broadcast against each other."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in comps))
    codes = np.zeros(shape, dtype=_dtype(_code_space(moduli)))
    for c, l in zip(comps, moduli):
        codes *= l**4  # in place: one array of codes at a time
        codes += c
    return codes


def _encode(mats, moduli: tuple[int, ...]) -> int:
    return int(_encode_array([_pack_mat(m, l) for m, l in zip(mats, moduli)], moduli))


class MatrixTupleGroup:
    """Immutable enumerated subgroup of a product of matrix groups.

    elements is the sorted numpy array of all packed codes: int64 when
    the total code space fits 64-bit arithmetic, otherwise an object
    array of Python integers.
    """

    def __init__(self, moduli, generators, element_codes):
        self.moduli = _check_moduli(moduli)
        self.generators = tuple(generators)
        for g in self.generators:
            if g.moduli != self.moduli:
                raise ValueError("generator moduli mismatch")
        codes = np.asarray(element_codes, dtype=_dtype(_code_space(self.moduli)))
        if np.any(codes[1:] < codes[:-1]):
            codes = np.sort(codes)
        self.elements = codes
        n = len(self.elements)
        if n == 0:
            raise ValueError("a group cannot be empty")
        full = prod(_gl2_size(l) for l in self.moduli)
        if full % n != 0:
            raise AssertionError("element count violates the subgroup constraint")

    @property
    def order(self) -> int:
        return len(self.elements)


def _gl2_size(l: int) -> int:
    return (l * l - 1) * (l * l - l)


def standard_gl2_generators(l: int) -> list[Mat]:
    """A generating set for the invertible 2x2 matrices modulo l: a
    maximal-order diagonal, the upper transvection, and the swap.
    Row reduction writes any invertible matrix in terms of these."""
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    gens: list[Mat] = [(1, 1, 0, 1), (0, 1, 1, 0)]
    z = primitive_root(l)
    if z != 1:
        gens.insert(0, (z, 0, 0, 1))
    return gens


def _close_projection(gens: list[Mat], l: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first closure of one modulus's generator components in
    GL2(F_l): an orbit enumeration with a dict from packed code to
    breadth-first position.  Returns the projection's packed matrices in
    breadth-first order (the identity first) and a table with one row
    per generator g: the position of h*g for each position h.  Each
    element is unpacked once and each (element, generator) pair is
    multiplied exactly once, by _mat_mul."""
    codes = [_pack_mat(_ID, l)]  # the queue: it grows while it is walked
    index = {codes[0]: 0}
    table = []  # the position of h*g at h * len(gens) + g
    n = 1  # len(codes)
    for h in codes:
        h, d = divmod(h, l)
        h, c = divmod(h, l)
        a, b = divmod(h, l)
        m = (a, b, c, d)
        for g in gens:
            a, b, c, d = _mat_mul(m, g, l)
            code = ((a * l + b) * l + c) * l + d
            pos = index.setdefault(code, n)
            if pos == n:
                # the group is at least as large as its projection
                if n >= cap:
                    raise ClosureCapExceeded(f"more than {cap} elements modulo {l}")
                codes.append(code)
                n += 1
            table.append(pos)
    del index
    return np.array(codes), np.array(table, dtype=np.intp).reshape(n, len(gens)).T.copy()


def _split(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Mixed-radix digits of x (big-endian, radices sizes), each of the
    dtype that _dtype picks for its radix."""
    digits = []
    for n in reversed(sizes):
        digits.append((x % n).astype(_dtype(n), copy=False))
        x = x // n
    return digits[::-1]


def _walk(sizes: list[int], tables: list[np.ndarray], cap: int) -> np.ndarray:
    """Mixed-radix indices into the product of the projections, whose
    sizes are given, of the subgroup generated by the tuples that act
    on projection i by right multiplication as the rows of tables[i].

    The walk steps by each generator and its inverse, so its graph is
    undirected: the neighbours of a level lie in the level before it,
    in the level itself or in the next one.  The next level is thus the
    candidates less the last two levels, found by sorting them all
    together, and each level costs time in proportion to its own size.
    Elements found carry keys 2x and candidates keys 2x + 1, so after
    sorting, a candidate is new exactly when the key before it is
    below 2x."""
    dtype = _dtype(prod(sizes))
    inverses = []
    for t in tables:
        inv = np.empty_like(t)
        np.put_along_axis(inv, t, np.arange(t.shape[1]), axis=1)
        inverses.append(inv)
    steps = [np.concatenate((t, inv)).astype(dtype) * (2 * prod(sizes[i + 1:]))
             for i, (t, inv) in enumerate(zip(tables, inverses))]
    steps[-1] += 1
    floor = np.full(1, -2, dtype=dtype)  # below every key
    found = np.zeros(1, dtype=dtype)  # keys level by level, the identity first
    prev, start, count = 0, 0, 1
    while start < count:
        digits = _split(found[start:count] >> 1, sizes)
        cand = sum(step.take(d, axis=1) for step, d in zip(steps, digits))
        keys = np.concatenate((floor, found[prev:count], cand.ravel()))
        keys.sort()
        after = keys[1:]
        new = after[(after - keys[:-1] > 1) & (after & 1).astype(bool)] - 1
        if count + len(new) > cap:
            raise ClosureCapExceeded(f"more than {cap} elements")
        if count + len(new) > len(found):
            found = np.resize(found, 2 * (count + len(new)))
        found[count:count + len(new)] = new
        prev, start, count = start, count, count + len(new)
    return found[:count] >> 1


def generate_closure(moduli, generators, cap: int = DEFAULT_CLOSURE_CAP) -> MatrixTupleGroup:
    """Enumerate the subgroup generated by the given tuples.

    Stage 1 closes each modulus's generator components on its own,
    giving the projection H_l and a permutation table for right
    multiplication by each generator: a breadth-first walk in Python in
    which each product is one _mat_mul call and one lookup in a dict
    from packed matrix to position, and its table entry is that
    position.  The cap applies here already, since the group is at
    least as large as each projection.  With a single modulus the group
    is its projection.

    Stage 2 walks the group breadth-first on mixed-radix indices into
    the product of the H_l, a whole level at a time in numpy: a step
    splits the indices into digits, maps each digit through a
    generator's table and recombines them.  Indices are int64 when the
    product of the projections fits, Python integers in object arrays
    otherwise.  The indices are finally mapped to packed codes.
    """
    moduli = _check_moduli(moduli)
    gens = [g if isinstance(g, MatrixTuple) else MatrixTuple(moduli, g) for g in generators]
    projections = [_close_projection([g.mats[i] for g in gens], l, cap)
                   for i, l in enumerate(moduli)]
    sizes = [len(elems) for elems, _ in projections]
    if len(sizes) > 1:
        indices = _walk(sizes, [table for _, table in projections], cap)
        comps = [elems[d] for (elems, _), d in zip(projections, _split(indices, sizes))]
    else:  # the group is its projection
        comps = [elems for elems, _ in projections]
    return MatrixTupleGroup(moduli, gens, _encode_array(comps, moduli).ravel())


def full_product_group(moduli, cap: int = DEFAULT_CLOSURE_CAP) -> MatrixTupleGroup:
    """The entire product of the full matrix groups over the moduli,
    materialized directly (no closure walk).  Element count must stay
    within cap."""
    moduli = tuple(moduli)
    total = prod(_gl2_size(l) for l in moduli)
    if total > cap:
        raise ClosureCapExceeded(f"full product has {total} > {cap} elements")
    if _dtype(_code_space(moduli)) is object:
        raise ValueError("code space too large for direct materialization")
    comps = []
    for i, l in enumerate(moduli):
        idx = np.arange(l**4, dtype=np.int64)
        # on axis i of the grid of all tuples, so the codes come out sorted
        shape = [-1 if j == i else 1 for j in range(len(moduli))]
        comps.append(idx[_mat_det(_unpack_mat(idx, l), l) != 0].reshape(shape))
    codes = _encode_array(comps, moduli).ravel()
    gens = []
    for i, l in enumerate(moduli):
        for gm in standard_gl2_generators(l):
            mats = tuple(gm if j == i else _ID for j in range(len(moduli)))
            gens.append(MatrixTuple(moduli, mats))
    return MatrixTupleGroup(moduli, gens, codes)


def delta_exact(G: MatrixTupleGroup) -> Fraction:
    """Exact fraction of elements whose every component differs from the
    identity matrix: the group-theoretic cyclicity density at the
    group's level."""
    mask = np.ones(G.order, dtype=bool)
    for comp, l in zip(_split(G.elements, [l**4 for l in G.moduli]), G.moduli):
        mask &= comp != _pack_mat(_ID, l)
    return Fraction(int(mask.sum()), G.order)


def norm_one_construction(component_elements, ambient: MatrixTupleGroup) -> MatrixTupleGroup:
    """Order-4 subgroup of the product of three commuting involutions:
    the tuples with an even number of nontrivial entries.  Any prime
    splitting completely in the fixed field of such a subgroup would
    need every component nontrivial, which no element achieves, so the
    resulting density vanishes while each component factor is 1/2."""
    moduli = ambient.moduli
    if len(moduli) != 3 or len(component_elements) != 3:
        raise ValueError("the construction needs exactly three components")
    invs: list[Mat] = []
    for e, l in zip(component_elements, moduli):
        e = tuple(int(x) % l for x in e)
        if _mat_det(e, l) == 0:
            raise ValueError(f"singular involution modulo {l}")
        if e == _ID or _mat_mul(e, e, l) != _ID:
            raise NotOrderTwo(f"component modulo {l} does not have order 2")
        invs.append(e)
    for g in ambient.generators:
        for i, (e, l) in enumerate(zip(invs, moduli)):
            if _mat_mul(e, g.mats[i], l) != _mat_mul(g.mats[i], e, l):
                raise NotCentral(
                    f"involution modulo {l} does not commute with the ambient"
                )
    members = []
    for pattern in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
        mats = tuple(invs[i] if pattern[i] else _ID for i in range(3))
        members.append(MatrixTuple(moduli, mats).code())
    gens = [
        MatrixTuple(moduli, (invs[0], invs[1], _ID)),
        MatrixTuple(moduli, (_ID, invs[1], invs[2])),
    ]
    return MatrixTupleGroup(moduli, gens, members)


@dataclass(frozen=True)
class Index2Model:
    """Abstract model of the kernel of a product quadratic character:
    factors carry only a size and a kernel size, never elements."""

    factor_sizes: tuple[int, ...]
    kernel_sizes: tuple[int, ...]
    group_order: int
    nontrivial_count: int


def index2_character_subgroup(factor_sizes, kernel_sizes) -> tuple[Index2Model, Fraction]:
    """Count, inside the index-2 kernel of a product of surjective
    quadratic characters, the elements nontrivial in every factor.

    A factor of size n = 2k contributes its k - 1 nontrivial kernel
    elements on sign +1 and its k non-kernel elements on -1, and only
    even numbers of -1 signs land in the kernel of the product
    character.  Summed over the even sign patterns of r factors, that is
    (prod(2k - 1) + (-1)**r) / 2, with no loop over the 2**r patterns.
    Returns the abstract model and the exact density.
    """
    sizes = tuple(int(n) for n in factor_sizes)
    kernels = tuple(int(k) for k in kernel_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two factors")
    if len(kernels) != len(sizes):
        raise ValueError("one kernel size per factor")
    for n, k in zip(sizes, kernels):
        if n < 2 or k < 1:
            raise ValueError("factor and kernel sizes must be positive")
        if 2 * k != n:
            raise CharacterNotSurjective(
                f"kernel of size {k} in a factor of size {n} is not index 2"
            )
    count = (prod(n - 1 for n in sizes) + (-1) ** len(sizes)) // 2
    order = prod(sizes) // 2
    model = Index2Model(
        factor_sizes=sizes,
        kernel_sizes=kernels,
        group_order=order,
        nontrivial_count=count,
    )
    return model, Fraction(count, order)


def load_group_description(doc: dict):
    """Build a group (or abstract index-2 model) from a JSON document.

    Recognized constructions: "closure" (default; moduli + generators as
    lists of quadruples), "full_product" (moduli only), "norm_one"
    (moduli + three involutions, ambient is the closure of their
    embeddings), and "index2" (factor_sizes + kernel_sizes).  Moduli,
    matrix entries and sizes must be JSON integers.  Returns
    ("group", MatrixTupleGroup) or ("index2", (Index2Model, Fraction)).
    """
    if not isinstance(doc, dict):
        raise ValueError("group description must be a JSON object")
    kind = doc.get("construction", "closure")
    cap = doc.get("cap", DEFAULT_CLOSURE_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be an integer of at least 1, got {cap!r}")
    if kind == "index2":
        return "index2", index2_character_subgroup(
            json_ints(doc["factor_sizes"], "factor sizes"),
            json_ints(doc["kernel_sizes"], "kernel sizes"),
        )
    moduli = json_ints(doc["moduli"], "moduli")
    if kind == "full_product":
        return "group", full_product_group(moduli, cap)
    if kind == "norm_one":
        invs = [json_ints(e, "involution entries") for e in doc["involutions"]]
        if len(invs) != len(moduli):
            raise ValueError("one involution per modulus required")
        emb = [
            MatrixTuple(
                moduli, tuple(invs[i] if j == i else _ID for j in range(len(moduli)))
            )
            for i in range(len(moduli))
        ]
        ambient = generate_closure(moduli, emb, cap)
        return "group", norm_one_construction(invs, ambient)
    if kind == "closure":
        gens = [
            MatrixTuple(moduli, [json_ints(quad, "matrix entries") for quad in g])
            for g in doc.get("generators", [])
        ]
        return "group", generate_closure(moduli, gens, cap)
    raise ValueError(f"unknown construction {kind!r}")

"""The ideal of constant-free symmetric polynomials and its quotient tools.

Everything here works in the ring k[z_1, ..., z_ell].  The ideal I_S is
generated by all symmetric polynomials with zero constant term; the tail
complete homogeneous polynomials

    g_i = h_i(z_i, ..., z_ell),   i = 1..ell

form a Groebner basis of it under lex with z_1 > z_2 > ... > z_ell, which
makes normal forms cheap: reduced monomials are exactly those with
deg_{z_i} < i.  On top of the normal form sit the block-symmetry notions
driven by a composition (lambda_1, ..., lambda_n) of ell: invariance tests,
the averaging projector over S_{lambda_1} x ... x S_{lambda_n}, and the
rewriting of a block-symmetric polynomial in the elementary symmetric
polynomials of its blocks.

The arithmetic of the quotient runs on integers, and no other module
multiplies or reduces packed z-ring polynomials.  One packed route serves
normal forms, powers, psi images and Schubert rows, on one record per z
ring, `_quotient(ell)`: keys by its one `polyring.Packing`, `_packing(ell)`;
reduction by `_reduce_packed`, which sums the record's rows NF(z^a) of the
monomials that recur, each made once by `_heap_reduce`, the one reduction
kernel, and bounded over all rings by `ROW_TABLE_TERMS`; the way out by
`_z_poly`, through the record's interned Monomials.  `_normal_form`
packs the queries of `normal_form_IS` and the Schubert expansion,
`_image_nf` psi's images, and `_packed_powers`, the one power loop, gives
`alambda.nilpotency_order` and the psi refusals their powers.  A Poly is
itself integer numerators over one denominator, so every route reads
`p.nums` and `p.denom` as they are and leaves by `Poly._from_ints`: the
averaging projector and the normal form clear no denominator and make no
Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import factorial

from .errors import (
    DomainError, InvariantViolationError, RingMismatchError, _in_ring, _instance, _sequence, _size,
)
from .polyring import Monomial, Packing, Poly, Ring

__all__ = [
    "Composition",
    "zring",
    "complete_homogeneous",
    "elementary_symmetric",
    "groebner_basis_IS",
    "normal_form_IS",
    "in_IS",
    "nu",
    "is_lambda_symmetric",
    "sym_lambda_average",
    "block_sigma",
    "decompose_block_elementary",
    "expand_block_elementary",
    "block_elementary_ring",
]

class Composition:
    """Non-negative integer parts (lambda_1..lambda_n) with partial sums.

    prefix(i) is lambda_1 + ... + lambda_{i-1} for 1-based i, so prefix(1)
    is 0 and prefix(n+1) equals ell.  Zero parts are allowed and denote
    empty blocks.  Every refusal, of a non-sequence or a part, is a DomainError.
    """

    __slots__ = ("parts", "_prefix")

    def __init__(self, parts):
        parts = tuple(_size(p, "composition part") for p in _sequence(parts, "composition parts"))
        self.parts = parts
        acc = [0]
        for p in parts:
            acc.append(acc[-1] + p)
        self._prefix = tuple(acc)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def ell(self) -> int:
        return self._prefix[-1]

    def prefix(self, i: int) -> int:
        """Partial sum before block i (1-based, up to n+1)."""
        return self._prefix[_size(i, "block index", 1, self.n + 1) - 1]

    def block(self, i: int) -> range:
        """0-based variable indices of block i (1-based)."""
        i = _size(i, "block index", 1, self.n)
        return range(self._prefix[i - 1], self._prefix[i])

    def blocks(self):
        return list(map(range, self._prefix, self._prefix[1:]))

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self):
        return "Composition%r" % (self.parts,)


def zring(ell: int) -> Ring:
    """The ring of z1..z_ell, one object per ell: the size is checked before
    the cache, which would fail on an unhashable one with a bare TypeError."""
    return _zring(_size(ell, "variable count", 1))


@lru_cache(maxsize=None)
def _zring(ell: int) -> Ring:
    return Ring(tuple("z%d" % (i + 1) for i in range(ell)))


def complete_homogeneous(d: int, k: int, ell: int) -> Poly:
    """Sum of all degree-d monomials in z_k, ..., z_ell (1-based k)."""
    d, ell = _size(d, "degree"), _size(ell, "variable count", 1)
    k = _size(k, "start index", 1, ell)
    ring = zring(ell)
    terms = {}
    for combo in itertools.combinations_with_replacement(range(k - 1, ell), d):
        exps = [0] * ell
        for i in combo:
            exps[i] += 1
        terms[Monomial(exps)] = 1
    return Poly(ring, terms)


def elementary_symmetric(ring: Ring, d: int, indices) -> Poly:
    """Sum of all squarefree degree-d monomials in the given variables."""
    _instance(ring, Ring, "ring")
    indices = _sequence(indices, "variable indices")
    indices = [_size(i, "variable index", 0, ring.nvars - 1) for i in indices]
    if len(set(indices)) != len(indices):
        raise DomainError("repeated variable index in %r" % (indices,))
    d = _size(d, "elementary symmetric degree", 1, len(indices))
    terms = {}
    for combo in itertools.combinations(indices, d):
        exps = [0] * ring.nvars
        for i in combo:
            exps[i] = 1
        terms[Monomial(exps)] = 1
    return Poly(ring, terms)


def groebner_basis_IS(ell: int) -> tuple[Poly, ...]:
    """The basis (h_1(z_1..z_ell), h_2(z_2..z_ell), ..., h_ell(z_ell)),
    made once per ell, the size checked before the cache as by `zring`."""
    return _groebner_basis_IS(_size(ell, "variable count", 1))


@lru_cache(maxsize=None)
def _groebner_basis_IS(ell: int) -> tuple[Poly, ...]:
    return tuple(complete_homogeneous(i, i, ell) for i in range(1, ell + 1))


def normal_form_IS(p: Poly, ell: int | None = None) -> Poly:
    """Fully reduced remainder of p modulo I_S under lex z_1 > ... > z_ell.

    Heap division on packed exponents (Monagan & Pearce, CASC 2007), with
    the rules z_i^i -> -(g_i - z_i^i) read off the Groebner basis: lex
    order is integer order and applying a rule is adding a fixed offset.
    The normal form of a monomial met again is read from its ring's rows.
    See `_normal_form` for why one packing per z ring suffices and which
    integers it reduces, `_reduce_packed` for the rows and `_heap_reduce`
    for the loop and its one-step rule dispatch.
    """
    ell = _in_ring(p, None, "polynomial").ring.nvars if ell is None else ell
    _in_ring(p, zring(ell), "polynomial")
    return _z_poly(*_normal_form(p, ell), ell)


def _z_poly(terms: dict[int, int], denom: int, ell: int) -> Poly:
    """The Poly of the packed terms / denom in the z ring, the one way out of
    `_packing(ell)` for normal forms, psi refusals and Schubert polynomials;
    its Monomials come from the record's interned `unpack`, so a monomial
    that recurs across results is one object.

    `terms` has no zero, as `_reduce_packed` returns it, so the Poly is
    `Poly._from_ints` of the unpacked terms over `denom`, with no Fraction
    made."""
    quotient = _quotient(ell)
    unpack = quotient.unpack
    return Poly._from_ints(quotient.ring, {unpack(key): c for key, c in terms.items()}, denom)


def _normal_form(p: Poly, ell: int, reverse: bool = False) -> tuple[dict[int, int], int]:
    """NF of p in the ell-variable z ring, each exponent vector reversed
    first if `reverse` is set, as (the terms of d*NF, packed by
    `_packing(ell)`, d), for d = p.denom: p's numerators are packed as they
    stand.  So d is a common denominator of all of p's terms, not only the
    kept ones; the integers d*NF depend on it, the Fractions NF(p) do not.

    A reduced monomial has deg_{z_i} < i, so degree at most ell(ell-1)/2,
    where k[z]/I_S stops: a term above that lies in I_S and is dropped, and
    the g_i are homogeneous, so no exponent of the rest, rewritten or not,
    exceeds the one packing's degree.
    """
    quotient = _quotient(ell)
    top, pack = quotient.top, quotient.packing.pack
    terms = p.nums.items()
    if reverse:
        terms = ((m[::-1], c) for m, c in terms)
    pending = {pack(m): c for m, c in terms if sum(m) <= top}
    return _reduce_packed(pending, ell), p.denom


def _nf_powers(p: Poly, ell: int):
    """`_packed_powers` from p's packed normal form, as `_normal_form` reads it."""
    return _packed_powers(*_normal_form(p, ell), ell)


def _packed_powers(base: dict[int, int], denom: int, ell: int):
    """Yield (d^e * NF(p^e), d^e) for e = 1, 2, ... while NF(p^e) != 0, for
    `base` = d*NF(p), reduced and packed by `_packing(ell)`, and `denom` = d.

    Each power is the previous one times `base`, in integers, reduced by
    `_reduce_packed`.  A product of two reduced monomials of degree above
    ell(ell-1)/2 lies in I_S and is dropped first; its degree is its key
    modulo the field mask, since 2^width = 1 modulo it, a field of the sum
    holds at most 2(ell-1) < 2^width and the degree at most
    ell(ell-1) < 2^width - 1.  So every kept key fits the one packing.
    """
    quotient = _quotient(ell)
    top, mask = quotient.top, quotient.packing.mask
    power, scale = base, denom
    while power:
        yield power, scale
        product: dict[int, int] = {}
        for k1, c1 in power.items():
            for k2, c2 in base.items():
                k = k1 + k2
                if k % mask <= top:
                    product[k] = product.get(k, 0) + c1 * c2
        power, scale = _reduce_packed(product, ell), scale * denom


def _packed_image(images, terms) -> dict:
    """Substitute `images`, one list of packed keys with coefficient 1 per
    variable, into the (exponents, coefficient) pairs `terms`: each factor
    multiplies by adding keys.  The caller's packing holds every exponent."""
    out: dict = {}
    for exps, c in terms:
        acc = {0: c}
        for keys in (keys for keys, e in zip(images, exps) for _ in range(e)):
            step: dict = {}
            for k1, v in acc.items():
                for k2 in keys:
                    step[k1 + k2] = step.get(k1 + k2, 0) + v
            acc = step
        for k, v in acc.items():
            out[k] = out.get(k, 0) + v
    return out


def _image_nf(images, terms, ell: int) -> dict[int, int]:
    """The packed NF of `_packed_image(images, terms)`, empty iff that is in
    I_S, for images on `_packing(ell)` whose products are squarefree: a key's
    degree is its bit count, and keys above ell(ell-1)/2 are in I_S, dropped."""
    top = _quotient(ell).top
    kept = {k: c for k, c in _packed_image(images, terms).items() if k.bit_count() <= top}
    return _reduce_packed(kept, ell)


def _packing(ell: int) -> Packing:
    """The one packing of the ell-variable z ring, for degree ell(ell-1)/2."""
    return _quotient(ell).packing


# The normal-form rows bound, over every ell: a row, the packed NF(z^key)
# of a monomial not reduced, as `_reduce_packed` makes it, counts its terms
# plus one for its key, so that rows of monomials in I_S count too; no row
# is stored once the count passes ROW_TABLE_TERMS.  An 18-second bench run,
# seed 1, counts 3,162 on the quotient workload (ell <= 6: 352 rows of
# 2,810 terms), 1,517 on expand (128 rows, 62 kB) and 144 on oracle
# (13 kB).  One row at ell >= 8 can hold thousands of terms; the first row
# past the bound is used but not stored.  Each ring's interned Monomials,
# `_Quotient.unpack`, are bounded by the same number on their own.
ROW_TABLE_TERMS = 16384
_row_terms = 0


def _reduce_packed(pending: dict[int, int], ell: int) -> dict[int, int]:
    """Reduce the packed integer polynomial `pending` modulo I_S, into a new
    dict: the sum of c * NF(z^key) over its terms.

    Keys are packed by `_packing(ell)`.  k[z]/I_S has the finite basis of
    reduced monomials, so NF(z^key) is a fixed integer row, and the same
    monomials recur from call to call.  A reduced key, (key + bump) & guard
    = 0 as in `_heap_reduce`, is its own row; any other row is read from
    the record's `rows`, or made by `_heap_reduce` from {key: 1} and stored
    while the count above allows.

    A row made on its own shares no rewrite with the call's other misses,
    so a call makes at most as many rows as it found, or the row of its one
    miss, which costs the same heap either way; the rest of its misses are
    reduced together in one `_heap_reduce`.  Rows thus come at the pace
    their monomials recur.  Cold, NF((z1 + 2z2 + ... + 6z6)^10), 3,003
    terms, takes 6 ms so and 354 ms with a row made for every miss.
    """
    global _row_terms
    quotient = _quotient(ell)
    bump, guard, rows = quotient.bump, quotient.packing.guard, quotient.rows
    out: dict[int, int] = {}
    get = out.get
    misses: dict[int, int] = {}
    found = 0
    for key, c in pending.items():
        if not (key + bump) & guard:
            out[key] = get(key, 0) + c
            continue
        row = rows.get(key)
        if row is None:
            if c:
                misses[key] = c
            continue
        found += 1
        for k, v in row.items():
            out[k] = get(k, 0) + c * v
    if len(misses) == 1:
        found = 1
    rest: dict[int, int] = {}
    for key, c in misses.items():
        if not found or _row_terms >= ROW_TABLE_TERMS:
            rest[key] = c
            continue
        found -= 1
        row = _heap_reduce({key: 1}, ell)
        _row_terms += len(row) + 1
        if _row_terms <= ROW_TABLE_TERMS:
            rows[key] = row
        for k, v in row.items():
            out[k] = get(k, 0) + c * v
    if rest:
        for k, v in _heap_reduce(rest, ell).items():
            out[k] = get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _heap_reduce(pending: dict[int, int], ell: int) -> dict[int, int]:
    """Reduce the packed integer polynomial `pending` modulo I_S; consumes
    it.  The one reduction kernel, run by `_reduce_packed` on its misses.

    Keys are packed by `_packing(ell)`.  Pending monomials sit in a
    max-heap; every monomial a rule produces is lex-smaller than the one it
    replaces, so a popped monomial never comes back and the reduced ones
    leave the heap as finished remainder terms, in descending key order.

    The normal form is unique, so a monomial divisible by several z_i^i may
    be rewritten by any of their rules; the lowest i is taken, as one
    addition and one `bit_length` find it: `bump` adds (guard bit) - i to
    the field of z_i, which sets that field's guard bit exactly when
    z_i >= i, so hit = (key + bump) & guard is 0 on reduced monomials and
    otherwise has as its highest set bit the guard bit of the smallest such
    i, z_1's field being the most significant.  On the misses of one
    18-second bench run, seeds 1 and 2, the lowest i pops 4% fewer
    monomials than the highest on quotient (12,503 against 12,987 at seed
    1), 6-7% fewer on expand (5,361 against 5,701) and as many on oracle
    (1,919).
    """
    quotient = _quotient(ell)
    bump, guard, rules = quotient.bump, quotient.packing.guard, quotient.rules
    heap = [-key for key in pending]
    heapify(heap)
    reduced: dict[int, int] = {}
    while heap:
        key = -heappop(heap)
        c = pending.pop(key)
        if not c:
            continue
        hit = (key + bump) & guard
        if not hit:
            reduced[key] = c
            continue
        for offset in rules[hit.bit_length()]:
            child = key + offset
            old = pending.get(child)
            if old is None:
                pending[child] = -c
                heappush(heap, -child)
            else:
                pending[child] = old - c
    return reduced


class _Rules(dict):
    """The rewrite rules of `_heap_reduce` on one `Packing` of the z ring,
    keyed by the bit length of the guard bit of z_i's field: each made on
    its first lookup, so a reduction that only meets z_1 never builds the
    2^ell - 1 terms of every rule.

    The rule of z_i is z_i^i -> -(g_i - z_i^i) as a tuple of packed
    offsets: every coefficient of g_i = h_i(z_i..z_ell) is 1, so the rule
    takes every other degree-i monomial of z_i..z_ell with coefficient -1,
    which `_heap_reduce` subtracts, packed by adding its variables' field
    units.  No coefficient, Poly or Fraction is stored.
    """

    __slots__ = ("packing",)

    def __init__(self, packing: Packing):
        super().__init__()
        self.packing = packing

    def __missing__(self, length: int):
        shifts, width = self.packing.shifts, self.packing.width
        j = len(shifts) - length // width  # the rule of z_{j+1}, of degree j + 1
        units = [1 << s for s in shifts[j:]]  # z_{j+1}, ..., z_ell, packed
        lead = (j + 1) * units[0]
        self[length] = rule = tuple(
            sum(combo) - lead
            for combo in itertools.combinations_with_replacement(units, j + 1)
            if combo[-1] != units[0]
        )
        return rule


class _Quotient:
    """k[z_1..z_ell]/I_S as the packed routes read it, made once per ell by
    `_quotient`: the z ring; top = ell(ell-1)/2, where the quotient stops;
    the one `Packing`, for degree top; `bump`, which adds (guard bit) - i
    to the field of z_i, and is >= 0 and carries nothing out of a field, as
    the guard bit's value exceeds top >= ell - 1; the lazy `_Rules` of
    `_heap_reduce`; the normal-form `rows` of `_reduce_packed`; and the
    packing's `unpack`, interned for `_z_poly` by an LRU of ROW_TABLE_TERMS
    keys, so that a recurring key gives one Monomial.
    """

    __slots__ = ("ring", "top", "packing", "bump", "rules", "rows", "unpack")

    def __init__(self, ell: int):
        self.ring = zring(ell)
        self.top = ell * (ell - 1) // 2
        self.packing = packing = Packing(ell, self.top)
        self.bump = packing.guard - packing.pack(range(1, ell + 1))
        self.rules = _Rules(packing)
        self.rows: dict[int, dict[int, int]] = {}
        self.unpack = lru_cache(maxsize=ROW_TABLE_TERMS)(packing.unpack)


_quotient = lru_cache(maxsize=None)(_Quotient)


def in_IS(p: Poly) -> bool:
    return normal_form_IS(p).is_zero()


def nu(p: Poly, ell: int | None = None) -> int | None:
    """Minimal total degree in the normal form; None for the zero class."""
    nf = normal_form_IS(p, ell)
    return nf.min_degree()


# -- lambda-symmetry ----------------------------------------------------------


def _check_arity(p: Poly, lam: Composition):
    nvars = _in_ring(p, None, "polynomial").ring.nvars
    if nvars != _instance(lam, Composition, "composition").ell:
        raise RingMismatchError(
            "polynomial has %d variables but the composition needs %d" % (nvars, lam.ell)
        )


def is_lambda_symmetric(p: Poly, lam: Composition) -> bool:
    """True iff p is invariant within every block of the composition."""
    _check_arity(p, lam)
    return all(_symmetric_in(p, block) for block in lam.blocks())


def _symmetric_in(p: Poly, block: range) -> bool:
    """True iff p is invariant under every permutation of the variables in
    `block`, 0-based indices of p's ring: under each adjacent swap."""
    return all(p.swap_vars(j, j + 1) == p for j in range(block.start, block.stop - 1))


def sym_lambda_average(p: Poly, lam: Composition) -> Poly:
    """Average of p over the product of per-block symmetric groups.

    An idempotent linear projector onto the lambda-symmetric subspace.  The
    block averages commute, so it averages one block at a time through
    monomial orbit sums, on p's integer numerators over p.denom.  Averaging
    over a block of size b multiplies the denominator by b!, and each of a
    monomial's orbit arrangements gets its numerator times b! / (orbit
    size); the orbit size divides b!, so every numerator stays integral.
    Zeros are dropped after each block, so that a cancelled monomial keeps
    no place in the term order.  The output is `Poly._from_ints` of the
    numerators over p.denom times the product of the b!, no Fraction made,
    which `normal_form_IS` reduces as they are.
    """
    _check_arity(p, lam)
    blocks = [block for block in lam.blocks() if len(block) > 1]
    if not blocks:
        return p
    terms, scale = p.nums, p.denom
    for block in blocks:
        start, stop = block.start, block.stop
        size = factorial(stop - start)
        scale *= size
        out: dict[Monomial, int] = {}
        for mono, c in terms.items():
            head, tail = mono[:start], mono[stop:]
            arrangements = _distinct_arrangements(mono[start:stop])
            share = c * (size // len(arrangements))
            for arr in arrangements:
                key = Monomial(head + arr + tail)
                out[key] = out.get(key, 0) + share
        terms = {m: c for m, c in out.items() if c}
    return Poly._from_ints(p.ring, terms, scale)


@lru_cache(maxsize=4096)
def _distinct_arrangements(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct orderings of the multiset `values`, without factorial
    blowup, in descending lex order whatever the order of `values`, so a
    block's exponents are looked up as they stand.  Every ordering of one
    multiset shares the tuple cached for its descending one."""
    ordered = tuple(sorted(values, reverse=True))
    if values != ordered:
        return _distinct_arrangements(ordered)
    if len(values) <= 1:
        return (values,)
    out = []
    seen = set()
    for i, v in enumerate(values):
        if v in seen:
            continue
        seen.add(v)
        rest = values[:i] + values[i + 1 :]
        for tail in _distinct_arrangements(rest):
            out.append((v,) + tail)
    return tuple(out)


def block_sigma(lam: Composition, i: int, j: int, ring: Ring | None = None) -> Poly:
    """Elementary symmetric polynomial of degree j in the variables of block i."""
    lam = _instance(lam, Composition, "composition")
    ring = ring if ring is not None else zring(lam.ell)
    return elementary_symmetric(ring, j, lam.block(i))


def _block_sigmas(lam: Composition, ring: Ring) -> list[list[Poly]]:
    """For each block i, [sigma_1, ..., sigma_{lambda_i}] of its variables in
    `ring`: the one image table of the block specialisations.  The block
    elementary presentation takes the lists as they are; alpha and psi take
    each list reversed, as their y{i}_0 and x_i^(0) go to the top sigma."""
    return [[elementary_symmetric(ring, j, b) for j in range(1, len(b) + 1)] for b in lam.blocks()]


def _y_ring(lam: Composition, first: int) -> Ring:
    """Ring of y{i}_{j} for first <= j < lambda_i + first, block by block."""
    parts = _instance(lam, Composition, "composition").parts
    return Ring(
        "y%d_%d" % (i, j) for i, part in enumerate(parts, 1) for j in range(first, part + first)
    )


def block_elementary_ring(lam: Composition) -> Ring:
    """Ring of formal block elementary symmetrics y{i}_{j}, 1 <= j <= lambda_i."""
    return _y_ring(lam, 1)


def decompose_block_elementary(p: Poly, lam: Composition) -> Poly:
    """Rewrite a lambda-symmetric p as a polynomial in block elementary
    symmetrics.

    Classical elimination: the lex leading monomial of a block-symmetric
    polynomial is non-increasing inside every block, so it is matched by a
    unique product of block sigma powers, read from `_block_sigmas`;
    subtracting drives the leading monomial strictly down.  Substituting
    y{i}_{j} -> sigma_j(block i) into the result recovers p exactly when p
    is in the z ring: `expand_block_elementary` returns z-ring polynomials.
    """
    _check_arity(p, lam)
    if not is_lambda_symmetric(p, lam):
        raise DomainError("input is not symmetric within the blocks of %r" % (lam,))
    yring = block_elementary_ring(lam)
    table = list(zip(lam.blocks(), _block_sigmas(lam, p.ring)))
    result_terms: dict[Monomial, Fraction] = {}
    work = p
    while not work.is_zero():
        lm, lc = work.leading()
        y_exps = []
        product = p.ring.one()
        for i, (block, sigmas) in enumerate(table, 1):
            exps = [lm[v] for v in block] + [0]
            for j, sigma in enumerate(sigmas):
                e = exps[j] - exps[j + 1]
                if e < 0:  # p passed is_lambda_symmetric, so only a fault gets here
                    raise InvariantViolationError(
                        "leading monomial not sorted within block %d of a block-symmetric input" % i
                    )
                y_exps.append(e)
                if e:
                    product = product * sigma**e
        result_terms[Monomial(tuple(y_exps))] = lc
        work = work - product.scale(lc)
    return Poly(yring, result_terms)


def expand_block_elementary(q: Poly, lam: Composition) -> Poly:
    """Substitute y{i}_{j} -> sigma_j(block i), each block's `_block_sigmas`
    list as it is; inverse of the decomposition."""
    _in_ring(q, block_elementary_ring(lam), "polynomial")
    target = zring(lam.ell)
    return q.substitute(target, [s for sigmas in _block_sigmas(lam, target) for s in sigmas])

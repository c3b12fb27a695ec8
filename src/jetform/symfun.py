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
multiplies or reduces packed z-ring polynomials.  `_normal_form` packs
exponent vectors by the one `polyring.Packing` of each z ring and reduces
them with `_reduce_packed`, for `normal_form_IS` and the Schubert
expansion's queries.  k[z]/I_S has the finite basis of reduced monomials,
so `_reduce_packed` sums cached rows NF(z^a) of the monomials that recur,
each made once by `_heap_reduce`, the one reduction kernel, which reduces
the other terms together; the table is bounded by `ROW_TABLE_TERMS`.
`_nf_powers`, the one power loop, gives `alambda.nilpotency_order` and the
psi refusals of `jets.min_degree_search` their powers; `_image_in_IS`
checks psi's kernel.  The averaging projector keeps integer numerators
over one common denominator, and its output Poly keeps them: `_normal_form`
reads every input through `polyring._integer_form`, so the average of
the quotient's `normal_form_IS(sym_lambda_average(p, lam))` goes in as
the integers it was made of, never cleared again.  Fractions are made
only for the Polys returned, one per distinct coefficient, by
`Poly._from_ints`; a normal form keeps no integer form.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import factorial

from .errors import DomainError, InvariantViolationError, RingMismatchError, _in_ring, _size
from .polyring import Monomial, Packing, Poly, Ring, _integer_form

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
        try:
            parts = tuple(_size(p, "composition part") for p in parts)
        except TypeError:
            raise DomainError("composition parts must be a sequence: %r" % (parts,)) from None
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


@lru_cache(maxsize=None)
def zring(ell: int) -> Ring:
    return Ring(tuple("z%d" % (i + 1) for i in range(_size(ell, "variable count", 1))))


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
        terms[Monomial(tuple(exps))] = Fraction(1)
    return Poly(ring, terms)


def elementary_symmetric(ring: Ring, d: int, indices) -> Poly:
    """Sum of all squarefree degree-d monomials in the given variables."""
    indices = [_size(i, "variable index", 0, ring.nvars - 1) for i in indices]
    if len(set(indices)) != len(indices):
        raise DomainError("repeated variable index in %r" % (indices,))
    d = _size(d, "elementary symmetric degree", 1, len(indices))
    terms = {}
    for combo in itertools.combinations(indices, d):
        exps = [0] * ring.nvars
        for i in combo:
            exps[i] = 1
        terms[Monomial(tuple(exps))] = Fraction(1)
    return Poly(ring, terms)


@lru_cache(maxsize=None)
def groebner_basis_IS(ell: int) -> tuple[Poly, ...]:
    """The basis (h_1(z_1..z_ell), h_2(z_2..z_ell), ..., h_ell(z_ell))."""
    ell = _size(ell, "variable count", 1)
    return tuple(complete_homogeneous(i, i, ell) for i in range(1, ell + 1))


def normal_form_IS(p: Poly, ell: int | None = None) -> Poly:
    """Fully reduced remainder of p modulo I_S under lex z_1 > ... > z_ell.

    Heap division on packed exponents (Monagan & Pearce, CASC 2007), with
    the rules z_i^i -> -(g_i - z_i^i) read off the Groebner basis: lex
    order is integer order and applying a rule is adding a fixed offset.
    The normal form of a monomial met again is read from a table of rows.
    See `_normal_form` for why one packing per z ring suffices and which
    integers it reduces, `_reduce_packed` for the rows and `_heap_reduce`
    for the loop and its one-step rule dispatch.  The result keeps no
    integer form (see `_nf_poly`).
    """
    ell = p.ring.nvars if ell is None else ell
    _in_ring(p, zring(ell), "polynomial")
    return _nf_poly(*_normal_form(p, ell), ell)


def _nf_poly(terms: dict[int, int], denom: int, ell: int) -> Poly:
    """The Poly of the packed normal form terms / denom in the z ring, its
    Monomials read from the table of `_reduce_packed` or stored there.

    `terms` has no zero, as `_reduce_packed` returns it, so the Poly is
    built by `Poly._from_ints` without keeping its integer form: callers
    keep normal forms, and a kept form on them read quotient `peak_rss_mb`
    33.1-33.2 MB against 31.5 MB without (+5.4%), and 3% slower."""
    global _row_terms
    monomials, unpack = _ROW_TABLE[ell][1], _packing(ell).unpack
    out = {}
    for key, c in terms.items():
        mono = monomials.get(key)
        if mono is None:
            mono = unpack(key)
            if _row_terms < ROW_TABLE_TERMS:
                monomials[key] = mono
                _row_terms += 1
        out[mono] = c
    return Poly._from_ints(zring(ell), out, denom)


def _normal_form(p: Poly, ell: int, reverse: bool = False) -> tuple[dict[int, int], int]:
    """NF of p in the ell-variable z ring, each exponent vector reversed
    first if `reverse` is set, as (the terms of d*NF, packed by
    `_packing(ell)`, d).  (nums, d) is `polyring._integer_form(p)`: the
    integers p was built from if it kept them, as `sym_lambda_average`'s
    output does, else p cleared over the lcm of its denominators.  So d is
    a common denominator of all of p's terms, not only the kept ones; the
    integers d*NF depend on it, the Fractions NF(p) do not.

    A reduced monomial has deg_{z_i} < i, so degree at most ell(ell-1)/2,
    where k[z]/I_S stops: a term above that lies in I_S and is dropped, and
    the g_i are homogeneous, so no exponent of the rest, rewritten or not,
    exceeds the one packing's degree.
    """
    nums, denom = _integer_form(p)
    top = ell * (ell - 1) // 2
    pack = _packing(ell).pack
    terms = nums.items()
    if reverse:
        terms = ((m[::-1], c) for m, c in terms)
    pending = {pack(m): c for m, c in terms if sum(m) <= top}
    return _reduce_packed(pending, ell), denom


def _nf_powers(p: Poly, ell: int):
    """Yield (d^e * NF(p^e), d^e) for e = 1, 2, ... while NF(p^e) != 0, the
    terms packed by `_packing(ell)` and d the denominator `_normal_form`
    reads off p's integer form: a common denominator of all of p's terms.

    Each power is the previous one times d*NF(p), in integers, reduced by
    `_reduce_packed`.  A product of two reduced monomials of degree above
    ell(ell-1)/2 lies in I_S and is dropped first; its degree is its key
    modulo the field mask, since 2^width = 1 modulo it, a field of the sum
    holds at most 2(ell-1) < 2^width and the degree at most
    ell(ell-1) < 2^width - 1.  So every kept key fits the one packing.
    """
    base, denom = _normal_form(p, ell)
    top = ell * (ell - 1) // 2
    mask = _packing(ell).mask
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


def _image_in_IS(images, terms, ell: int) -> bool:
    """True iff `_packed_image(images, terms)` lies in I_S, for images on
    `_packing(ell)` whose every product is squarefree: a key's degree is its
    bit count, and keys above ell(ell-1)/2 lie in I_S and are dropped."""
    top = ell * (ell - 1) // 2
    kept = {k: c for k, c in _packed_image(images, terms).items() if k.bit_count() <= top}
    return not _reduce_packed(kept, ell)


def _packing(ell: int) -> Packing:
    """The one packing of the ell-variable z ring, for degree ell(ell-1)/2."""
    return _packed_rules(ell)[0]


# The normal-form table, per ell: the packed NF(z^key) of monomials not
# reduced, as `_reduce_packed` makes them, and the Monomial of each key
# `_nf_poly` has returned.  A row counts its terms plus one for its key,
# so that rows of monomials in I_S count too, and a Monomial counts one;
# nothing more is stored once the count passes ROW_TABLE_TERMS over every
# ell.  An 18-second bench run, seed 1, counts 6,748 on the quotient
# workload (ell <= 6: 682 rows of 5,896 terms and 170 Monomials, 319 kB
# traced), 1,517 on expand (128 rows, 62 kB) and 144 on oracle (13 kB).
# One row at ell >= 8 can hold thousands of terms; the first row past the
# bound is used but not stored.
ROW_TABLE_TERMS = 16384
_ROW_TABLE: defaultdict[int, tuple[dict[int, dict[int, int]], dict[int, Monomial]]] = (
    defaultdict(lambda: ({}, {}))
)
_row_terms = 0


def _reduce_packed(pending: dict[int, int], ell: int) -> dict[int, int]:
    """Reduce the packed integer polynomial `pending` modulo I_S, into a new
    dict: the sum of c * NF(z^key) over its terms.

    Keys are packed by `_packing(ell)`.  k[z]/I_S has the finite basis of
    reduced monomials, so NF(z^key) is a fixed integer row, and the same
    monomials recur from call to call.  A reduced key, (key + bump) & guard
    = 0 as in `_heap_reduce`, is its own row; any other row is read from
    the table above, or made by `_heap_reduce` from {key: 1} and stored.

    A row made on its own shares no rewrite with the call's other misses,
    so a call makes at most as many rows as it found, or the row of its one
    miss, which costs the same heap either way; the rest of its misses are
    reduced together in one `_heap_reduce`.  Rows thus come at the pace
    their monomials recur.  Cold, NF((z1 + 2z2 + ... + 6z6)^10), 3,003
    terms, takes 6 ms so and 354 ms with a row made for every miss.
    """
    global _row_terms
    packing, bump, _ = _packed_rules(ell)
    guard = packing.guard
    rows = _ROW_TABLE[ell][0]
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
    18-second bench run, seeds 1 and 2, the lowest i pops 2% fewer
    monomials than the highest on quotient (24,221 against 24,705 at seed
    1), 6-7% fewer on expand (5,361 against 5,701) and as many on oracle
    (1,919).
    """
    packing, bump, rules = _packed_rules(ell)
    guard = packing.guard
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
        for offset, rc in rules[hit.bit_length()]:
            child = key + offset
            old = pending.get(child)
            if old is None:
                pending[child] = c * rc
                heappush(heap, -child)
            else:
                pending[child] = old + c * rc
    return reduced


@lru_cache(maxsize=None)
def _packed_rules(ell: int):
    """(packing, bump, rules) of `_heap_reduce`: the `Packing` of the
    ell-variable z ring for degree ell(ell-1)/2, made once per ell with its
    rules.

    `rules` maps the bit length of the guard bit of z_i's field to the
    rewrite z_i^i -> ... as ((packed offset, coefficient), ...).  `bump`
    adds (guard bit) - i to the field of z_i; the guard bit's value exceeds
    ell(ell-1)/2 >= ell - 1, so the bump is >= 0 and never carries an
    exponent out of its field.
    """
    packing = Packing(ell, ell * (ell - 1) // 2)
    pack = packing.pack
    rules = {}
    for g, s in zip(groebner_basis_IS(ell), packing.shifts):
        lead, _ = g.leading()
        # g_i is monic with every coefficient 1, so the rule stays integral;
        # it is keyed by the bit length of z_i's field, its guard bit's
        rules[s + packing.width] = tuple(
            (pack(m) - pack(lead), -int(c)) for m, c in g.terms.items() if m != lead
        )
    return packing, packing.guard - pack(range(1, ell + 1)), rules


def in_IS(p: Poly) -> bool:
    return normal_form_IS(p).is_zero()


def nu(p: Poly, ell: int | None = None) -> int | None:
    """Minimal total degree in the normal form; None for the zero class."""
    nf = normal_form_IS(p, ell)
    return nf.min_degree()


# -- lambda-symmetry ----------------------------------------------------------


def _check_arity(p: Poly, lam: Composition):
    if p.ring.nvars != lam.ell:
        raise RingMismatchError(
            "polynomial has %d variables but the composition needs %d"
            % (p.ring.nvars, lam.ell)
        )


def is_lambda_symmetric(p: Poly, lam: Composition) -> bool:
    """True iff p is invariant within every block of the composition."""
    _check_arity(p, lam)
    for block in lam.blocks():
        for j in range(block.start, block.stop - 1):
            if p.swap_vars(j, j + 1) != p:
                return False
    return True


def sym_lambda_average(p: Poly, lam: Composition) -> Poly:
    """Average of p over the product of per-block symmetric groups.

    An idempotent linear projector onto the lambda-symmetric subspace.  The
    block averages commute, so it averages one block at a time through
    monomial orbit sums, on integer numerators over one common denominator.
    That starts as p's integer form (`polyring._integer_form`): the lcm of
    p's denominators, or the denominator of the integers an average kept.
    Averaging over a block of size b multiplies it by b!, and each of a
    monomial's orbit arrangements gets its numerator times b! / (orbit
    size); the orbit size divides b!, so every numerator stays integral.
    Zeros are dropped after each block, so that a cancelled monomial keeps
    no place in the term order.  The output is built by `Poly._from_ints`
    and keeps the numerators and their denominator d, the input's times
    the product of the b!, as its integer form, which `normal_form_IS`
    reduces as they are.
    """
    _check_arity(p, lam)
    blocks = [block for block in lam.blocks() if len(block) > 1]
    if not blocks:
        return p
    terms, scale = _integer_form(p)
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
    return Poly._from_ints(p.ring, terms, scale, keep=True)


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
    return Ring(
        "y%d_%d" % (i, j) for i, part in enumerate(lam.parts, 1) for j in range(first, part + first)
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

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
them with `_reduce_packed`, the one reduction kernel, for `normal_form_IS`
and the Schubert expansion's queries.  `_nf_powers`, the one power loop,
gives `alambda.nilpotency_order` and the psi refusals of
`jets.min_degree_search` their powers.  The averaging projector keeps
integer numerators over one common denominator.  Fractions are made only
for the Polys returned.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import factorial

from .errors import DomainError, RingMismatchError, _size
from .polyring import Monomial, Packing, Poly, Ring, _clear_denominators

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
    empty blocks.
    """

    __slots__ = ("parts", "_prefix")

    def __init__(self, parts):
        parts = tuple(_size(p, "composition part") for p in parts)
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
    See `_normal_form` for why one packing per z ring suffices and
    `_reduce_packed` for the loop and its one-step rule dispatch.
    """
    ell = p.ring.nvars if ell is None else ell
    if p.ring != zring(ell):
        raise RingMismatchError("polynomial not in the %d-variable z ring" % ell)
    return _nf_poly(*_normal_form(p.terms.items(), ell), ell)


def _nf_poly(terms: dict[int, int], denom: int, ell: int) -> Poly:
    """The Poly of the packed normal form terms / denom in the z ring."""
    unpack = _packing(ell).unpack
    return Poly(zring(ell), {unpack(key): Fraction(c, denom) for key, c in terms.items()})


def _normal_form(terms, ell: int) -> tuple[dict[int, int], int]:
    """NF of the (exponents, coefficient) pairs `terms` in the ell-variable
    z ring, as (the terms of d*NF, packed by `_packing(ell)`, d), d the lcm
    of the kept denominators.  A reduced monomial has deg_{z_i} < i, so
    degree at most ell(ell-1)/2, where k[z]/I_S stops: a term above that
    lies in I_S and is dropped, and the g_i are homogeneous, so no exponent
    of the rest, rewritten or not, exceeds the one packing's degree.
    """
    top = ell * (ell - 1) // 2
    pack = _packing(ell).pack
    kept = {pack(m): c for m, c in terms if sum(m) <= top}
    pending, denom = _clear_denominators(kept)
    return _reduce_packed(pending, ell), denom


def _nf_powers(p: Poly, ell: int):
    """Yield (d^e * NF(p^e), d^e) for e = 1, 2, ... while NF(p^e) != 0, the
    terms packed by `_packing(ell)` and d the denominator of d*NF(p), the
    integer polynomial `_normal_form` makes of p.

    Each power is the previous one times d*NF(p), in integers, reduced by
    `_reduce_packed`.  A product of two reduced monomials of degree above
    ell(ell-1)/2 lies in I_S and is dropped first; its degree is its key
    modulo the field mask, since 2^width = 1 modulo it, a field of the sum
    holds at most 2(ell-1) < 2^width and the degree at most
    ell(ell-1) < 2^width - 1.  So every kept key fits the one packing.
    """
    base, denom = _normal_form(p.terms.items(), ell)
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


def _packing(ell: int) -> Packing:
    """The one packing of the ell-variable z ring, for degree ell(ell-1)/2."""
    return _packed_rules(ell)[0]


def _reduce_packed(pending: dict[int, int], ell: int) -> dict[int, int]:
    """Reduce the packed integer polynomial `pending` modulo I_S; consumes it.

    Keys are packed by `_packing(ell)`.  Pending monomials sit in a
    max-heap; every monomial a rule produces is lex-smaller than the one it
    replaces, so a popped monomial never comes back and the reduced ones
    leave the heap as finished remainder terms, in descending key order.

    The normal form is unique, so a monomial divisible by several z_i^i may
    be rewritten by any of their rules; the highest i is taken, because one
    addition and one `hit & -hit` find it: `bump` adds (guard bit) - i to
    the field of z_i, which sets that field's guard bit exactly when
    z_i >= i, so hit = (key + bump) & guard is 0 on reduced monomials and
    otherwise has as its lowest set bit the guard bit of the largest such i.
    The choice costs little.  Measured against the lowest i on the
    benchmark's traffic (2,520 quotient averages and 200 expand queries at
    ell=6, two seeds), the highest i pops 2% more monomials on the averages
    and 9-12% more on the expand queries, with no time difference beyond
    run-to-run noise; both pop 48,084 on a quotient run's 172 nilpotencies.
    """
    _, bump, guard, rules = _packed_rules(ell)
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
        for offset, rc in rules[hit & -hit]:
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
    """(packing, bump, guard, rules) of `_reduce_packed`: the `Packing` of
    the ell-variable z ring for degree ell(ell-1)/2, made once per ell with
    its rules.

    `rules` maps the guard bit of z_i's field to the rewrite z_i^i -> ...
    as ((packed offset, coefficient), ...).  The guard bit's value exceeds
    ell(ell-1)/2 >= ell - 1, so it is at least ell: a bump of
    (guard bit) - i >= 0 added to an exponent below the guard bit never
    carries out of its field.
    """
    packing = Packing(ell, ell * (ell - 1) // 2)
    pack = packing.pack
    bump = guard = 0
    rules = {}
    for i, (g, s) in enumerate(zip(groebner_basis_IS(ell), packing.shifts), 1):
        bit = packing.guard & (packing.mask << s)  # the guard bit of z_i's field
        bump += bit - (i << s)
        guard |= bit
        lead, _ = g.leading()
        # g_i is monic with every coefficient 1, so the rule stays integral
        rules[bit] = tuple(
            (pack(m) - pack(lead), -int(c)) for m, c in g.terms.items() if m != lead
        )
    return packing, bump, guard, rules


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
    The denominator starts as the lcm of p's denominators.  Averaging over a
    block of size b multiplies it by b!, and each of a monomial's orbit
    arrangements gets its numerator times b! / (orbit size); the orbit size
    divides b!, so every numerator stays integral.  Zeros are dropped after
    each block, so that a cancelled monomial keeps no place in the term
    order, and Fractions are made once, for the output terms.
    """
    _check_arity(p, lam)
    blocks = [block for block in lam.blocks() if len(block) > 1]
    if not blocks:
        return p
    terms, scale = _clear_denominators(p.terms)
    for block in blocks:
        start, stop = block.start, block.stop
        size = factorial(stop - start)
        scale *= size
        out: dict[Monomial, int] = {}
        for mono, c in terms.items():
            head, tail = mono[:start], mono[stop:]
            arrangements = _distinct_arrangements(tuple(sorted(mono[start:stop], reverse=True)))
            share = c * (size // len(arrangements))
            for arr in arrangements:
                key = Monomial(head + arr + tail)
                out[key] = out.get(key, 0) + share
        terms = {m: c for m, c in out.items() if c}
    return Poly(p.ring, {m: Fraction(c, scale) for m, c in terms.items()})


@lru_cache(maxsize=4096)
def _distinct_arrangements(values: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All distinct orderings of a multiset, without factorial blowup."""
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
    y{i}_{j} -> sigma_j(block i) into the result recovers p exactly.
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
                if e < 0:
                    raise DomainError(
                        "leading monomial not sorted within block %d; "
                        "input is not block-symmetric" % i
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
    if q.ring != block_elementary_ring(lam):
        raise RingMismatchError("polynomial not in the block elementary ring of %r" % (lam,))
    target = zring(lam.ell)
    return q.substitute(target, [s for sigmas in _block_sigmas(lam, target) for s in sigmas])

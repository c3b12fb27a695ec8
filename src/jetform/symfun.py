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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm

from .errors import DomainError, RingMismatchError
from .polyring import Monomial, Poly, Ring

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
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise DomainError("composition parts must be non-negative: %r" % (parts,))
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
        """Partial sum before block i (1-based)."""
        return self._prefix[i - 1]

    def block(self, i: int) -> range:
        """0-based variable indices of block i (1-based)."""
        return range(self._prefix[i - 1], self._prefix[i])

    def blocks(self):
        return [self.block(i) for i in range(1, self.n + 1)]

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
    if ell < 0:
        raise DomainError("variable count must be non-negative")
    return Ring(tuple("z%d" % (i + 1) for i in range(ell)))


def complete_homogeneous(d: int, k: int, ell: int) -> Poly:
    """Sum of all degree-d monomials in z_k, ..., z_ell (1-based k)."""
    if not 1 <= k <= ell:
        raise DomainError("start index %d out of range 1..%d" % (k, ell))
    if d < 0:
        raise DomainError("degree must be non-negative")
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
    indices = list(indices)
    if not 1 <= d <= len(indices):
        raise DomainError(
            "elementary symmetric degree %d out of range 1..%d" % (d, len(indices))
        )
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
    if ell < 1:
        raise DomainError("need at least one variable")
    return tuple(complete_homogeneous(i, i, ell) for i in range(1, ell + 1))


def normal_form_IS(p: Poly, ell: int | None = None) -> Poly:
    """Fully reduced remainder of p modulo I_S under lex z_1 > ... > z_ell.

    Heap division on packed exponents (Monagan & Pearce, CASC 2007), with
    the rules z_i^i -> -(g_i - z_i^i) read off the Groebner basis.  Each
    monomial is packed into one int, z_1 in the most significant field, so
    lex order is integer order and applying a rule is adding a fixed offset.
    Pending monomials sit in a max-heap; every monomial a rule produces is
    lex-smaller than the one it replaces, so a popped monomial never comes
    back and the reduced ones leave the heap as finished remainder terms.
    The normal form is unique, so a monomial divisible by several z_i^i may
    be rewritten by any of their rules; the highest i is taken, which on
    the ell=6 Schubert polynomials pops fewer monomials than the lowest.

    The field width is the bit length of p's top degree.  Every g_i is
    homogeneous, so a rewrite keeps total degree and no exponent can exceed
    that degree; no field overflows into its neighbour.  Coefficients are
    scaled to integers by the lcm of p's denominators and divided back at
    the end, which is exact because NF(c*p) = c*NF(p).
    """
    if ell is None:
        ell = p.ring.nvars
    if p.ring != zring(ell):
        raise RingMismatchError("polynomial not in the %d-variable z ring" % ell)
    width = max((p.total_degree() or 0).bit_length(), 1)
    shifts, rules = _packed_rules(ell, width)
    mask = (1 << width) - 1
    scale = lcm(*(c.denominator for c in p.terms.values()))
    pending: dict[int, int] = {}
    for mono, c in p.terms.items():
        key = 0
        for e in mono:
            key = (key << width) | e
        pending[key] = c.numerator * (scale // c.denominator)
    heap = [-key for key in pending]
    heapify(heap)
    reduced: dict[int, int] = {}
    while heap:
        key = -heappop(heap)
        c = pending.pop(key)
        if not c:
            continue
        for shift, i, rule in rules:
            if (key >> shift) & mask >= i:
                for offset, rc in rule:
                    child = key + offset
                    old = pending.get(child)
                    if old is None:
                        pending[child] = c * rc
                        heappush(heap, -child)
                    else:
                        pending[child] = old + c * rc
                break
        else:
            reduced[key] = c
    return Poly(
        p.ring,
        {
            Monomial(tuple((key >> s) & mask for s in shifts)): Fraction(c, scale)
            for key, c in reduced.items()
        },
    )


@lru_cache(maxsize=128)
def _packed_rules(ell: int, width: int):
    """Field shifts of z_1..z_ell for `width`-bit fields, and the rewrite
    rules as (shift of z_i, i, ((packed offset, coefficient), ...)) for
    i = ell down to 1."""
    shifts = tuple(width * (ell - 1 - v) for v in range(ell))

    def pack(mono):
        return sum(e << s for e, s in zip(mono, shifts))

    rules = []
    for i, g in enumerate(groebner_basis_IS(ell), start=1):
        lead, _ = g.leading()
        # g_i is monic with every coefficient 1, so the rule stays integral
        tail = tuple(
            (pack(m) - pack(lead), -int(c)) for m, c in g.terms.items() if m != lead
        )
        rules.append((shifts[i - 1], i, tail))
    return shifts, tuple(reversed(rules))


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
    monomial orbit sums.
    """
    _check_arity(p, lam)
    for i in range(1, lam.n + 1):
        p = _average_block(p, list(lam.block(i)))
    return p


def _average_block(p: Poly, block: list[int]) -> Poly:
    if len(block) <= 1:
        return p
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        pattern = [mono[i] for i in block]
        arrangements = _distinct_arrangements(tuple(sorted(pattern, reverse=True)))
        share = coeff / len(arrangements)
        for arr in arrangements:
            exps = list(mono)
            for pos, e in zip(block, arr):
                exps[pos] = e
            key = Monomial(exps)
            out[key] = out.get(key, 0) + share
    return Poly(p.ring, out)


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


def block_elementary_ring(lam: Composition) -> Ring:
    """Ring of formal block elementary symmetrics y{i}_{j}, 1 <= j <= lambda_i."""
    names = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(1, part + 1):
            names.append("y%d_%d" % (i, j))
    return Ring(tuple(names))


def decompose_block_elementary(p: Poly, lam: Composition) -> Poly:
    """Rewrite a lambda-symmetric p as a polynomial in block elementary
    symmetrics.

    Classical elimination: the lex leading monomial of a block-symmetric
    polynomial is non-increasing inside every block, so it is matched by a
    unique product of block sigma powers; subtracting drives the leading
    monomial strictly down.  Substituting y{i}_{j} -> sigma_j(block i) into
    the result recovers p exactly.
    """
    _check_arity(p, lam)
    if not is_lambda_symmetric(p, lam):
        raise DomainError("input is not symmetric within the blocks of %r" % (lam,))
    yring = block_elementary_ring(lam)
    sigma_cache: dict[tuple[int, int], Poly] = {}

    def sigma(i, j):
        if (i, j) not in sigma_cache:
            sigma_cache[(i, j)] = block_sigma(lam, i, j, p.ring)
        return sigma_cache[(i, j)]

    result_terms: dict[Monomial, Fraction] = {}
    work = p
    while not work.is_zero():
        lm, lc = work.leading()
        y_exps = [0] * yring.nvars
        product = p.ring.one()
        y_slot = 0
        for i in range(1, lam.n + 1):
            block = list(lam.block(i))
            exps = [lm[v] for v in block] + [0]
            for j in range(1, len(block) + 1):
                e = exps[j - 1] - exps[j]
                if e < 0:
                    raise DomainError(
                        "leading monomial not sorted within block %d; "
                        "input is not block-symmetric" % i
                    )
                y_exps[y_slot] = e
                y_slot += 1
                if e:
                    product = product * sigma(i, j) ** e
        result_terms[Monomial(tuple(y_exps))] = lc
        work = work - product.scale(lc)
    return Poly(yring, result_terms)


def expand_block_elementary(q: Poly, lam: Composition) -> Poly:
    """Substitute y{i}_{j} -> sigma_j(block i); inverse of the decomposition."""
    yring = block_elementary_ring(lam)
    if q.ring != yring:
        raise RingMismatchError("polynomial not in the block elementary ring of %r" % (lam,))
    target = zring(lam.ell)
    images = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(1, part + 1):
            images.append(block_sigma(lam, i, j, target))
    return q.substitute(target, images)

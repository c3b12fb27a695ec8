"""Finite-dimensional algebras of block-symmetric classes modulo I_S.

For a composition lambda of ell, the classes of lambda-symmetric polynomials
inside k[z_1..z_ell]/I_S form an algebra of dimension ell!/prod(lambda_i!).
Elements are represented by their fully reduced normal forms, so equality of
classes is literal polynomial equality.  The module enumerates the monomial
basis, builds the companion presentation by coefficients of monic block
polynomials, and computes nilpotency orders of block-supported classes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from .errors import DomainError, InvariantViolationError, RingMismatchError, _size
from .polyring import Monomial, Poly, Ring, _series_coefficients
from .symfun import (
    Composition,
    _normal_form,
    _packed_rules,
    _packing,
    _reduce_packed,
    block_sigma,
    is_lambda_symmetric,
    sym_lambda_average,
    zring,
)

__all__ = [
    "dim_A_lambda",
    "basis_exponents",
    "basis_polys",
    "nilpotency_order",
    "c_lambda_generators",
    "c_lambda_ring",
    "alpha_map",
]


def dim_A_lambda(lam: Composition) -> int:
    """ell! / prod(lambda_i!)."""
    _size(lam.ell, "composition total", 1)
    d = factorial(lam.ell)
    for part in lam.parts:
        d //= factorial(part)
    return d


@lru_cache(maxsize=None)
def _basis_exponents_cached(parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    lam = Composition(parts)
    per_block = []
    for i in range(1, lam.n + 1):
        cap = lam.prefix(i)
        size = lam.parts[i - 1]
        # non-increasing tuples of the block length with entries <= cap
        block_choices = [
            tuple(sorted(c, reverse=True))
            for c in itertools.combinations_with_replacement(range(cap + 1), size)
        ]
        per_block.append(sorted(set(block_choices)))
    vectors = [
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(*per_block)
    ]
    return tuple(sorted(vectors))


def basis_exponents(lam: Composition) -> list[tuple[int, ...]]:
    """All admissible exponent vectors, in lex order.

    Within block i the exponents are non-increasing and the first one is at
    most the number of variables in earlier blocks; the count always equals
    dim_A_lambda(lam).
    """
    return list(_basis_exponents_cached(lam.parts))


def basis_polys(lam: Composition) -> list[Poly]:
    """Orbit sums over the block permutation group, one per basis exponent.

    The sum runs over the whole group with repetition, so the leading
    coefficient equals the stabiliser size rather than 1; leading monomials
    are pairwise distinct.  This is the group average scaled by the group
    order prod(lambda_i!).
    """
    ring = zring(lam.ell)
    order = prod(factorial(part) for part in lam.parts)
    return [
        sym_lambda_average(Poly(ring, {Monomial(d): Fraction(1)}), lam).scale(order)
        for d in basis_exponents(lam)
    ]


def nilpotency_order(p: Poly, lam: Composition, block: int) -> int | None:
    """Minimal e >= 1 with p^e congruent to zero modulo I_S.

    `p` must be a symmetric polynomial in the variables of the given block
    (1-based) with zero constant term.  Powers are formed by multiplying the
    previous normal form by the normal form of p, keeping intermediates
    small.  Returns None only if no zero power shows up below the certified
    bound floor(lambda_i * (ell - lambda_i) / nu(p)) + 1, which signals an
    internal error rather than a legal answer.

    The power loop runs on packed integer polynomials: the keys of
    `symfun._normal_form`'s NF(p), of degree at most ell(ell-1)/2, are
    repacked once for degree ell(ell-1), so adding two never carries (see
    `polyring.Packing`); a product adds keys and `symfun._reduce_packed`
    reduces it.  Whether a power is zero does not depend on its scale, so
    NF(p)'s denominator is dropped and each power is divided by the gcd of
    its coefficients: no Fraction is made.
    """
    block = _size(block, "block index", 1, lam.n)
    ell = lam.ell
    if p.ring != zring(ell):
        raise RingMismatchError("polynomial must live in the %d-variable z ring" % ell)
    block_vars = set(lam.block(block))
    for mono in p.terms:
        support = {i for i, e in enumerate(mono) if e}
        if not support <= block_vars:
            raise DomainError("polynomial is not supported on block %d" % block)
    # supported on the block, p is trivially symmetric in every other block
    if not is_lambda_symmetric(p, lam):
        raise DomainError("polynomial is not symmetric within block %d" % block)
    if p.constant_term() != 0:
        raise DomainError("polynomial must have zero constant term")

    nf, _ = _normal_form(p, ell)
    if not nf:
        return 1
    monos = [_packing(ell).unpack(key) for key in nf]
    lam_i = lam.parts[block - 1]
    bound = (lam_i * (ell - lam_i)) // min(map(sum, monos)) + 1
    degree = ell * (ell - 1)
    pack = _packed_rules(ell, degree)[0].pack
    base = {pack(m): c for m, c in zip(monos, nf.values())}
    power = base
    for e in range(2, bound + 1):
        product: dict[int, int] = {}
        for k1, c1 in power.items():
            for k2, c2 in base.items():
                k = k1 + k2
                product[k] = product.get(k, 0) + c1 * c2
        power = _reduce_packed(product, ell, degree)
        if not power:
            return e
        content = gcd(*power.values())
        if content != 1:
            power = {k: c // content for k, c in power.items()}
    return None


def c_lambda_ring(lam: Composition) -> Ring:
    """Ring of coefficient variables y{i}_{j} with 0 <= j < lambda_i."""
    names = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(part):
            names.append("y%d_%d" % (i, j))
    return Ring(tuple(names))


def c_lambda_generators(lam: Composition) -> tuple[Poly, ...]:
    """Relations of the coefficient presentation of the block algebra, in
    the ring `c_lambda_ring(lam)`.

    Entry k is the t^k coefficient of the product of the monic block
    polynomials y{i}_0 + y{i}_1 t + ... + t^(lambda_i): the sum of
    c_1*...*c_n over j_1 + ... + j_n = k, c_i being y{i}_{j_i} for
    j_i < lambda_i and 1 for j_i = lambda_i.  There are exactly ell of them
    (k = 0..ell-1), the non-leading coefficients.
    """
    _size(lam.ell, "composition total", 1)
    ring = c_lambda_ring(lam)
    ell = lam.ell
    blocks = [[*lam.block(i), None] for i in range(1, lam.n + 1)]
    coeffs = _series_coefficients(ring.nvars, blocks, ell)
    if coeffs[ell] != {(0,) * ring.nvars: 1}:
        raise InvariantViolationError("monic block product has wrong shape")
    return tuple(ring.from_terms(terms) for terms in coeffs[:ell])


def alpha_map(q: Poly, lam: Composition) -> Poly:
    """Substitute y{i}_{j} -> sigma_{lambda_i - j}(block i) into q.

    Injective on polynomials because block elementary symmetrics are
    algebraically independent.
    """
    ring = c_lambda_ring(lam)
    if q.ring != ring:
        raise DomainError("polynomial not in the coefficient ring of %r" % (lam,))
    target = zring(lam.ell)
    images = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(part):
            images.append(block_sigma(lam, i, part - j, target))
    return q.substitute(target, images)

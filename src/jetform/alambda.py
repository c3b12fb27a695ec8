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
from math import factorial, prod

from .errors import DomainError, InvariantViolationError
from .polyring import Monomial, Poly, Ring, TruncatedSeries
from .symfun import (
    Composition, block_sigma, is_lambda_symmetric, normal_form_IS, sym_lambda_average, zring
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
    if lam.ell < 1:
        raise DomainError("composition must have positive total")
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
    """
    if not 1 <= block <= lam.n:
        raise DomainError("block index %d out of range 1..%d" % (block, lam.n))
    ell = lam.ell
    if p.ring != zring(ell):
        raise DomainError("polynomial must live in the %d-variable z ring" % ell)
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

    nf = normal_form_IS(p, ell)
    if nf.is_zero():
        return 1
    r = nf.min_degree()
    lam_i = lam.parts[block - 1]
    bound = (lam_i * (ell - lam_i)) // r + 1
    power = nf
    for e in range(2, bound + 1):
        power = normal_form_IS(power * nf, ell)
        if power.is_zero():
            return e
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
    polynomials y{i}_0 + y{i}_1 t + ... + t^(lambda_i); there are exactly
    ell of them (k = 0..ell-1), the non-leading coefficients.
    """
    if lam.ell < 1:
        raise DomainError("composition must have positive total")
    ring = c_lambda_ring(lam)
    ell = lam.ell
    # the product has degree ell, so series to order ell lose nothing
    product = TruncatedSeries.constant(ring, ring.one(), ell)
    slot = 0
    for part in lam.parts:
        block = [ring.var(slot + j) for j in range(part)] + [ring.one()]
        block += [ring.zero()] * (ell - part)
        product = product * TruncatedSeries(ring, block, ell)
        slot += part
    if product.coeffs[ell] != ring.one():
        raise InvariantViolationError("monic block product has wrong shape")
    return product.coeffs[:ell]


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

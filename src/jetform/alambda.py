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
from functools import lru_cache
from math import factorial, prod

from .errors import DomainError, InvariantViolationError, _in_ring, _instance, _size
from .polyring import Monomial, Poly, Ring, _series_coefficients
from .symfun import (
    Composition,
    _block_sigmas,
    _nf_powers,
    _symmetric_in,
    _y_ring,
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
    _size(_instance(lam, Composition, "composition").ell, "composition total", 1)
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
    dim_A_lambda(lam), and like it a composition of total 0 is refused.
    """
    _size(_instance(lam, Composition, "composition").ell, "composition total", 1)
    return list(_basis_exponents_cached(lam.parts))


def basis_polys(lam: Composition) -> list[Poly]:
    """Orbit sums over the block permutation group, one per basis exponent.

    The sum runs over the whole group with repetition, so the leading
    coefficient equals the stabiliser size rather than 1; leading monomials
    are pairwise distinct.  This is the group average scaled by the group
    order prod(lambda_i!).
    """
    exps = basis_exponents(lam)
    ring = zring(lam.ell)
    order = prod(factorial(part) for part in lam.parts)
    return [
        sym_lambda_average(Poly(ring, {Monomial(d): 1}), lam).scale(order)
        for d in exps
    ]


def nilpotency_order(p: Poly, lam: Composition, block: int) -> int:
    """Minimal e >= 1 with p^e congruent to zero modulo I_S.

    `p` must be a symmetric polynomial in the variables of the given block
    (1-based) with zero constant term.  Its variables are first relabelled
    by the permutation sigma that moves the block to the last lambda_i
    slots, keeping the order of the others; for the last block sigma is
    the identity.  I_S is generated by symmetric polynomials, so sigma maps
    it onto itself: p^e is in I_S exactly when sigma(p)^e is, and the order
    is the same.  The rule of z_j, h_j(z_j..z_ell), involves z_j..z_ell
    only, so the normal form of a polynomial in the last lambda_i variables
    never leaves them and has at most ell!/(ell - lambda_i)! reduced
    monomials, where a block further up spreads into every variable after
    it.

    The powers of sigma(p) are counted as `symfun._nf_powers` makes them,
    packed in integers, each the previous one times NF(sigma(p)).  One is
    zero by the certified bound floor(lambda_i * (ell - lambda_i) / m) + 1,
    m the least degree of p's terms, which nu(p) is at least; if none is,
    that is an internal error, raised as InvariantViolationError.
    """
    block = _size(block, "block index", 1, _instance(lam, Composition, "composition").n)
    ell = lam.ell
    _in_ring(p, zring(ell), "polynomial")
    block_vars = lam.block(block)
    start, stop = block_vars.start, block_vars.stop
    if any(any(mono[:start]) or any(mono[stop:]) for mono in p.nums):
        raise DomainError("polynomial is not supported on block %d" % block)
    # supported on the block, p is trivially symmetric in every other block
    if not _symmetric_in(p, block_vars):
        raise DomainError("polynomial is not symmetric within block %d" % block)
    if p.ring.one_monomial() in p.nums:
        raise DomainError("polynomial must have zero constant term")

    lam_i = stop - start
    bound = (lam_i * (ell - lam_i)) // min(map(sum, p.nums), default=1) + 1
    p = p.permute_vars([*range(start), *range(ell - lam_i, ell), *range(start, ell - lam_i)])
    nonzero = sum(1 for _ in itertools.islice(_nf_powers(p, ell), bound))
    if nonzero == bound:
        raise InvariantViolationError("no zero power by the certified bound %d" % bound)
    return nonzero + 1


def c_lambda_ring(lam: Composition) -> Ring:
    """Ring of coefficient variables y{i}_{j} with 0 <= j < lambda_i."""
    return _y_ring(lam, 0)


def c_lambda_generators(lam: Composition) -> tuple[Poly, ...]:
    """Relations of the coefficient presentation of the block algebra, in
    the ring `c_lambda_ring(lam)`.

    Entry k is the t^k coefficient of the product of the monic block
    polynomials y{i}_0 + y{i}_1 t + ... + t^(lambda_i): the sum of
    c_1*...*c_n over j_1 + ... + j_n = k, c_i being y{i}_{j_i} for
    j_i < lambda_i and 1 for j_i = lambda_i.  There are exactly ell of them
    (k = 0..ell-1), the non-leading coefficients.
    """
    ring = c_lambda_ring(lam)
    _size(lam.ell, "composition total", 1)
    ell = lam.ell
    blocks = [[*lam.block(i), None] for i in range(1, lam.n + 1)]
    coeffs = _series_coefficients(ring.nvars, blocks, ell)
    if coeffs[ell] != {(0,) * ring.nvars: 1}:
        raise InvariantViolationError("monic block product has wrong shape")
    return tuple(ring.from_terms(terms) for terms in coeffs[:ell])


def alpha_map(q: Poly, lam: Composition) -> Poly:
    """Substitute y{i}_{j} -> sigma_{lambda_i - j}(block i) into q: each
    block's `symfun._block_sigmas` list reversed, as y{i}_0 is the constant
    coefficient of the monic block polynomial.

    Injective on polynomials because block elementary symmetrics are
    algebraically independent.
    """
    _in_ring(q, c_lambda_ring(lam), "polynomial")
    target = zring(lam.ell)
    return q.substitute(target, [s for sigmas in _block_sigmas(lam, target) for s in sigmas[::-1]])

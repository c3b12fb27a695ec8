"""Jet rings and the jet ideal of x_1...x_n: generators, primes and psi.

The order-m jet ring replaces each base variable x_i by a truncated series
x_i^(0) + x_i^(1) t + ... + x_i^(m) t^m; the jet ideal of a polynomial ideal
is generated by the t-coefficients of its generators evaluated on those
series.  For the principal ideal of x_1...x_n this module provides the
minimal primes P_lambda, their multiplicities, and two witness
homomorphisms: a 0/1 evaluation, and psi_lambda, a specialisation into
block elementary symmetrics that sends every jet generator into I_S, so a
nonzero normal form of psi_lambda(p) modulo I_S proves p outside the jet
ideal.  After a refusal by elimination, `member` tries every plain
psi_lambda for a witness and checks the kernel of the one that refuses.
This module imports neither the oracle of `jets` nor `linalg`, so these
objects re-check without them; `alambda`, read by `multiplicity_table`
alone, loads on first use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from . import alambda
from .errors import DomainError, InvariantViolationError, _in_ring, _instance, _sequence, _size
from .polyring import Monomial, Packing, Poly, Ring, _series_coefficients, format_poly
from .symfun import Composition, _block_sigmas, _image_nf, _packed_image, _packed_powers, _packing
from .symfun import _z_poly, normal_form_IS, zring

__all__ = [
    "JetRingDesc",
    "MinimalPrime",
    "PsiSpecialization",
    "PsiWitness",
    "jet_generators",
    "minimal_primes",
    "compositions",
    "phi_binary_eval",
    "radical_witness",
    "derivative_monomial",
    "multiplicity_table",
]


@lru_cache(maxsize=None)
def _jet_ring(n: int, m: int) -> Ring:
    return Ring(tuple("x%d_%d" % (i, j) for i in range(1, n + 1) for j in range(m + 1)))


@lru_cache(maxsize=None)
def _base_ring(n: int) -> Ring:
    return Ring(tuple("x%d" % i for i in range(1, n + 1)))


class JetRingDesc:
    """Shape of a jet ring: n base variables, derivatives of order 0..m."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        self.n = _size(n, "base variable count", 1)
        self.m = _size(m, "jet order")

    @property
    def ring(self) -> Ring:
        return _jet_ring(self.n, self.m)

    @property
    def base_ring(self) -> Ring:
        return _base_ring(self.n)

    def slot(self, i: int, j: int) -> int:
        """Flat variable index of x_i^(j); i is 1-based, 0 <= j <= m."""
        i = _size(i, "base variable index", 1, self.n)
        j = _size(j, "derivative order", 0, self.m)
        return (i - 1) * (self.m + 1) + j

    def pair(self, slot: int) -> tuple[int, int]:
        slot = _size(slot, "flat index", 0, self.n * (self.m + 1) - 1)
        return slot // (self.m + 1) + 1, slot % (self.m + 1)

    def var(self, i: int, j: int) -> Poly:
        return self.ring.var(self.slot(i, j))

    def __eq__(self, other):
        return isinstance(other, JetRingDesc) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return "JetRingDesc(n=%d, m=%d)" % (self.n, self.m)


def _derivative_tuple(h, n: int | None = None) -> tuple[int, ...]:
    """h as a nonempty tuple of non-negative ints, of length n if given: a
    float is refused, not truncated, and every refusal is a DomainError
    that names the derivative tuple or order."""
    h = tuple(_size(hi, "derivative order") for hi in _sequence(h, "derivative tuple"))
    _size(len(h), "derivative tuple length", n or 1, n)
    return h


def derivative_monomial(h, desc: JetRingDesc) -> Poly:
    """The product of x_i^(h_i) over all base variables, as a jet polynomial."""
    h = _derivative_tuple(h, _instance(desc, JetRingDesc, "jet ring").n)
    exps = [0] * desc.ring.nvars
    for i, hi in enumerate(h, start=1):
        exps[desc.slot(i, hi)] += 1
    return Poly(desc.ring, {Monomial(exps): 1})


def jet_generators(gens, desc: JetRingDesc) -> list[Poly]:
    """t-coefficients of the given base polynomials evaluated on jet series.

    `gens` defaults to the single product x_1...x_n.  Each generator
    contributes m+1 output polynomials, the coefficients of t^0 .. t^m.  In
    that of t^k, a term c*x^a contributes c times the sum, over the ways to
    pick one x_i^(j) per factor x_i of x^a with the j summing to k, of their
    product; x_1...x_n gives g_k = sum of x_1^(j_1)...x_n^(j_n) over
    j_1 + ... + j_n = k.
    """
    base = _instance(desc, JetRingDesc, "jet ring").base_ring
    if gens is None:
        mono = Monomial((1,) * desc.n)
        gens = [Poly(base, {mono: 1})]
    ring = desc.ring
    m = desc.m
    series = [range(desc.slot(i, 0), desc.slot(i, m) + 1) for i in range(1, desc.n + 1)]
    out: list[Poly] = []
    for g in _sequence(gens, "generators"):
        _in_ring(g, base, "generator")
        coeffs: list[dict] = [{} for _ in range(m + 1)]
        for mono, c in g.nums.items():
            factors = [series[i] for i, e in enumerate(mono) for _ in range(e)]
            # distinct base terms have distinct block degrees, so their jet terms never meet
            for acc, terms in zip(coeffs, _series_coefficients(ring.nvars, factors, m)):
                acc.update((Monomial(exps), c * v) for exps, v in terms.items())
        out.extend(Poly._from_ints(ring, terms, g.denom) for terms in coeffs)
    return out


def compositions(total: int, parts: int) -> list[Composition]:
    """All compositions of `total` into `parts` non-negative parts,
    enumerated in descending lexicographic order."""
    parts, total = _size(parts, "part count", 1), _size(total, "total")
    out: list[Composition] = []

    def rec(prefix, remaining, left):
        if left == 1:
            out.append(Composition(prefix + (remaining,)))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, left - 1)

    rec((), total, parts)
    return out


def _jet_composition(lam, desc: JetRingDesc) -> Composition:
    """lam as a Composition of m+1 into n parts, or a DomainError."""
    lam = Composition(lam)
    if lam.ell != _instance(desc, JetRingDesc, "jet ring").m + 1 or lam.n != desc.n:
        raise DomainError("%r is not a composition of m+1 into n parts" % (lam.parts,))
    return lam


class MinimalPrime:
    """Coordinate-subspace prime of the jet ideal of x_1...x_n.

    For a composition lambda of m+1, generated by the variables x_i^(j)
    with j < lambda_i; there are always exactly m+1 generators.
    """

    __slots__ = ("lam", "desc")

    def __init__(self, lam: Composition, desc: JetRingDesc):
        self.lam = _jet_composition(lam, desc)
        self.desc = desc

    @property
    def variable_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(1, self.desc.n + 1)
            for j in range(self.lam.parts[i - 1])
        ]

    @property
    def generators(self) -> list[Poly]:
        return [self.desc.var(i, j) for i, j in self.variable_pairs]

    @property
    def variable_names(self) -> list[str]:
        ring = self.desc.ring
        return [ring.names[self.desc.slot(i, j)] for i, j in self.variable_pairs]

    def __repr__(self):
        return "MinimalPrime(lam=%r)" % (self.lam.parts,)


def minimal_primes(n: int, m: int) -> list[MinimalPrime]:
    desc = JetRingDesc(n, m)
    return [MinimalPrime(lam, desc) for lam in compositions(m + 1, n)]


def multiplicity_table(n: int, m: int) -> dict[Composition, int]:
    """Multiplicity of each minimal prime P_lambda: dim A_lambda, which is
    (m+1)!/prod(lambda_i!); the values always sum to n^(m+1).  Rejects
    n < 1 and m < 0, as minimal_primes does."""
    JetRingDesc(n, m)
    return {lam: alambda.dim_A_lambda(lam) for lam in compositions(m + 1, n)}


# -- witness homomorphisms ----------------------------------------------------


class PsiWitness:
    """Non-membership certificate from the psi specialisation.

    `normal_form` is NF_IS(psi(p)) for `PsiSpecialization(lam, desc)` and the
    refused polynomial p: mono^d for a refusal of the minimal-degree search,
    the query itself for a `member` refusal.  `lam` is in base-variable
    order: block i of z_1..z_{m+1} belongs to x_i.  psi sends the jet ideal
    into I_S, so a nonzero normal form proves that p is not in the ideal.
    """

    __slots__ = ("lam", "normal_form")

    def __init__(self, lam: Composition, normal_form: Poly):
        self.lam = lam
        self.normal_form = normal_form

    def to_json(self) -> dict:
        return {
            "kind": "psi",
            "lambda": list(self.lam.parts),
            "normal_form": format_poly(self.normal_form),
        }


def phi_binary_eval(p: Poly, h, desc: JetRingDesc) -> Fraction:
    """Evaluate p at x_i^(j) = 0 when j < h_i and 1 otherwise: one
    substitution into the ring of no variables, whose constant is the value."""
    h = _derivative_tuple(h, _instance(desc, JetRingDesc, "jet ring").n)
    _in_ring(p, desc.ring, "polynomial")
    point = Ring(())
    images = [point.const(int(j >= hi)) for hi in h for j in range(desc.m + 1)]
    return p.substitute(point, images).constant_term()


def radical_witness(h) -> bool:
    """Certify that the derivative monomial avoids the radical of the
    order-(H-1) jet ideal of x_1...x_n.

    The 0/1 evaluation kills every generator of that ideal while sending
    the monomial to 1; a ring homomorphism cannot do both for an element of
    the radical.
    """
    h = _derivative_tuple(h)
    # the order -1 jet ideal, of sum(h) = 0, is undefined
    total = _size(sum(h), "sum of the derivative orders", 1)
    desc = JetRingDesc(len(h), total)
    gens = jet_generators(None, desc)[:total]
    if any(phi_binary_eval(g, h, desc) != 0 for g in gens):
        return False
    return phi_binary_eval(derivative_monomial(h, desc), h, desc) == 1


class PsiSpecialization:
    """psi_lambda: substitution of jet variables by block elementary symmetrics.

    `lam` is a composition of m+1 into n parts, zero parts allowed, in
    base-variable order: x_i takes block i of z_1..z_{m+1}, its
    `symfun._block_sigmas` list reversed, then 1, then zeros, cut to m+1
    entries, so x_i^(j) goes to sigma_(lambda_i-j) for j < lambda_i, to 1 at
    j = lambda_i and to 0 above.  Every jet generator lands in I_S.

    The one image table keeps each image as its keys on `symfun._packing(m+1)`,
    all with coefficient 1.  A jet generator term, as the derivative monomial,
    takes one image per base variable and the blocks are disjoint, so its
    image is squarefree, reduced there by `symfun._image_nf` for the search.
    `apply`, off the search path, is the exact image of any p: it re-packs the
    table for the degree of p, which bounds every exponent of psi(p).
    """

    __slots__ = ("desc", "lam", "target", "_table")

    def __init__(self, lam, desc: JetRingDesc):
        self.lam = _jet_composition(lam, desc)
        self.desc = desc
        self.target = zring(desc.m + 1)
        pack, cut = _packing(desc.m + 1).pack, desc.m + 1
        self._table = [
            keys
            for sigmas in _block_sigmas(self.lam, self.target)
            for keys in ([list(map(pack, s.nums)) for s in sigmas[::-1]] + [[0]] + [[]] * cut)[:cut]
        ]

    def apply(self, p: Poly) -> Poly:
        degree = _in_ring(p, self.desc.ring, "polynomial").total_degree()
        narrow, wide = _packing(self.target.nvars), Packing(self.target.nvars, degree or 1)
        table = [[wide.pack(narrow.unpack(k)) for k in keys] for keys in self._table]
        image = _packed_image(table, p.nums.items())
        nums = {wide.unpack(k): c for k, c in image.items() if c}
        return Poly._from_ints(self.target, nums, p.denom)


def _check_psi_kernel(spec: PsiSpecialization, gens) -> None:
    """Raise InvariantViolationError unless psi sends every jet generator of
    `gens` into I_S, which makes its nonzero normal forms refusals:
    `symfun._image_nf` of each generator's integer numerators, whose
    images are squarefree, must be empty."""
    for i, g in enumerate(gens):
        if _image_nf(spec._table, g.nums.items(), spec.lam.ell):
            raise InvariantViolationError("psi of %r misses I_S at generator %d" % (spec.lam, i))


class _Specs(dict):
    """Composition -> PsiSpecialization of one jet ring, each made on its
    first lookup and stored only once `_check_psi_kernel` has passed on the
    ring's generators: every spec read from here is kernel-checked, and a
    failed check stores nothing."""

    __slots__ = ("desc", "gens")

    def __init__(self, desc: JetRingDesc, gens):
        super().__init__()
        self.desc = desc
        self.gens = gens

    def __missing__(self, lam: Composition) -> PsiSpecialization:
        spec = PsiSpecialization(lam, self.desc)
        _check_psi_kernel(spec, self.gens)
        self[lam] = spec
        return spec


def _psi_witness(p: Poly, gens, desc: JetRingDesc) -> PsiWitness | None:
    """A PsiWitness of the first psi_lambda, lambda in `compositions(m+1, n)`
    order, with NF_IS(psi_lambda(p)) nonzero, or None if there is none.
    Only that psi_lambda has its kernel checked against the jet generators
    `gens`, the one check a witness needs to prove that p is not in the jet
    ideal: one check per answer, none for a p that no psi_lambda refuses."""
    for lam in compositions(desc.m + 1, desc.n):
        spec = PsiSpecialization(lam, desc)
        nf = normal_form_IS(spec.apply(p))
        if not nf.is_zero():
            _check_psi_kernel(spec, gens)
            return PsiWitness(spec.lam, nf)
    return None


def _psi_normal_forms(spec: PsiSpecialization, mono: Poly):
    """Yield NF_IS(psi(mono)^d) for d = 1, 2, ..., zero once it has reached
    zero.  They are `symfun._packed_powers` of mono's packed image, by
    `symfun._image_nf`.  They refuse only if psi's kernel holds the jet
    ideal: `spec` comes from a `_jet_ideal` record, which checked that when
    it made the spec."""
    ell = spec.lam.ell
    image = _image_nf(spec._table, mono.nums.items(), ell)
    for terms, scale in _packed_powers(image, mono.denom, ell):
        yield _z_poly(terms, scale, ell)
    yield from itertools.repeat(spec.target.zero())

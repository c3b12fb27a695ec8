"""Jet rings, jet ideals of x_1...x_n, and the certified membership oracle.

The order-m jet ring replaces each base variable x_i by a truncated series
x_i^(0) + x_i^(1) t + ... + x_i^(m) t^m; the jet ideal of a polynomial ideal
is generated by the t-coefficients of its generators evaluated on those
series.  For the principal ideal of x_1...x_n this module provides the
minimal primes, the multiplicity table, two witness homomorphisms (a 0/1
evaluation and a specialisation into block elementary symmetrics), and a
homogeneous ideal-membership oracle based on exact linear algebra that
returns re-checkable certificates.  No Groebner engine is involved: every
ideal handled here is homogeneous, so degree-by-degree span testing is
complete.

The minimal-degree search certifies both ways.  A refused power is proved
by the psi specialisation: psi sends every jet generator into I_S (checked
once per search), so a nonzero normal form of psi(mono)^d modulo I_S shows
that mono^d is not in the jet ideal.  Only a degree psi cannot refuse goes
to exact elimination.  The elimination keys each monomial by one packed int
(variable 0 in the most significant field), so lex order is integer order
and multiplying by a monomial is adding its packed exponents.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .errors import (
    BudgetExceededError,
    CapExceededError,
    InvariantViolationError,
    RingMismatchError,
)
from .linalg import Budget, ExactSpan, int_row, rational_nullspace
from .polyring import Monomial, Poly, Ring, TruncatedSeries, format_monomial, format_poly
from .symfun import Composition, block_sigma, normal_form_IS, zring

__all__ = [
    "JetRingDesc",
    "MinimalPrime",
    "MembershipResult",
    "MinDegreeResult",
    "PsiSpecialization",
    "PsiWitness",
    "jet_generators",
    "minimal_primes",
    "compositions",
    "homogeneous_membership",
    "phi_binary_eval",
    "psi_specialize",
    "min_degree_formula",
    "min_degree_search",
    "radical_witness",
    "diff_to_jet_scale",
    "jet_to_diff_scale",
    "derivative_monomial",
    "multiplicity_table",
]


@lru_cache(maxsize=None)
def _jet_ring(n: int, m: int, prefix: str) -> Ring:
    return Ring(
        tuple("%s%d_%d" % (prefix, i, j) for i in range(1, n + 1) for j in range(m + 1))
    )


@lru_cache(maxsize=None)
def _base_ring(n: int) -> Ring:
    return Ring(tuple("x%d" % i for i in range(1, n + 1)))


class JetRingDesc:
    """Shape of a jet ring: n base variables, derivatives of order 0..m."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        if n < 1:
            raise ValueError("need at least one base variable")
        if m < 0:
            raise ValueError("jet order must be non-negative")
        self.n = n
        self.m = m

    @property
    def ring(self) -> Ring:
        return _jet_ring(self.n, self.m, "x")

    @property
    def diff_ring(self) -> Ring:
        """Companion ring with y-variables, used by the derivative scaling."""
        return _jet_ring(self.n, self.m, "y")

    @property
    def base_ring(self) -> Ring:
        return _base_ring(self.n)

    def slot(self, i: int, j: int) -> int:
        """Flat variable index of x_i^(j); i is 1-based, 0 <= j <= m."""
        if not (1 <= i <= self.n and 0 <= j <= self.m):
            raise ValueError("no variable x%d_(%d) in this jet ring" % (i, j))
        return (i - 1) * (self.m + 1) + j

    def pair(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.n * (self.m + 1):
            raise ValueError("flat index %d out of range" % slot)
        return slot // (self.m + 1) + 1, slot % (self.m + 1)

    def var(self, i: int, j: int) -> Poly:
        return self.ring.var(self.slot(i, j))

    def __eq__(self, other):
        return isinstance(other, JetRingDesc) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return "JetRingDesc(n=%d, m=%d)" % (self.n, self.m)


def derivative_monomial(h, desc: JetRingDesc) -> Poly:
    """The product of x_i^(h_i) over all base variables, as a jet polynomial."""
    h = tuple(h)
    if len(h) != desc.n:
        raise ValueError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
    exps = [0] * desc.ring.nvars
    for i, hi in enumerate(h, start=1):
        exps[desc.slot(i, hi)] += 1
    return Poly(desc.ring, {Monomial(tuple(exps)): Fraction(1)})


def jet_generators(gens, desc: JetRingDesc) -> list[Poly]:
    """t-coefficients of the given base polynomials evaluated on jet series.

    `gens` defaults to the single product x_1...x_n.  Each generator
    contributes m+1 output polynomials, the coefficients of t^0 .. t^m.
    """
    base = desc.base_ring
    if gens is None:
        mono = Monomial((1,) * desc.n)
        gens = [Poly(base, {mono: Fraction(1)})]
    ring = desc.ring
    m = desc.m
    series = [
        TruncatedSeries(ring, [ring.var(desc.slot(i, j)) for j in range(m + 1)], m)
        for i in range(1, desc.n + 1)
    ]
    out: list[Poly] = []
    for g in gens:
        if g.ring != base:
            raise RingMismatchError("generator %s not in the %d-variable base ring" % (g, desc.n))
        acc = TruncatedSeries.constant(ring, ring.zero(), m)
        for mono, coeff in g.terms.items():
            term = TruncatedSeries.constant(ring, ring.one(), m)
            for i, e in enumerate(mono.exps):
                if e:
                    term = term * series[i] ** e
            acc = acc + term.scale(coeff)
        out.extend(acc.coeffs)
    return out


def compositions(total: int, parts: int) -> list[Composition]:
    """All compositions of `total` into `parts` non-negative parts,
    enumerated in descending lexicographic order."""
    if parts < 1:
        raise ValueError("need at least one part")
    out: list[Composition] = []

    def rec(prefix, remaining, left):
        if left == 1:
            out.append(Composition(prefix + (remaining,)))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, left - 1)

    rec((), total, parts)
    return out


class MinimalPrime:
    """Coordinate-subspace prime of the jet ideal of x_1...x_n.

    For a composition lambda of m+1, generated by the variables x_i^(j)
    with j < lambda_i; there are always exactly m+1 generators.
    """

    __slots__ = ("lam", "desc")

    def __init__(self, lam: Composition, desc: JetRingDesc):
        if lam.ell != desc.m + 1:
            raise ValueError("composition must sum to m+1")
        if lam.n != desc.n:
            raise ValueError("composition must have one part per base variable")
        self.lam = lam
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
    """Multiplicity (m+1)!/prod(lambda_i!) for each minimal prime; the
    values always sum to n^(m+1)."""
    table = {}
    for lam in compositions(m + 1, n):
        mult = factorial(m + 1)
        for part in lam.parts:
            mult //= factorial(part)
        table[lam] = mult
    return table


# -- membership oracle --------------------------------------------------------


class PsiWitness:
    """Non-membership certificate from the psi specialisation.

    `normal_form` is NF_IS(psi(mono^d)) in the z ring of the block
    composition `lam`.  psi sends every jet generator into I_S, so a nonzero
    normal form proves that mono^d is not in the jet ideal.
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


class MembershipResult:
    """Outcome of a homogeneous span-membership query.

    `combination` lists (generator index, multiplier monomial, coefficient)
    triples whose expansion reproduces the query exactly; it is None for
    non-members.  Every verdict is exact: a refusal comes either from the
    psi specialisation, with its PsiWitness in `witness`, or from exact
    elimination leaving a nonzero remainder, with `witness` None.
    """

    __slots__ = ("member", "degree", "combination", "witness")

    def __init__(self, member, degree, combination, witness=None):
        self.member = member
        self.degree = degree
        self.combination = combination
        self.witness = witness

    def verify(self, p: Poly, gens) -> bool:
        if not self.member:
            return False
        total = p.ring.zero()
        for gi, mono, coeff in self.combination:
            total = total + gens[gi].mul_monomial(mono, coeff)
        return total == p

    def to_json(self, ring: Ring) -> dict:
        payload = {"member": self.member, "degree": self.degree}
        if self.member:
            payload["combination"] = [
                {
                    "gen": gi,
                    "monomial": format_monomial(ring, mono),
                    "coeff": str(coeff),
                }
                for gi, mono, coeff in self.combination
            ]
        else:
            payload["combination"] = None
        if self.witness is not None:
            payload["witness"] = self.witness.to_json()
        return payload


def _common_gradings(polys: list[Poly], nvars: int) -> list[tuple[int, ...]]:
    """Integer functionals under which every given polynomial is homogeneous.

    The functionals span the rational solution space of the difference
    constraints, scaled to integers; the all-ones total degree functional is
    always in their span.
    """
    rows = []
    for p in polys:
        monos = list(p.terms)
        if len(monos) <= 1:
            continue
        base = monos[0].exps
        for mono in monos[1:]:
            rows.append([Fraction(e - b) for e, b in zip(mono.exps, base)])
    if not rows:
        return [
            tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars)
        ]
    basis = rational_nullspace(rows, nvars)
    out = []
    for vec in basis:
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(tuple(ints))
    return out


def _packed_multipliers(degree: int, constraints, shifts) -> list[int]:
    """All exponent vectors of the given total degree matching every
    (weights, target) constraint, packed with variable i shifted left by
    shifts[i], in descending lex order.  Found by a depth-first search
    pruned by suffix weight bounds."""
    nvars = len(shifts)
    weightrows = [w for w, _ in constraints]
    targets = [t for _, t in constraints]
    ncons = len(constraints)
    # suffix minima / maxima of each weight vector for pruning
    sufmin = [[0] * (nvars + 1) for _ in range(ncons)]
    sufmax = [[0] * (nvars + 1) for _ in range(ncons)]
    for c in range(ncons):
        lo = hi = None
        for i in range(nvars - 1, -1, -1):
            w = weightrows[c][i]
            lo = w if lo is None else min(lo, w)
            hi = w if hi is None else max(hi, w)
            sufmin[c][i] = lo
            sufmax[c][i] = hi
    out: list[int] = []

    def rec(i: int, remaining: int, partial: tuple[int, ...], key: int):
        if i == nvars - 1:
            for c in range(ncons):
                if partial[c] + weightrows[c][i] * remaining != targets[c]:
                    return
            out.append(key + (remaining << shifts[i]))
            return
        for c in range(ncons):
            need = targets[c] - partial[c]
            if remaining * sufmin[c][i] > need or remaining * sufmax[c][i] < need:
                return
        shift = shifts[i]
        for e in range(remaining, -1, -1):
            rec(
                i + 1,
                remaining - e,
                tuple(partial[c] + weightrows[c][i] * e for c in range(ncons)),
                key + (e << shift),
            )

    rec(0, degree, (0,) * ncons, 0)
    return out


def _weight_of(poly: Poly, weights) -> int:
    mono = next(iter(poly.terms))
    return sum(w * e for w, e in zip(weights, mono.exps))


def _solve_membership(p, gens, usable, gradings, span) -> tuple[dict, dict]:
    """Insert all multiplier*generator rows into `span`, then reduce p.

    Rows are keyed by packed monomials and labelled (generator index,
    packed multiplier).  The field width is the bit length of deg p: every
    monomial of the component has total degree deg p, so no exponent
    exceeds it and adding a multiplier never carries across fields.
    """
    nvars = p.ring.nvars
    degree = p.total_degree()
    width = degree.bit_length()
    shifts = [width * (nvars - 1 - i) for i in range(nvars)]

    def pack(mono: Monomial) -> int:
        return sum(e << s for e, s in zip(mono.exps, shifts))

    p_weights = [_weight_of(p, w) for w in gradings]
    for gi in usable:
        g = gens[gi]
        grow = {pack(m): v for m, v in int_row(g.terms).items()}
        mult_degree = degree - g.total_degree()
        constraints = [
            (w, pw - _weight_of(g, w)) for w, pw in zip(gradings, p_weights)
        ]
        for mult in _packed_multipliers(mult_degree, constraints, shifts):
            span.insert({k + mult: v for k, v in grow.items()}, (gi, mult))
    rem, comb = span.reduce({pack(m): c for m, c in p.terms.items()})
    mask = (1 << width) - 1
    return rem, {
        (gi, Monomial(tuple((mult >> s) & mask for s in shifts))): c
        for (gi, mult), c in comb.items()
    }


def homogeneous_membership(
    p: Poly,
    gens,
    budget: Budget | None = None,
) -> MembershipResult:
    """Decide p in span{ M*g : g in gens, M monomial, deg(M*g) = deg(p) }.

    Requires p and every generator homogeneous.  For homogeneous ideals this
    span equals the degree-deg(p) component of the ideal, so the verdict is
    ideal membership.  The verdict comes from one exact elimination over the
    rationals, charged to `budget` if given.  Membership answers carry an
    exact certificate that is re-expanded and compared against p before
    being returned.
    """
    gens = list(gens)
    if not p.is_homogeneous():
        raise ValueError("membership query must be homogeneous")
    for i, g in enumerate(gens):
        if g.ring != p.ring:
            raise RingMismatchError("generator %d in a different ring" % i)
        if g.is_zero():
            raise ValueError("generator %d is zero" % i)
        if not g.is_homogeneous():
            raise ValueError("generator %d is not homogeneous" % i)
    if p.is_zero():
        return MembershipResult(True, None, [])
    degree = p.total_degree()
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = _common_gradings([gens[i] for i in usable] + [p], p.ring.nvars)
    span = ExactSpan(budget=budget)
    rem, comb = _solve_membership(p, gens, usable, gradings, span)
    if rem:
        return MembershipResult(False, degree, None)
    scales = {gi: _denominator_scale(gens[gi]) for gi in usable}
    combination = [
        (gi, mono, coeff * scales[gi])
        for (gi, mono), coeff in sorted(comb.items())
        if coeff
    ]
    result = MembershipResult(True, degree, combination)
    if not result.verify(p, gens):
        raise InvariantViolationError("membership certificate failed re-expansion")
    return result


def _denominator_scale(g: Poly) -> int:
    denom = 1
    for c in g.terms.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return denom


# -- witness homomorphisms ----------------------------------------------------


def phi_binary_eval(p: Poly, h, desc: JetRingDesc) -> Fraction:
    """Evaluate p at x_i^(j) = 0 when j < h_i and 1 otherwise."""
    h = tuple(h)
    if len(h) != desc.n:
        raise ValueError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
    if p.ring != desc.ring:
        raise RingMismatchError("polynomial not in the jet ring of %r" % desc)
    zero_slots = {
        desc.slot(i, j) for i in range(1, desc.n + 1) for j in range(min(h[i - 1], desc.m + 1))
    }
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        if all(e == 0 or i not in zero_slots for i, e in enumerate(mono.exps)):
            total += coeff
    return total


def radical_witness(h) -> bool:
    """Certify that the derivative monomial avoids the radical of the
    order-(H-1) jet ideal of x_1...x_n.

    The 0/1 evaluation kills every generator of that ideal while sending
    the monomial to 1; a ring homomorphism cannot do both for an element of
    the radical.
    """
    h = tuple(h)
    if any(v < 0 for v in h):
        raise ValueError("derivative orders must be non-negative")
    total = sum(h)
    if total < 1:
        raise ValueError("the order -1 jet ideal is undefined; need sum(h) >= 1")
    desc = JetRingDesc(len(h), total)
    gens = jet_generators(None, desc)[:total]
    if any(phi_binary_eval(g, h, desc) != 0 for g in gens):
        return False
    return phi_binary_eval(derivative_monomial(h, desc), h, desc) == 1


class PsiSpecialization:
    """Substitution of jet variables by block elementary symmetrics.

    Blocks are assigned after reordering the derivative tuple so the first
    block maximises the witness power (h_i+1)(H-h_i); that block gets size
    h_i+1 and every other index keeps size h_i.  `sorted_indices` records
    the reordering (original 1-based indices in block order).  Under the
    resulting map every generator of the order-H jet ideal of x_1...x_n
    lands in the ideal of constant-free symmetric polynomials.
    """

    __slots__ = ("h", "desc", "lam", "sorted_indices", "target", "_images")

    def __init__(self, h, desc: JetRingDesc):
        h = tuple(int(v) for v in h)
        if len(h) != desc.n:
            raise ValueError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
        if any(v < 0 for v in h):
            raise ValueError("derivative orders must be non-negative")
        self.h = h
        self.desc = desc
        total = sum(h)
        order = sorted(
            range(len(h)),
            key=lambda i: (-(h[i] + 1) * (total - h[i]), -h[i], i),
        )
        parts = [h[i] + 1 if k == 0 else h[i] for k, i in enumerate(order)]
        self.lam = Composition(parts)
        self.sorted_indices = tuple(i + 1 for i in order)
        self.target = zring(total + 1)
        position = {orig: k for k, orig in enumerate(order)}
        images = []
        for slot in range(desc.ring.nvars):
            i, j = desc.pair(slot)
            s = position[i - 1]
            lam_s = parts[s]
            if j < lam_s:
                images.append(block_sigma(self.lam, s + 1, lam_s - j, self.target))
            elif j == lam_s:
                images.append(self.target.one())
            else:
                images.append(self.target.zero())
        self._images = images

    def apply(self, p: Poly) -> Poly:
        if p.ring != self.desc.ring:
            raise RingMismatchError("polynomial not in the jet ring of %r" % self.desc)
        return p.substitute(self.target, self._images)


def psi_specialize(p: Poly, h, desc: JetRingDesc) -> Poly:
    return PsiSpecialization(h, desc).apply(p)


# -- the minimal degree -------------------------------------------------------


def min_degree_formula(h) -> int:
    """max over i of (h_i+1)(H-h_i), plus one."""
    h = tuple(h)
    if not h:
        raise ValueError("empty derivative tuple")
    if any(v < 0 for v in h):
        raise ValueError("derivative orders must be non-negative")
    total = sum(h)
    return max((hi + 1) * (total - hi) for hi in h) + 1


class MinDegreeResult:
    """Outcome of the upward search for the minimal member power."""

    __slots__ = ("h", "degree", "certificate", "refusals")

    def __init__(self, h, degree, certificate, refusals):
        self.h = h
        self.degree = degree
        self.certificate = certificate
        self.refusals = refusals

    @property
    def refusal_below(self) -> MembershipResult | None:
        return self.refusals.get(self.degree - 1)


def min_degree_search(
    h,
    cap: int | None = None,
    budget: Budget | None = None,
) -> MinDegreeResult:
    """Smallest d with the d-th power of the derivative monomial inside the
    order-H jet ideal of x_1...x_n, decided degree by degree.

    Each degree is first tried against the psi specialisation: a nonzero
    NF_IS(psi(mono)^d) refuses it, recorded with a PsiWitness and without
    elimination.  The normal form is carried from one degree to the next,
    and psi's kernel is checked to contain every jet generator once per
    search, so the refusals never rest on the degree theorem.  A degree psi
    cannot refuse (in practice only the formula's) goes to the membership
    oracle, whose exact elimination runs on packed-int keys; `budget`
    applies there only.  Every refusal is thus certified, by a PsiWitness
    or by a nonzero remainder of exact elimination.

    The default cap is the closed-form value plus two, so a wrong formula
    would surface as a cap error instead of an unbounded search.  Raises
    CapExceededError with the certified lower bound when no degree within
    the cap is a member.  A BudgetExceededError from the elimination is
    re-raised with `partial` = {"refused": [...], "psi_certified": [...],
    "lower_bound": d}: the degrees already refused and the degree at which
    the budget ran out.
    """
    h = tuple(h)
    formula = min_degree_formula(h)
    if cap is None:
        cap = formula + 2
    if cap < 1:
        raise ValueError("cap must be at least 1")
    desc = JetRingDesc(len(h), sum(h))
    gens = jet_generators(None, desc)
    mono = derivative_monomial(h, desc)
    spec = PsiSpecialization(h, desc)
    refusals: dict[int, MembershipResult] = {}
    for d, nf in zip(range(1, cap + 1), _psi_normal_forms(spec, gens, mono)):
        if not nf.is_zero():
            # `degree` is the query's total degree, as for elimination refusals
            refusals[d] = MembershipResult(
                False, d * len(h), None, witness=PsiWitness(spec.lam, nf)
            )
            continue
        try:
            result = homogeneous_membership(mono**d, gens, budget=budget)
        except BudgetExceededError as exc:
            partial = {
                "refused": sorted(refusals),
                "psi_certified": sorted(
                    k for k, r in refusals.items() if r.witness is not None
                ),
                "lower_bound": d,
            }
            raise BudgetExceededError(str(exc), partial=partial) from exc
        if result.member:
            return MinDegreeResult(h, d, result, refusals)
        refusals[d] = result
    raise CapExceededError(
        "no member power of %r found up to degree %d" % (h, cap), lower_bound=cap + 1
    )


def _psi_normal_forms(spec: PsiSpecialization, gens, mono: Poly):
    """Yield NF_IS(psi(mono)^d) for d = 1, 2, ..., each the normal form of
    the previous one times psi(mono); zero once it has reached zero.

    Before the first, check that psi sends every generator into I_S, which
    is what makes a nonzero normal form a proof of non-membership.
    """
    for i, g in enumerate(gens):
        if not normal_form_IS(spec.apply(g)).is_zero():
            raise InvariantViolationError(
                "psi image of jet generator %d is not in I_S for h=%r" % (i, spec.h)
            )
    image = normal_form_IS(spec.apply(mono))
    nf = image
    while True:
        yield nf
        if not nf.is_zero():
            nf = normal_form_IS(nf * image)


# -- derivative scaling -------------------------------------------------------


def _rescale(p: Poly, source: Ring, target: Ring, factors) -> Poly:
    if p.ring != source:
        raise RingMismatchError("polynomial not in the expected ring")
    out = {}
    for mono, coeff in p.terms.items():
        c = coeff
        for i, e in enumerate(mono.exps):
            if e:
                c = c * factors[i] ** e
        out[mono] = c
    return Poly(target, out)


def diff_to_jet_scale(p: Poly, desc: JetRingDesc) -> Poly:
    """Substitute y_i^(j) -> j! * x_i^(j); the invertible change of scale
    between derivative variables and jet coefficients."""
    factors = [Fraction(factorial(desc.pair(s)[1])) for s in range(desc.ring.nvars)]
    return _rescale(p, desc.diff_ring, desc.ring, factors)


def jet_to_diff_scale(p: Poly, desc: JetRingDesc) -> Poly:
    """Inverse of diff_to_jet_scale: x_i^(j) -> y_i^(j) / j!."""
    factors = [Fraction(1, factorial(desc.pair(s)[1])) for s in range(desc.ring.nvars)]
    return _rescale(p, desc.ring, desc.diff_ring, factors)

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
and multiplying by a monomial is adding its packed exponents.  The
multipliers of all generators come from one table per query, filled by a
single variable-by-variable pass per multiplier degree: the jet generators
share their block degrees and differ only in weight, so one pass serves
them all.

Rows are inserted generator by generator, multipliers in descending lex
order, and a row M*g_k is skipped without elimination when the trailing
(lex-smallest) monomial of an earlier generator g_j divides M: that row is
a combination of g_j rows and of g_k rows with lex-larger multipliers, all
inserted before it, so it would have reduced to zero (the Koszul syzygy
g_j*g_k - g_k*g_j).  The jet generators form a regular sequence, so most
reductions to zero are of this kind.  Pivots and certificates are those of
inserting every row.  Each packed field carries one guard bit above the
exponent, so the divisibility test is one subtraction and one mask.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
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
        if n < 1:
            raise DomainError("need at least one base variable")
        if m < 0:
            raise DomainError("jet order must be non-negative")
        self.n = n
        self.m = m

    @property
    def ring(self) -> Ring:
        return _jet_ring(self.n, self.m)

    @property
    def base_ring(self) -> Ring:
        return _base_ring(self.n)

    def slot(self, i: int, j: int) -> int:
        """Flat variable index of x_i^(j); i is 1-based, 0 <= j <= m."""
        if not (1 <= i <= self.n and 0 <= j <= self.m):
            raise DomainError("no variable x%d_(%d) in this jet ring" % (i, j))
        return (i - 1) * (self.m + 1) + j

    def pair(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.n * (self.m + 1):
            raise DomainError("flat index %d out of range" % slot)
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
        raise DomainError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
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
            for i, e in enumerate(mono):
                if e:
                    term = term * series[i] ** e
            acc = acc + term.scale(coeff)
        out.extend(acc.coeffs)
    return out


def compositions(total: int, parts: int) -> list[Composition]:
    """All compositions of `total` into `parts` non-negative parts,
    enumerated in descending lexicographic order."""
    if parts < 1:
        raise DomainError("need at least one part")
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
            raise DomainError("composition must sum to m+1")
        if lam.n != desc.n:
            raise DomainError("composition must have one part per base variable")
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
    values always sum to n^(m+1).  Rejects n < 1 and m < 0, as
    minimal_primes does."""
    JetRingDesc(n, m)
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
        """Re-expand the combination term by term and compare it with p."""
        if not self.member:
            return False
        terms: dict[Monomial, Fraction] = {}
        for gi, mono, coeff in self.combination:
            for m, c in gens[gi].terms.items():
                key = m * mono
                terms[key] = terms.get(key, 0) + c * coeff
        return Poly(p.ring, terms) == p

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
        base = monos[0]
        for mono in monos[1:]:
            rows.append([Fraction(e - b) for e, b in zip(mono, base)])
    if not rows:
        return [
            tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars)
        ]
    basis = rational_nullspace(rows, nvars)
    out = []
    for vec in basis:
        denom = lcm(*(v.denominator for v in vec))
        ints = [int(v * denom) for v in vec]
        g = gcd(*ints)
        out.append(tuple(v // g for v in ints))
    return out


def _packed_multipliers(degree: int, gradings, targets, shifts) -> dict:
    """Every exponent vector of the given total degree whose weights under
    `gradings` equal one of `targets`, packed with variable i shifted left
    by shifts[i]: {target: packed vectors in descending lex order}.

    One variable-by-variable pass serves all targets.  Exponent prefixes
    with the same remaining degree and partial weights share one list of
    packed prefixes, and a state is dropped as soon as its suffix weight
    bounds cannot reach the bounding box of all targets.  Each level's
    states are released as the next level is built.
    """
    nvars = len(shifts)
    lo = [min(t[c] for t in targets) for c in range(len(gradings))]
    hi = [max(t[c] for t in targets) for c in range(len(gradings))]
    states = {(degree, (0,) * len(gradings)): [0]}
    for i in range(nvars):
        col = [w[i] for w in gradings]
        sufmin = [min(w[i + 1 :], default=0) for w in gradings]
        sufmax = [max(w[i + 1 :], default=0) for w in gradings]
        shift = shifts[i]
        nxt: dict = {}
        while states:
            (remaining, partial), prefixes = states.popitem()
            # the last variable takes whatever degree is left
            for e in range(remaining, -1, -1) if i < nvars - 1 else (remaining,):
                left = remaining - e
                part = tuple(s + w * e for s, w in zip(partial, col))
                if any(
                    s + left * a > high or s + left * b < low
                    for s, a, b, low, high in zip(part, sufmin, sufmax, lo, hi)
                ):
                    continue
                add = e << shift
                grown = [k + add for k in prefixes]
                known = nxt.get((left, part))
                if known is None:
                    nxt[left, part] = grown
                else:
                    known += grown
        states = nxt
    out: dict = {t: [] for t in targets}
    for (_, part), keys in states.items():
        if part in out:
            keys.sort(reverse=True)
            out[part] = keys
    return out


def _weight_of(poly: Poly, weights) -> int:
    mono = next(iter(poly.terms))
    return sum(w * e for w, e in zip(weights, mono))


def _packing(nvars: int, degree: int) -> tuple[int, list[int], int]:
    """(width, shifts, guard) of the packed keys for exponent vectors whose
    entries are at most `degree`.

    Variable i sits in a field of `width` = degree.bit_length() + 1 bits,
    shifted left by shifts[i], variable 0 in the most significant field.
    Every exponent fits below its field's top bit; `guard` sets the top bit
    of every field, which `_undivided` uses to test divisibility.
    """
    width = degree.bit_length() + 1
    shifts = [width * (nvars - 1 - i) for i in range(nvars)]
    guard = sum(1 << (s + width - 1) for s in shifts)
    return width, shifts, guard


def _undivided(mults, trailing, guard):
    """Yield, in order, the packed multipliers that no packed monomial in
    `trailing` divides.

    t divides m iff ((m | guard) - t) & guard == guard.  In each field,
    guard bit plus m_i minus t_i stays positive, so no borrow crosses a
    field, and it keeps the guard bit exactly when m_i >= t_i.
    """
    for m in mults:
        mg = m | guard
        for t in trailing:
            if (mg - t) & guard == guard:
                break
        else:
            yield m


def _solve_membership(p, gens, usable, gradings, span) -> tuple[dict, dict]:
    """Insert the multiplier*generator rows into `span`, then reduce p.

    The multipliers of all generators are enumerated up front, one pass
    per distinct multiplier degree, into a table keyed by the weights a
    multiplier must have under `gradings`.  These weights fix its total
    degree, since the total degree lies in the span of the gradings.  Each
    generator's list is popped from the table when its last user has taken
    it, so the table shrinks while the span grows.

    Rows are inserted generator by generator in `usable` order, each
    generator's multipliers in descending lex order.  A row M*g_k is
    skipped (the Koszul criterion) when the trailing, lex-smallest monomial
    T of an earlier generator g_j divides M.  With c the coefficient of T
    in g_j,

        M*g_k = (M/T)*g_k*g_j / c - sum over the other monomials s of g_j
                of (c_s / c) * (M/T)*s*g_k,

    and (M/T)*g_k*g_j is a combination of g_j rows, which come before
    M*g_k, while each (M/T)*s*g_k has a multiplier lex-larger than M, as
    s > T, so it comes before M*g_k too.  By induction along this order, a
    skipped row lies in the span of the rows inserted before it: inserting
    it would have reduced it to zero and changed nothing, so pivots,
    histories, certificates and Budget charges are those of inserting
    every row.  The leading monomial would not do: its (M/LM)*s*g_k have
    lex-smaller multipliers, which come after M*g_k.

    Rows are keyed by packed monomials (`_packing` for deg p: every
    monomial of the component has total degree deg p, so no exponent
    exceeds it and adding a multiplier never carries across fields) and
    labelled (generator index, packed multiplier).
    """
    nvars = p.ring.nvars
    degree = p.total_degree()
    width, shifts, guard = _packing(nvars, degree)

    def pack(mono: Monomial) -> int:
        return sum(e << s for e, s in zip(mono, shifts))

    p_weights = [_weight_of(p, w) for w in gradings]
    targets = {
        gi: tuple(pw - _weight_of(gens[gi], w) for w, pw in zip(gradings, p_weights))
        for gi in usable
    }
    by_degree: dict = {}
    for gi in usable:
        by_degree.setdefault(degree - gens[gi].total_degree(), set()).add(targets[gi])
    table = {}
    for mult_degree, wanted in by_degree.items():
        table.update(_packed_multipliers(mult_degree, gradings, wanted, shifts))
    last_user = {t: gi for gi, t in targets.items()}
    trailing: list[int] = []
    for gi in usable:
        grow = {pack(m): v for m, v in int_row(gens[gi].terms).items()}
        t = targets[gi]
        mults = table.pop(t) if last_user[t] == gi else table[t]
        for mult in _undivided(mults, trailing, guard):
            span.insert({k + mult: v for k, v in grow.items()}, (gi, mult))
        trailing.append(min(grow))
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
    rationals, charged to `budget` if given.  The elimination skips every
    row the Koszul criterion proves redundant (see `_solve_membership`):
    the test holds for any homogeneous generators, and because it uses
    trailing monomials, each skipped row lies in the span of the rows
    inserted before it, so pivots, certificates and budget charges are
    those of inserting every row.  Membership answers carry an exact
    certificate that is re-expanded and compared against p before being
    returned.
    """
    gens = list(gens)
    if not p.is_homogeneous():
        raise DomainError("membership query must be homogeneous")
    for i, g in enumerate(gens):
        if g.ring != p.ring:
            raise RingMismatchError("generator %d in a different ring" % i)
        if g.is_zero():
            raise DomainError("generator %d is zero" % i)
        if not g.is_homogeneous():
            raise DomainError("generator %d is not homogeneous" % i)
    if p.is_zero():
        return MembershipResult(True, None, [])
    degree = p.total_degree()
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = _common_gradings([gens[i] for i in usable] + [p], p.ring.nvars)
    span = ExactSpan(budget=budget)
    rem, comb = _solve_membership(p, gens, usable, gradings, span)
    if rem:
        return MembershipResult(False, degree, None)
    scales = {gi: lcm(*(c.denominator for c in gens[gi].terms.values())) for gi in usable}
    combination = [
        (gi, mono, coeff * scales[gi])
        for (gi, mono), coeff in sorted(comb.items())
        if coeff
    ]
    result = MembershipResult(True, degree, combination)
    if not result.verify(p, gens):
        raise InvariantViolationError("membership certificate failed re-expansion")
    return result


# -- witness homomorphisms ----------------------------------------------------


def phi_binary_eval(p: Poly, h, desc: JetRingDesc) -> Fraction:
    """Evaluate p at x_i^(j) = 0 when j < h_i and 1 otherwise."""
    h = tuple(h)
    if len(h) != desc.n:
        raise DomainError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
    if p.ring != desc.ring:
        raise RingMismatchError("polynomial not in the jet ring of %r" % desc)
    zero_slots = {
        desc.slot(i, j) for i in range(1, desc.n + 1) for j in range(min(h[i - 1], desc.m + 1))
    }
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        if all(e == 0 or i not in zero_slots for i, e in enumerate(mono)):
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
        raise DomainError("derivative orders must be non-negative")
    total = sum(h)
    if total < 1:
        raise DomainError("the order -1 jet ideal is undefined; need sum(h) >= 1")
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
            raise DomainError("derivative tuple of length %d for n=%d" % (len(h), desc.n))
        if any(v < 0 for v in h):
            raise DomainError("derivative orders must be non-negative")
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
        raise DomainError("empty derivative tuple")
    if any(v < 0 for v in h):
        raise DomainError("derivative orders must be non-negative")
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
        raise DomainError("cap must be at least 1")
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

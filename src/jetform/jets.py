"""Jet rings, jet ideals of x_1...x_n, and the certified membership oracle.

The order-m jet ring replaces each base variable x_i by a truncated series
x_i^(0) + x_i^(1) t + ... + x_i^(m) t^m; the jet ideal of a polynomial ideal
is generated by the t-coefficients of its generators evaluated on those
series.  For the principal ideal of x_1...x_n this module provides the
minimal primes, the multiplicity table, two witness homomorphisms (a 0/1
evaluation and a specialisation into block elementary symmetrics), and a
homogeneous ideal-membership oracle based on exact linear algebra that
returns re-checkable certificates.  Every ideal handled here is
homogeneous, so degree-by-degree span testing is complete; the only
Groebner basis computed is a small degree-truncated one that tells the
elimination which rows it may skip.

The minimal-degree search certifies both ways.  A refused power is proved
by the psi specialisation: psi sends every jet generator into I_S (checked
once per search), so a nonzero normal form of psi(mono)^d modulo I_S shows
that mono^d is not in the jet ideal.  Only a degree psi cannot refuse goes
to exact elimination.  The elimination packs each monomial into one int
by a `polyring.Packing` for the query's degree, so lex order is integer
order, multiplying is adding and dividing is subtracting.  A row's columns
are the negated packed monomials, so elimination works from the
lex-smallest one.  The multipliers of the inserted generators come from
one table per query, filled by one variable-by-variable pass per
multiplier degree: the jet generators share their block degrees and
differ only in weight, so one pass serves them all.  Each state of the pass, a remaining
degree and partial weights, cuts the exponent of its variable to one
interval by two linear bounds per grading, so no exponent is tested on its
own, and the table is charged to the memory budget as it grows.

Rows are inserted generator by generator, multipliers in descending lex
order, and a row M*g_k is skipped without elimination when M is divisible
by the trailing (lex-smallest) monomial of some element of the ideal of
the earlier generators (the F5 criterion): that row lies in the span of
the rows inserted before it.  The divisors are the leads of a Groebner
basis of that ideal for the order whose leading term is the lex-smallest,
grevlex with the variables reversed on homogeneous input, built per query
by Buchberger's algorithm with the Gebauer-Moeller criteria M and F and
the product criterion, and truncated to the monomials that can divide a
multiplier.  The jet generators form a regular sequence, so no row that is
inserted reduces to zero.  The first jet generator g_0 = x_1^(0)...x_n^(0)
is a monomial, so its rows are unit vectors.  A monomial first usable
generator is therefore a column filter, not rows: its multipliers are never
enumerated, its columns are dropped from the other rows and the query, and
its cofactor comes from the query's residual in the one pass that
re-expands the certificate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul

from .alambda import dim_A_lambda
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
    InvariantViolationError,
    RingMismatchError,
    _size,
)
from .linalg import Budget, ExactSpan, integer_nullspace
from .polyring import (
    Monomial, Packing, Poly, Ring, _clear_denominators, _series_coefficients, format_monomial,
    format_poly,
)
from .symfun import Composition, _block_sigmas, _nf_poly, _nf_powers, normal_form_IS, zring

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
    """h as a nonempty tuple of non-negative ints, of length n if given; a
    float entry is refused, not truncated, and every refusal is a DomainError."""
    try:
        h = tuple(h)
    except TypeError:
        raise DomainError("derivative orders must be a sequence: %r" % (h,)) from None
    _size(len(h), "derivative tuple length", n or 1, n)
    return tuple(_size(v, "derivative order") for v in h)


def derivative_monomial(h, desc: JetRingDesc) -> Poly:
    """The product of x_i^(h_i) over all base variables, as a jet polynomial."""
    h = _derivative_tuple(h, desc.n)
    exps = [0] * desc.ring.nvars
    for i, hi in enumerate(h, start=1):
        exps[desc.slot(i, hi)] += 1
    return Poly(desc.ring, {Monomial(tuple(exps)): Fraction(1)})


def jet_generators(gens, desc: JetRingDesc) -> list[Poly]:
    """t-coefficients of the given base polynomials evaluated on jet series.

    `gens` defaults to the single product x_1...x_n.  Each generator
    contributes m+1 output polynomials, the coefficients of t^0 .. t^m.  In
    that of t^k, a term c*x^a contributes c times the sum, over the ways to
    pick one x_i^(j) per factor x_i of x^a with the j summing to k, of their
    product; x_1...x_n gives g_k = sum of x_1^(j_1)...x_n^(j_n) over
    j_1 + ... + j_n = k.
    """
    base = desc.base_ring
    if gens is None:
        mono = Monomial((1,) * desc.n)
        gens = [Poly(base, {mono: Fraction(1)})]
    ring = desc.ring
    m = desc.m
    series = [range(desc.slot(i, 0), desc.slot(i, m) + 1) for i in range(1, desc.n + 1)]
    out: list[Poly] = []
    for g in gens:
        if g.ring != base:
            raise RingMismatchError("generator %s not in the %d-variable base ring" % (g, desc.n))
        coeffs: list[dict] = [{} for _ in range(m + 1)]
        for mono, c in g.terms.items():
            factors = [series[i] for i, e in enumerate(mono) for _ in range(e)]
            # distinct base terms have distinct block degrees, so their jet terms never meet
            for acc, terms in zip(coeffs, _series_coefficients(ring.nvars, factors, m)):
                acc.update((Monomial(exps), c * v) for exps, v in terms.items())
        out.extend(Poly(ring, terms) for terms in coeffs)
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
    """Multiplicity of each minimal prime P_lambda: dim A_lambda, which is
    (m+1)!/prod(lambda_i!); the values always sum to n^(m+1).  Rejects
    n < 1 and m < 0, as minimal_primes does."""
    JetRingDesc(n, m)
    return {lam: dim_A_lambda(lam) for lam in compositions(m + 1, n)}


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
        """Re-expand the combination term by term and compare it with p; an
        entry naming no generator or no exponent vector of p's ring fails."""
        if not self.member:
            return False
        terms: dict[Monomial, Fraction] = {}
        for gi, mono, coeff in self.combination:
            if not 0 <= gi < len(gens) or len(mono) != p.ring.nvars or min(mono, default=0) < 0:
                return False
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
    """Integer functionals under which every given polynomial is homogeneous:
    `integer_nullspace` of the differences of each polynomial's exponents
    from its first monomial's; the total degree is always in their span.
    """
    rows = []
    for p in polys:
        monos = list(p.terms)
        rows.extend([e - b for e, b in zip(mono, monos[0])] for mono in monos[1:])
    return integer_nullspace(rows, nvars)


# packed multipliers counted as one `Budget` entry: the finished (2,1,1)
# table takes 49 bytes traced per packed int, its build peaks at 63, and
# Budget.BYTES_PER_ENTRY is 160
_PACKED_PER_ENTRY = 3


def _exponent_range(remaining: int, partial, bounds) -> range:
    """The exponents e of one variable, in descending order, after which
    some completion of the prefix can still reach the box of targets.

    The prefix has `remaining` degree r left and weight s_c under grading
    c, its entries of `partial`.  Each entry of `bounds` is (w_c, a_c, b_c,
    lo_c, hi_c): the weight of grading c on this variable, its min and max
    over the later variables, and the range of the targets' c-th weights.
    The box stays in reach only if

        s_c + w_c*e + (r - e)*a_c <= hi_c,  that is (w_c - a_c)*e <= hi_c - s_c - r*a_c,
        s_c + w_c*e + (r - e)*b_c >= lo_c,  that is (w_c - b_c)*e >= lo_c - s_c - r*b_c,

    for every c.  By the sign of its factor, each inequality is a floor or a
    ceiling bound on e; with a zero factor it holds for every e or for none.
    """
    first, last = 0, remaining
    for s, (w, a, b, low, high) in zip(partial, bounds):
        room, d = high - s - remaining * a, w - a
        if d > 0:
            last = min(last, room // d)
        elif d < 0:
            first = max(first, -(-room // d))
        elif room < 0:
            return range(0)
        need, d = low - s - remaining * b, w - b
        if d > 0:
            first = max(first, -(-need // d))
        elif d < 0:
            last = min(last, need // d)
        elif need > 0:
            return range(0)
    return range(last, first - 1, -1)


def _packed_multipliers(degree: int, gradings, targets, shifts, budget=None) -> dict:
    """Every exponent vector of the given total degree whose weights under
    `gradings` equal one of `targets`, packed with variable i shifted left
    by shifts[i]: {target: packed vectors in descending lex order}.

    One variable-by-variable pass serves all targets.  Exponent prefixes
    with the same remaining degree and partial weights share one list of
    packed prefixes.  Such a state cuts the exponent of its variable once,
    by `_exponent_range`, to the interval after which the bounding box of
    all targets is still in reach, and takes those exponents with no test
    of its own.  The last variable takes whatever degree is left, and only
    the states that hit a target are kept.  Each level's states are
    released as the next level is built.

    `budget`, if given, is charged "multiplier table" as each level grows:
    one entry per _PACKED_PER_ENTRY packed prefixes of the largest level so
    far, whole entries only, so a table that outgrows the budget stops
    before it is built.
    """
    nvars = len(shifts)
    lo = [min(t[c] for t in targets) for c in range(len(gradings))]
    hi = [max(t[c] for t in targets) for c in range(len(gradings))]
    states = {(degree, (0,) * len(gradings)): [0]}
    charged = 0
    for i in range(nvars - 1):
        bounds = [
            (w[i], min(w[i + 1 :]), max(w[i + 1 :]), low, high)
            for w, low, high in zip(gradings, lo, hi)
        ]
        # the weights of x_i^e under all gradings, for each e
        steps = [tuple(w[i] * e for w in gradings) for e in range(degree + 1)]
        shift = shifts[i]
        nxt: dict = {}
        size = 0
        while states:
            (remaining, partial), prefixes = states.popitem()
            exps = _exponent_range(remaining, partial, bounds)
            if budget is not None:
                size += len(prefixes) * len(exps)
                if size // _PACKED_PER_ENTRY > charged:
                    budget.charge(size // _PACKED_PER_ENTRY - charged, "multiplier table")
                    charged = size // _PACKED_PER_ENTRY
            for e in exps:
                part = tuple(map(add, partial, steps[e]))
                if e:
                    step = e << shift
                    grown = [k + step for k in prefixes]
                else:
                    grown = prefixes  # e = 0 comes last: the popped list moves on
                known = nxt.get((remaining - e, part))
                if known is None:
                    nxt[remaining - e, part] = grown
                else:
                    known += grown
        states = nxt
    out: dict = {t: [] for t in targets}
    col = [w[-1] for w in gradings]
    while states:
        (remaining, partial), prefixes = states.popitem()
        keys = out.get(tuple(s + w * remaining for s, w in zip(partial, col)))
        if keys is not None:
            top = remaining << shifts[-1]
            keys += [k + top for k in prefixes]
    for keys in out.values():
        keys.sort(reverse=True)
    return out


def _weight_of(poly: Poly, weights) -> int:
    mono = next(iter(poly.terms))
    return sum(w * e for w, e in zip(weights, mono))


def _undivided(mults, leads, guard):
    """Yield, in order, the packed multipliers that no packed monomial in
    `leads` divides, by the guard-bit test of `Packing` with its `guard`."""
    for m in mults:
        mg = m | guard
        for t in leads:
            if (mg - t) & guard == guard:
                break
        else:
            yield m


def _columns(terms, packing: Packing) -> dict:
    """The row of `terms` keyed by negated packed monomials.

    `ExactSpan` eliminates from its largest key, so negated keys make it
    work from the lex-smallest monomial.  The same rows become pivots in
    any column order, and this one stores far fewer step-history entries
    than lex-largest first.
    """
    return {-packing.pack(mono): v for mono, v in terms.items()}


def _trailing_term_leads(rows, packing: Packing, top, bounds, budget):
    """Yield, for k = 0, 1, ..., len(rows)-1, the packed leading monomials
    of a Groebner basis of (g_0, ..., g_{k-1}), truncated as below, where a
    polynomial's leading term is its lex-smallest one.  The g_j are given
    as homogeneous rows keyed by monomials packed by `packing`, whose degree
    bounds every exponent met, and on homogeneous input this order is
    grevlex with the variables reversed.

    The basis is built incrementally by Buchberger's algorithm, pairs taken
    in order of lcm degree.  Each reduction step, the S-polynomial's too,
    cancels one term fraction-free against an element whose lead divides
    it.  A new element's pairs pass the Gebauer-Moeller criteria M and F
    (J. Symbolic Comput. 6, 1988) and Buchberger's product criterion;
    criterion B, which prunes old pairs, measured neutral and is left out.
    Only monomials of total degree at most `top` and of weight at most b
    under every (w, b) of `bounds`, gradings with no negative entry, can
    divide a multiplier.  Outside that box a lead, and every lead of the
    pairs it would make, divides none, so such an element is not stored and
    such a pair is dropped; a reducer's lead divides the lead it cancels,
    so reduction inside the box never needs them.  The weight box takes the
    `member` query x1_6^8*x2_6^8, (n, m) = (2, 6), from 36-37 ms to
    0.5-0.9 ms (median of 15 calls; 2-core Xeon, Python 3.11.7).  The last
    row is never added, since no basis after it is used.  Each stored basis
    row is charged to `budget`.
    """
    divides = packing.divides
    basis = []  # (row, packed lead, lead exponents) of the live elements
    pairs = []  # (lcm degree, packed lcm, element, element)

    def cancel(f, t, g, lead):
        # a*f - b*x^(t-lead)*g with a, b coprime, so the term t cancels
        c = gcd(g[lead], f[t])
        a, b = g[lead] // c, f[t] // c
        if a != 1:
            f = {k: a * v for k, v in f.items()}
        shift = t - lead
        for k, v in g.items():
            k += shift
            s = f.get(k, 0) - b * v
            if s:
                f[k] = s
            else:
                del f[k]
        return f

    def top_reduce(f):
        # each cancellation removes the lead t and adds only larger keys, so
        # t must rise strictly; a step that does not rise would never end
        last = -1
        while f:
            t = min(f)
            if t <= last:
                raise InvariantViolationError("trailing-term reduction did not cancel its lead")
            last = t
            for g, lead, _ in basis:
                if divides(lead, t):
                    f = cancel(f, t, g, lead)
                    break
            else:
                c = gcd(*f.values())
                return {k: v // c for k, v in f.items()}
        return None

    def in_box(exps):
        return sum(exps) <= top and all(sum(map(mul, w, exps)) <= b for w, b in bounds)

    def add(h):
        lead = min(h)
        new = (h, lead, packing.unpack(lead))
        if not in_box(new[2]):
            return
        if budget is not None:
            budget.charge(len(h), "trailing-term basis")
        fresh = []
        for g in basis:
            exps = tuple(map(max, new[2], g[2]))
            if in_box(exps):
                degree = sum(exps)
                coprime = degree == sum(new[2]) + sum(g[2])
                lcm_ = packing.pack(exps)
                fresh.append((coprime, degree, lcm_, g))
        # criteria M and F: keep a pair only if no other new pair's lcm
        # divides its lcm; of equal lcms one survives, a coprime one if any
        kept = []
        while fresh:
            pair = fresh.pop()
            if pair[0] or not any(
                divides(q[2], pair[2]) for q in itertools.chain(fresh, kept)
            ):
                kept.append(pair)
        # Buchberger's product criterion
        pairs.extend((d, l, new, g) for coprime, d, l, g in kept if not coprime)
        basis[:] = [g for g in basis if not divides(lead, g[1])] + [new]

    for row in rows[:-1]:
        yield [g[1] for g in basis]
        h = top_reduce(dict(row))
        if h:
            add(h)
        while pairs:
            i = min(range(len(pairs)), key=lambda i: pairs[i][0])
            _, l, (f, fl, _), (g, gl, _) = pairs.pop(i)
            h = top_reduce(cancel({k + l - fl: v for k, v in f.items()}, l, g, gl))
            if h:
                add(h)
    if rows:
        yield [g[1] for g in basis]


def _solve_membership(p, gens, usable, gradings, span, filtered) -> tuple:
    """Insert the multiplier*generator rows into `span`, then reduce p.

    The multipliers of all generators but `filtered` are enumerated up
    front, one pass per distinct multiplier degree, into a table keyed by
    the weights a multiplier must have under `gradings`.  These weights fix
    its total degree, since the total degree lies in the span of the
    gradings.  Each generator's list is popped from the table when its last
    user has taken it, so the table shrinks while the span grows.  The table
    is charged to the span's budget while it is built, so a budget too
    small for it stops the query before any row is inserted.

    Rows are inserted generator by generator in `usable` order, each
    generator's multipliers in descending lex order.  A row M*g_k is
    skipped (the F5 criterion, Faugere, ISSAC 2002) when M is divisible by
    the trailing, lex-smallest monomial T of some G in the ideal I_<k of
    the generators before g_k.  The leads of a Groebner basis of I_<k for
    the lex-smallest-term order divide every such T (see
    `_trailing_term_leads`); the trailing monomials of the earlier
    generators are among the T, so the Koszul criterion is a special case.
    G is homogeneous under `gradings`, as the generators are.  With c the
    coefficient of T in G,

        M*g_k = (M/T)*g_k*G / c - sum over the other monomials s of G
                of (c_s / c) * (M/T)*s*g_k,

    and (M/T)*g_k*G is a combination of rows of generators before g_k,
    which come before M*g_k, while each (M/T)*s*g_k has a multiplier of
    the same weights and lex-larger than M, as s > T, so it comes before
    M*g_k too.  By induction along this order, a skipped row lies in the
    span of the rows inserted before it: inserting it would have reduced it
    to zero and changed nothing.  The argument needs only G in I_<k, so a
    pair the basis drops costs skips, never answers.  Conversely, a row
    that would reduce to zero gives a syzygy whose g_k coefficient has
    trailing monomial M.  When the generators form a regular sequence, as
    the jet generators do, that coefficient lies in (I_<k : g_k) = I_<k, so
    every such row is skipped.

    `filtered` is None or usable[0], the index of a monomial g_0.  Its rows
    M*g_0 are the unit vectors of the g_0-divisible columns, all of the
    component's, so those columns are dropped from every other row and
    from p instead, and a row left empty is skipped.  Dropping them is the
    linear projection that kills exactly the span of the g_0 rows, so
    skipped rows stay redundant, the same rows become pivots as beside the
    g_0 rows, stored projected, and the combination over them, unique, is
    the same.  A term T*M is g_0-divisible exactly when T*min(M, g_0) is,
    so each generator filters its terms once per capped multiplier.

    Rows are keyed by `_columns` on a `Packing` for deg p: every monomial
    of the component has total degree deg p, so no exponent exceeds it.  A
    row is its generator times the lcm d of its denominators, labelled
    (generator index, packed multiplier); the query is p cleared alike.
    Returns `ExactSpan.reduce`'s relation for the query, the packing and
    {generator index: (row, d)}, which `_certificate` takes.
    """
    degree = p.total_degree()
    packing = Packing(p.ring.nvars, degree)
    guard, width = packing.guard, packing.width
    inserted = usable[1:] if filtered is not None else usable
    p_weights = [_weight_of(p, w) for w in gradings]
    targets = {
        gi: tuple(pw - _weight_of(gens[gi], w) for w, pw in zip(gradings, p_weights))
        for gi in inserted
    }
    by_degree: dict = {}
    for gi in inserted:
        by_degree.setdefault(degree - gens[gi].total_degree(), set()).add(targets[gi])
    table = {}
    for mult_degree, wanted in by_degree.items():
        table.update(
            _packed_multipliers(mult_degree, gradings, wanted, packing.shifts, span.budget)
        )
    last_user = {t: gi for gi, t in targets.items()}
    cleared = {gi: _clear_denominators(gens[gi].terms) for gi in usable}
    cleared = {gi: (_columns(terms, packing), d) for gi, (terms, d) in cleared.items()}
    # a lead divides a multiplier only if no grading without negative
    # entries weighs it more, nor does the total degree
    bounds = [
        (w, max((t[c] for t in targets.values()), default=0))
        for c, w in enumerate(gradings)
        if min(w) >= 0
    ]
    leads = _trailing_term_leads(
        [{-k: v for k, v in row.items()} for row, _ in cleared.values()],
        packing,
        max(by_degree, default=0),
        bounds,
        span.budget,
    )
    query = _columns(_clear_denominators(p.terms)[0], packing)
    g0 = None
    if filtered is not None:
        g0 = -next(iter(cleared[filtered][0]))  # the packed monomial g_0
        query = {k: v for k, v in query.items() if ((-k | guard) - g0) & guard != guard}
        next(leads)  # the empty basis before g_0
    for gi, trailing in zip(inserted, leads):
        row = cleared[gi][0]
        t = targets[gi]
        mults = table.pop(t) if last_user[t] == gi else table[t]
        if g0 is None:
            items = list(row.items())
        by_cap: dict = {}
        for mult in _undivided(mults, trailing, guard):
            if g0 is not None:
                # the fields where mult reaches g_0 take g_0's exponent
                s = ((mult | guard) - g0) & guard
                cap = mult ^ ((mult ^ g0) & (s - (s >> (width - 1))))
                items = by_cap.get(cap)
                if items is None:
                    items = by_cap[cap] = [
                        (k, v) for k, v in row.items() if (((cap - k) | guard) - g0) & guard != guard
                    ]
                if not items:
                    continue
            span.insert({k - mult: v for k, v in items}, (gi, mult))
    return span.reduce(query), packing, cleared


def _certificate(p: Poly, gens, relation, packing: Packing, cleared: dict, filtered) -> list:
    """The certificate of a member p, re-expanded against p, as sorted
    (generator index, multiplier, coefficient) triples: the relation
    (combination, scale) `_solve_membership` returned, and the cofactor of
    g_0 = gens[filtered].

    The residual s*p - sum of c*M*row, s = scale times the lcm of p's
    denominators, is formed once in integers.  Each entry is unpacked once,
    for its triple, with coefficient c*d/s, and its multiplier must have
    its generator's multiplier degree; a field that borrowed or overflowed
    unpacks to more than that, so this is also the sign check.  Each
    nonzero residual term divided by g_0 is an entry of g_0's cofactor,
    subtracted back through g_0's row; a term g_0 does not divide raises.
    What is left, all of the residual if `filtered` is None, must be zero.
    """
    degree = p.total_degree()
    mult_degree = {gi: degree - gens[gi].total_degree() for gi in cleared}
    comb, scale = relation
    terms, denom = _clear_denominators(p.terms)
    residual = {packing.pack(m): v * scale for m, v in terms.items()}
    scale *= denom
    triples = []
    for (gi, mult), c in comb.items():
        mono = packing.unpack(mult)
        if sum(mono) != mult_degree[gi]:
            raise InvariantViolationError("membership certificate failed re-expansion")
        row, d = cleared[gi]
        for k, v in row.items():
            residual[mult - k] = residual.get(mult - k, 0) - c * v
        triples.append((gi, mono, Fraction(c * d, scale)))
    if filtered is not None:
        row, d = cleared[filtered]
        ((column, a),) = row.items()
        g0 = -column
        for key, v in residual.items():
            if not v:
                continue
            if not packing.divides(g0, key):
                raise InvariantViolationError("residual term not divisible by the monomial generator")
            c = Fraction(v * d, scale * a)
            triples.append((filtered, packing.unpack(key - g0), c))
            # (v - (c/d)*a) * d * c.denominator: the term left once c*M*g_0 is subtracted
            residual[key] = v * d * c.denominator - c.numerator * a * scale
    if any(residual.values()):
        raise InvariantViolationError("membership certificate failed re-expansion")
    triples.sort()
    return triples


def homogeneous_membership(
    p: Poly,
    gens,
    budget: Budget | None = None,
) -> MembershipResult:
    """Decide p in span{ M*g : g in gens, M monomial, deg(M*g) = deg(p) }.

    Requires p and every generator homogeneous.  For homogeneous ideals this
    span equals the degree-deg(p) component of the ideal, so the verdict is
    ideal membership.  The verdict comes from one exact elimination over the
    rationals, charged to `budget` if given, together with the trailing-term
    basis that decides which rows to skip.  The elimination skips a row
    M*g_k whenever the trailing monomial of an element of the ideal of the
    generators before g_k divides M (the F5 criterion, see
    `_solve_membership`): the test holds for any homogeneous generators,
    and each skipped row lies in the span of the rows inserted before it.

    The first usable generator, if it is a monomial g_0, is a column filter
    instead of rows, decided here once for both halves of the oracle:
    `_solve_membership` neither enumerates nor inserts its rows and drops
    its columns, and `_certificate` recovers its cofactor from the residual
    of p.  Pivots and span charges are those of the projected rows; the
    certificate is the one inserting every row would give, and every entry
    of it, g_0's included, is re-expanded against p before it is returned.
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
    filtered = usable[0] if usable and len(gens[usable[0]].terms) == 1 else None
    gradings = _common_gradings([gens[i] for i in usable] + [p], p.ring.nvars)
    span = ExactSpan(budget=budget)
    solved = _solve_membership(p, gens, usable, gradings, span, filtered)
    if solved[0] is None:  # the span's relation for p
        return MembershipResult(False, degree, None)
    return MembershipResult(True, degree, _certificate(p, gens, *solved, filtered))


# -- witness homomorphisms ----------------------------------------------------


def phi_binary_eval(p: Poly, h, desc: JetRingDesc) -> Fraction:
    """Evaluate p at x_i^(j) = 0 when j < h_i and 1 otherwise: one
    substitution into the ring of no variables, whose constant is the value."""
    h = _derivative_tuple(h, desc.n)
    if p.ring != desc.ring:
        raise RingMismatchError("polynomial not in the jet ring of %r" % desc)
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
    """Substitution of jet variables by block elementary symmetrics.

    Blocks are assigned after reordering the derivative tuple so the first
    block maximises the witness power (h_i+1)(H-h_i); that block gets size
    h_i+1 and every other index keeps size h_i.  `sorted_indices` records
    the reordering (original 1-based indices in block order).  Base variable
    i, of block size lambda, takes its block's `symfun._block_sigmas` list
    reversed, then 1, then zeros, cut to m+1 entries: x_i^(j) goes to
    sigma_(lambda-j) for j < lambda, to 1 at j = lambda and to 0 above.
    Under the resulting map every generator of the order-H jet ideal of
    x_1...x_n lands in the ideal of constant-free symmetric polynomials.
    """

    __slots__ = ("h", "desc", "lam", "sorted_indices", "target", "_images")

    def __init__(self, h, desc: JetRingDesc):
        h = _derivative_tuple(h, desc.n)
        self.h = h
        self.desc = desc
        total = sum(h)
        order = sorted(range(len(h)), key=lambda i: (-(h[i] + 1) * (total - h[i]), -h[i], i))
        self.lam = Composition([h[i] + 1 if k == 0 else h[i] for k, i in enumerate(order)])
        self.sorted_indices = tuple(i + 1 for i in order)
        self.target = zring(total + 1)
        one, zero = self.target.one(), self.target.zero()
        # the indices in `order` are distinct, so sorting never compares the lists
        self._images = [
            image
            for _, sigmas in sorted(zip(order, _block_sigmas(self.lam, self.target)))
            for image in (sigmas[::-1] + [one] + [zero] * desc.m)[: desc.m + 1]
        ]

    def apply(self, p: Poly) -> Poly:
        if p.ring != self.desc.ring:
            raise RingMismatchError("polynomial not in the jet ring of %r" % self.desc)
        return p.substitute(self.target, self._images)


def psi_specialize(p: Poly, h, desc: JetRingDesc) -> Poly:
    return PsiSpecialization(h, desc).apply(p)


# -- the minimal degree -------------------------------------------------------


def min_degree_formula(h) -> int:
    """max over i of (h_i+1)(H-h_i), plus one."""
    h = _derivative_tuple(h)
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
    elimination.  The powers are `symfun._nf_powers`'s, and psi's kernel is
    checked to contain every jet generator once per search, so the refusals
    never rest on the degree theorem.  A degree psi cannot refuse (in
    practice only the formula's) goes to the membership oracle, whose exact
    elimination runs on packed-int keys; `budget` applies there only.
    Every refusal is thus certified, by a PsiWitness or by a nonzero
    remainder of exact elimination.

    The default cap is the closed-form value plus two, so a wrong formula
    would surface as a cap error instead of an unbounded search.  Raises
    CapExceededError with the certified lower bound when no degree within
    the cap is a member.  A BudgetExceededError from the elimination is
    re-raised with `partial` = {"refused": [...], "psi_certified": [...],
    "lower_bound": d}: the degrees already refused and the degree at which
    the budget ran out.
    """
    h = _derivative_tuple(h)
    formula = min_degree_formula(h)
    cap = _size(formula + 2 if cap is None else cap, "cap", 1)
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
    """Yield NF_IS(psi(mono)^d) for d = 1, 2, ..., the packed powers of
    `symfun._nf_powers` made Polys; zero once it has reached zero.

    Before the first, check that psi sends every generator into I_S, which
    is what makes a nonzero normal form a proof of non-membership.
    """
    for i, g in enumerate(gens):
        if not normal_form_IS(spec.apply(g)).is_zero():
            raise InvariantViolationError(
                "psi image of jet generator %d is not in I_S for h=%r" % (i, spec.h)
            )
    ell = spec.lam.ell
    for terms, scale in _nf_powers(spec.apply(mono), ell):
        yield _nf_poly(terms, scale, ell)
    yield from itertools.repeat(spec.target.zero())

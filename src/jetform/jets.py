"""The certified membership oracle and the minimal-degree search.

The jet ring of x_1...x_n, with its generators, primes, multiplicities and
psi witnesses, is `jetring`.  This module adds a homogeneous
ideal-membership oracle based on exact linear algebra that returns
re-checkable certificates, and it is the only one of the two that imports
`linalg`.  Every ideal handled here is homogeneous, so degree-by-degree
span testing is complete; the only Groebner basis computed is a small
degree-truncated one that tells the elimination which rows it may skip.

The minimal-degree search certifies both ways.  A refused power is proved
by the psi specialisation: psi sends every jet generator into I_S (checked
once per jet ring and composition, when the specialisation is made), so a
nonzero normal form of psi(mono)^d modulo I_S shows that mono^d is not in
the jet ideal.  Only a degree psi cannot refuse goes to exact elimination:
one `_Component`, the query's graded component, builds its span and
certifies the query against it, and its docstring is the oracle's account.
Each monomial is packed into one int by a `polyring.Packing` for the
query's degree, so lex order is integer order, multiplying is adding and
dividing is subtracting.  The multipliers of the inserted generators come
from one table per query, charged to the memory budget as it grows, filled
by one variable-by-variable pass per multiplier degree that cuts each
exponent to an interval by linear bounds per grading.  A jet generator has
degree 1 in every block, so its multipliers are products of block
monomials: one such pass lists a block's by weight, and the blocks are
combined by weight as sums of packed ints, each product built only if the
F5 test keeps it.  The F5 test's divisors, for the jet generators, are the
leads of a trailing-term Groebner basis built once per jet ring and in full.

What a search reads of the jet ring itself is one record per (n, m),
`_jet_ideal`: the generators, checked homogeneous once, the degree in
each block and the weight as their gradings, each generator's total
degree and weights, the psi specialisations, each made on first use and
kept only once its kernel check has passed, and the leads of the full
trailing-term basis.  The record holds nothing that depends on a query's
degree: the packing, the multiplier table, the unit table and the span
are built for each query and dropped with it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul, sub

from .errors import (
    BudgetExceededError, CapExceededError, DomainError, InvariantViolationError, _in_ring,
    _instance, _sequence, _size,
)
from .jetring import (
    JetRingDesc, PsiSpecialization, PsiWitness, _derivative_tuple, _psi_normal_forms, _Specs,
    derivative_monomial, jet_generators,
)
from .linalg import Budget, ExactSpan, integer_nullspace
from .polyring import Monomial, Packing, Poly, Ring, format_monomial
from .symfun import Composition

__all__ = [
    "MembershipResult",
    "MinDegreeResult",
    "homogeneous_membership",
    "psi_specialize",
    "min_degree_formula",
    "min_degree_search",
]


# -- membership oracle --------------------------------------------------------


class MembershipResult:
    """Outcome of a homogeneous span-membership query.

    `combination` lists (generator index, multiplier monomial, coefficient)
    triples whose expansion reproduces the query exactly; it is None for
    non-members.  Every verdict is exact: a refusal comes either from the
    psi specialisation, with its PsiWitness in `witness`, or from exact
    elimination leaving a nonzero remainder.  An elimination refusal has
    `witness` None as the oracle returns it; `member` then attaches the
    first psi_lambda witness that refuses the query too, if there is one.
    """

    __slots__ = ("member", "degree", "combination", "witness")

    def __init__(self, member, degree, combination, witness=None):
        self.member = member
        self.degree = degree
        self.combination = combination
        self.witness = witness

    def verify(self, p: Poly, gens) -> bool:
        """Re-expand the combination term by term and compare it with p; an
        entry naming no generator or no exponent vector of p's ring fails,
        as does one whose index or exponents are not ints."""
        gens = _sequence(gens, "generators")
        ring = _in_ring(p, None, "membership query").ring
        for i, g in enumerate(gens):
            _in_ring(g, ring, "generator %d" % i)
        if not self.member:
            return False
        gen_terms = [g.terms for g in gens]
        terms: dict[Monomial, Fraction] = {}
        for gi, mono, coeff in self.combination:
            if type(gi) is not int or not 0 <= gi < len(gens) or len(mono) != ring.nvars:
                return False
            if not all(type(e) is int and e >= 0 for e in mono):
                return False
            for m, c in gen_terms[gi].items():
                key = m * mono
                terms[key] = terms.get(key, 0) + c * coeff
        return Poly(ring, terms) == p

    def to_json(self, ring: Ring) -> dict:
        _instance(ring, Ring, "ring")
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
        monos = list(p.nums)
        rows.extend([e - b for e, b in zip(mono, monos[0])] for mono in monos[1:])
    return integer_nullspace(rows, nvars)


class _Generators:
    """Homogeneous generators as the oracle reads them: `polys`, the indices
    `usable` of those of degree at most the queries', `gradings` under
    which the usable ones and the queries are homogeneous, with the total
    degree in their span, and each usable generator's total degree and
    weights under the gradings, keyed by index.  Built per call by
    `homogeneous_membership`, and once per jet ring by `_jet_ideal`, whose
    `multiplier_table` and `trailing_leads` read the jet ring's structure
    where these read only the fields.
    """

    __slots__ = ("polys", "usable", "gradings", "degrees", "weights")

    def __init__(self, polys: tuple, usable: list, gradings):
        self.polys = polys
        self.usable = usable
        self.gradings = gradings
        self.degrees = {i: polys[i].total_degree() for i in usable}
        self.weights = {i: _weight_of(polys[i], gradings).pop() for i in usable}

    def multiplier_table(
        self, mult_degrees: dict, targets: dict, packing: Packing, budget, leads: dict
    ) -> dict:
        """{generator index: the packed multipliers the F5 test keeps} for
        `targets` and `mult_degrees`, {generator index: the weights under
        `gradings` and the total degree its multipliers must have}: one
        `_packed_multipliers` pass per multiplier degree lists every
        multiplier, and each is then kept unless one of the generator's
        packed trailing `leads` divides it.  Generators with the same target
        share its list, popped once its last one has been tested.  No jet
        search calls it: `_JetIdeal.multiplier_table` builds the same lists as
        block products, and is tested against this one."""
        by_degree: dict = {}
        for gi, t in targets.items():
            by_degree.setdefault(mult_degrees[gi], set()).add(t)
        table = {}
        for degree, wanted in by_degree.items():
            table.update(_packed_multipliers(degree, self.gradings, wanted, packing.shifts, budget))
        last_user = {t: gi for gi, t in targets.items()}
        guard = packing.guard
        kept = {}
        for gi, t in targets.items():
            mults = table.pop(t) if last_user[t] == gi else table[t]
            trailing = leads[gi]
            out = kept[gi] = []
            for mult in mults:
                # the F5 test, `Packing.divides` inlined: skip mult if a trailing lead divides it
                mg = mult | guard
                for lead in trailing:
                    if (mg - lead) & guard == guard:
                        break
                else:
                    out.append(mult)
        return kept

    def trailing_leads(self, rows, packing: Packing, top: int, bounds, budget):
        """The packed trailing-term leads of each I_<k in the box (`top`,
        `bounds`), k = 0, 1, ...: a fresh `_trailing_term_leads` basis for
        every query."""
        return _trailing_term_leads(rows, packing, top, bounds, budget)


# bytes charged to a `Budget` per packed multiplier: by tracemalloc, building
# the (1,1,1) table of 6,316 packed ints peaks at 66.4 bytes per int, and the
# (2,1,1) table of 811,617 at 66.0; the finished table takes 49
_PACKED_BYTES = 68
# the same per block product a jet ring's table keeps, partial sums and their
# lead masks included: by tracemalloc, the (1,1,1) build's charge is 1.04
# times its traced peak and (2,1,1)'s 1.03 times
_BLOCK_BYTES = 55


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
    by shifts[i]: {target: packed vectors, in no particular order}.

    This is the multiplier table of arbitrary generators, the block table
    of `_JetIdeal.multiplier_table` and the reference its products are
    tested against.  One variable-by-variable pass serves all targets.
    Exponent prefixes with the same remaining degree and partial weights
    share one list of packed prefixes.  Such a state cuts the exponent of
    its variable once, by `_exponent_range`, to the interval after which
    the bounding box of all targets is still in reach, and takes those
    exponents with no test of its own.  The last variable takes whatever
    degree is left, and only the states that hit a target are kept.  Each
    level's states are released as the next level is built.

    `budget`, if given, is charged "multiplier table" as each level grows:
    _PACKED_BYTES per packed prefix of the largest level so far, in whole
    entries, so a table that outgrows the budget stops before it is built.
    """
    nvars = len(shifts)
    if not nvars:  # the empty vector, of degree 0, is the only one
        return {t: [0] if degree == 0 else [] for t in targets}
    lo = [min(t[c] for t in targets) for c in range(len(gradings))]
    hi = [max(t[c] for t in targets) for c in range(len(gradings))]
    states = {(degree, (0,) * len(gradings)): [0]}
    charged = 0
    for i in range(nvars - 1):
        bounds = [
            (w[i], min(w[i + 1 :]), max(w[i + 1 :]), low, high)
            for w, low, high in zip(gradings, lo, hi)
        ]
        col = [w[i] for w in gradings]
        shift = shifts[i]
        nxt: dict = {}
        size = 0
        while states:
            (remaining, partial), prefixes = states.popitem()
            exps = _exponent_range(remaining, partial, bounds)
            if budget is not None:
                size += len(prefixes) * len(exps)
                entries = size * _PACKED_BYTES // budget.BYTES_PER_ENTRY
                if entries > charged:
                    budget.charge(entries - charged, "multiplier table")
                    charged = entries
            for e in exps:
                # weights per e taken: a list for every e <= degree would precede any charge
                if e:
                    part = tuple([s + c * e for s, c in zip(partial, col)])
                    step = e << shift
                    grown = [k + step for k in prefixes]
                else:
                    part, grown = partial, prefixes  # e = 0 comes last: the popped list moves on
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
    return out


def _weight_of(poly: Poly, gradings) -> set:
    """The distinct weights, as tuples, of poly's terms under `gradings`."""
    return {tuple([sum(map(mul, w, mono)) for w in gradings]) for mono in poly.nums}


def _in_box(exps, top: int, bounds) -> bool:
    """Whether exponents `exps` have total degree at most `top` and weight
    at most b under every (w, b) of `bounds`."""
    return sum(exps) <= top and all(sum(map(mul, w, exps)) <= b for w, b in bounds)


def _trailing_term_leads(rows, packing: Packing, top, bounds, budget, dropped=None):
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
    row is charged to `budget`.  `dropped`, if given, gets the exponents of
    each element and of each pair's lcm that the box leaves out, pairs
    counted only once the criteria have kept them: left empty, the yielded
    leads are those of the full basis.
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

    if dropped is None:
        dropped = []

    def add(h):
        lead = min(h)
        new = (h, lead, packing.unpack(lead))
        if not _in_box(new[2], top, bounds):
            dropped.append(new[2])
            return
        if budget is not None:
            budget.charge(len(h), "trailing-term basis")
        fresh = []
        for g in basis:
            exps = tuple(map(max, new[2], g[2]))
            degree = sum(exps)
            coprime = degree == sum(new[2]) + sum(g[2])
            fresh.append((coprime, degree, packing.pack(exps), g, exps))
        # criteria M and F: keep a pair only if no other new pair's lcm
        # divides its lcm; of equal lcms one survives, a coprime one if any.
        # No lcm outside the box divides one inside, so the box is applied
        # after them, and only to what they keep
        kept = []
        while fresh:
            pair = fresh.pop()
            if pair[0] or not any(
                divides(q[2], pair[2]) for q in itertools.chain(fresh, kept)
            ):
                kept.append(pair)
        for coprime, d, l, g, exps in kept:
            if coprime:
                continue  # Buchberger's product criterion
            if _in_box(exps, top, bounds):
                pairs.append((d, l, new, g))
            else:
                dropped.append(exps)
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


class _Component:
    """The graded component of a query p for `gens`, read as
    `homogeneous_membership` reads them, and the certificate of every query
    of that component: of p's degree and of p's weights under the gradings.

    The constructor keeps p's `degree` and `weights`, and the total degree
    `mult_degrees` and weights `targets` of each inserted generator's
    multipliers.  From them alone, never p's terms, it builds `span`, an
    `ExactSpan` charged to `budget` if given, from the multiplier*generator
    rows of the component; `certify(q)` refuses a q outside the component,
    and packs q's terms, reduces them by the span and re-expands the result.

    Rows are inserted generator by generator in `gens.usable` order, each
    generator's multipliers in table order.  A row M*g_k is skipped (the F5
    criterion, Faugere, ISSAC 2002) when M is divisible by the trailing,
    lex-smallest monomial T of some G in the ideal I_<k of the generators
    before g_k.  The leads of a Groebner basis of I_<k for the
    lex-smallest-term order divide every such T (see `_trailing_term_leads`),
    and `gens.trailing_leads` gives those that can divide a multiplier;
    the trailing monomials of the earlier generators are among the T, so
    the Koszul criterion is a special case.  G is homogeneous under the
    gradings, as the generators are.  With c the coefficient of T in G,

        M*g_k = (M/T)*g_k*G / c - sum over the other monomials s of G
                of (c_s / c) * (M/T)*s*g_k.

    Order the rows by generator, then by multiplier in descending lex
    order.  (M/T)*g_k*G is a combination of rows of generators before g_k,
    and each (M/T)*s*g_k has a multiplier of the same weights lex-larger
    than M, as s > T, so all come before M*g_k.  By induction along this
    order every skipped row is a combination of kept rows, so the kept rows
    span the component in whatever order they are inserted.  The argument
    needs only G in I_<k, so a pair the basis drops costs skips, never
    answers.  For a regular sequence, as the jet generators are, the kept
    rows are independent, so the combination over them is unique: were
    sum_j q_j*g_j = 0, each q_j a combination of g_j's kept multipliers,
    with q_k the last nonzero one, then q_k lies in (I_<k : g_k) = I_<k and
    the basis would have skipped q_k's trailing monomial.

    The leads come first, and the F5 test runs where the multipliers are
    made: `gens.multiplier_table`, given the leads, returns {generator
    index: the multipliers the test keeps} for all generators but
    `filtered`, those with the weights a row of p's component needs under
    `gens.gradings`.  These weights fix a multiplier's total degree, since
    the total degree lies in the span of the gradings.  For arbitrary
    generators one pass per distinct multiplier degree lists them all, and
    each is tested lead by lead; the jet generators' are block products,
    and a product is built only if a mask of the leads that divide it, the
    AND of its block factors' masks, which is exact because the blocks are
    disjoint sets of variables, misses g_k's leads.  So the table of a
    regular sequence holds exactly one multiplier per pivot or unit row.
    Each generator's list is popped as its rows are recorded.  The table
    is charged to the budget while it is built, so a budget too small for
    it stops the query before any row is inserted.

    `filtered` is gens.usable[0] if that is a monomial g_0, else None.  The
    rows M*g_0 are the unit vectors of the g_0-divisible columns, all of
    the component's, so those columns are dropped from every other row, and
    by `certify` from q, instead.  Dropping them is the linear projection
    that kills exactly the span of the g_0 rows, so skipped rows stay
    redundant, the same rows become pivots as after the g_0 rows, stored
    projected, and the combination over them, unique, is the same.

    So each multiplier M of the table gives one row: the packed terms of
    M*g_k, negated, less those that g_0 divides by the guard-bit test of
    `Packing`, the test `certify` applies to q.  It reads M only at g_0's
    variables, `mult & fields`, so it runs once per generator and key: the
    terms it keeps, negated, in g_k's term order, are a template that M
    shifts, exact for any monomial g_0.  With no g_0, `fields` is 0 and the
    test runs against a guard bit, which divides nothing.  A row left empty
    is skipped.

    A row left with one term v at column c, a unit row, is v*e_c plus g_0
    rows, so c is a column filter too.  A first pass records it as units[c]
    = (generator index, packed M, v), the first one at c only, as a second
    is dependent, and every other kept row as (generator index, packed M,
    template), charging `Budget` "row feed" per record.  A second inserts
    those rows, unit columns dropped, if not left empty.  That projection
    kills exactly the span of the unit and g_0 rows: the verdict is the
    same, and so is the combination over independent kept rows; off a
    regular sequence it may be another valid one.

    Monomials are packed by `packing`, a `Packing` for deg p: every
    monomial of the component has total degree deg p, so no exponent
    exceeds it.  `cleared` is {generator index: (row, d)}, the row its
    generator's numerators over its denominator d, keyed by packed
    monomials; `units` is keyed by negated packed monomials; the span holds
    M*row negated, less the dropped columns, labelled (generator index,
    packed M).

    `certify` drops q's packed numerators at g_0's columns and at those of
    `units`, and reduces the rest, negated, by the span.  The residual
    s*q - sum of c*M*row, s = scale times q's denominator, is formed from
    the same packed terms.  Each span entry is unpacked once, for its triple,
    with coefficient c*d/s, and its multiplier must have its generator's
    multiplier degree; a field that borrowed or overflowed unpacks to more
    than that, so this is also the sign check.  Each nonzero residual term
    r at the column of a unit row (k, M, v) gives that row's entry,
    coefficient r*d/(s*v), and every other term of its row is divisible by
    g_0.  Then each nonzero residual term r at key, divided by g_0 = a*z^g0,
    is the entry (key - g0, r*d/(s*a)) of g_0's cofactor; a term g_0 does
    not divide raises.  Every entry goes through `take`, which subtracts
    the full row M*row back from the triple's own coefficient, so a wrong
    one is left in the residual.  What is left, all of the residual if
    `filtered` is None, must be zero.  So the certificate is the one a span
    offered g_0's rows, then the unit rows, then the other kept rows, would
    give, re-expanded against q before it is returned.
    """

    __slots__ = ("gens", "degree", "weights", "mult_degrees", "targets", "packing", "cleared",
                 "filtered", "units", "span")

    def __init__(self, p: Poly, gens: _Generators, budget: Budget | None):
        self.gens = gens
        self.degree = degree = p.total_degree()
        self.weights = weights = _weight_of(p, gens.gradings).pop()
        self.packing = packing = Packing(p.ring.nvars, degree)
        self.span = span = ExactSpan(budget=budget)
        guard = packing.guard
        usable = gens.usable
        polys = gens.polys
        self.filtered = filtered = usable[0] if usable and len(polys[usable[0]].nums) == 1 else None
        inserted = usable[1:] if filtered is not None else usable
        self.mult_degrees = mult_degrees = {gi: degree - gens.degrees[gi] for gi in inserted}
        self.targets = targets = {gi: tuple(map(sub, weights, gens.weights[gi])) for gi in inserted}
        self.cleared = cleared = {
            gi: ({packing.pack(m): v for m, v in polys[gi].nums.items()}, polys[gi].denom)
            for gi in usable
        }
        # a lead divides a multiplier only if no grading without negative
        # entries weighs it more, nor does the total degree
        highs = map(max, zip(*targets.values()))
        bounds = [(w, high) for w, high in zip(gens.gradings, highs) if min(w) >= 0]
        top = max(mult_degrees.values(), default=0)
        rows = [row for row, _ in cleared.values()]
        leads = dict(zip(usable, gens.trailing_leads(rows, packing, top, bounds, budget)))
        table = gens.multiplier_table(mult_degrees, targets, packing, budget, leads)
        g0, fields = guard, 0  # a guard bit exceeds every entry, so it divides no packed monomial
        if filtered is not None:
            g0 = next(iter(cleared[filtered][0]))  # the packed monomial g_0
            fields = sum(packing.mask << s for s, e in zip(packing.shifts, packing.unpack(g0)) if e)
        self.units = units = {}  # unit column: (generator index, packed M, coefficient)
        rows = []  # (generator index, packed M, template) of every other kept row
        for gi in inserted:
            row = cleared[gi][0]
            templates = {}
            recorded = len(rows) + len(units)
            for mult in table.pop(gi):
                template = templates.get(mult & fields)
                if template is None:
                    template = templates[mult & fields] = [
                        (-k, v) for k, v in row.items()
                        if (((mult + k) | guard) - g0) & guard != guard
                    ]
                if len(template) > 1:
                    rows.append((gi, mult, template))
                elif template:
                    ((k, v),) = template
                    units.setdefault(k - mult, (gi, mult, v))  # a second unit there is dependent
            if budget is not None:
                budget.charge(len(rows) + len(units) - recorded, "row feed")
        for gi, mult, template in rows:
            # ExactSpan eliminates from its largest key; negated, it works from the
            # lex-smallest, the order that stores far fewer step-history entries
            row = {c: v for k, v in template if (c := k - mult) not in units}
            if row:
                span.insert(row, (gi, mult))

    def certify(self, q: Poly) -> MembershipResult:
        """The verdict on q, a nonzero query of the component, with its
        certificate as sorted (generator index, multiplier, coefficient)
        triples; the span is read, never changed.  A term of q of other
        weights, and so any of another degree, raises DomainError."""
        if not _weight_of(q, self.gens.gradings) <= {self.weights}:
            raise DomainError("query is not in the component")
        packing, cleared, filtered, units = self.packing, self.cleared, self.filtered, self.units
        terms = {packing.pack(m): v for m, v in q.nums.items()}
        query = {-k: v for k, v in terms.items() if -k not in units}
        if filtered is not None:
            ((g0, a),) = cleared[filtered][0].items()
            query = {c: v for c, v in query.items() if not packing.divides(g0, -c)}
        relation = self.span.reduce(query)
        if relation is None:
            return MembershipResult(False, self.degree, None)
        comb, scale = relation
        residual = {k: v * scale for k, v in terms.items()}
        scale *= q.denom
        triples = []

        def take(gi, mult, mono, c):
            # the entry c*M*g_k, subtracted through its own coefficient: c*M*g_k
            # is step*M*row, in ints when c*s/d is whole
            row, d = cleared[gi]
            triples.append((gi, mono, c))
            step, rest = divmod(c.numerator * scale, c.denominator * d)
            if rest:
                step = Fraction(c.numerator * scale, c.denominator * d)
            for k, w in row.items():
                residual[mult + k] = residual.get(mult + k, 0) - step * w

        for (gi, mult), c in comb.items():
            mono = packing.unpack(mult)
            if sum(mono) != self.mult_degrees[gi]:
                raise InvariantViolationError("membership certificate failed re-expansion")
            take(gi, mult, mono, Fraction(c * cleared[gi][1], scale))
        for key in [k for k, v in residual.items() if v and -k in units]:
            gi, mult, v = units[-key]
            # step*v cancels the term at key
            c = Fraction(residual[key] * cleared[gi][1], scale * v)
            take(gi, mult, packing.unpack(mult), c)
        if filtered is not None:
            for key, v in residual.items():
                if not v:
                    continue
                if not packing.divides(g0, key):
                    raise InvariantViolationError(
                        "residual term not divisible by the monomial generator"
                    )
                # step*a cancels the term at key, the only one g_0's row touches
                c = Fraction(v * cleared[filtered][1], scale * a)
                take(filtered, key - g0, packing.unpack(key - g0), c)
        if any(residual.values()):
            raise InvariantViolationError("membership certificate failed re-expansion")
        triples.sort()
        return MembershipResult(True, self.degree, triples)


def homogeneous_membership(
    p: Poly,
    gens,
    budget: Budget | None = None,
) -> MembershipResult:
    """Decide p in span{ M*g : g in gens, M monomial, deg(M*g) = deg(p) }.

    Requires p and every generator homogeneous.  For homogeneous ideals this
    span equals the degree-deg(p) component of the ideal, so the verdict is
    ideal membership.  The verdict comes from one exact elimination over the
    rationals in p's graded component, `_Component`, charged to `budget` if
    given, and a member's certificate is re-expanded against p.

    This entry checks its input, picks the generators of degree at most
    deg p and takes common gradings of them and of p.
    """
    if budget is not None:
        _instance(budget, Budget, "memory budget")
    if not _in_ring(p, None, "membership query").is_homogeneous():
        raise DomainError("membership query must be homogeneous")
    gens = _homogeneous_generators(gens, p.ring)
    if p.is_zero():
        return MembershipResult(True, None, [])
    degree = p.total_degree()
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = _common_gradings([gens[i] for i in usable] + [p], p.ring.nvars)
    return _Component(p, _Generators(gens, usable, gradings), budget).certify(p)


def _homogeneous_generators(gens, ring: Ring) -> tuple:
    """gens as a tuple, or the error for gens that are not a sequence or for
    the first one that is not a nonzero homogeneous polynomial of `ring`."""
    gens = _sequence(gens, "generators")
    for i, g in enumerate(gens):
        if _in_ring(g, ring, "generator %d" % i).is_zero():
            raise DomainError("generator %d is zero" % i)
        if not g.is_homogeneous():
            raise DomainError("generator %d is not homogeneous" % i)
    return gens


def _witness_composition(h) -> Composition:
    """h + e_i for the first i that maximises the witness power (h_i+1)(H-h_i):
    its psi sends x_i^(h_i) to sigma_1 of block i and every other x_k^(h_k) to 1."""
    powers = [(hi + 1) * (sum(h) - hi) for hi in h]
    i = powers.index(max(powers))
    return Composition(hi + (k == i) for k, hi in enumerate(h))


def psi_specialize(p: Poly, h, desc: JetRingDesc) -> Poly:
    """psi of the composition h + e_i that `min_degree_search` refuses with."""
    h = _derivative_tuple(h, _instance(desc, JetRingDesc, "jet ring").n)
    return PsiSpecialization(_witness_composition(h), desc).apply(p)


class _JetIdeal(_Generators):
    """The jet ideal of x_1...x_n of order m as the minimal-degree search
    reads it, made once per (n, m) by `_jet_ideal`: `desc`; g_0..g_m as
    `polys`, checked homogeneous once, every one usable, as all have degree
    n and every query of the search has degree a multiple of n; as their
    gradings, stated, the degree in each block, then the weight, the sum of
    the orders, and what `_Generators` derives from them; `specs`, the
    lazy kernel-checked psi_lambda; and `leads`, None until an elimination
    has found the full trailing-term basis of every I_<k, then its minimal
    leads as exponent tuples, one tuple of them per k.  No field depends on
    a query's degree.
    """

    __slots__ = ("desc", "specs", "leads")

    def __init__(self, n: int, m: int):
        self.desc = desc = JetRingDesc(n, m)
        polys = _homogeneous_generators(jet_generators(None, desc), desc.ring)
        blocks, orders = zip(*map(desc.pair, range(desc.ring.nvars)))
        gradings = [tuple(int(i == b) for i in blocks) for b in range(1, n + 1)] + [orders]
        super().__init__(polys, list(range(len(polys))), gradings)
        self.specs = _Specs(desc, polys)
        self.leads = None

    def multiplier_table(
        self, mult_degrees: dict, targets: dict, packing: Packing, budget, leads: dict
    ) -> dict:
        """The table of `_Generators.multiplier_table` as block products,
        with the F5 test run where the products are made, so that no
        multiplier it rejects is built.  A search's query has degree d+1 in
        every block, so g_k's target is degree d in every block and a
        weight, its last entry.  One `_packed_multipliers` pass lists the
        block monomials of degree d by weight under (1,...,1) and
        (0,1,...,m); block i's are shifted to its fields.

        Each distinct lead of `leads` is one bit, and g_k's leads are one
        mask of them.  Block i's monomial b gets the mask of the leads whose
        block-i part divides b; a lead with no part in block i divides every
        b.  The blocks are disjoint sets of variables, so a lead divides a
        product of block monomials exactly when each of its block parts
        divides that block's factor: the AND of the factors' masks is
        exactly the set of leads that divide the product, and the test is
        the per-lead test of the generic table.  The empty product, key 0
        with mask -1, every lead's bit, the identity of the AND, starts the
        sums, and the blocks but the last are combined by weight into sums
        of packed ints that can still reach a target weight, masks ANDed
        alongside, each list charged "multiplier table" before it is built.
        A last-block factor e completes a sum k to g_k's weight, and k + e
        is kept only if the masks of k, of e and of g_k share no bit: one AND
        per product in place of one test per lead.  Each list of the last
        block is charged for every candidate product before it is built and
        credited the rejected ones after, so the charge never falls behind
        what is built.  With no target, as for m = 0, the table is empty.
        """
        if not targets:
            return {}
        n, width = self.desc.n, self.desc.m + 1
        d = next(iter(targets.values()))[0]
        wanted = {gi: t[-1] for gi, t in targets.items()}
        gradings, top = [(1,) * width, tuple(range(width))], d * (width - 1)
        table = _packed_multipliers(
            d, gradings, [(d, w) for w in range(top + 1)], packing.shifts[:width], budget
        )
        distinct = dict.fromkeys(itertools.chain.from_iterable(leads[gi] for gi in targets))
        bits = {lead: 1 << b for b, lead in enumerate(distinct)}
        guard, span = packing.guard, width * packing.width
        size = charged = 0

        def charge(products):
            nonlocal size, charged
            if budget is not None:
                size += products
                entries = size * _BLOCK_BYTES // budget.BYTES_PER_ENTRY
                budget.charge(entries - charged, "multiplier table")
                charged = entries

        def block(i):
            # {weight: (block i's monomials, their masks)}
            shift = i * span
            field = (1 << span) - 1 << (n - 1 - i) * span
            parts: dict = {}  # block-i part: the bits of the leads that have it
            for lead, bit in bits.items():
                parts[lead & field] = parts.get(lead & field, 0) | bit
            always = parts.pop(0, 0)
            parts = list(parts.items())
            out = {}
            for (_, w), keys in table.items():
                if keys:
                    ends = [k >> shift for k in keys]
                    out[w] = ends, [
                        always | sum([b for t, b in parts if ((e | guard) - t) & guard == guard])
                        for e in ends
                    ]
            return out

        sums = {0: ([0], [-1])}
        for i in range(n - 1):
            rest = (n - 1 - i) * top  # the most weight the blocks after block i add
            nxt: dict = {}
            blk = block(i)
            for s, (keys, masks) in sums.items():
                for w, (ends, end_masks) in blk.items():
                    total = s + w
                    if not any(total <= t <= total + rest for t in wanted.values()):
                        continue
                    charge(len(keys) * len(ends))
                    grown = [k + e for k in keys for e in ends]
                    grown_masks = [a & b for a in masks for b in end_masks]
                    known = nxt.get(total)
                    if known is None:
                        nxt[total] = grown, grown_masks
                    else:
                        known[0].extend(grown)
                        known[1].extend(grown_masks)
            sums = nxt
        last = block(n - 1)
        kept = {}
        for gi, t in wanted.items():
            own = sum(bits[lead] for lead in set(leads[gi]))
            out = kept[gi] = []
            for s, (keys, masks) in sums.items():
                ends = last.get(t - s)
                if ends is None:
                    continue
                ends = [(e, b & own) for e, b in zip(*ends)]
                built, candidates = len(out), len(keys) * len(ends)
                charge(candidates)
                out += [k + e for k, a in zip(keys, masks) for e, b in ends if not a & b]
                charge(len(out) - built - candidates)
        return kept

    def trailing_leads(self, rows, packing: Packing, top: int, bounds, budget):
        """The leads of `_Generators.trailing_leads`, packed from `leads`,
        those of the full basis in the query's box being exactly those of a
        basis truncated to it.  While `leads` is None, they are built in the
        box of the query's degree, top + n, charged "trailing-term basis" to
        `budget` if given, and kept only if the box dropped no element and
        no pair.  A search builds them before its multiplier table, so an
        uncharged build could outrun any budget, as for h = (3,3,3), whose
        first elimination is at degree 25."""
        basis = self.leads
        if basis is None:
            dropped = []
            box = top + self.desc.n
            basis = tuple(
                tuple(map(packing.unpack, leads))
                for leads in _trailing_term_leads(rows, packing, box, [], budget, dropped)
            )
            if not dropped:
                self.leads = basis
        return [[packing.pack(e) for e in exps if _in_box(e, top, bounds)] for exps in basis]


_jet_ideal = lru_cache(maxsize=None)(_JetIdeal)


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

    Each degree is first tried against psi of lambda = h + e_i, i the first
    index maximising (h_i+1)(H-h_i): a nonzero NF_IS(psi(mono)^d) refuses
    it, recorded with a PsiWitness and without elimination.  psi is read
    from the jet ring's record, `_jet_ideal(n, H)`, whose kernel check that
    psi sends every jet generator into I_S runs once per (n, H, lambda),
    when the spec is made, not once per search; so the refusals never rest
    on the degree theorem.  A degree psi cannot refuse (in practice only
    the formula's) goes to the membership oracle, whose exact elimination
    runs on packed-int keys; `budget` applies there only.
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
    if budget is not None:
        _instance(budget, Budget, "memory budget")
    ideal = _jet_ideal(len(h), sum(h))
    mono = derivative_monomial(h, ideal.desc)
    spec = ideal.specs[_witness_composition(h)]
    refusals: dict[int, MembershipResult] = {}
    for d, nf in zip(range(1, cap + 1), _psi_normal_forms(spec, mono)):
        if not nf.is_zero():
            # `degree` is the query's total degree, as for elimination refusals
            refusals[d] = MembershipResult(
                False, d * len(h), None, witness=PsiWitness(spec.lam, nf)
            )
            continue
        try:
            # mono^d, of degree d*n >= n, finds every generator usable; the record's gradings
            # span those `homogeneous_membership` solves for, or for n = 1 a part of them
            query = mono**d
            result = _Component(query, ideal, budget).certify(query)
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

import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetform import jets
from jetform import (
    BudgetExceededError,
    Budget,
    CapExceededError,
    Composition,
    DomainError,
    ExactSpan,
    InvariantViolationError,
    JetRingDesc,
    Monomial,
    Permutation,
    PsiSpecialization,
    RingMismatchError,
    block_rotation,
    block_sigma,
    complete_homogeneous,
    compositions,
    derivative_monomial,
    divided_difference,
    elementary_symmetric,
    groebner_basis_IS,
    homogeneous_membership,
    in_IS,
    jet_generators,
    min_degree_formula,
    min_degree_search,
    minimal_primes,
    monk_expand,
    multiplicity_table,
    nilpotency_order,
    normal_form_IS,
    phi_binary_eval,
    psi_specialize,
    radical_witness,
    zring,
)
from jetform.polyring import Packing, _clear_denominators

from conftest import exponent_vectors, make_rng, random_poly
from test_acceptance import SEARCH_CASES


def test_jet_ring_indexing_bijection():
    desc = JetRingDesc(3, 2)
    assert desc.ring.nvars == 9
    seen = set()
    for i in range(1, 4):
        for j in range(3):
            slot = desc.slot(i, j)
            assert desc.pair(slot) == (i, j)
            seen.add(slot)
    assert seen == set(range(9))
    assert desc.ring.names[desc.slot(2, 1)] == "x2_1"
    with pytest.raises(ValueError):
        desc.slot(4, 0)
    with pytest.raises(ValueError):
        desc.slot(1, 3)


def test_jet_generators_product_m1():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    x10, x11, x20, x21 = (desc.var(1, 0), desc.var(1, 1), desc.var(2, 0), desc.var(2, 1))
    assert gens == [x10 * x20, x10 * x21 + x11 * x20]


def test_jet_generators_single_variable():
    desc = JetRingDesc(1, 3)
    base = desc.base_ring
    gens = jet_generators([base.var(0)], desc)
    assert gens == [desc.var(1, j) for j in range(4)]


def test_jet_generators_product_m2_top_coefficient():
    desc = JetRingDesc(2, 2)
    gens = jet_generators(None, desc)
    assert len(gens) == 3
    expected = (
        desc.var(1, 0) * desc.var(2, 2)
        + desc.var(1, 1) * desc.var(2, 1)
        + desc.var(1, 2) * desc.var(2, 0)
    )
    assert gens[2] == expected


def test_jet_generators_homogeneous_of_base_degree():
    for n, m in [(2, 3), (3, 2)]:
        desc = JetRingDesc(n, m)
        gens = jet_generators(None, desc)
        assert len(gens) == m + 1
        for g in gens:
            assert g.is_homogeneous()
            assert g.total_degree() == n


def test_jet_generators_reject_foreign_ring():
    desc = JetRingDesc(2, 1)
    with pytest.raises(RingMismatchError):
        jet_generators([zring(2).var(0)], desc)


def test_minimal_primes_n2_m1():
    primes = minimal_primes(2, 1)
    assert [p.lam.parts for p in primes] == [(2, 0), (1, 1), (0, 2)]
    assert primes[0].variable_names == ["x1_0", "x1_1"]
    assert primes[1].variable_names == ["x1_0", "x2_0"]
    assert primes[2].variable_names == ["x2_0", "x2_1"]


def test_minimal_primes_counts_and_generator_sizes():
    assert len(minimal_primes(1, 4)) == 1
    assert minimal_primes(1, 4)[0].lam.parts == (5,)
    primes = minimal_primes(3, 2)
    assert len(primes) == 6 * 10 // 6  # C(4,2) = 6 compositions of 3 into 3 parts
    for p in primes:
        assert len(p.generators) == 3


def test_multiplicity_table_values_and_sum():
    table = multiplicity_table(2, 1)
    assert {lam.parts: v for lam, v in table.items()} == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert sum(table.values()) == 4
    assert len(multiplicity_table(1, 5)) == 1
    assert sum(multiplicity_table(3, 2).values()) == 27


# -- membership oracle ---------------------------------------------------------


def test_membership_of_generator():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    result = homogeneous_membership(gens[1], gens)
    assert result.member
    assert result.verify(gens[1], gens)


def test_membership_refusal():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    query = desc.var(1, 1) * desc.var(2, 1)
    result = homogeneous_membership(query, gens)
    assert not result.member
    assert result.combination is None


def test_membership_symmetric_ideal_component():
    ring = zring(2)
    z1 = ring.var(0)
    result = homogeneous_membership(z1**2, list(groebner_basis_IS(2)))
    assert result.member


def test_membership_requires_homogeneous():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    with pytest.raises(ValueError):
        homogeneous_membership(desc.var(1, 0) + desc.ring.one(), gens)
    with pytest.raises(ValueError):
        homogeneous_membership(desc.var(1, 0), [desc.ring.one() + desc.var(1, 1)])


def test_membership_zero_query_is_trivial():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    result = homogeneous_membership(desc.ring.zero(), gens)
    assert result.member and result.combination == []


def test_membership_pruning_matches_unpruned_search():
    # same verdicts and certificates as a full enumeration with no grading
    # constraints
    rng = make_rng(90)
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    ring = desc.ring
    for _ in range(15):
        degree = rng.randint(2, 4)
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        query = ring.from_terms({tuple(exps): Fraction(rng.randint(1, 3))})
        assert homogeneous_membership(query, gens).combination == _plain_certificate(query, gens)


def _weights(gradings, exps):
    return tuple(sum(w * e for w, e in zip(row, exps)) for row in gradings)


@st.composite
def multiplier_queries(draw):
    """A degree, weight rows with negative entries (like the mixed grading
    (-4,-3,-2,-1,0,...,1) of the (2,1,1) elimination) and a target set that
    mixes weights some vector reaches with arbitrary ones.  Some rows weigh
    a variable as the min or the max of their weights on the later ones, so
    that one of its interval bounds does not depend on the exponent."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    degree = draw(st.integers(min_value=0, max_value=5))
    weight = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.tuples(*[weight] * nvars), min_size=1, max_size=3))
    rows = [list(w) for w in rows]
    if nvars > 1:
        ties = st.tuples(
            st.integers(min_value=0, max_value=len(rows) - 1),
            st.integers(min_value=0, max_value=nvars - 2),
            st.sampled_from([min, max]),
        )
        for c, i, pick in draw(st.lists(ties, max_size=4)):
            rows[c][i] = pick(rows[c][i + 1 :])
    gradings = list(dict.fromkeys(tuple(w) for w in rows))
    vectors = exponent_vectors(nvars, degree)
    reached = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=4))
    targets = {_weights(gradings, v) for v in reached}
    targets |= set(draw(st.lists(st.tuples(*[weight] * len(gradings)), max_size=2)))
    return degree, gradings, targets


def _packed_multipliers_by_exponent(degree, gradings, targets, shifts) -> dict:
    """Reference for `jets._packed_multipliers`: the same pass over the same
    states, but each exponent of each state is tested against the box of
    targets one by one."""
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


@given(multiplier_queries())
def test_packed_multipliers_match_brute_force(query):
    degree, gradings, targets = query
    nvars = len(gradings[0])
    width = max(degree, 1).bit_length()
    shifts = [width * (nvars - 1 - i) for i in range(nvars)]
    expected = {t: [] for t in targets}
    # exponent_vectors runs in descending lex order, so packed keys descend
    for v in exponent_vectors(nvars, degree):
        t = _weights(gradings, v)
        if t in expected:
            expected[t].append(sum(e << s for e, s in zip(v, shifts)))
    got = jets._packed_multipliers(degree, gradings, targets, shifts)
    assert got == expected
    assert list(got.items()) == list(
        _packed_multipliers_by_exponent(degree, gradings, targets, shifts).items()
    )
    for keys in got.values():
        assert all(a > b for a, b in zip(keys, keys[1:]))


@st.composite
def exponent_range_cases(draw):
    """A state (remaining degree, partial weights) and per-grading bounds
    (w, a, b, lo, hi) with a <= b and lo <= hi; w often equals a or b, so
    that an inequality does not depend on the exponent."""
    remaining = draw(st.integers(min_value=0, max_value=6))
    small = st.integers(min_value=-4, max_value=4)
    partial, bounds = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        a, b = sorted(draw(st.tuples(small, small)))
        w = draw(st.one_of(small, st.just(a), st.just(b)))
        low, high = sorted(draw(st.tuples(*[st.integers(min_value=-20, max_value=20)] * 2)))
        partial.append(draw(st.integers(min_value=-12, max_value=12)))
        bounds.append((w, a, b, low, high))
    return remaining, partial, bounds


@settings(max_examples=1000)
@given(exponent_range_cases())
def test_exponent_range_is_the_set_the_box_test_keeps(case):
    remaining, partial, bounds = case
    kept = [
        e
        for e in range(remaining, -1, -1)
        if all(
            s + w * e + (remaining - e) * a <= high and s + w * e + (remaining - e) * b >= low
            for s, (w, a, b, low, high) in zip(partial, bounds)
        )
    ]
    assert list(jets._exponent_range(remaining, partial, bounds)) == kept


def test_packed_multipliers_match_reference_on_oracle_calls(monkeypatch):
    calls = []
    enumerate_ = jets._packed_multipliers

    def recording(degree, gradings, targets, shifts, budget=None):
        got = enumerate_(degree, gradings, targets, shifts, budget)
        calls.append(((degree, gradings, targets, shifts), list(got.items())))
        return got

    monkeypatch.setattr(jets, "_packed_multipliers", recording)
    for h in _oracle_tuples():
        min_degree_search(h)
    assert len(calls) == 37
    for call, got in calls:
        assert got == list(_packed_multipliers_by_exponent(*call).items())


def test_membership_certificates_reexpand():
    rng = make_rng(17)
    ring = zring(3)
    basis = list(groebner_basis_IS(3))
    for _ in range(10):
        p = random_poly(ring, rng, max_deg=3, terms=4)
        target = p - normal_form_IS(p)
        for comp in target.homogeneous_components().values():
            if comp.is_zero():
                continue
            res = homogeneous_membership(comp, basis)
            assert res.member
            assert res.verify(comp, basis)


def test_membership_certificate_is_over_generators_with_denominators():
    # the elimination sees each generator with its denominators cleared; the
    # certificate is scaled back to the generators themselves
    z1, z2 = zring(2).gens()
    gens = [z1.scale(Fraction(1, 2)) + z2.scale(Fraction(1, 3)), (z1 * z2).scale(Fraction(2, 5))]
    query = z1 * z2 * gens[0] + (z1 * gens[1]).scale(3)
    result = homogeneous_membership(query, gens)
    assert result.member
    assert result.verify(query, gens)


def test_verify_rejects_entries_outside_the_generators_and_the_ring():
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    query = desc.var(1, 1) * desc.var(2, 1)
    assert not homogeneous_membership(query, gens).member
    # x1_0^-1*x1_1*x2_0^-1*x2_1 times g_0 = x1_0*x2_0 is the query
    assert not jets.MembershipResult(True, 2, [(0, Monomial((-1, 1, -1, 1)), 1)]).verify(query, gens)
    one = Monomial((0, 0, 0, 0))
    assert jets.MembershipResult(True, 2, [(1, one, 1)]).verify(gens[1], gens)
    # index -1 would name g_1, index 2 no generator; a fifth exponent
    # would be dropped by the product with g_1's terms
    for gi, mono in [(-1, one), (2, one), (1, Monomial((0, 0, 0))), (1, Monomial((0, 0, 0, 0, 7)))]:
        assert not jets.MembershipResult(True, 2, [(gi, mono, 1)]).verify(gens[1], gens)


def test_budget_abort():
    desc = JetRingDesc(2, 2)
    gens = jet_generators(None, desc)
    mono = derivative_monomial((1, 1), desc)
    with pytest.raises(BudgetExceededError):
        homogeneous_membership(mono**3, gens, budget=Budget(0.0001))


def _sympy_expr(sympy, p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, mono.exps)))
            for mono, c in p.terms.items()
        )
    )


def test_membership_matches_sympy_groebner_at_width_boundaries():
    # the packed keys use deg(p).bit_length() bits per exponent, below one
    # guard bit; 1, 7, 8, 15 and 16 sit on both sides of the 1-, 3-, 4- and
    # 5-bit boundaries
    import sympy

    rng = make_rng(4242)
    desc = JetRingDesc(2, 1)
    ring = desc.ring
    gens = jet_generators(None, desc)
    symbols = sympy.symbols(ring.names)
    basis = sympy.groebner(
        [_sympy_expr(sympy, g, symbols) for g in gens], *symbols, order="lex", domain="QQ"
    )

    def random_monomial(degree):
        exps = [0] * ring.nvars
        for _ in range(degree):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        return ring.from_terms({tuple(exps): coeff})

    verdicts = set()
    for degree in (1, 7, 8, 15, 16):
        for trial in range(6):
            query = ring.zero()
            if degree >= 2 and trial % 2 == 0:
                for _ in range(3):
                    g = gens[rng.randrange(len(gens))]
                    mult = random_monomial(degree - g.total_degree())
                    query = query + g * mult
            if trial % 3 != 2:
                query = query + random_monomial(degree)
            if query.is_zero():
                continue
            result = homogeneous_membership(query, gens)
            _, rem = basis.reduce(_sympy_expr(sympy, query, symbols))
            assert result.member == (rem == 0), (degree, query)
            if result.member:
                assert result.verify(query, gens)
            verdicts.add((degree, result.member))
    assert {member for _, member in verdicts} == {True, False}
    assert {degree for degree, _ in verdicts} == {1, 7, 8, 15, 16}


class _RecordingSpan(ExactSpan):
    """An ExactSpan that records the label of every row it is offered."""

    def __init__(self):
        super().__init__()
        self.labels = []

    def insert(self, row, label):
        self.labels.append(label)
        return super().insert(row, label)


def _pivot_rows(span):
    return [
        (lead, list(piv.terms.items()), list(piv.hist.items()))
        for lead, piv in span.pivots.items()
    ]


def _skipped_rows_are_redundant(p, gens, multipliers) -> int:
    """Run the oracle's elimination of p, which skips rows by the F5
    criterion, and beside it a span offered every row the oracle would see
    without that criterion, in the same order: generators in index order,
    each generator's multipliers of the query's weights in descending lex
    order, drawn from `multipliers(degree)`, exponent vectors of that
    degree in descending lex order, keyed by the oracle's `_columns`.  When
    the first usable generator g_0 is a monomial, the oracle sees no row
    M*g_0 and no g_0-divisible column, and rows left empty are not offered;
    so neither does this reference.  Check that each row the oracle skipped
    leaves the reference span unchanged and that both spans end with the
    same pivots and histories, in dict order.  Check also that the oracle's
    certificate, as `_certificate` completes and re-expands it, is the one
    a third span gives, offered every row, g_0's included, with no column
    dropped.  Returns the number of skipped rows."""
    degree = p.total_degree()
    nvars = p.ring.nvars
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    filtered = usable[0] if len(gens[usable[0]].terms) == 1 else None
    gradings = jets._common_gradings([gens[i] for i in usable] + [p], nvars)
    kept = _RecordingSpan()
    relation, packing, cleared = jets._solve_membership(p, gens, usable, gradings, kept, filtered)

    shifts = packing.shifts
    target = _weights(gradings, next(iter(p.terms)))
    g0 = next(iter(gens[filtered].terms)) if filtered is not None else None
    full = ExactSpan()
    plain = ExactSpan()
    offered = iter(kept.labels)
    next_kept = next(offered, None)
    skipped = 0
    for gi in usable:
        g = gens[gi]
        grow, denom = _clear_denominators(g.terms)
        g_weights = _weights(gradings, next(iter(g.terms)))
        for exps in multipliers(degree - g.total_degree()):
            weights = tuple(a + b for a, b in zip(_weights(gradings, exps), g_weights))
            if weights != target:
                continue
            mult = Monomial(exps)
            label = (gi, sum(e << s for e, s in zip(exps, shifts)))
            terms = {m * mult: v for m, v in grow.items()}
            plain.insert(jets._columns(terms, packing), (gi, mult, denom))
            if g0 is not None:
                if gi == usable[0]:
                    continue
                terms = {m: v for m, v in terms.items() if not g0.divides(m)}
                if not terms:
                    continue
            enlarged = full.insert(jets._columns(terms, packing), label)
            if label == next_kept:
                next_kept = next(offered, None)
            else:
                assert not enlarged, ("skipped row enlarged the span", label)
                skipped += 1
    # every row the oracle inserted came up, in the oracle's order
    assert next_kept is None
    assert _pivot_rows(kept) == _pivot_rows(full)
    p_row, p_denom = _clear_denominators(p.terms)
    plain_relation = plain.reduce(jets._columns(p_row, packing))
    assert (relation is None) == (plain_relation is None)
    if relation is not None:
        comb, scale = plain_relation
        assert jets._certificate(p, gens, relation, packing, cleared, filtered) == sorted(
            (gi, mult, Fraction(c * denom, scale * p_denom))
            for (gi, mult, denom), c in comb.items()
        )
    return skipped


@pytest.mark.parametrize("h", [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2)])
def test_koszul_skipped_rows_are_redundant_on_oracle_tuples(h):
    desc = JetRingDesc(len(h), sum(h))
    d = min_degree_formula(h)
    query = derivative_monomial(h, desc) ** d
    # a jet generator has degree 1 in each base variable's block, so every
    # multiplier has degree d-1 in each block; the product of the blocks'
    # descending lists descends in lex order
    blocks = exponent_vectors(sum(h) + 1, d - 1)

    def multipliers(degree):
        assert degree == len(h) * (d - 1)
        for parts in itertools.product(blocks, repeat=len(h)):
            yield tuple(e for part in parts for e in part)

    assert _skipped_rows_are_redundant(query, jet_generators(None, desc), multipliers) > 0


@st.composite
def homogeneous_systems(draw, monomial_first=False):
    """Up to three homogeneous generators of degree 1 to 3 in two to four
    variables, and a homogeneous query of degree up to 4: half the time a
    combination of multiples of the generators, so usually a member.  With
    `monomial_first`, the first generator is one term with a rational
    coefficient."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    ring = zring(nvars)
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)

    def homogeneous(degree, max_terms):
        monos = draw(
            st.lists(
                st.sampled_from(exponent_vectors(nvars, degree)),
                min_size=1,
                max_size=max_terms,
                unique=True,
            )
        )
        return ring.from_terms({m: Fraction(draw(coeff)) for m in monos})

    gens = [
        homogeneous(draw(st.integers(min_value=1, max_value=3)), 1 if monomial_first and i == 0 else 3)
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    if monomial_first:
        gens[0] = gens[0].scale(draw(st.fractions(-3, 3, max_denominator=4).filter(bool)))
    degree = draw(st.integers(min_value=max(1, min(g.total_degree() for g in gens)), max_value=4))
    query = homogeneous(degree, 4)
    if draw(st.booleans()):
        query = ring.zero()
        for g in gens:
            if g.total_degree() <= degree:
                query = query + g * homogeneous(degree - g.total_degree(), 2)
        if query.is_zero():
            query = homogeneous(degree, 4)
    return query, gens


@given(homogeneous_systems())
def test_koszul_skipped_rows_are_redundant_on_generic_systems(system):
    query, gens = system
    nvars = query.ring.nvars
    _skipped_rows_are_redundant(query, gens, lambda degree: exponent_vectors(nvars, degree))


def test_no_offered_row_reduces_to_zero_on_oracle_tuples(monkeypatch):
    # the jet generators form a regular sequence, so the F5 criterion skips
    # every row that would reduce to zero (Faugere, ISSAC 2002)
    spans = _record_spans(monkeypatch)
    for h in _oracle_tuples():
        if len(h) > 3 or sum(h) > 3:
            continue
        desc = JetRingDesc(len(h), sum(h))
        query = derivative_monomial(h, desc) ** min_degree_formula(h)
        del spans[:]
        assert homogeneous_membership(query, jet_generators(None, desc)).member
        (span,) = spans
        assert len(span.labels) == span.rank > 0, h


def _record_spans(monkeypatch) -> list:
    """Make the oracle build `_RecordingSpan`s; returns the list of them."""
    spans = []

    class RecordingSpan(_RecordingSpan):
        def __init__(self, *args, **kwargs):
            super().__init__()
            spans.append(self)

    monkeypatch.setattr(jets, "ExactSpan", RecordingSpan)
    return spans


def _plain_certificate(p, gens):
    """The combination of p from a plain ExactSpan keyed by Monomial and
    offered every row M*g, g_0's included, in the oracle's order: generators
    in index order, each one's multipliers of every weight in descending
    lex order; None for a non-member.  Rows of other weights lie in other
    graded components, so the rows that become pivots in p's component, and
    the combination over them, are the oracle's."""
    degree = p.total_degree()
    span = ExactSpan()
    for gi, g in enumerate(gens):
        if g.total_degree() > degree:
            continue
        grow, denom = _clear_denominators(g.terms)
        for exps in exponent_vectors(p.ring.nvars, degree - g.total_degree()):
            mult = Monomial(exps)
            span.insert({m * mult: v for m, v in grow.items()}, (gi, mult, denom))
    p_row, p_denom = _clear_denominators(p.terms)
    relation = span.reduce(p_row)
    if relation is None:
        return None
    comb, scale = relation
    return [
        (gi, mult, Fraction(c * denom, scale * p_denom))
        for (gi, mult, denom), c in sorted(comb.items())
    ]


@pytest.mark.parametrize("coeff", [Fraction(2), Fraction(1, 3), Fraction(-3, 2)])
def test_monomial_g0_with_a_coefficient_gets_a_scaled_cofactor(coeff):
    x, y = zring(2).gens()
    gens = [(x * y).scale(coeff), x**2 + y**2]
    # x^2*g_1 + 6*x*y^3; the row x*y*g_1 is all g_0-divisible
    query = x**4 + x**2 * y**2 + (x * y**3).scale(6)
    result = homogeneous_membership(query, gens)
    assert result.combination == [
        (0, Monomial((0, 2)), 6 / coeff),
        (1, Monomial((2, 0)), Fraction(1)),
    ]
    assert result.verify(query, gens)
    assert result.combination == _plain_certificate(query, gens)


def test_query_of_g0_multiples_has_only_g0_in_its_certificate(monkeypatch):
    spans = _record_spans(monkeypatch)
    x, y = zring(2).gens()
    gens = [x * y, x**2 + y**2]
    query = x**2 * y + (x * y**2).scale(3)
    result = homogeneous_membership(query, gens)
    assert result.combination == [(0, Monomial((0, 1)), 3), (0, Monomial((1, 0)), 1)]
    assert result.combination == _plain_certificate(query, gens)
    # g_1's rows x*g_1 and y*g_1 were offered, as x^3 and y^3
    (span,) = spans
    assert [gi for gi, _ in span.labels] == [1, 1] and span.rank == 2


def test_generator_whose_rows_all_project_to_nothing_offers_no_row(monkeypatch):
    spans = _record_spans(monkeypatch)
    x, y = zring(2).gens()
    gens = [x * y, x**2 * y + x * y**2]  # g_1 = (x + y)*g_0
    query = x**3 * y + x**2 * y**2
    result = homogeneous_membership(query, gens)
    assert result.combination == [(0, Monomial((1, 1)), 1), (0, Monomial((2, 0)), 1)]
    assert result.combination == _plain_certificate(query, gens)
    (span,) = spans
    assert span.labels == []


def test_monomial_generator_is_filtered_only_when_first_usable(monkeypatch):
    spans = _record_spans(monkeypatch)
    x, y = zring(2).gens()
    query = x**3 * y + x**2 * y**2 + x * y**3
    # not first: x*y keeps its rows
    gens = [x**2 + y**2, x * y]
    result = homogeneous_membership(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    assert {gi for gi, _ in spans[-1].labels} == {0, 1}
    # first usable, after a generator above the query's degree: filtered
    gens = [x**5, x * y, x**2 + y**2]
    result = homogeneous_membership(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    assert {gi for gi, _ in spans[-1].labels} == {2}


def test_residual_that_g0_does_not_divide_raises(monkeypatch):
    class DroppingSpan(ExactSpan):
        # loses one entry of every combination
        def reduce(self, row):
            comb, scale = super().reduce(row)
            return dict(list(comb.items())[1:]), scale

    monkeypatch.setattr(jets, "ExactSpan", DroppingSpan)
    x, y = zring(2).gens()
    gens = [x * y, x**2 + y**2]
    with pytest.raises(InvariantViolationError, match="residual"):
        homogeneous_membership(x**2 * gens[1], gens)


@pytest.mark.parametrize(
    "order, message",
    [((0, 1), "not divisible by the monomial generator"), ((1, 0), "failed re-expansion")],
)
def test_wrong_coefficient_from_the_span_raises(monkeypatch, order, message):
    class OffByOneSpan(ExactSpan):
        # adds one to the coefficient of the largest label of every combination
        def reduce(self, row):
            comb, scale = super().reduce(row)
            comb[max(comb)] += 1
            return comb, scale

    x, y = zring(2).gens()
    gens = [(x * y).scale(Fraction(1, 3)), x**2 + y**2]
    gens = [gens[i] for i in order]  # g_0 = x*y/3 first, filtered, or second, as rows
    query = x**4 + x**2 * y**2 + (x * y**3).scale(6)
    assert homogeneous_membership(query, gens).member
    monkeypatch.setattr(jets, "ExactSpan", OffByOneSpan)
    with pytest.raises(InvariantViolationError, match=message):
        homogeneous_membership(query, gens)


def test_g0_cofactor_missing_its_denominator_raises(monkeypatch):
    # g_0 = x*y/3 has d_0 = 3; a cofactor made without it, each coefficient
    # a third of the right one, fails its subtraction through g_0's row
    x, y = zring(2).gens()
    gens = [(x * y).scale(Fraction(1, 3)), x**2 + y**2]
    query = x**4 + x**2 * y**2 + (x * y**3).scale(6)
    assert homogeneous_membership(query, gens).member
    monkeypatch.setattr(jets, "Fraction", lambda num, den: Fraction(num, 3 * den))
    with pytest.raises(InvariantViolationError, match="failed re-expansion"):
        homogeneous_membership(query, gens)


@given(homogeneous_systems(monomial_first=True))
def test_filtered_certificates_match_a_span_offered_every_row(system):
    query, gens = system
    result = homogeneous_membership(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    if result.member and result.combination:
        # the certificate check agrees with `verify` on a wrong certificate:
        # it completes the elimination's part with g_0's cofactor, and
        # raises when one of that part's coefficients is wrong
        gi, mono, c = result.combination[-1]
        wrong = result.combination[:-1] + [(gi, mono, c + 1)]
        assert not jets.MembershipResult(True, result.degree, wrong).verify(query, gens)
        usable = [i for i, g in enumerate(gens) if g.total_degree() <= result.degree]
        filtered = usable[0] if len(gens[usable[0]].terms) == 1 else None
        gradings = jets._common_gradings([gens[i] for i in usable] + [query], query.ring.nvars)
        relation, packing, cleared = jets._solve_membership(
            query, gens, usable, gradings, ExactSpan(), filtered
        )
        cert = jets._certificate(query, gens, relation, packing, cleared, filtered)
        assert cert == result.combination
        comb, _ = relation
        if comb:
            comb[max(comb)] += 1
            with pytest.raises(InvariantViolationError):
                jets._certificate(query, gens, relation, packing, cleared, filtered)


@given(homogeneous_systems())
def test_certificate_refuses_each_wrong_coefficient_on_generic_systems(system):
    # the first generator is mostly not a monomial here, so no g_0 cofactor
    # is recovered and only the final check of the residual sees a wrong
    # coefficient: one added to any entry of the packed combination leaves
    # s*(p - sum c*M*g) nonzero, or a term g_0 does not divide
    query, gens = system
    degree = query.total_degree()
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    filtered = usable[0] if usable and len(gens[usable[0]].terms) == 1 else None
    gradings = jets._common_gradings([gens[i] for i in usable] + [query], query.ring.nvars)
    relation, packing, cleared = jets._solve_membership(
        query, gens, usable, gradings, ExactSpan(), filtered
    )
    if relation is None:
        return
    cert = jets._certificate(query, gens, relation, packing, cleared, filtered)
    assert cert == homogeneous_membership(query, gens).combination
    comb, scale = relation
    for key in comb:
        wrong = dict(comb)
        wrong[key] += 1
        with pytest.raises(InvariantViolationError):
            jets._certificate(query, gens, (wrong, scale), packing, cleared, filtered)


def test_oracle_offers_no_g0_row(monkeypatch):
    # g_0 = x_1^(0)...x_n^(0) is a monomial, so its columns are dropped: the
    # 37 spans hold 33,323 pivots, not the 63,302 of inserting its rows
    spans = _record_spans(monkeypatch)
    for h in _oracle_tuples():
        min_degree_search(h)
    assert len(spans) == 37
    assert all(gi != 0 for span in spans for gi, _ in span.labels)
    assert sum(span.rank for span in spans) == sum(len(span.labels) for span in spans) == 33323


def test_oracle_enumerates_no_g0_multiplier(monkeypatch):
    # g_0's rows are replaced by a column filter, so the multiplier table
    # never holds g_0's list, and each nonempty list it holds goes to a
    # generator whose rows are offered
    calls = []
    enumerate_ = jets._packed_multipliers

    def recording(degree, gradings, targets, shifts, budget=None):
        got = enumerate_(degree, gradings, targets, shifts, budget)
        calls.append((gradings, set(targets), {t for t, keys in got.items() if keys}))
        return got

    monkeypatch.setattr(jets, "_packed_multipliers", recording)
    spans = _record_spans(monkeypatch)
    for h in _oracle_tuples():
        del calls[:], spans[:]
        desc = JetRingDesc(len(h), sum(h))
        gens = jet_generators(None, desc)
        query = derivative_monomial(h, desc) ** min_degree_search(h).degree
        ((gradings, targets, filled),) = calls
        (span,) = spans

        def target(g):
            ends = (next(iter(query.terms)), next(iter(g.terms)))
            return tuple(a - b for a, b in zip(*(_weights(gradings, e) for e in ends)))

        assert target(gens[0]) not in targets, h
        offered = {target(gens[gi]) for gi, _ in span.labels}
        assert filled <= offered, h


def _check_trailing_term_leads(gens, tops, boxes=([],)):
    """For every prefix of `gens`, every truncation degree in `tops` and
    every weight box in `boxes` (a list of (grading, bound) pairs, as the
    `bounds` of `_trailing_term_leads`), the leads `_trailing_term_leads`
    yields equal those of sympy's reduced grevlex basis over the reversed
    variables that have degree at most top and weight at most b under
    every (w, b) of the box: on homogeneous input that order's leading term
    is the lex-smallest."""
    import sympy

    ring = gens[0].ring
    symbols = sympy.symbols(ring.names)
    reversed_symbols = symbols[::-1]
    expected = [[]]
    for k in range(1, len(gens)):
        basis = sympy.groebner(
            [_sympy_expr(sympy, g, symbols) for g in gens[:k]],
            *reversed_symbols,
            order="grevlex",
            domain="QQ",
        )
        expected.append(
            [
                sympy.Poly(e, *reversed_symbols).monoms(order="grevlex")[0][::-1]
                for e in basis.exprs
            ]
        )
    for top in tops:
        packing = Packing(ring.nvars, max(top, *(g.total_degree() for g in gens)))

        def pack(exps):
            return sum(e << s for e, s in zip(exps, packing.shifts))

        rows = [{pack(m): v for m, v in _clear_denominators(g.terms)[0].items()} for g in gens]
        for bounds in boxes:
            got = list(jets._trailing_term_leads(rows, packing, top, bounds, None))
            assert len(got) == len(gens)
            for leads, monos in zip(got, expected):
                want = [
                    pack(m)
                    for m in monos
                    if sum(m) <= top and all(sum(map(mul, w, m)) <= b for w, b in bounds)
                ]
                assert sorted(leads) == sorted(want), (top, bounds, monos)


@pytest.mark.parametrize("n, H", [(n, H) for n in (1, 2, 3) for H in (1, 2, 3)] + [(2, 4)])
def test_trailing_term_leads_match_sympy_grevlex(n, H):
    # sympy's reduced bases of these prefixes have degree at most 7, so
    # top 7 is complete and top n+1 truncates
    _check_trailing_term_leads(jet_generators(None, JetRingDesc(n, H)), sorted({n + 1, 7}))


@pytest.mark.parametrize("n, H", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_trailing_term_leads_in_weight_boxes_match_sympy_grevlex(n, H):
    # the oracle's weight boxes: each grading of the jet generators without
    # negative entries, with every bound from 1 to 3
    gens = jet_generators(None, JetRingDesc(n, H))
    gradings = [w for w in jets._common_gradings(gens, gens[0].ring.nvars) if min(w) >= 0]
    boxes = [
        list(zip(gradings, bs)) for bs in itertools.product(range(1, 4), repeat=len(gradings))
    ]
    _check_trailing_term_leads(gens, sorted({n + 1, 7}), boxes)


@st.composite
def small_homogeneous_generators(draw):
    """One to three homogeneous generators of degree 1 to 3 in one to four
    variables, with coefficients in [-3, 3]."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    ring = zring(nvars)
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        degree = draw(st.integers(min_value=1, max_value=3))
        monos = draw(
            st.lists(
                st.sampled_from(exponent_vectors(nvars, degree)),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        gens.append(ring.from_terms({m: Fraction(draw(coeff)) for m in monos}))
    return gens


@settings(deadline=None)
@given(small_homogeneous_generators(), st.integers(min_value=1, max_value=5))
def test_trailing_term_leads_match_sympy_grevlex_on_generic_systems(gens, top):
    _check_trailing_term_leads(gens, [top])


# full sha256 of json.dumps(cert.to_json(ring), sort_keys=True) for three
# degree-7 searches with n=3, H=4
STRETCH_CERTIFICATE_SHA256 = {
    (2, 1, 1): "5f4516809cbf0b7fb935e0d5a91bf5c8e71f98a14531dd5b3dfe76da1bf79ef9",
    (2, 2, 0): "da2db9f430f7dffb2c361d227e1a75a0cfaaa98b191370b44a5e698863b4af71",
    (3, 1, 0): "a5b44a95d6f24e86380c0815f3ba63ebe7fba0ea10b8603cfe8b19cc090329a3",
}


@pytest.mark.parametrize("h", sorted(STRETCH_CERTIFICATE_SHA256))
def test_stretch_certificates_are_pinned(h):
    result = min_degree_search(h)
    assert result.degree == 7
    ring = JetRingDesc(len(h), sum(h)).ring
    payload = json.dumps(result.certificate.to_json(ring), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == STRETCH_CERTIFICATE_SHA256[h]


@st.composite
def packed_divisibility_cases(draw):
    """A degree at a field-width boundary, an exponent vector m with
    entries up to it, and one to three vectors t, each either drawn freely
    or clipped to divide m."""
    degree = draw(st.sampled_from([1, 3, 4, 7, 8, 15, 16]))
    nvars = draw(st.integers(min_value=1, max_value=5))
    entries = st.lists(
        st.integers(min_value=0, max_value=degree), min_size=nvars, max_size=nvars
    )
    m = draw(entries)
    ts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        t = draw(entries)
        if draw(st.booleans()):
            t = [min(a, b) for a, b in zip(t, m)]
        ts.append(t)
    return degree, m, ts


@given(packed_divisibility_cases())
def test_guard_bit_divisibility_matches_componentwise_comparison(case):
    degree, m, ts = case
    packing = Packing(len(m), degree)

    def pack(exps):
        return sum(e << s for e, s in zip(exps, packing.shifts))

    divided = any(all(a >= b for a, b in zip(m, t)) for t in ts)
    kept = list(jets._undivided([pack(m)], [pack(t) for t in ts], packing.guard))
    assert kept == ([] if divided else [pack(m)])


# -- witnesses -----------------------------------------------------------------


def test_phi_examples():
    desc = JetRingDesc(2, 3)
    h = (2, 1)
    assert phi_binary_eval(derivative_monomial(h, desc), h, desc) == 1
    assert phi_binary_eval(desc.ring.one(), h, desc) == 1
    gens = jet_generators(None, desc)
    for g in gens[: sum(h)]:
        assert phi_binary_eval(g, h, desc) == 0


def test_radical_witness_values():
    assert radical_witness((1, 1))
    assert radical_witness((2, 1))
    assert radical_witness((3,))
    with pytest.raises(ValueError):
        radical_witness((0,))
    with pytest.raises(ValueError):
        radical_witness((0, 0))


def test_psi_block_assignment_and_monomial_image():
    desc = JetRingDesc(2, 2)
    spec = PsiSpecialization((1, 1), desc)
    assert spec.lam.parts == (2, 1)
    assert spec.sorted_indices == (1, 2)
    ring = zring(3)
    image = psi_specialize(derivative_monomial((1, 1), desc), (1, 1), desc)
    assert image == ring.var(0) + ring.var(1)


def test_psi_kills_high_derivatives():
    desc = JetRingDesc(2, 4)
    spec = PsiSpecialization((1, 1), desc)
    # lambda = (2, 1): x1^(j) for j > 2 maps to zero
    assert spec.apply(desc.var(1, 3)).is_zero()
    assert spec.apply(desc.var(1, 2)) == spec.target.one()


def test_psi_puts_largest_witness_power_first():
    desc = JetRingDesc(2, 3)
    spec = PsiSpecialization((2, 1), desc)
    # the power (h_i+1)(H-h_i) is 3 at h=2 and 4 at h=1, so index 2 leads
    assert spec.sorted_indices == (2, 1)
    assert spec.lam.parts == (2, 2)
    image = psi_specialize(derivative_monomial((2, 1), desc), (2, 1), desc)
    ring = zring(4)
    assert image == ring.var(0) + ring.var(1)


def test_psi_kernel_contains_jet_generators():
    def tuples(n, total):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in tuples(n - 1, total - first):
                yield (first,) + rest

    for n in (1, 2, 3):
        for total in range(0, 6):
            for h in tuples(n, total):
                desc = JetRingDesc(n, total)
                for g in jet_generators(None, desc):
                    assert in_IS(psi_specialize(g, h, desc))


def test_psi_witness_power_is_nonzero():
    for h in [(1, 1), (2, 1), (1, 1, 1)]:
        desc = JetRingDesc(len(h), sum(h))
        image = psi_specialize(derivative_monomial(h, desc), h, desc)
        d = min_degree_formula(h) - 1
        assert not normal_form_IS(image**d).is_zero()
        assert normal_form_IS(image ** (d + 1)).is_zero()


# -- minimal degree -------------------------------------------------------------


def test_min_degree_formula_values():
    assert min_degree_formula((1, 1)) == 3
    assert min_degree_formula((2, 2)) == 7
    assert min_degree_formula((0, 0, 0)) == 1
    assert min_degree_formula((1, 0)) == 2
    assert min_degree_formula((2, 1)) == 5
    with pytest.raises(ValueError):
        min_degree_formula(())


def test_min_degree_search_small():
    assert min_degree_search((0, 0)).degree == 1
    for h in [(1, 0), (0, 1), (2, 0), (0, 2)]:
        assert min_degree_search(h).degree == min_degree_formula(h)
    result = min_degree_search((1, 0))
    assert result.degree == 2
    assert result.refusals[1].member is False
    result = min_degree_search((1, 1))
    assert result.degree == 3
    assert result.degree == min_degree_formula((1, 1))
    assert set(result.refusals) == {1, 2}
    # the certificate is checked on construction; confirm once more by hand
    desc = JetRingDesc(2, 2)
    gens = jet_generators(None, desc)
    mono = derivative_monomial((1, 1), desc)
    assert result.certificate.verify(mono**3, gens)
    truncated = jets.MembershipResult(True, 6, result.certificate.combination[:-1])
    assert not truncated.verify(mono**3, gens)


def test_min_degree_search_cap():
    with pytest.raises(CapExceededError) as info:
        min_degree_search((1, 1), cap=2)
    assert info.value.lower_bound == 3


def test_min_degree_refusals_carry_psi_witnesses():
    for h in SEARCH_CASES:
        result = min_degree_search(h)
        desc = JetRingDesc(len(h), sum(h))
        spec = PsiSpecialization(h, desc)
        mono = derivative_monomial(h, desc)
        assert sorted(result.refusals) == list(range(1, result.degree))
        for d, refusal in result.refusals.items():
            assert refusal.member is False and refusal.combination is None
            assert refusal.degree == (mono**d).total_degree()
            assert refusal.witness.lam == spec.lam
            assert refusal.witness.normal_form == normal_form_IS(psi_specialize(mono**d, h, desc))
            assert not refusal.witness.normal_form.is_zero()


def test_min_degree_search_without_psi_falls_back_to_elimination(monkeypatch):
    expected = {h: min_degree_search(h) for h in SEARCH_CASES}
    monkeypatch.setattr(
        jets,
        "_psi_normal_forms",
        lambda spec, gens, mono: itertools.repeat(spec.target.zero()),
    )
    for h in SEARCH_CASES:
        result = min_degree_search(h)
        assert result.degree == expected[h].degree
        assert sorted(result.refusals) == sorted(expected[h].refusals)
        assert all(r.witness is None and not r.member for r in result.refusals.values())
        assert result.certificate.combination == expected[h].certificate.combination


def test_min_degree_search_rejects_psi_that_misses_a_generator(monkeypatch):
    real_apply = PsiSpecialization.apply

    def apply(self, p):
        image = real_apply(self, p)
        return image + self.target.var(self.target.nvars - 1) ** p.total_degree()

    monkeypatch.setattr(PsiSpecialization, "apply", apply)
    with pytest.raises(InvariantViolationError):
        min_degree_search((1, 1))


def _monomial_key_certificate(h):
    """The certificate of the formula degree from an ExactSpan keyed by
    Monomial, with multipliers enumerated block by block: each base
    variable's block carries degree d-1, and the weight sum of j * e over
    x_i^(j)^e must make up d*H - k for the t^k generator."""
    H = sum(h)
    desc = JetRingDesc(len(h), H)
    gens = jet_generators(None, desc)
    d = min_degree_formula(h)
    query = derivative_monomial(h, desc) ** d
    blocks = exponent_vectors(H + 1, d - 1)
    span = ExactSpan()
    for k, g in enumerate(gens):
        assert all(c.denominator == 1 for c in g.terms.values())
        row = _clear_denominators(g.terms)[0]
        for parts in itertools.product(blocks, repeat=len(h)):
            if sum(j * e for part in parts for j, e in enumerate(part)) != d * H - k:
                continue
            mult = Monomial(tuple(e for part in parts for e in part))
            span.insert({m * mult: v for m, v in row.items()}, (k, mult))
    comb, scale = span.reduce(_clear_denominators(query.terms)[0])
    return [(k, mult, Fraction(c, scale)) for (k, mult), c in sorted(comb.items())]


def test_packed_keys_give_the_monomial_key_certificates():
    for h in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 3)]:
        assert min_degree_search(h).certificate.combination == _monomial_key_certificate(h)


def _oracle_tuples():
    out = []
    for n, H in [(n, H) for n in (1, 2, 3) for H in (1, 2, 3)] + [(1, 4), (2, 4)]:
        out.extend(h for h in itertools.product(range(H + 1), repeat=n) if sum(h) == H)
    return out


# sha256 of the canonical JSON of every tuple's answer: degree, certificate
# and refusals, as `_oracle_answer` lays them out
ORACLE_ANSWERS_SHA256 = "94fe3107ea4430b5bdb76be2343b1705baf815198f0897b708cc0a5b06ce979d"


def _oracle_answer(h, result) -> dict:
    ring = JetRingDesc(len(h), sum(h)).ring
    return {
        "h": list(h),
        "degree": result.degree,
        "certificate": result.certificate.to_json(ring),
        "refusals": {str(d): r.to_json(ring) for d, r in sorted(result.refusals.items())},
    }


def test_oracle_table_runs_one_elimination_per_search(monkeypatch):
    built = []
    answers = []

    class CountingSpan(ExactSpan):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(jets, "ExactSpan", CountingSpan)
    tuples = _oracle_tuples()
    assert len(tuples) == 37
    for h in tuples:
        del built[:]
        result = min_degree_search(h)
        assert len(built) == 1, h
        assert result.degree == min_degree_formula(h)
        assert sorted(result.refusals) == list(range(1, result.degree))
        assert all(r.witness is not None for r in result.refusals.values())
        answers.append(_oracle_answer(h, result))
    canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ORACLE_ANSWERS_SHA256


def test_psi_refusals_are_the_nonzero_powers_of_sigma_1():
    # on every oracle tuple psi(mono) is sigma_1 of the first block, so the
    # psi refusals stop one below its nilpotency order
    for h in _oracle_tuples():
        desc = JetRingDesc(len(h), sum(h))
        spec = PsiSpecialization(h, desc)
        sigma = block_sigma(spec.lam, 1, 1)
        assert spec.apply(derivative_monomial(h, desc)) == sigma
        refusals = min_degree_search(h).refusals
        psi = sorted(d for d, r in refusals.items() if r.witness is not None)
        assert psi == list(range(1, nilpotency_order(sigma, spec.lam, 1))), h


def test_budget_estimate_tracks_traced_peak_memory():
    h = (2, 2)
    min_degree_search(h)  # fill the lru caches, such as _jet_ring and _packed_rules, untraced
    budget = Budget(None)
    tracemalloc.start()
    try:
        min_degree_search(h, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 <= budget.entries * Budget.BYTES_PER_ENTRY / peak <= 1.33


def test_min_degree_budget_reports_partial_result():
    with pytest.raises(BudgetExceededError) as info:
        min_degree_search((1, 1), budget=Budget(0.0001))
    assert info.value.partial == {"refused": [1, 2], "psi_certified": [1, 2], "lower_bound": 3}


def test_min_degree_budget_stops_the_multiplier_table():
    # the (2,1,1) table holds 811,617 packed multipliers; a budget of
    # 6,553 entries must stop it while it is built, before any span row
    with pytest.raises(BudgetExceededError) as info:
        min_degree_search((2, 1, 1), budget=Budget(1))
    assert "multiplier table" in str(info.value)
    assert info.value.partial["refused"] == [1, 2, 3, 4, 5, 6]
    assert info.value.partial["lower_bound"] == 7


def test_compositions_descending_lex():
    lams = compositions(2, 2)
    assert [c.parts for c in lams] == [(2, 0), (1, 1), (0, 2)]
    assert len(compositions(3, 3)) == 10


@pytest.mark.parametrize(
    "call",
    [
        lambda: JetRingDesc(0, 1),
        lambda: JetRingDesc(2, -1),
        lambda: multiplicity_table(2, -1),
        lambda: min_degree_formula(()),
        lambda: min_degree_search((1, 1), cap=0),
        lambda: radical_witness((0, 0)),
        lambda: homogeneous_membership(zring(2).var(0) + zring(2).one(), []),
        lambda: groebner_basis_IS(0),
        lambda: zring(2).var(0) ** -1,
        lambda: Budget(-1),
        lambda: Budget(float("nan")),
        lambda: Budget(float("inf")),
        lambda: compositions(-1, 2),
        # a size that is not an integer is refused, not truncated
        lambda: Composition([2.7, 1]),
        lambda: Permutation([1.5, 2]),
        lambda: JetRingDesc(2.5, 1),
        lambda: multiplicity_table(2, 1.5),
        lambda: zring(2.5),
        lambda: min_degree_search((1, 1), cap=2.5),
        lambda: nilpotency_order(zring(2).var(0), Composition((1, 1)), block=1.0),
        lambda: compositions(2.5, 2),
        lambda: groebner_basis_IS(1.5),
        # nor is an index or a degree
        lambda: Permutation.identity(2.5),
        lambda: Permutation.longest(2.5),
        lambda: Permutation.simple(1.5, 3),
        lambda: Permutation.transposition(1.0, 2, 3),
        lambda: monk_expand(1.5, Permutation.identity(3)),
        lambda: divided_difference(zring(3).var(0), 1.5),
        lambda: block_rotation(3, 1.5),
        lambda: complete_homogeneous(1.5, 1, 2),
        lambda: elementary_symmetric(zring(2), 1.0, [0, 1]),
        lambda: block_sigma(Composition((1, 1)), 1.0, 1),
        lambda: JetRingDesc(2, 1).slot(1.0, 0),
        lambda: JetRingDesc(2, 1).pair(1.0),
        lambda: JetRingDesc(2, 1).var(1.0, 0),
        # an index is checked at both ends
        lambda: zring(2).var(-1),
        lambda: zring(2).var(2),
        lambda: zring(2).var(2.0),
        lambda: zring(2).var(0).swap_vars(-1, 0),
        lambda: (zring(2).var(0) * zring(2).var(1) ** 2).permute_vars([0, 0]),
        lambda: Composition((1, 1)).block(0),
        lambda: Composition((1, 1)).block(3),
        lambda: Composition((1, 1)).prefix(0),
        lambda: Permutation([2, 1, 3])(0),
        lambda: Permutation([2, 1, 3]).swap_positions(0, 1),
        lambda: elementary_symmetric(zring(2), 1, [-1]),
        lambda: elementary_symmetric(zring(2), 1, [0.5, 1]),
        lambda: block_sigma(Composition((1, 1)), 3, 1),
        lambda: zring(2).var(0) ** 2.0,
        # a repeated variable index would answer for a lower degree
        lambda: elementary_symmetric(zring(3), 2, [0, 0]),
        lambda: elementary_symmetric(zring(3), 1, [1, 1]),
        # an exponent is an index too, never a float
        lambda: zring(2).from_terms({(1.5, 0): 1}),
        lambda: normal_form_IS(zring(2).from_terms({(1.0, 0): 1}), 2),
        lambda: zring(2).from_terms({(-1, 0): 1}),
        lambda: zring(2).monomial((0, 1.0)),
        # a budget that is not a number is refused, not compared
        lambda: Budget("5"),
        lambda: Budget(1j),
        lambda: Budget([1]),
    ],
)
def test_domain_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_legal_budgets_construct():
    assert Budget(None).limit_entries is None
    assert Budget(0).limit_entries == 0
    assert Budget(0.5).limit_entries == (1 << 19) // Budget.BYTES_PER_ENTRY


# each index argument: a call that takes it, and its least and largest
# legal values
_INDEX_ARGUMENTS = {
    "Ring.var": (lambda i: zring(3).var(i), 0, 2),
    "Poly.swap_vars": (lambda i: zring(2).var(0).swap_vars(0, i), 0, 1),
    "Composition.block": (lambda i: Composition((1, 2)).block(i), 1, 2),
    "Composition.prefix": (lambda i: Composition((1, 2)).prefix(i), 1, 3),
    "Permutation.__call__": (lambda i: Permutation([2, 1, 3])(i), 1, 3),
    "Permutation.swap_positions": (lambda j: Permutation([2, 1, 3]).swap_positions(1, j), 1, 3),
    "Permutation.simple": (lambda i: Permutation.simple(i, 3), 1, 2),
    "Permutation.transposition": (lambda k: Permutation.transposition(1, k, 3), 1, 3),
    "monk_expand": (lambda r: monk_expand(r, Permutation.identity(3)), 1, 2),
    "divided_difference": (lambda i: divided_difference(zring(3).var(0), i), 1, 2),
    "block_rotation": (lambda lam1: block_rotation(3, lam1), 0, 3),
    "complete_homogeneous": (lambda k: complete_homogeneous(2, k, 3), 1, 3),
    "elementary_symmetric degree": (lambda d: elementary_symmetric(zring(3), d, [0, 2]), 1, 2),
    "elementary_symmetric index": (lambda i: elementary_symmetric(zring(3), 1, [i]), 0, 2),
    "block_sigma block": (lambda i: block_sigma(Composition((1, 2)), i, 1), 1, 2),
    "block_sigma degree": (lambda j: block_sigma(Composition((1, 2)), 2, j), 1, 2),
    "nilpotency_order": (
        lambda b: nilpotency_order(zring(3).var(1) + zring(3).var(2), Composition((1, 2)), b),
        1,
        2,
    ),
    "JetRingDesc.slot base": (lambda i: JetRingDesc(2, 1).slot(i, 0), 1, 2),
    "JetRingDesc.slot order": (lambda j: JetRingDesc(2, 1).slot(1, j), 0, 1),
    "JetRingDesc.pair": (lambda slot: JetRingDesc(2, 1).pair(slot), 0, 3),
}


@pytest.mark.parametrize("entry", sorted(_INDEX_ARGUMENTS))
def test_index_arguments_are_refused_below_above_and_as_floats(entry):
    call, least, most = _INDEX_ARGUMENTS[entry]
    call(most)
    for bad in (-1, least - 1, most + 1, float(most)):
        with pytest.raises(DomainError):
            call(bad)


def test_largest_legal_index_still_answers():
    assert str(zring(3).var(2)) == "z3"
    assert Composition((1, 2)).prefix(3) == 3
    assert Permutation([2, 1, 3])(3) == 3
    assert JetRingDesc(2, 1).pair(3) == (2, 1)
    assert str(block_sigma(Composition((1, 2)), 2, 2)) == "z2*z3"


_DESC = JetRingDesc(2, 3)
# each entry point that takes a derivative tuple, and whether it takes a
# jet ring whose n fixes the tuple's length
_DERIVATIVE_ENTRY_POINTS = {
    "min_degree_formula": (min_degree_formula, False),
    "min_degree_search": (min_degree_search, False),
    "radical_witness": (radical_witness, False),
    "derivative_monomial": (lambda h: derivative_monomial(h, _DESC), True),
    "phi_binary_eval": (lambda h: phi_binary_eval(_DESC.ring.one(), h, _DESC), True),
    "PsiSpecialization": (lambda h: PsiSpecialization(h, _DESC), True),
}


@pytest.mark.parametrize(
    "entry, h",
    [
        (entry, h)
        for entry, (_, takes_desc) in _DERIVATIVE_ENTRY_POINTS.items()
        for h in [(), (2.5, 1), (2.7, 1), (1.0, 2), ("1", 2), (-1, 2), 3]
        + ([(1, 1, 1)] if takes_desc else [])
    ],
)
def test_derivative_tuples_are_refused_alike(entry, h):
    call, _ = _DERIVATIVE_ENTRY_POINTS[entry]
    with pytest.raises(DomainError):
        call(h)


def test_ring_mismatch_is_a_domain_error():
    assert issubclass(RingMismatchError, DomainError)
    assert issubclass(DomainError, ValueError)

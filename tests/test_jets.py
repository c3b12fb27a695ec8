import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetform import jetring, jets, symfun
from jetform import (
    BudgetExceededError,
    Budget,
    CapExceededError,
    Composition,
    DomainError,
    ExactSpan,
    InvariantViolationError,
    JetRingDesc,
    MinimalPrime,
    Monomial,
    Permutation,
    Poly,
    PsiSpecialization,
    Ring,
    RingMismatchError,
    alpha_map,
    block_elementary_ring,
    block_rotation,
    block_sigma,
    c_lambda_ring,
    complete_homogeneous,
    compositions,
    derivative_monomial,
    dim_A_lambda,
    divide,
    divided_difference,
    elementary_symmetric,
    expand_block_elementary,
    groebner_basis_IS,
    homogeneous_membership,
    jet_generators,
    min_degree_formula,
    min_degree_search,
    minimal_primes,
    monk_expand,
    multiplicity_table,
    nilpotency_order,
    normal_form_IS,
    parse_poly,
    phi_binary_eval,
    psi_specialize,
    radical_witness,
    schubert_expansion,
    schubert_poly,
    sym_lambda_average,
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


def test_membership_in_the_ring_of_no_variables():
    # a nonzero constant is a unit there, so any generator answers; the
    # first is the monomial g_0, and the second has only its empty multiplier
    point = Ring(())
    query = point.const(2)
    for gens in ([point.const(3)], [point.const(3), point.const(5)]):
        result = homogeneous_membership(query, gens)
        assert result.member and result.degree == 0
        assert result.combination == [(0, Monomial(()), Fraction(2, 3))]
        assert result.verify(query, gens)


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


def _sorted_table(table) -> list:
    """A multiplier table's (target, keys) pairs, each target's keys in
    descending order, after checking that no target lists a key twice: the
    oracle reads the keys as a set, in any order."""
    for keys in table.values():
        assert len(set(keys)) == len(keys)
    return [(t, sorted(keys, reverse=True)) for t, keys in table.items()]


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
    got = _sorted_table(jets._packed_multipliers(degree, gradings, targets, shifts))
    assert dict(got) == expected
    assert got == list(_packed_multipliers_by_exponent(degree, gradings, targets, shifts).items())


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
        calls.append(((degree, gradings, targets, shifts), _sorted_table(got)))
        return got

    monkeypatch.setattr(jets, "_packed_multipliers", recording)
    for h in _oracle_tuples():
        min_degree_search(h)
    assert len(calls) == 37
    for call, got in calls:
        assert got == list(_packed_multipliers_by_exponent(*call).items())


def _check_kept_multipliers(record, mult_degrees, targets, packing, leads, got):
    """Check a jet ring's table `got` against the reference of
    `_Generators.multiplier_table`, the generic pass followed by the
    per-multiplier F5 test against each generator's `leads`: for each
    generator, the same multipliers, none listed twice."""
    want = jets._Generators.multiplier_table(record, mult_degrees, targets, packing, None, leads)
    assert got.keys() == want.keys() == targets.keys()
    for gi, keys in got.items():
        assert len(set(keys)) == len(keys) and set(keys) == set(want[gi]), gi


def _check_record_enumerations(monkeypatch, tuples) -> list:
    """Search every tuple of `tuples`, each jet ring's record cleared first,
    and check each elimination's two enumerations by the record against
    the per-query reference of `_Generators`: the multipliers the F5 test
    keeps per generator as sets, and the packed trailing-term leads of each
    I_<k as sets.  Returns, per elimination, whether the record's leads
    were kept before it."""
    table_, leads_ = jets._JetIdeal.multiplier_table, jets._JetIdeal.trailing_leads
    reused = []

    def table(record, mult_degrees, targets, packing, budget, leads):
        got = table_(record, mult_degrees, targets, packing, budget, leads)
        _check_kept_multipliers(record, mult_degrees, targets, packing, leads, got)
        return got

    def leads(record, rows, packing, top, bounds, budget):
        reused.append(record.leads is not None)
        got = leads_(record, rows, packing, top, bounds, budget)
        want = list(jets._trailing_term_leads(rows, packing, top, bounds, None))
        assert list(map(sorted, got)) == list(map(sorted, want))
        return got

    monkeypatch.setattr(jets._JetIdeal, "multiplier_table", table)
    monkeypatch.setattr(jets._JetIdeal, "trailing_leads", leads)
    jets._jet_ideal.cache_clear()
    try:
        for h in tuples:
            min_degree_search(h)
    finally:
        jets._jet_ideal.cache_clear()
    return reused


def test_jet_ring_enumerations_match_the_reference_on_oracle_calls(monkeypatch):
    # the 37 searches fall into 11 jet rings, each of whose records keeps
    # its full basis from its first elimination
    reused = _check_record_enumerations(monkeypatch, _oracle_tuples())
    assert len(reused) == 37 and sum(reused) == 26


@pytest.mark.stretch
def test_jet_ring_enumerations_match_the_reference_on_stretch_calls(monkeypatch):
    reused = _check_record_enumerations(monkeypatch, sorted(STRETCH_CERTIFICATE_SHA256))
    assert reused == [False, True, True]


@st.composite
def jet_component_queries(draw):
    """A jet ring with n <= 3, m <= 3 and a monomial query of one degree d
    <= 4 in every block, any weight."""
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=3))
    d = draw(st.integers(min_value=1, max_value=4))
    exps = []
    for _ in range(n):
        block = [0] * (m + 1)
        for _ in range(d):
            block[draw(st.integers(min_value=0, max_value=m))] += 1
        exps += block
    return n, m, Monomial(exps)


@given(jet_component_queries(), st.data())
def test_jet_ring_multiplier_table_matches_the_generic_pass(query, data):
    # each generator's leads are those of the truncated trailing-term basis
    # of the query's box plus up to three drawn monomials, so leads of any
    # shape, with parts in any set of blocks, meet the block masks
    n, m, mono = query
    record = jets._jet_ideal(n, m)
    p = Poly(record.desc.ring, {mono: 1})
    nvars = len(mono)
    packing = Packing(nvars, p.total_degree())
    weights = _weights(record.gradings, mono)
    targets = {
        gi: tuple(a - b for a, b in zip(weights, record.weights[gi])) for gi in record.usable
    }
    mult_degrees = {gi: p.total_degree() - record.degrees[gi] for gi in record.usable}
    rows = [{packing.pack(k): v for k, v in g.nums.items()} for g in record.polys]
    top = p.total_degree() - n
    basis = jets._trailing_term_leads(rows, packing, top, [], None)
    exponent = st.integers(min_value=0, max_value=min(2, p.total_degree()))
    drawn = st.lists(st.tuples(*[exponent] * nvars), max_size=3)
    leads = {
        gi: list(dict.fromkeys(trailing + [packing.pack(e) for e in data.draw(drawn) if any(e)]))
        for gi, trailing in zip(record.usable, basis)
    }
    got = record.multiplier_table(mult_degrees, targets, packing, None, leads)
    _check_kept_multipliers(record, mult_degrees, targets, packing, leads, got)


def test_no_jet_search_takes_the_generic_multiplier_table(monkeypatch):
    # every jet ring, n = 1 and the m = 0 ring with no inserted generator
    # included, builds its table as block products; the generic pass is
    # left to `homogeneous_membership` and to the reference above
    calls = []
    generic = jets._Generators.multiplier_table

    def counting(*args):
        calls.append(args)
        return generic(*args)

    monkeypatch.setattr(jets._Generators, "multiplier_table", counting)
    for h in [(0,), (3,), (1, 0), (2, 1), (1, 1, 1)]:
        min_degree_search(h)
    assert not calls


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
    refused = homogeneous_membership(query, gens)
    assert not refused.member and not refused.verify(query, gens)
    # x1_0^-1*x1_1*x2_0^-1*x2_1 times g_0 = x1_0*x2_0 is the query
    assert not jets.MembershipResult(True, 2, [(0, Monomial((-1, 1, -1, 1)), 1)]).verify(query, gens)
    one = Monomial((0, 0, 0, 0))
    assert jets.MembershipResult(True, 2, [(1, one, 1)]).verify(gens[1], gens)
    # index -1 would name g_1, index 2 no generator; a fifth exponent
    # would be dropped by the product with g_1's terms
    for gi, mono in [(-1, one), (2, one), (1, Monomial((0, 0, 0))), (1, Monomial((0, 0, 0, 0, 7)))]:
        assert not jets.MembershipResult(True, 2, [(gi, mono, 1)]).verify(gens[1], gens)


def test_verify_fails_an_exponent_or_index_that_is_not_an_int():
    # x1_0 * g_0 in the (2, 1) jet ring, re-verified with the multiplier's
    # exponents, then the generator index, turned into floats: each entry
    # names nothing of p's ring, so verify answers False and raises nothing
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    query = desc.var(1, 0) * gens[0]
    result = homogeneous_membership(query, gens)
    assert result.member and result.verify(query, gens)
    floats = [(gi, Monomial(map(float, mono)), c) for gi, mono, c in result.combination]
    assert not jets.MembershipResult(True, result.degree, floats).verify(query, gens)
    index = [(float(gi), mono, c) for gi, mono, c in result.combination]
    assert not jets.MembershipResult(True, result.degree, index).verify(query, gens)


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

    def __init__(self, budget=None):
        super().__init__(budget)
        self.labels = []

    def insert(self, row, label):
        self.labels.append(label)
        return super().insert(row, label)


class _BumpingSpan(ExactSpan):
    """An ExactSpan whose `reduce` keeps its relation in `relation` and,
    once `bump` is set to a label, returns it with one added to that
    label's coefficient."""

    bump = None

    def reduce(self, row):
        self.relation = super().reduce(row)
        if self.relation is None or self.bump is None:
            return self.relation
        comb, scale = self.relation
        return {**comb, self.bump: comb[self.bump] + 1}, scale


def _component(p, gens, span=ExactSpan):
    """The oracle's `_Component` of p, its generators read as
    `homogeneous_membership` reads them, with a `span` for its span."""
    degree = p.total_degree()
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = jets._common_gradings([gens[i] for i in usable] + [p], p.ring.nvars)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jets, "ExactSpan", span)
        return jets._Component(p, jets._Generators(gens, usable, gradings), None)


def _pivot_rows(span):
    return [
        (lead, list(piv.terms.items()), list(piv.hist.items()))
        for lead, piv in span.pivots.items()
    ]


def _skipped_rows_are_redundant(p, gens, multipliers) -> int:
    """Run the oracle's elimination of p, which skips rows by the F5
    criterion, and beside it a span that gets the rows the oracle inserted,
    in the oracle's recorded order, then every row the oracle skipped.  The
    rows are each usable generator's multipliers of the query's weights,
    drawn from `multipliers(degree)` in any order, keyed by negated packed
    monomials as the oracle inserts them.  When the first usable generator
    g_0 is a monomial, the oracle sees no row M*g_0 and no g_0-divisible
    column, and rows left empty are not offered; so neither does this
    reference.  Nor does it see the unit columns of the `_Component`:
    check that each unit is a row the oracle did not insert, one term
    once g_0's columns drop, that term at its column, and drop those
    columns from the reference rows too.  Check that the oracle inserted
    each offered row at most once, that both spans end with the same
    pivots and histories, in dict order, and that no skipped row changes
    the span.  Check also that the oracle's certificate, as `certify`
    reduces p against the oracle's span and completes and re-expands it,
    is the one a third span gives, with no column dropped, offered g_0's
    rows first, then the unit rows, then the rows the oracle inserted in
    its order, then the rest.  Returns the number of skipped rows."""
    degree = p.total_degree()
    component = _component(p, gens, _RecordingSpan)
    kept, packing, units = component.span, component.packing, component.units
    usable, gradings, filtered = component.gens.usable, component.gens.gradings, component.filtered

    def columns(terms):
        return {-packing.pack(mono): v for mono, v in terms.items()}

    shifts = packing.shifts
    target = _weights(gradings, next(iter(p.terms)))
    g0 = next(iter(gens[filtered].terms)) if filtered is not None else None
    offered = {}  # label: the row the oracle would insert, projected
    every = {}  # label: (the row with no column dropped, the plain span's label)
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
            every[label] = (columns(terms), (gi, mult, denom))
            if g0 is not None:
                if gi == usable[0]:
                    continue
                terms = {m: v for m, v in terms.items() if not g0.divides(m)}
                if not terms:
                    continue
            offered[label] = columns(terms)
    inserted = set(kept.labels)
    assert len(inserted) == len(kept.labels) and inserted <= set(offered)
    unit_rows = [(gi, mult) for gi, mult, _ in units.values()]
    recorded = inserted | set(unit_rows)
    assert len(recorded) == len(inserted) + len(units)
    for column, (gi, mult, v) in units.items():
        assert offered[gi, mult] == {column: v}

    def projected(label):
        return {k: v for k, v in offered[label].items() if k not in units}

    full = ExactSpan()
    for label in kept.labels:
        row = projected(label)
        assert row
        full.insert(row, label)
    skipped = [label for label in offered if label not in recorded]
    for label in skipped:
        assert not full.insert(projected(label), label), ("skipped row enlarged the span", label)
    assert _pivot_rows(kept) == _pivot_rows(full)
    first = [label for label in every if label[0] == filtered] + unit_rows + kept.labels
    taken = set(first)
    plain = ExactSpan()
    for label in first + [label for label in every if label not in taken]:
        plain.insert(*every[label])
    p_row, p_denom = _clear_denominators(p.terms)
    plain_relation = plain.reduce(columns(p_row))
    certificate = component.certify(p).combination
    assert (certificate is None) == (plain_relation is None)
    if certificate is not None:
        comb, scale = plain_relation
        assert certificate == sorted(
            (gi, mult, Fraction(c * denom, scale * p_denom))
            for (gi, mult, denom), c in comb.items()
        )
    return len(skipped)


@pytest.mark.parametrize("h", [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2)])
def test_koszul_skipped_rows_are_redundant_on_oracle_tuples(h):
    desc = JetRingDesc(len(h), sum(h))
    d = min_degree_formula(h)
    query = derivative_monomial(h, desc) ** d
    # a jet generator has degree 1 in each base variable's block, so every
    # multiplier has degree d-1 in each block
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
        assert len(span.labels) == span.rank and span.rank + len(span.units) > 0, h


def _record_spans(monkeypatch) -> list:
    """Make the oracle build `_RecordingSpan`s, each given as `units` the
    unit table of the `_Component` that builds it; returns the list of
    them."""
    spans = []
    init = jets._Component.__init__

    class RecordingSpan(_RecordingSpan):
        def __init__(self, *args, **kwargs):
            super().__init__()
            spans.append(self)

    def init_keeping_units(component, *args):
        init(component, *args)
        component.span.units = component.units

    monkeypatch.setattr(jets, "ExactSpan", RecordingSpan)
    monkeypatch.setattr(jets._Component, "__init__", init_keeping_units)
    return spans


def _row_generators(span) -> set:
    """The generators of the rows a recorded span was offered or took as units."""
    return {gi for gi, _ in span.labels} | {gi for gi, _, _ in span.units.values()}


def _plain_certificate(p, gens):
    """The combination of p from a plain ExactSpan keyed by Monomial and
    offered every row M*g, g_0's included: generators in index order, each
    one's multipliers of every weight in descending lex order; None for a
    non-member.  Rows of other weights lie in other graded components.  In
    this order each row the oracle skips follows the rows it is a
    combination of, so the oracle's kept rows, when independent, become the
    pivots of p's component, and the combination over them, unique, is the
    oracle's.  Kept rows can be dependent only when the generators are not
    a regular sequence; the oracle may then give another valid one."""
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
    # g_1's rows x*g_1 and y*g_1 project to x^3 and y^3: unit columns, not rows
    (span,) = spans
    packing = Packing(2, 3)
    assert span.labels == [] and span.rank == 0
    assert span.units == {
        -packing.pack((3, 0)): (1, packing.pack((1, 0)), 1),
        -packing.pack((0, 3)): (1, packing.pack((0, 1)), 1),
    }


def test_non_squarefree_g0_projects_each_row_by_its_exponents_not_its_support(monkeypatch):
    # g_0 = x^2*y: whether g_0 divides M*t depends on M's exponent of x, not
    # only on whether x divides M.  x*z and x^2 have the same support on
    # g_0's variables, but x*z*g_1 keeps x*y*z^2 and x*z^3, where x^2*g_1
    # keeps only x^2*z^2
    spans = _record_spans(monkeypatch)
    x, y, z = zring(3).gens()
    gens = [x**2 * y, x * y + y * z + z**2]
    query = (x**2 + x * z + y * z) * gens[1]
    result = homogeneous_membership(query, gens)
    assert result.member and result.verify(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    (span,) = spans
    packing = Packing(3, 4)
    # x*z*g_1 is offered as a row of two terms; x^2*g_1 keeps x^2*z^2 alone, a unit
    (row,) = [piv.terms for piv in span.pivots.values() if piv.label == (1, packing.pack((1, 0, 1)))]
    assert row == {-packing.pack((1, 1, 2)): 1, -packing.pack((1, 0, 3)): 1}
    assert span.units[-packing.pack((2, 0, 2))] == (1, packing.pack((2, 0, 0)), 1)


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
    # not first: x*y keeps its rows, each of them a unit
    gens = [x**2 + y**2, x * y]
    result = homogeneous_membership(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    assert _row_generators(spans[-1]) == {0, 1}
    # first usable, after a generator above the query's degree: filtered
    gens = [x**5, x * y, x**2 + y**2]
    result = homogeneous_membership(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    assert _row_generators(spans[-1]) == {2}


def test_residual_that_g0_does_not_divide_raises(monkeypatch):
    class DroppingSpan(ExactSpan):
        # loses one entry of every combination
        def reduce(self, row):
            comb, scale = super().reduce(row)
            return dict(list(comb.items())[1:]), scale

    monkeypatch.setattr(jets, "ExactSpan", DroppingSpan)
    x, y, z = zring(3).gens()
    gens = [x * y, x**2 + z**2]  # x^2*g_1 is the row x^4 + x^2*z^2
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

    gens, query = _g0_with_a_denominator()
    gens = [gens[i] for i in order]  # g_0 = x*y/3 first, filtered, or second, as unit rows
    assert homogeneous_membership(query, gens).member
    monkeypatch.setattr(jets, "ExactSpan", OffByOneSpan)
    with pytest.raises(InvariantViolationError, match=message):
        homogeneous_membership(query, gens)


def test_certificate_refuses_a_multiplier_one_field_unit_off(monkeypatch):
    # a span entry whose packed multiplier M is one unit of the last field
    # off, as a borrowed or overflowed field leaves it, unpacks to a
    # multiplier without its generator's multiplier degree; the certificate
    # refuses it while it walks the span's combination, before every entry
    # is taken, not only at the residual
    x, y, z = zring(3).gens()
    gens = [x**2 + y * z, y**2 + x * z]
    query = x * gens[0] + (z * gens[1]).scale(2)
    assert homogeneous_membership(query, gens).member
    reduce = ExactSpan.reduce

    def off_by_one(self, row):
        comb, scale = reduce(self, row)
        gi, mult = max(comb)
        comb[gi, mult + 1] = comb.pop((gi, mult))
        return comb, scale

    monkeypatch.setattr(ExactSpan, "reduce", off_by_one)
    message = "membership certificate failed re-expansion"
    with pytest.raises(InvariantViolationError, match=message) as info:
        homogeneous_membership(query, gens)
    frame = info.traceback[-1]
    assert frame.name == "certify"
    assert len(frame.locals["triples"]) < len(frame.locals["comb"])


def _g0_with_a_denominator():
    """g_0 = x*y/3 and g_1 = x^2 + z^2, and the member x^2*g_1 + 18*z^2*g_0:
    the span holds rows of two terms, such as x^2*g_1, and the unit rows
    y^2*g_1 and y*z*g_1, which the certificate does not use."""
    x, y, z = zring(3).gens()
    gens = [(x * y).scale(Fraction(1, 3)), x**2 + z**2]
    return gens, x**4 + x**2 * z**2 + (x * y * z**2).scale(6)


def test_g0_cofactor_missing_its_denominator_raises(monkeypatch):
    # g_0 = x*y/3 has d_0 = 3; a cofactor made without it, each coefficient
    # a third of the right one, fails its subtraction through g_0's row.
    # The query's span entry x^2*g_1, made the same way, is caught first;
    # 6*x*y*z^2 = 18*z^2*g_0 lies in g_0's columns alone and has no span entry
    gens, query = _g0_with_a_denominator()
    x, y, z = zring(3).gens()
    g0_only = (x * y * z**2).scale(6)
    result = homogeneous_membership(query, gens)
    assert result.combination == [(0, Monomial((0, 0, 2)), 18), (1, Monomial((2, 0, 0)), 1)]
    assert homogeneous_membership(g0_only, gens).combination == [(0, Monomial((0, 0, 2)), 18)]
    monkeypatch.setattr(jets, "Fraction", lambda num, den: Fraction(num, 3 * den))
    with pytest.raises(InvariantViolationError, match="not divisible by the monomial generator"):
        homogeneous_membership(query, gens)
    with pytest.raises(InvariantViolationError, match="failed re-expansion"):
        homogeneous_membership(g0_only, gens)


def test_span_entry_is_checked_through_its_returned_coefficient(monkeypatch):
    # x^2*g_1 is a row of two terms in the span, so the certificate's one
    # entry comes from the span's combination; a conversion that makes its
    # coefficient a third of the right one leaves 2/3 of the row, at
    # columns g_0 = x*y does not divide, in the residual
    x, y, z = zring(3).gens()
    gens = [x * y, x**2 + z**2]
    query = x**2 * gens[1]
    assert homogeneous_membership(query, gens).combination == [(1, Monomial((2, 0, 0)), 1)]
    monkeypatch.setattr(jets, "Fraction", lambda num, den: Fraction(num, 3 * den))
    with pytest.raises(InvariantViolationError, match="not divisible by the monomial generator"):
        homogeneous_membership(query, gens)


def _unit_with_a_denominator(order=(0, 1)):
    """g_0 = x*y and g_1 = 2*x^2 + 3*z^2, in `order`, and the member
    y^2*z^2 = y^2*g_1/3 - 2*x*y*g_0/3.  With g_0 first, filtered, y^2*g_1
    keeps 3*y^2*z^2 alone once g_0's columns drop: a unit row whose
    cofactor has the denominator 3.  With g_0 second, its rows are units."""
    x, y, z = zring(3).gens()
    gens = [x * y, (x**2).scale(2) + (z**2).scale(3)]
    return [gens[i] for i in order], y**2 * z**2


def test_unit_cofactor_with_a_denominator(monkeypatch):
    spans = _record_spans(monkeypatch)
    gens, query = _unit_with_a_denominator()
    result = homogeneous_membership(query, gens)
    assert result.combination == [
        (0, Monomial((1, 1, 0)), Fraction(-2, 3)),
        (1, Monomial((0, 2, 0)), Fraction(1, 3)),
    ]
    assert result.verify(query, gens)
    assert result.combination == _plain_certificate(query, gens)
    (span,) = spans
    packing = Packing(3, 4)
    assert span.labels == []
    assert span.units == {-packing.pack((0, 2, 2)): (1, packing.pack((0, 2, 0)), 3)}


@pytest.mark.parametrize(
    "order, message",
    [((0, 1), "not divisible by the monomial generator"), ((1, 0), "failed re-expansion")],
)
def test_wrong_unit_coefficient_raises(monkeypatch, order, message):
    # a unit table that doubles a coefficient halves the cofactor taken from
    # it, and subtracting that through the generator's own row leaves half
    # the residual at the unit's column
    gens, query = _unit_with_a_denominator(order)
    assert homogeneous_membership(query, gens).verify(query, gens)
    init = jets._Component.__init__

    def doubling(component, *args):
        init(component, *args)
        units = component.units
        component.units = {c: (gi, mult, 2 * v) for c, (gi, mult, v) in units.items()}

    monkeypatch.setattr(jets._Component, "__init__", doubling)
    with pytest.raises(InvariantViolationError, match=message):
        homogeneous_membership(query, gens)


def test_second_kept_row_at_a_unit_column_is_left_out(monkeypatch):
    # g_2 - g_1 = x*y = g_0, so these are no regular sequence.  With g_0's
    # columns dropped, g_1 and g_2 both keep x^2 alone, and F5 skips neither
    # (their multiplier is 1); the first stays the unit of x^2, the second
    # is dependent and offered to no span
    spans = _record_spans(monkeypatch)
    x, y = zring(2).gens()
    gens = [x * y, x**2 + x * y, x**2 + (x * y).scale(2)]
    query = x**2
    assert not _kept_rows_are_independent(query, gens)
    result = homogeneous_membership(query, gens)
    assert result.combination == [(0, Monomial((0, 0)), -1), (1, Monomial((0, 0)), 1)]
    assert result.combination == _plain_certificate(query, gens)
    (span,) = spans
    packing = Packing(2, 2)
    assert span.labels == []
    assert span.units == {-packing.pack((2, 0)): (1, 0, 1)}


def _kept_rows_are_independent(p, gens) -> bool:
    """Whether the rows of p's graded component that the oracle's F5 test
    keeps, g_0's included, are linearly independent, that is as many as the
    component's rank.  The trailing-term leads are the oracle's, computed
    with no truncation but by p's degree: a lead outside the oracle's weight
    box divides no multiplier either way."""
    degree = p.total_degree()
    nvars = p.ring.nvars
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = jets._common_gradings([gens[i] for i in usable] + [p], nvars)
    target = _weights(gradings, next(iter(p.terms)))
    packing = Packing(nvars, degree)
    rows = [
        {packing.pack(m): v for m, v in _clear_denominators(gens[gi].terms)[0].items()}
        for gi in usable
    ]
    component = ExactSpan()
    kept = 0
    leads_before = jets._trailing_term_leads(rows, packing, degree, [], None)
    for gi, row, leads in zip(usable, rows, leads_before):
        g_weights = _weights(gradings, next(iter(gens[gi].terms)))
        for exps in exponent_vectors(nvars, degree - gens[gi].total_degree()):
            if tuple(a + b for a, b in zip(_weights(gradings, exps), g_weights)) != target:
                continue
            mult = packing.pack(exps)
            kept += not any(packing.divides(lead, mult) for lead in leads)
            component.insert({mult + k: v for k, v in row.items()}, None)
    return kept == component.rank


@given(homogeneous_systems(monomial_first=True))
def test_filtered_certificates_match_a_span_offered_every_row(system):
    # the combination over independent kept rows is unique; off a regular
    # sequence the oracle may give another, checked by `verify`
    query, gens = system
    result = homogeneous_membership(query, gens)
    plain = _plain_certificate(query, gens)
    assert (result.combination is None) == (plain is None)
    if _kept_rows_are_independent(query, gens):
        assert result.combination == plain
    elif result.member:
        assert result.verify(query, gens)
    if result.member and result.combination:
        # the certificate check agrees with `verify` on a wrong certificate:
        # it completes the elimination's part with g_0's cofactor, and
        # raises when one of that part's coefficients is wrong
        gi, mono, c = result.combination[-1]
        wrong = result.combination[:-1] + [(gi, mono, c + 1)]
        assert not jets.MembershipResult(True, result.degree, wrong).verify(query, gens)
        component = _component(query, gens, _BumpingSpan)
        span = component.span
        cert = component.certify(query).combination
        assert cert == result.combination
        comb, _ = span.relation
        if comb:
            span.bump = max(comb)
            with pytest.raises(InvariantViolationError):
                component.certify(query)


@given(homogeneous_systems())
def test_certificate_refuses_each_wrong_coefficient_on_generic_systems(system):
    # the first generator is mostly not a monomial here, so no g_0 cofactor
    # is recovered and only the final check of the residual sees a wrong
    # coefficient: one added to any entry of the packed combination adds a
    # row with a term at a column neither g_0 nor a unit row owns, so
    # s*(p - sum c*M*g) stays nonzero there
    query, gens = system
    component = _component(query, gens, _BumpingSpan)
    span = component.span
    cert = component.certify(query).combination
    if cert is None:
        return
    assert cert == homogeneous_membership(query, gens).combination
    for key in span.relation[0]:
        span.bump = key
        with pytest.raises(InvariantViolationError):
            component.certify(query)


def test_oracle_offers_no_g0_row(monkeypatch):
    # g_0 = x_1^(0)...x_n^(0) is a monomial, so its columns are dropped: the
    # 37 spans and their unit tables hold 33,323 kept rows, not the 63,302
    # of inserting its rows; 15,535 of them are units, offered to no span
    spans = _record_spans(monkeypatch)
    for h in _oracle_tuples():
        min_degree_search(h)
    assert len(spans) == 37
    assert 0 not in set().union(*map(_row_generators, spans))
    rank = sum(span.rank for span in spans)
    units = sum(len(span.units) for span in spans)
    assert rank == sum(len(span.labels) for span in spans)
    assert rank + units == 33323 and units == 15535


def test_oracle_enumerates_no_g0_multiplier(monkeypatch):
    # g_0's rows are replaced by a column filter, so the multiplier table
    # never holds g_0's list; it holds only what the F5 test keeps, so its
    # nonempty lists are exactly those of the generators whose rows are
    # offered or taken as units
    calls = []
    enumerate_ = jets._JetIdeal.multiplier_table

    def recording(record, mult_degrees, targets, packing, budget, leads):
        got = enumerate_(record, mult_degrees, targets, packing, budget, leads)
        calls.append((set(targets), set(got), {gi for gi, keys in got.items() if keys}))
        return got

    monkeypatch.setattr(jets._JetIdeal, "multiplier_table", recording)
    spans = _record_spans(monkeypatch)
    for h in _oracle_tuples():
        del calls[:], spans[:]
        min_degree_search(h)
        ((targets, listed, filled),) = calls
        (span,) = spans
        assert 0 not in targets and listed == targets, h
        assert filled == _row_generators(span), h


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


@pytest.mark.parametrize(
    "n, m", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]
)
def test_jet_ring_keeps_the_full_trailing_term_basis(n, m):
    # the full basis of each I_<k, k <= m, has (n^k - 1)/(n - 1) minimal
    # leads, each of degree at most (n - 1)k + 1, conjectured for every
    # (n, m); so a box of twice that degree keeps the whole basis
    record = jets._JetIdeal(n, m)
    degree = 2 * ((n - 1) * m + 1)
    packing = Packing(record.desc.ring.nvars, degree)
    rows = [{packing.pack(k): v for k, v in g.nums.items()} for g in record.polys]
    record.trailing_leads(rows, packing, degree - n, [], None)
    assert [len(leads) for leads in record.leads] == [(n**k - 1) // (n - 1) for k in range(m + 1)]
    for k, leads in enumerate(record.leads):
        assert max(map(sum, leads), default=0) <= (n - 1) * k + 1


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


@pytest.mark.stretch
@pytest.mark.parametrize("h", sorted(STRETCH_CERTIFICATE_SHA256))
def test_stretch_certificates_do_not_depend_on_the_multiplier_order(monkeypatch, h):
    moved = _shuffle_multiplier_lists(monkeypatch, 7)
    result = min_degree_search(h)
    assert moved
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

    # the F5 test of the oracle's multiplier tables is this guard-bit test, inlined
    for t in ts:
        assert packing.divides(pack(t), pack(m)) == all(a >= b for a, b in zip(m, t))


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


def test_radical_witness_is_false_if_a_generator_is_not_killed(monkeypatch):
    # the evaluation must kill g_0 .. g_(H-1); if the last of them survives,
    # it certifies nothing
    h = (2, 1)
    survivor = jet_generators(None, JetRingDesc(2, 3))[sum(h) - 1]
    evaluate = jetring.phi_binary_eval
    monkeypatch.setattr(
        jetring, "phi_binary_eval", lambda p, h, desc: 1 if p == survivor else evaluate(p, h, desc)
    )
    assert radical_witness(h) is False


def test_jet_ring_descriptions_and_primes_print_and_compare_by_value():
    desc = JetRingDesc(2, 3)
    assert desc == JetRingDesc(2, 3) and hash(desc) == hash(JetRingDesc(2, 3))
    assert desc != JetRingDesc(3, 2) and desc != (2, 3)
    assert repr(desc) == "JetRingDesc(n=2, m=3)"
    assert [repr(p) for p in minimal_primes(2, 1)] == [
        "MinimalPrime(lam=(2, 0))", "MinimalPrime(lam=(1, 1))", "MinimalPrime(lam=(0, 2))",
    ]


def test_psi_block_assignment_and_monomial_image():
    # lambda is in base-variable order: block i of z1..z3 belongs to x_i
    desc = JetRingDesc(2, 2)
    ring = zring(3)
    mono = derivative_monomial((1, 1), desc)
    spec = PsiSpecialization((2, 1), desc)
    assert spec.lam.parts == (2, 1)
    assert spec.apply(mono) == ring.var(0) + ring.var(1)
    assert psi_specialize(mono, (1, 1), desc) == spec.apply(mono)
    assert PsiSpecialization((1, 2), desc).apply(mono) == ring.var(1) + ring.var(2)


def test_psi_kills_high_derivatives():
    desc = JetRingDesc(2, 4)
    spec = PsiSpecialization((2, 3), desc)
    # x1^(j) for j > 2 and x2^(j) for j > 3 map to zero
    assert spec.apply(desc.var(1, 3)).is_zero()
    assert spec.apply(desc.var(1, 2)) == spec.target.one()
    assert spec.apply(desc.var(2, 4)).is_zero()
    assert spec.apply(desc.var(2, 3)) == spec.target.one()


def test_psi_puts_largest_witness_power_first():
    # the power (h_i+1)(H-h_i) is 3 at h=2 and 4 at h=1, so index 2 gains the part
    assert jets._witness_composition((2, 1)).parts == (2, 2)
    # of tied powers the first index gains it, whatever its h_i
    assert jets._witness_composition((1, 1)).parts == (2, 1)
    assert jets._witness_composition((1, 1, 2)).parts == (2, 1, 2)
    desc = JetRingDesc(2, 3)
    image = psi_specialize(derivative_monomial((2, 1), desc), (2, 1), desc)
    ring = zring(4)
    assert image == ring.var(2) + ring.var(3)


def test_psi_kernel_contains_jet_generators():
    # all 205 compositions of m+1 into n parts, zero parts included, for
    # n <= 4 and m <= 4
    for n, m in itertools.product(range(1, 5), range(5)):
        desc = JetRingDesc(n, m)
        for lam in compositions(m + 1, n):
            jetring._check_psi_kernel(PsiSpecialization(lam, desc), jet_generators(None, desc))


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
        spec = PsiSpecialization(jets._witness_composition(h), desc)
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
        lambda spec, mono: itertools.repeat(spec.target.zero()),
    )
    for h in SEARCH_CASES:
        result = min_degree_search(h)
        assert result.degree == expected[h].degree
        assert sorted(result.refusals) == sorted(expected[h].refusals)
        assert all(r.witness is None and not r.member for r in result.refusals.values())
        assert result.certificate.combination == expected[h].certificate.combination


def _corrupt_psi_tables(monkeypatch) -> None:
    """Corrupt the one image table of every PsiSpecialization made from now
    on: x_1^(0) takes z_ell on top of its sigma, and both the kernel check
    and `apply` read the fault."""
    real_init = PsiSpecialization.__init__

    def init(self, lam, desc):
        real_init(self, lam, desc)
        self._table[0] = self._table[0] + [symfun._packing(desc.m + 1).pack((0,) * desc.m + (1,))]

    monkeypatch.setattr(PsiSpecialization, "__init__", init)


def test_min_degree_search_rejects_psi_that_misses_a_generator(monkeypatch):
    _corrupt_psi_tables(monkeypatch)
    desc = JetRingDesc(2, 2)
    spec = PsiSpecialization((2, 1), desc)
    z1, z2, z3 = spec.target.gens()
    assert spec.apply(desc.var(1, 0)) == z1 * z2 + z3
    with pytest.raises(InvariantViolationError):
        jetring._check_psi_kernel(spec, jet_generators(None, desc))
    # a fresh record, so that the search makes the corrupted spec and checks it
    jets._jet_ideal.cache_clear()
    try:
        with pytest.raises(InvariantViolationError):
            min_degree_search((1, 1))
    finally:
        jets._jet_ideal.cache_clear()


def test_failed_psi_kernel_check_caches_nothing(monkeypatch):
    # the spec whose check failed is not stored in the record, so the next
    # search on the same record, unpatched, makes a sound spec and answers
    expected = _oracle_answer((1, 1), min_degree_search((1, 1)))
    _corrupt_psi_tables(monkeypatch)
    jets._jet_ideal.cache_clear()
    with pytest.raises(InvariantViolationError):
        min_degree_search((1, 1))
    record = jets._jet_ideal(2, 2)
    assert not record.specs
    monkeypatch.undo()
    assert _oracle_answer((1, 1), min_degree_search((1, 1))) == expected
    assert jets._jet_ideal(2, 2) is record
    assert list(record.specs) == [jets._witness_composition((1, 1))]


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
ORACLE_ANSWERS_SHA256 = "48c0277b6492ad18af572ed24f61d08e00be9c3c75005c50c245aa86a100e3cc"


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


def test_oracle_answers_do_not_depend_on_call_order_or_cache_state():
    # the 37 searches, each time with every jet ring's record cleared first,
    # in reverse and in shuffled order, give the pinned answers; each member
    # combination is the one the public entry gives from fresh generators
    tuples = _oracle_tuples()
    shuffled = list(tuples)
    make_rng(44).shuffle(shuffled)
    assert shuffled != tuples
    for order in (tuples[::-1], shuffled):
        jets._jet_ideal.cache_clear()
        results = {h: min_degree_search(h) for h in order}
        answers = [_oracle_answer(h, results[h]) for h in tuples]
        canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == ORACLE_ANSWERS_SHA256
    for h, result in results.items():
        desc = JetRingDesc(len(h), sum(h))
        query = derivative_monomial(h, desc) ** result.degree
        public = homogeneous_membership(query, jet_generators(None, desc))
        assert public.combination == result.certificate.combination, h


def test_jet_ring_record_holds_nothing_per_degree():
    # one record per (n, m): searches of any degree read it and leave its
    # generator data as they found it, adding only the spec of their lambda
    # and, at the first elimination, the leads of the full basis, which a
    # fresh record finds from one elimination of yet another degree
    jets._jet_ideal.cache_clear()
    record = jets._jet_ideal(2, 3)
    fields = ("polys", "usable", "gradings", "degrees", "weights")
    assert record.polys == tuple(jet_generators(None, record.desc))
    assert record.leads is None
    degrees = {h: min_degree_search(h).degree for h in [(1, 2), (3, 0), (0, 3), (2, 1)]}
    assert sorted(set(degrees.values())) == [4, 5]
    assert jets._jet_ideal(2, 3) is record
    fresh = jets._JetIdeal(2, 3)
    assert [getattr(record, name) for name in fields] == [getattr(fresh, name) for name in fields]
    assert set(record.specs) == {Composition((2, 2)), Composition((3, 1)), Composition((1, 3))}
    query = derivative_monomial((1, 2), fresh.desc) ** 7
    assert jets._Component(query, fresh, None).certify(query).member
    assert record.leads is not None and record.leads == fresh.leads
    slots = set(jets._Generators.__slots__) | set(jets._JetIdeal.__slots__)
    assert slots == {*fields, "desc", "specs", "leads"}


def test_psi_refusals_take_one_packed_route(monkeypatch):
    # the refusals reduce psi(mono) on the packed image table, as the kernel
    # check does: neither `apply` nor `symfun._normal_form` is reached, and
    # the answers are the pinned ones
    def refuse(*args, **kwargs):
        raise AssertionError("the psi refusals left the packed route")

    monkeypatch.setattr(PsiSpecialization, "apply", refuse)
    monkeypatch.setattr(symfun, "_normal_form", refuse)
    answers = [_oracle_answer(h, min_degree_search(h)) for h in _oracle_tuples()]
    assert len(answers) == 37
    canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ORACLE_ANSWERS_SHA256


def _shuffle_multiplier_lists(monkeypatch, seed) -> list:
    """Make the jet ring's `multiplier_table`, the one the search inserts
    from, shuffle each generator's list of kept multipliers by a
    `random.Random` seeded with `seed`.  Returns a list that gets one entry
    for each list the shuffle left in another order."""
    rng = make_rng(seed)
    enumerate_ = jets._JetIdeal.multiplier_table
    moved = []

    def shuffled(*args):
        table = enumerate_(*args)
        for keys in table.values():
            before = list(keys)
            rng.shuffle(keys)
            if keys != before:
                moved.append(len(keys))
        return table

    monkeypatch.setattr(jets._JetIdeal, "multiplier_table", shuffled)
    return moved


def test_oracle_answers_do_not_depend_on_the_multiplier_order(monkeypatch):
    # a skipped row is a combination of kept rows in any insertion order, and
    # the jet generators' kept rows are independent, so the answers are the
    # pinned ones whatever order the multipliers come in
    moved = _shuffle_multiplier_lists(monkeypatch, 33)
    answers = [_oracle_answer(h, min_degree_search(h)) for h in _oracle_tuples()]
    assert len(moved) > 30
    canonical = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ORACLE_ANSWERS_SHA256


def test_psi_refusals_are_the_nonzero_powers_of_sigma_1():
    # on every oracle tuple psi(mono) is sigma_1 of block i, for the i where
    # lambda = h + e_i, so the psi refusals stop one below its nilpotency order
    for h in _oracle_tuples():
        desc = JetRingDesc(len(h), sum(h))
        spec = PsiSpecialization(jets._witness_composition(h), desc)
        (i,) = [k for k, (part, hk) in enumerate(zip(spec.lam.parts, h), 1) if part != hk]
        sigma = block_sigma(spec.lam, i, 1)
        assert spec.apply(derivative_monomial(h, desc)) == sigma
        refusals = min_degree_search(h).refusals
        psi = sorted(d for d, r in refusals.items() if r.witness is not None)
        assert psi == list(range(1, nilpotency_order(sigma, spec.lam, i))), h


def test_every_psi_witness_rechecks_from_its_json_alone():
    # knowing only h, d and the witness JSON: rebuild psi from "lambda",
    # check its kernel, and recompute the normal form it records
    for h in _oracle_tuples():
        desc = JetRingDesc(len(h), sum(h))
        mono = derivative_monomial(h, desc)
        for d, refusal in min_degree_search(h).refusals.items():
            witness = json.loads(json.dumps(refusal.to_json(desc.ring)))["witness"]
            spec = PsiSpecialization(witness["lambda"], desc)
            jetring._check_psi_kernel(spec, jet_generators(None, desc))
            nf = normal_form_IS(spec.apply(mono**d))
            assert not nf.is_zero()
            assert nf == parse_poly(spec.target, witness["normal_form"]), (h, d)


def test_budget_estimate_tracks_traced_peak_memory():
    h = (2, 2)
    min_degree_search(h)  # fill the lru caches, such as _jet_ring and _quotient, untraced
    budget = Budget(None)
    tracemalloc.start()
    try:
        min_degree_search(h, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.75 <= budget.entries * Budget.BYTES_PER_ENTRY / peak <= 1.33


def test_multiplier_table_charge_covers_its_traced_build_peak():
    # the table of the (1,1,1) formula degree holds 6,316 packed multipliers;
    # its build peaks at about 66 bytes per multiplier, charged as 68
    h = (1, 1, 1)
    desc = JetRingDesc(3, 3)
    gens = jet_generators(None, desc)
    query = derivative_monomial(h, desc) ** min_degree_formula(h)
    gradings = jets._common_gradings(gens + [query], desc.ring.nvars)
    weights = _weights(gradings, next(iter(query.terms)))
    targets = {
        tuple(a - b for a, b in zip(weights, _weights(gradings, next(iter(g.terms)))))
        for g in gens[1:]
    }
    degree = query.total_degree() - gens[1].total_degree()
    shifts = Packing(desc.ring.nvars, query.total_degree()).shifts
    budget = Budget(None)
    tracemalloc.start()
    try:
        table = jets._packed_multipliers(degree, gradings, targets, shifts, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, table.values())) == 6316
    assert peak <= budget.entries * Budget.BYTES_PER_ENTRY <= 1.1 * peak


def test_block_product_charge_covers_its_traced_build_peak():
    # the jet ring's table of the same query, built as block products with
    # the F5 test run as they are made, keeps 2,527 multipliers and peaks
    # lower, at 55 bytes charged per product kept or combined further
    h = (1, 1, 1)
    record = jets._JetIdeal(3, 3)
    query = derivative_monomial(h, record.desc) ** min_degree_formula(h)
    weights = _weights(record.gradings, next(iter(query.terms)))
    targets = {
        gi: tuple(a - b for a, b in zip(weights, record.weights[gi])) for gi in record.usable[1:]
    }
    mult_degrees = {gi: query.total_degree() - record.degrees[gi] for gi in targets}
    packing = Packing(record.desc.ring.nvars, query.total_degree())
    rows = [{packing.pack(k): v for k, v in g.nums.items()} for g in record.polys]
    top = query.total_degree() - 3
    leads = dict(zip(record.usable, record.trailing_leads(rows, packing, top, [], None)))
    budget = Budget(None)
    tracemalloc.start()
    try:
        table = record.multiplier_table(mult_degrees, targets, packing, budget, leads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, table.values())) == 2527
    assert peak <= budget.entries * Budget.BYTES_PER_ENTRY <= 1.1 * peak


def test_budget_bounds_the_multiplier_pass_from_its_start():
    # no multiplier of g_1 has the weights x1_0^200000 needs, so the query
    # is refused with next to no table: nothing sized by the degree, such as
    # the weights of x_i^e for every e up to it, may precede the first charge
    desc = JetRingDesc(2, 1)
    gens = jet_generators(None, desc)
    query = desc.var(1, 0) ** 200000
    tracemalloc.start()
    try:
        result = homogeneous_membership(query, gens, budget=Budget(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.member
    assert peak < 2**20


def _one_component_queries() -> tuple:
    """The jet generators for n = 3, H = 2, four queries of the component
    of (x^(0,1,1))^3, and the `_Component` built from the first."""
    desc = JetRingDesc(3, 2)
    gens = jet_generators(None, desc)
    x = [
        derivative_monomial(h, desc)
        for h in [(0, 1, 1), (1, 1, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1)]
    ]
    queries = [x[0] ** 3, x[1] ** 3, x[2] * x[3] * x[4], x[0] ** 2 * x[5]]
    usable = list(range(len(gens)))
    gradings = jets._common_gradings(gens + [queries[0]], desc.ring.nvars)
    generators = jets._Generators(gens, usable, gradings)
    assert len({_weights(gradings, next(iter(q.terms))) for q in queries}) == 1
    return gens, queries, jets._Component(queries[0], generators, None)


def test_one_component_span_answers_every_query_of_the_component():
    # one span built from the component's degree and weights certifies the
    # first three queries and refuses x^(0,1,1)^2*x^(1,0,1), each as the
    # oracle answers the query alone
    gens, queries, component = _one_component_queries()
    sizes = []
    for query in queries:
        certificate = component.certify(query).combination
        result = homogeneous_membership(query, gens)
        assert certificate == result.combination
        if result.member:
            assert result.verify(query, gens)
        sizes.append(None if certificate is None else len(certificate))
    assert sizes == [21, 21, 1, None]


def test_certify_leaves_the_component_as_it_found_it():
    # certifying reads the span and the unit table and changes neither, so
    # each query of the component certifies the same way a second time
    _, queries, component = _one_component_queries()
    span = component.span
    before = span.rank, _pivot_rows(span), dict(component.units)
    first = [component.certify(query) for query in queries]
    second = [component.certify(query) for query in queries]
    assert (span.rank, _pivot_rows(span), component.units) == before
    assert [(r.member, r.degree, r.combination) for r in second] == [
        (r.member, r.degree, r.combination) for r in first
    ]
    assert [r.member for r in first] == [True, True, True, False]


def test_certify_refuses_a_query_of_another_component():
    # the component of x1_0*x2_2 in the (2, 2) jet ring has weight 2; g_1,
    # a member of weight 1, or a query with one term of weight 1, is not
    # one of its queries, and is refused as such, not certified a non-member
    desc = JetRingDesc(2, 2)
    gens = jet_generators(None, desc)
    x = desc.var
    component = _component(x(1, 0) * x(2, 2), gens)
    for query in [gens[1], x(1, 0) * x(2, 2) + x(1, 0) * x(2, 1)]:
        with pytest.raises(DomainError, match="query is not in the component$"):
            component.certify(query)
    assert homogeneous_membership(gens[1], gens).member
    # the component's own queries certify as the oracle answers each alone
    for query in [x(1, 0) * x(2, 2), x(1, 1) * x(2, 1), gens[2], gens[2] * 3 - x(1, 2) * x(2, 0)]:
        certificate = component.certify(query)
        result = homogeneous_membership(query, gens)
        assert (certificate.member, certificate.combination) == (result.member, result.combination)
    assert component.certify(gens[2]).combination == [(2, Monomial((0,) * 6), 1)]


def test_jet_ring_states_gradings_that_span_the_solved_ones():
    # the record's gradings are the degree in each block, then the weight;
    # every generator is homogeneous under each, and for n >= 2 they span
    # the gradings `_common_gradings` solves for, for n = 1 a part of them
    import sympy

    for n, m in itertools.product(range(1, 5), range(5)):
        record = jets._JetIdeal(n, m)
        nvars = record.desc.ring.nvars
        assert record.gradings == [
            tuple(int(v // (m + 1) == i) for v in range(nvars)) for i in range(n)
        ] + [tuple(v % (m + 1) for v in range(nvars))]
        for g in record.polys:
            for w in record.gradings:
                assert len({_weights([w], mono) for mono in g.nums}) == 1, (n, m, w)
        solved = jets._common_gradings(list(record.polys), nvars)
        rank = sympy.Matrix(record.gradings).rank()
        assert sympy.Matrix(record.gradings + solved).rank() == len(solved), (n, m)
        assert rank == (len(solved) if n >= 2 else min(m + 1, 2)), (n, m)


def _kept_and_span_counts(monkeypatch, h) -> tuple:
    """Search h and return, for its one elimination, the number of
    multipliers the jet ring's table keeps, the span's rank and the number
    of unit rows."""
    counts = []
    enumerate_ = jets._JetIdeal.multiplier_table

    def counting(*args):
        table = enumerate_(*args)
        counts.append(sum(map(len, table.values())))
        return table

    monkeypatch.setattr(jets._JetIdeal, "multiplier_table", counting)
    spans = _record_spans(monkeypatch)
    min_degree_search(h)
    ((kept,), (span,)) = counts, spans
    return kept, span.rank, len(span.units)


@pytest.mark.parametrize(
    "h, kept, rank, units",
    [
        ((2, 2), 3478, 2102, 1376),
        ((1, 1, 1), 2527, 1156, 1371),
        # of the 811,617 multipliers of the (2,1,1) component
        pytest.param((2, 1, 1), 218886, 98175, 120711, marks=pytest.mark.stretch),
    ],
)
def test_multiplier_table_holds_exactly_the_rows_the_span_uses(monkeypatch, h, kept, rank, units):
    # the jet generators are a regular sequence, so every multiplier the F5
    # test keeps becomes one pivot or one unit row, and no other is built
    assert _kept_and_span_counts(monkeypatch, h) == (kept, rank, units)
    assert kept == rank + units


def test_min_degree_budget_reports_partial_result():
    with pytest.raises(BudgetExceededError) as info:
        min_degree_search((1, 1), budget=Budget(0.0001))
    assert info.value.partial == {"refused": [1, 2], "psi_certified": [1, 2], "lower_bound": 3}


def test_min_degree_budget_stops_the_multiplier_table():
    # the (2,1,1) table holds 811,617 packed multipliers; a budget of
    # 10,485 entries must stop it while it is built, before any span row
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
        # input refusals of their own
        lambda: homogeneous_membership(zring(2).var(0), [zring(2).zero()]),
        lambda: Ring(("x", "y", "x")),
        lambda: zring(2).monomial((0, 1, 0)),
        lambda: Monomial((1, 0)) / Monomial((0, 1)),
        lambda: zring(2).zero().leading(),
        lambda: zring(2).var(0).substitute(zring(1), [zring(1).var(0)]),
        lambda: Permutation.transposition(2, 2, 3),
        lambda: Permutation.identity(2) * Permutation.identity(3),
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
    "psi_specialize": (lambda h: psi_specialize(_DESC.ring.one(), h, _DESC), True),
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


# each entry point that takes a composition, and whether it takes a jet ring
# whose n and m+1 fix the composition's length and total
_COMPOSITION_ENTRY_POINTS = {
    "Composition": (Composition, False),
    "MinimalPrime": (lambda lam: MinimalPrime(lam, _DESC), True),
    "PsiSpecialization": (lambda lam: PsiSpecialization(lam, _DESC), True),
}


@pytest.mark.parametrize(
    "entry, lam",
    [
        (entry, lam)
        for entry, (_, takes_desc) in _COMPOSITION_ENTRY_POINTS.items()
        for lam in [3, None, (2.5, 1.5), (1.0, 3), ("1", 3), (-1, 5)]
        + ([(1, 1, 2), (1, 2), (2, 3)] if takes_desc else [])
    ],
)
def test_compositions_are_refused_alike(entry, lam):
    call, takes_desc = _COMPOSITION_ENTRY_POINTS[entry]
    if takes_desc:
        call(Composition((1, 3)))
        call((1, 3))
    with pytest.raises(DomainError):
        call(lam)


# each entry point that takes a Composition, JetRingDesc, Permutation or
# mapping, as the type it wants and a call that hands it the tuple or list
# spelling one
_VALUE_TYPE_ENTRY_POINTS = {
    "dim_A_lambda": ("Composition", lambda: dim_A_lambda((2, 1))),
    "nilpotency_order": (
        "Composition", lambda: nilpotency_order(zring(3).var(0) + zring(3).var(1), (2, 1), 1)
    ),
    "sym_lambda_average": ("Composition", lambda: sym_lambda_average(zring(3).var(0), (2, 1))),
    "block_sigma": ("Composition", lambda: block_sigma((2, 1), 1, 1)),
    "c_lambda_ring": ("Composition", lambda: c_lambda_ring((2, 1))),
    "derivative_monomial": ("JetRingDesc", lambda: derivative_monomial((1, 1), (2, 2))),
    "jet_generators": ("JetRingDesc", lambda: jet_generators(None, (2, 2))),
    "phi_binary_eval": ("JetRingDesc", lambda: phi_binary_eval(_DESC.ring.one(), (1, 2), (2, 3))),
    "psi_specialize": ("JetRingDesc", lambda: psi_specialize(_DESC.ring.one(), (1, 2), (2, 3))),
    "MinimalPrime": ("JetRingDesc", lambda: MinimalPrime((1, 3), (2, 3))),
    "schubert_poly": ("Permutation", lambda: schubert_poly([2, 1])),
    "monk_expand": ("Permutation", lambda: monk_expand(1, [2, 1])),
    "Permutation.__mul__": ("Permutation", lambda: Permutation([2, 1]) * (2, 1)),
    "Ring.from_terms": ("Mapping", lambda: zring(3).from_terms([((1, 0, 0), 1)])),
}


@pytest.mark.parametrize("entry", _VALUE_TYPE_ENTRY_POINTS)
def test_value_types_given_as_sequences_are_refused_as_domain_errors(entry):
    wanted, call = _VALUE_TYPE_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match="must be a %s, not (tuple|list)$" % wanted):
        call()


_Z3, _LAM = zring(3), Composition((1, 2))
_Z1Z2 = _Z3.var(0) * _Z3.var(1)
# each entry point that checks ring identity: the ring it wants, and a call
# that hands it one polynomial q of that ring
_RING_ENTRY_POINTS = {
    "Poly.__add__": (_Z3, lambda q: _Z3.one() + q),
    "Poly.__sub__": (_Z3, lambda q: _Z3.one() - q),
    "Poly.__mul__": (_Z3, lambda q: _Z3.one() * q),
    "Poly.substitute": (_Z3, lambda q: _Z3.var(0).substitute(_Z3, [q, q, q])),
    "divide": (_Z3, lambda q: divide(_Z3.var(0), [q])),
    "normal_form_IS": (_Z3, lambda q: normal_form_IS(q, 3)),
    "expand_block_elementary": (
        block_elementary_ring(_LAM), lambda q: expand_block_elementary(q, _LAM)
    ),
    "nilpotency_order": (_Z3, lambda q: nilpotency_order(q, _LAM, 1)),
    "alpha_map": (c_lambda_ring(_LAM), lambda q: alpha_map(q, _LAM)),
    "schubert_expansion": (_Z3, lambda q: schubert_expansion(q, 3)),
    "jet_generators": (_DESC.base_ring, lambda q: jet_generators([q], _DESC)),
    "homogeneous_membership": (
        _DESC.ring, lambda q: homogeneous_membership(_DESC.ring.var(0), [q])
    ),
    "phi_binary_eval": (_DESC.ring, lambda q: phi_binary_eval(q, (1, 2), _DESC)),
    "PsiSpecialization.apply": (_DESC.ring, lambda q: PsiSpecialization((1, 3), _DESC).apply(q)),
    "MembershipResult.verify": (
        _Z3, lambda q: homogeneous_membership(_Z1Z2, [_Z3.var(0)]).verify(_Z1Z2, [q])
    ),
}


@pytest.mark.parametrize("entry", _RING_ENTRY_POINTS)
def test_polynomials_from_another_ring_are_refused_alike(entry):
    # a ring of as many variables under other names is still another ring
    ring, call = _RING_ENTRY_POINTS[entry]
    call(ring.var(0))
    foreign = Ring("w%d" % i for i in range(ring.nvars))
    with pytest.raises(RingMismatchError) as info:
        call(foreign.var(0))
    assert repr(ring) in str(info.value) and repr(foreign) in str(info.value)


def test_ring_mismatch_is_a_domain_error():
    assert issubclass(RingMismatchError, DomainError)
    assert issubclass(DomainError, ValueError)

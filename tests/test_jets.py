import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetform import jets
from jetform import (
    BudgetExceededError,
    Budget,
    CapExceededError,
    DomainError,
    ExactSpan,
    InvariantViolationError,
    JetRingDesc,
    Monomial,
    PsiSpecialization,
    RingMismatchError,
    compositions,
    derivative_monomial,
    groebner_basis_IS,
    homogeneous_membership,
    in_IS,
    jet_generators,
    min_degree_formula,
    min_degree_search,
    minimal_primes,
    multiplicity_table,
    normal_form_IS,
    phi_binary_eval,
    psi_specialize,
    radical_witness,
    zring,
)
from jetform.linalg import int_row

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
    # same verdicts as a full enumeration with no grading constraints
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
        fast = homogeneous_membership(query, gens)

        span = ExactSpan()
        for gi, g in enumerate(gens):
            grow = int_row(g.terms)
            for exps in exponent_vectors(ring.nvars, degree - g.total_degree()):
                mult = Monomial(exps)
                span.insert({m * mult: v for m, v in grow.items()}, (gi, mult))
        rem, _ = span.reduce(query.terms)
        assert fast.member == (not rem)


def _weights(gradings, exps):
    return tuple(sum(w * e for w, e in zip(row, exps)) for row in gradings)


@st.composite
def multiplier_queries(draw):
    """A degree, weight rows with negative entries (like the mixed grading
    (-4,-3,-2,-1,0,...,1) of the (2,1,1) elimination) and a target set that
    mixes weights some vector reaches with arbitrary ones."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    degree = draw(st.integers(min_value=0, max_value=5))
    weight = st.integers(min_value=-4, max_value=4)
    gradings = draw(
        st.lists(st.tuples(*[weight] * nvars), min_size=1, max_size=3, unique=True)
    )
    vectors = exponent_vectors(nvars, degree)
    reached = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=4))
    targets = {_weights(gradings, v) for v in reached}
    targets |= set(draw(st.lists(st.tuples(*[weight] * len(gradings)), max_size=2)))
    return degree, gradings, targets


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
    for keys in got.values():
        assert all(a > b for a, b in zip(keys, keys[1:]))


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


def _koszul_skips_are_redundant(p, gens, multipliers) -> int:
    """Run the oracle's elimination of p, which skips rows by the Koszul
    criterion, and beside it a span offered every multiplier row in the
    same order: generators in index order, each generator's multipliers of
    the query's weights in descending lex order, drawn from
    `multipliers(degree)`, exponent vectors of that degree in descending
    lex order.  Check that each row the oracle skipped leaves the full span
    unchanged and that both spans end with the same pivots and histories,
    in dict order.  Returns the number of skipped rows."""
    degree = p.total_degree()
    nvars = p.ring.nvars
    usable = [i for i, g in enumerate(gens) if g.total_degree() <= degree]
    gradings = jets._common_gradings([gens[i] for i in usable] + [p], nvars)
    kept = _RecordingSpan()
    jets._solve_membership(p, gens, usable, gradings, kept)

    _, shifts, _ = jets._packing(nvars, degree)

    def pack(exps):
        return sum(e << s for e, s in zip(exps, shifts))

    target = _weights(gradings, next(iter(p.terms)))
    full = ExactSpan()
    offered = iter(kept.labels)
    next_kept = next(offered, None)
    skipped = 0
    for gi in usable:
        g = gens[gi]
        grow = {pack(m): v for m, v in int_row(g.terms).items()}
        g_weights = _weights(gradings, next(iter(g.terms)))
        for exps in multipliers(degree - g.total_degree()):
            weights = tuple(a + b for a, b in zip(_weights(gradings, exps), g_weights))
            if weights != target:
                continue
            label = (gi, pack(exps))
            enlarged = full.insert({k + label[1]: v for k, v in grow.items()}, label)
            if label == next_kept:
                next_kept = next(offered, None)
            else:
                assert not enlarged, ("skipped row enlarged the span", label)
                skipped += 1
    # every row the oracle inserted came up, in the oracle's order
    assert next_kept is None
    assert _pivot_rows(kept) == _pivot_rows(full)
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

    assert _koszul_skips_are_redundant(query, jet_generators(None, desc), multipliers) > 0


@st.composite
def homogeneous_systems(draw):
    """Up to three homogeneous generators of degree 1 to 3 in two to four
    variables, and a homogeneous query of degree up to 4: half the time a
    combination of multiples of the generators, so usually a member."""
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
        homogeneous(draw(st.integers(min_value=1, max_value=3)), 3)
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
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
    _koszul_skips_are_redundant(query, gens, lambda degree: exponent_vectors(nvars, degree))


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
    _, shifts, guard = jets._packing(len(m), degree)

    def pack(exps):
        return sum(e << s for e, s in zip(exps, shifts))

    divided = any(all(a >= b for a, b in zip(m, t)) for t in ts)
    kept = list(jets._undivided([pack(m)], [pack(t) for t in ts], guard))
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
        row = int_row(g.terms)
        for parts in itertools.product(blocks, repeat=len(h)):
            if sum(j * e for part in parts for j, e in enumerate(part)) != d * H - k:
                continue
            mult = Monomial(tuple(e for part in parts for e in part))
            span.insert({m * mult: v for m, v in row.items()}, (k, mult))
    rem, comb = span.reduce(query.terms)
    assert not rem
    return [(k, mult, c) for (k, mult), c in sorted(comb.items()) if c]


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


def test_min_degree_budget_reports_partial_result():
    with pytest.raises(BudgetExceededError) as info:
        min_degree_search((1, 1), budget=Budget(0.0001))
    assert info.value.partial == {"refused": [1, 2], "psi_certified": [1, 2], "lower_bound": 3}


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
    ],
)
def test_domain_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_ring_mismatch_is_a_domain_error():
    assert issubclass(RingMismatchError, DomainError)
    assert issubclass(DomainError, ValueError)

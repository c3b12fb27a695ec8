"""ExactSpan on rows whose leading coefficients are not units, its
reduction against a rank oracle and against a span that keeps full
histories, and the nullspaces built on it."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import example, given
from hypothesis import strategies as st

from jetform import (
    ExactSpan,
    JetRingDesc,
    derivative_monomial,
    homogeneous_membership,
    jet_generators,
    jets,
)
from jetform import schubert, symfun
from jetform.linalg import _OWN, _UNIT, Budget, integer_nullspace
from jetform.polyring import _clear_denominators

from conftest import make_rng
from test_jets import _oracle_tuples


def _combine(rows, coeffs):
    total = {}
    for label, c in coeffs.items():
        for k, v in rows[label].items():
            total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v}


def _check_pivots(span, rows):
    for lead, piv in span.pivots.items():
        assert lead == max(piv.terms)
        assert piv.terms[lead] > 0
        content = 0
        for v in list(piv.terms.values()) + list(piv.hist.values()):
            content = gcd(content, v)
        assert content == 1
        assert _combine(rows, span._expand({lead: 1})) == piv.terms


def test_span_with_non_unit_leads_keeps_primitive_pivots_and_certificates():
    rng = make_rng(606)
    # the second row against the first gives -2*x4 + 8*x3 with history
    # {1: 2, 0: -2}: joint content 2, which must be divided out
    rows = {0: {5: 2, 4: 1}, 1: {5: 2, 3: 4}}
    for label in range(2, 40):
        lead = rng.randrange(3, 8)
        row = {lead: rng.choice((2, 3, -4))}
        for k in rng.sample(range(lead), min(lead, 3)):
            row[k] = rng.choice((-6, -2, 2, 4, rng.randint(-5, 5)))
        rows[label] = row
    span = ExactSpan()
    for label, row in rows.items():
        span.insert(dict(row), label)  # insert takes ownership of its row
        _check_pivots(span, rows)
    assert span.rank == 8
    assert any(piv.terms[lead] > 1 for lead, piv in span.pivots.items())
    for _ in range(20):
        coeffs = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in rows}
        query, _ = _clear_denominators(_combine(rows, coeffs))
        comb, scale = span.reduce(query)
        assert scale > 0
        assert _combine(rows, comb) == {k: scale * v for k, v in query.items()}


def _draw_query(draw, rows, top_key):
    """An integer row: a rational combination of the rows (a member), or a
    vector over keys 0..top_key drawn freely (usually not one), with its
    denominators cleared."""
    ratio = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    if rows and draw(st.booleans()):
        query = _combine(rows, {label: draw(ratio) for label in rows})
    else:
        query = draw(st.dictionaries(st.integers(0, top_key), ratio, max_size=4))
    return _clear_denominators(query)[0]


@st.composite
def spans_and_queries(draw):
    """Up to five integer rows over keys 0..5, leads not restricted to +-1,
    and an integer query that is a multiple of a combination of the rows (a member) or
    drawn freely (usually not one)."""
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 5), entry, max_size=4), max_size=5))
    rows = {label: {k: v for k, v in row.items() if v} for label, row in enumerate(rows)}
    return rows, _draw_query(draw, rows, 5)


@st.composite
def non_unit_spans_and_queries(draw):
    """Up to eight integer rows over keys 0..6 whose leads are 2, 3 or -4,
    and a query as in `spans_and_queries`: most insertion steps scale, and
    a row that stops at a negative lead is stored negated."""
    rows = {}
    for label in range(draw(st.integers(0, 8))):
        lead = draw(st.integers(1, 6))
        row = {lead: draw(st.sampled_from((2, 3, -4)))}
        lower = draw(st.dictionaries(st.integers(0, lead - 1), st.integers(-6, 6), max_size=3))
        row.update((k, v) for k, v in lower.items() if v)
        rows[label] = row
    return rows, _draw_query(draw, rows, 6)


class _FullHistorySpan:
    """Reference elimination in which every pivot keeps its full history:
    its combination over the labels of the inserted rows, updated at every
    step.  Queries are reduced over the rationals."""

    def __init__(self):
        self.pivots = {}

    def insert(self, row, label):
        row, hist = dict(row), {label: 1}
        while row and max(row) in self.pivots:
            lead = max(row)
            terms, phist = self.pivots[lead]
            a, b = terms[lead], row[lead]
            for target, source in ((row, terms), (hist, phist)):
                for k in target:
                    target[k] *= a
                for k, v in source.items():
                    target[k] = target.get(k, 0) - b * v
                    if not target[k]:
                        del target[k]
            content = gcd(*row.values(), *hist.values())
            row = {k: v // content for k, v in row.items()}
            hist = {k: v // content for k, v in hist.items()}
        if not row:
            return False
        sign = 1 if row[max(row)] > 0 else -1
        self.pivots[max(row)] = (
            {k: sign * v for k, v in row.items()},
            {k: sign * v for k, v in hist.items()},
        )
        return True

    def reduce(self, terms):
        rem, comb = {k: Fraction(v) for k, v in terms.items() if v}, {}
        while rem and max(rem) in self.pivots:
            pterms, phist = self.pivots[max(rem)]
            c = rem[max(rem)] / pterms[max(rem)]
            for target, source in ((rem, pterms), (comb, phist)):
                for k, v in source.items():
                    target[k] = target.get(k, 0) - c * v
                    if not target[k]:
                        del target[k]
        if rem:
            return rem, {}
        return {}, {k: -v for k, v in comb.items()}


def _check_against_full_histories(rows, query):
    span, reference = ExactSpan(), _FullHistorySpan()
    for label, row in rows.items():
        assert span.insert(dict(row), label) == reference.insert(row, label)
    assert list(span.pivots) == list(reference.pivots)
    for lead, piv in span.pivots.items():
        # the same pivot rows up to a positive scalar, each re-expanding
        # from its steps to its own combination of inserted rows
        ref_terms, ref_hist = reference.pivots[lead]
        ratio = Fraction(piv.terms[lead], ref_terms[lead])
        assert ratio > 0
        assert piv.terms == {k: ratio * v for k, v in ref_terms.items()}
        assert span._expand({lead: 1}) == {k: ratio * v for k, v in ref_hist.items()}
        assert _combine(rows, span._expand({lead: 1})) == piv.terms
    relation = span.reduce(query)
    rem, comb = reference.reduce(query)
    assert (relation is None) == bool(rem)
    if relation is not None:
        ints, scale = relation
        assert scale > 0 and all(type(v) is int and v for v in ints.values())
        assert {k: Fraction(v, scale) for k, v in ints.items()} == comb


# the query steps through the pivots of leads 4 and 3, and pivot 3 was
# itself reduced by pivot 4, so pivot 4's coefficient is complete only
# after pivot 3 has passed its share on
@example(({0: {5: 1}, 1: {5: 1, 4: 1}, 2: {4: 1, 3: 1}}, {4: 1, 3: 2}))
@given(spans_and_queries())
def test_step_histories_match_full_histories(case):
    _check_against_full_histories(*case)


@given(non_unit_spans_and_queries())
def test_step_histories_match_full_histories_with_non_unit_leads(case):
    _check_against_full_histories(*case)


@given(spans_and_queries())
def test_reduce_decides_membership_by_rank_and_certifies_members(case):
    import sympy

    rows, query = case
    span = ExactSpan()
    for label, row in rows.items():
        span.insert(dict(row), label)  # insert takes ownership of its row

    def rank(vectors):
        return sympy.Matrix([[v.get(k, 0) for k in range(6)] for v in vectors] or [[0] * 6]).rank()

    member = rank(list(rows.values()) + [query]) == rank(list(rows.values()))
    before = dict(query)
    relation = span.reduce(query)
    assert query == before  # reduce works on a copy of its query
    assert (relation is not None) == member
    if member:
        comb, scale = relation
        assert scale > 0
        assert _combine(rows, comb) == {k: scale * v for k, v in query.items()}


def _steps_above_leads(spans):
    """The number of step-history entries of the spans' pivots, each
    checked to name a pivot whose lead is above its own pivot's lead."""
    count = 0
    for span in spans:
        for lead, piv in span.pivots.items():
            steps = [k for k in piv.hist if k is not _OWN]
            assert all(k > lead for k in steps), (lead, steps)
            count += len(steps)
    return count


def test_pivot_steps_name_only_larger_leads(monkeypatch):
    # the order `ExactSpan._expand` walks by: popped smallest lead first, a
    # pivot's coefficient is complete only if every pivot referring to it
    # has a smaller lead
    rng = make_rng(909)
    spans = []
    for _ in range(300):
        span = ExactSpan()
        for label in range(rng.randint(1, 8)):
            keys = rng.sample(range(8), rng.randint(1, 4))
            span.insert({k: rng.choice((-3, -2, -1, 1, 2, 3, 4)) for k in keys}, label)
        spans.append(span)
    assert _steps_above_leads(spans) > 0

    oracle_spans = []

    class RecordingSpan(ExactSpan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            oracle_spans.append(self)

    monkeypatch.setattr(jets, "ExactSpan", RecordingSpan)
    for h in _oracle_tuples():
        jets.min_degree_search(h)
    assert len(oracle_spans) == 37
    assert _steps_above_leads(oracle_spans) > 0
    # the Schubert expansion needs no span: its rows rho(S_w) have distinct
    # unit leads, so the row of z^a in their inverse, found by
    # back-substitution, names only rows of lead at most a, with 1 at a's own
    for ell in range(1, 7):
        packing = symfun._packing(ell)
        rows = schubert._schubert_rows(ell, packing.shifts[::-1], packing.mask)
        perms, inverse = schubert._schubert_inverse(ell)
        leads = [max(rows[w.oneline]) for w in perms]
        for key, row in inverse.items():
            assert all(leads[i] <= key for i in row), key
            assert row[leads.index(key)] == 1


def test_insert_of_an_empty_row_stores_nothing():
    span = ExactSpan(budget=Budget(None))
    assert span.insert({}, "empty") is False
    assert span.pivots == {} and span.budget.entries == 0


def test_row_that_needs_no_step_is_stored_as_it_is():
    # `_eliminate` returns a lead with no pivot at once, and `_store` keeps
    # the row's own dict, sharing `_UNIT` or negating a negative lead
    span = ExactSpan()
    row = {5: 3, 2: 1}
    assert span.insert(row, "a")
    assert span.pivots[5].terms is row and span.pivots[5].hist is _UNIT
    assert span.insert({4: -2, 1: 6}, "b")
    assert span.pivots[4].terms == {4: 2, 1: -6}
    assert dict(span.pivots[4].hist) == {_OWN: -1}
    # a lead with a pivot is eliminated
    assert span.insert({5: 1, 0: 1}, "c")
    assert span.pivots[2].terms == {2: 1, 0: -3} and span.pivots[2].hist == {_OWN: -3, 5: 1}


def _sympy_nullspace(rows, ncols):
    """sympy's nullspace basis, each vector scaled to primitive integers."""
    import sympy

    out = []
    for vec in sympy.Matrix(len(rows), ncols, [v for r in rows for v in r]).nullspace():
        fracs = [Fraction(str(x)) for x in vec]
        d = lcm(*(f.denominator for f in fracs))
        ints = [int(v * d) for v in fracs]
        g = gcd(*ints)
        out.append(tuple(v // g for v in ints))
    return out


def test_integer_nullspace_matches_sympy_on_the_oracle_grading_systems(monkeypatch):
    """The grading systems of the 37-tuple oracle table.  A search eliminates
    only at the member degree, where every generator is usable and the query
    monomial adds no constraint, so its system is the one a degree-n query
    sees; recording that query's system spares the elimination."""
    systems = []

    def recording(rows, ncols):
        basis = integer_nullspace(rows, ncols)
        systems.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(jets, "integer_nullspace", recording)
    tuples = _oracle_tuples()
    for h in tuples:
        desc = JetRingDesc(len(h), sum(h))
        homogeneous_membership(derivative_monomial(h, desc), jet_generators(None, desc))
    # for n = 1 the generators are monomials: a system with no rows
    assert len(systems) == len(tuples) == 37
    assert sum(not rows for rows, _, _ in systems) == sum(len(h) == 1 for h in tuples)
    for rows, ncols, basis in systems:
        assert basis == _sympy_nullspace(rows, ncols)


def test_integer_nullspace_matches_sympy_on_random_matrices():
    rng = make_rng(707)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [
            [rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert integer_nullspace(rows, ncols) == _sympy_nullspace(rows, ncols)


def test_integer_nullspace_eliminates_each_column_once(monkeypatch):
    # a column that becomes a pivot is not eliminated a second time
    calls = []
    eliminate = ExactSpan._eliminate

    def counting(self, row, hist):
        calls.append(len(row))
        return eliminate(self, row, hist)

    monkeypatch.setattr(ExactSpan, "_eliminate", counting)
    rng = make_rng(708)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        del calls[:]
        integer_nullspace(rows, ncols)
        assert len(calls) == ncols


def _reference_clear_denominators(terms):
    """The Fraction-based formula that `_clear_denominators` replaced."""
    denom = lcm(*(Fraction(v).denominator for v in terms.values()))
    return {k: int(Fraction(v) * denom) for k, v in terms.items() if v}, denom


_values = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 36)),
)


@example({0: Fraction(1, 2), 1: Fraction(1, 3), 2: 0})
@given(st.dictionaries(st.integers(0, 20), _values, max_size=8))
def test_clear_denominators_matches_the_fraction_formula(terms):
    row, denom = _clear_denominators(terms)
    expected_row, expected_denom = _reference_clear_denominators(terms)
    assert denom == expected_denom
    assert list(row.items()) == list(expected_row.items())
    assert all(type(v) is int for v in row.values())

"""ExactSpan on rows whose leading coefficients are not units, its
reduction against a rank oracle, and the nullspaces built on it."""

from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from jetform import (
    ExactSpan,
    JetRingDesc,
    derivative_monomial,
    homogeneous_membership,
    jet_generators,
    jets,
)
from jetform.linalg import rational_nullspace

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
        assert _combine(rows, piv.hist) == piv.terms


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
        span.insert(row, label)
        _check_pivots(span, rows)
    assert span.rank == 8
    assert any(piv.terms[lead] > 1 for lead, piv in span.pivots.items())
    for _ in range(20):
        coeffs = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in rows}
        query = _combine(rows, coeffs)
        rem, comb = span.reduce(query)
        assert not rem
        assert _combine(rows, comb) == query


@st.composite
def spans_and_queries(draw):
    """Up to five integer rows over keys 0..5, leads not restricted to +-1,
    and a rational query that is a combination of the rows (a member) or
    drawn freely (usually not one)."""
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 5), entry, max_size=4), max_size=5))
    rows = {label: {k: v for k, v in row.items() if v} for label, row in enumerate(rows)}
    ratio = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    if rows and draw(st.booleans()):
        coeffs = {label: draw(ratio) for label in rows}
        query = {k: Fraction(v) for k, v in _combine(rows, coeffs).items()}
    else:
        query = draw(st.dictionaries(st.integers(0, 5), ratio, max_size=4))
    return rows, query


@given(spans_and_queries())
def test_reduce_decides_membership_by_rank_and_certifies_members(case):
    import sympy

    rows, query = case
    span = ExactSpan()
    for label, row in rows.items():
        span.insert(row, label)

    def rank(vectors):
        return sympy.Matrix([[v.get(k, 0) for k in range(6)] for v in vectors] or [[0] * 6]).rank()

    member = rank(list(rows.values()) + [query]) == rank(list(rows.values()))
    rem, comb = span.reduce(query)
    assert (not rem) == member
    if member:
        assert _combine(rows, comb) == {k: v for k, v in query.items() if v}
    else:
        assert comb == {}
        assert all(isinstance(v, Fraction) for v in rem.values())


def _sympy_nullspace(rows, ncols):
    import sympy

    matrix = sympy.Matrix(len(rows), ncols, [sympy.Rational(str(v)) for r in rows for v in r])
    return [[Fraction(str(x)) for x in vec] for vec in matrix.nullspace()]


def test_rational_nullspace_matches_sympy_on_the_oracle_grading_systems(monkeypatch):
    """The grading systems of the 37-tuple oracle table.  A search eliminates
    only at the member degree, where every generator is usable and the query
    monomial adds no constraint, so its system is the one a degree-n query
    sees; recording that query's system spares the elimination."""
    systems = []

    def recording(rows, ncols):
        basis = rational_nullspace(rows, ncols)
        systems.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(jets, "rational_nullspace", recording)
    tuples = _oracle_tuples()
    for h in tuples:
        desc = JetRingDesc(len(h), sum(h))
        homogeneous_membership(derivative_monomial(h, desc), jet_generators(None, desc))
    # for n = 1 the generators are monomials: no constraint, no system
    assert len(systems) == sum(len(h) > 1 for h in tuples) == 33
    for rows, ncols, basis in systems:
        assert basis == _sympy_nullspace(rows, ncols)


def test_rational_nullspace_matches_sympy_on_random_matrices():
    rng = make_rng(707)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-3, 3) * rng.randint(0, 1), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert rational_nullspace(rows, ncols) == _sympy_nullspace(rows, ncols)

"""ExactSpan on rows whose leading coefficients are not units."""

from fractions import Fraction
from math import gcd

from jetform import ExactSpan

from conftest import make_rng


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

"""Property tests of the polynomial layer: the text format round-trips and
Poly arithmetic obeys the commutative ring axioms, over z rings and jet
rings with negative and fractional coefficients."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from jetform import JetRingDesc, Monomial, Poly, parse_poly, zring
from jetform.polyring import format_poly

RINGS = [zring(ell) for ell in (1, 2, 3, 4)] + [
    JetRingDesc(n, m).ring for n, m in ((1, 0), (1, 2), (2, 1), (3, 1))
]

coefficients = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=7)
)


def monomials(ring):
    return st.lists(
        st.integers(min_value=0, max_value=3), min_size=ring.nvars, max_size=ring.nvars
    ).map(lambda exps: Monomial(tuple(exps)))


def polys_in(ring):
    return st.dictionaries(monomials(ring), coefficients, max_size=5).map(
        lambda terms: Poly(ring, terms)
    )


def poly_tuples(size):
    return st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(*[polys_in(ring)] * size))


@given(poly_tuples(1))
def test_format_then_parse_round_trips(polys):
    (p,) = polys
    assert parse_poly(p.ring, format_poly(p)) == p


@given(poly_tuples(2))
def test_add_and_mul_commute(polys):
    a, b = polys
    assert a + b == b + a
    assert a * b == b * a


@given(poly_tuples(3))
def test_add_and_mul_associate(polys):
    a, b, c = polys
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(poly_tuples(3))
def test_mul_distributes_over_add(polys):
    a, b, c = polys
    assert a * (b + c) == a * b + a * c
    assert a * (b - c) == a * b - a * c


@given(
    st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(polys_in(ring), monomials(ring), coefficients)
    )
)
def test_mul_monomial_agrees_with_mul(args):
    p, mono, coeff = args
    assert p.mul_monomial(mono, coeff) == p * Poly(p.ring, {mono: coeff})

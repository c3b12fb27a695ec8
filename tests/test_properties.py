"""Property tests of the polynomial layer: the text format round-trips,
Poly arithmetic obeys the commutative ring axioms, term order and zero
coefficients never show, and a Monomial behaves as its exponent tuple, over
z rings and jet rings with negative and fractional coefficients."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from jetform import (
    Composition,
    JetRingDesc,
    Monomial,
    Poly,
    divided_difference,
    parse_poly,
    sym_lambda_average,
    zring,
)
from jetform.polyring import format_poly

RINGS = [zring(ell) for ell in (1, 2, 3, 4)] + [
    JetRingDesc(n, m).ring for n, m in ((1, 0), (1, 2), (2, 1), (3, 1))
]

coefficients = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=7)
)


def exponent_tuples(nvars):
    return st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)


def monomials(ring):
    return exponent_tuples(ring.nvars).map(Monomial)


def polys_in(ring):
    return st.dictionaries(monomials(ring), coefficients, max_size=5).map(
        lambda terms: Poly(ring, terms)
    )


def poly_tuples(size, rings=RINGS):
    return st.sampled_from(rings).flatmap(lambda ring: st.tuples(*[polys_in(ring)] * size))


def reordered_terms(p):
    """p together with its terms in some other order."""
    return st.tuples(st.just(p), st.permutations(list(p.terms.items())))


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


@given(poly_tuples(1).flatmap(lambda polys: reordered_terms(polys[0])))
def test_format_eq_and_hash_ignore_term_order(args):
    p, items = args
    q = Poly(p.ring, dict(items))
    assert format_poly(q) == format_poly(p)
    assert q == p
    assert hash(q) == hash(p)


@given(poly_tuples(2, rings=[zring(ell) for ell in (2, 3, 4)]))
def test_no_zero_coefficient_is_stored(polys):
    # every input below has terms that cancel: b - a against a, the cross
    # terms of (a + b)(a - b), and the symmetric or antisymmetric parts
    a, b = polys
    ell = a.ring.nvars
    swapped = a.swap_vars(0, 1)
    results = {
        "add": a + (b - a),
        "sub": a - (a + b),
        "mul": (a + b) * (a - b),
        "permute_vars": (a - b).permute_vars(list(reversed(range(ell)))),
        "divided_difference": divided_difference(a + swapped + b, 1),
        "sym_lambda_average": sym_lambda_average(a - swapped + b, Composition([2, ell - 2])),
    }
    assert results["add"] == b
    assert results["sub"] == -b
    assert results["mul"] == a * a - b * b
    assert results["divided_difference"] == divided_difference(b, 1)
    assert results["sym_lambda_average"] == sym_lambda_average(b, Composition([2, ell - 2]))
    for name, p in results.items():
        assert 0 not in p.terms.values(), name


@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(*[exponent_tuples(n)] * 2)))
def test_monomial_is_its_exponent_tuple(pair):
    a, b = pair
    ma, mb = Monomial(a), Monomial(b)
    assert (ma == mb) == (a == b)
    assert hash(ma) == hash(a)
    assert [ma < mb, ma <= mb, ma > mb, ma >= mb] == [a < b, a <= b, a > b, a >= b]
    assert sorted([mb, ma]) == sorted([b, a])
    assert ma.deg == sum(a)
    assert ma * mb == tuple(x + y for x, y in zip(a, b))

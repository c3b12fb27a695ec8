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
        assert 0 not in p.nums.values() and 0 not in p.terms.values(), name


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


# -- the integer representation against a plain Fraction-dict reference ----------
#
# The reference keeps Monomial -> Fraction maps and drops a zero when a sum is
# finished, as Poly did before it stored numerators over one denominator; the
# operations must give its terms in its order.


def _ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 * m2
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_substitute(terms, one, images):
    """The running sum of c * prod(images[i] ** e): a cancelled term is
    dropped at once, so should it come back it goes last."""
    out = {}
    for m, c in terms.items():
        acc = {one: c}
        for img, e in zip(images, m):
            for _ in range(e):
                acc = _ref_mul(acc, img)
        for mono, coeff in acc.items():
            coeff += out.get(mono, 0)
            if coeff:
                out[mono] = coeff
            else:
                del out[mono]
    return out


def _items(p):
    return list(p.terms.items())


@given(poly_tuples(2), coefficients)
def test_arithmetic_agrees_with_the_fraction_reference(polys, k):
    a, b = polys
    ta, tb = a.terms, b.terms
    assert _items(a + b) == list(_ref_add(ta, tb).items())
    assert _items(a - b) == list(_ref_add(ta, tb, -1).items())
    assert _items(-a) == [(m, -c) for m, c in ta.items()]
    assert _items(a * b) == list(_ref_mul(ta, tb).items())
    assert _items(a.scale(k)) == [(m, c * k) for m, c in ta.items() if c * k]
    assert _items(a * k) == _items(k * a) == _items(a.scale(k))
    power = {a.ring.one_monomial(): Fraction(1)}
    for e in range(4):
        assert (a**e).terms == power
        power = _ref_mul(power, ta)
    images = list(range(a.ring.nvars))[::-1]
    reversed_terms = [(Monomial(m[::-1]), c) for m, c in ta.items()]
    assert _items(a.permute_vars(images)) == reversed_terms
    for p in (a + b, a - b, a * b, a.scale(k), a**2, a.permute_vars(images)):
        assert p.denom > 0 and 0 not in p.nums.values()
        assert p.terms == {m: Fraction(n, p.denom) for m, n in p.nums.items()}


def _small_polys(ring):
    terms = st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * ring.nvars).map(Monomial),
        coefficients,
        max_size=3,
    )
    return terms.map(lambda t: Poly(ring, t))


@given(
    st.sampled_from([zring(ell) for ell in (1, 2, 3)]).flatmap(
        lambda ring: st.tuples(
            _small_polys(ring),
            st.lists(_small_polys(zring(2)), min_size=ring.nvars, max_size=ring.nvars),
        )
    )
)
def test_substitute_agrees_with_the_fraction_reference(args):
    p, images = args
    target = zring(2)
    got = p.substitute(target, images)
    expected = _ref_substitute(p.terms, target.one_monomial(), [img.terms for img in images])
    assert _items(got) == list(expected.items())
    assert 0 not in got.nums.values()


@given(poly_tuples(1), st.integers(min_value=2, max_value=12), coefficients.filter(bool))
def test_equal_values_over_other_denominators_are_equal(polys, k, c):
    (p,) = polys
    ring = p.ring
    scaled = Poly._from_ints(ring, {m: k * n for m, n in p.nums.items()}, k * p.denom)
    there_and_back = p.scale(c).scale(1 / c)
    for q in (scaled, there_and_back):
        assert q == p and p == q and not q != p
        assert hash(q) == hash(p)
        assert str(q) == str(p) and repr(q) == repr(p)
        assert _items(q) == _items(p)
        for other in (p + ring.one(), p.scale(2)) if p else (ring.one(),):
            assert q != other and other != q
    assert scaled.denom != p.denom


@given(poly_tuples(1))
def test_terms_is_a_fresh_view(polys):
    (p,) = polys
    before = _items(p)
    view = p.terms
    view.clear()
    assert _items(p) == before and p.terms is not p.terms

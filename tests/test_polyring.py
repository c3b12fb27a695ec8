import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetform import (
    Budget,
    Composition,
    DomainError,
    ExactSpan,
    JetRingDesc,
    JetformError,
    ParseError,
    Permutation,
    RingMismatchError,
    Ring,
    c_lambda_generators,
    c_lambda_ring,
    compositions,
    divide,
    elementary_symmetric,
    homogeneous_membership,
    jet_generators,
    min_degree_search,
    normal_form_IS,
    nu,
    parse_poly,
    schubert_expansion,
    sym_lambda_average,
    zring,
)
from jetform.polyring import (
    Monomial, Packing, Poly, _ratio_text, format_monomial, format_poly, spoly,
)

from conftest import make_rng, random_poly


@pytest.fixture
def R3():
    return zring(3)


def test_product_difference_of_squares(R3):
    z1, z2, _ = R3.gens()
    assert (z1 + z2) * (z1 - z2) == z1**2 - z2**2


def test_product_with_zero(R3):
    z1, z2, _ = R3.gens()
    p = z1**2 + 3 * z2
    assert p * R3.zero() == R3.zero()
    assert R3.zero() * p == R3.zero()


def test_binomial_square(R3):
    z1, z2, _ = R3.gens()
    assert (z1 + z2) ** 2 == z1**2 + 2 * z1 * z2 + z2**2


def test_pow_empty_product(R3):
    z1 = R3.var(0)
    assert z1**0 == R3.one()


def test_pow_cube(R3):
    z1, z2, _ = R3.gens()
    expected = z1**3 + 3 * z1**2 * z2 + 3 * z1 * z2**2 + z2**3
    assert (z1 + z2) ** 3 == expected


def test_pow_of_monomial(R3):
    z1, z2, _ = R3.gens()
    assert (z1 * z2) ** 2 == z1**2 * z2**2


def test_from_terms_checks_monomial_keys_as_it_checks_tuples():
    # a Monomial key of the wrong length or with a negative exponent is
    # refused as its tuple is, not stored as given
    ring = zring(2)
    for bad in ((1, 2, 3), (1, -1)):
        for key in (bad, Monomial(bad)):
            with pytest.raises(JetformError):
                ring.from_terms({key: 1})
    with pytest.raises(RingMismatchError):
        ring.from_terms({Monomial((1, 2, 3)): 1})
    z1, z2 = ring.gens()
    expected = z1 * 2 + z2 * Fraction(1, 2)
    assert ring.from_terms({Monomial((1, 0)): 2, (0, 1): Fraction(1, 2)}) == expected
    # the constructor checks its keys the same way: none of these reaches
    # a normal form or a degree
    with pytest.raises(RingMismatchError):
        normal_form_IS(Poly(ring, {Monomial((1, 0, 0)): 1}))
    for key in (Monomial((-1, 0)), (1, 0)):
        with pytest.raises(DomainError) as info:
            Poly(ring, {key: 1}).total_degree()
        assert not isinstance(info.value, RingMismatchError)
    assert Poly(ring, {Monomial((1, 0)): 2, Monomial((0, 1)): Fraction(1, 2)}) == expected


@pytest.mark.parametrize("coeff", [0.1, 0.5, 1.0, "1", "1/3", "abc", complex(1, 0)])
def test_a_coefficient_that_is_not_rational_is_refused(coeff):
    # the constructor and every entry point that takes a coefficient refuse
    # it alike, naming its type, where Fraction would round or parse it
    ring = zring(2)
    z1 = ring.var(0)
    message = "coefficients must be ints or Fractions, not %s$" % type(coeff).__name__
    for call in [
        lambda: Poly(ring, {Monomial((1, 0)): coeff}),
        lambda: z1.scale(coeff),
        lambda: z1.mul_monomial(Monomial((1, 0)), coeff),
        lambda: ring.const(coeff),
        lambda: ring.from_terms({(1, 0): coeff}),
    ]:
        with pytest.raises(DomainError, match=message):
            call()
    with pytest.raises(DomainError):
        Poly(ring, {Monomial((0, 1)): Fraction(1, 3), Monomial((1, 0)): coeff})


def test_ints_and_fractions_are_exact_coefficients():
    ring = zring(2)
    p = Poly(ring, {Monomial((1, 0)): 3, Monomial((0, 1)): Fraction(-2, 6), Monomial((0, 0)): 0})
    assert p.nums == {Monomial((1, 0)): 9, Monomial((0, 1)): -1} and p.denom == 3
    assert str(p * 3) == "9*z1 - z2"
    # Ring.const, from_terms, scale and mul_monomial take them as the constructor does
    half = Fraction(1, 2)
    assert ring.const(half) == ring.from_terms({(0, 0): half}) == ring.one().scale(half)
    assert ring.one().mul_monomial(Monomial((0, 0)), half) == ring.const(half)


def test_ring_mismatch_raises():
    a = zring(2).var(0)
    b = zring(3).var(0)
    with pytest.raises(RingMismatchError):
        a * b
    with pytest.raises(RingMismatchError):
        a + b


_Z = zring(2)
_P = _Z.var(0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: normal_form_IS(5),
        lambda: nu("x", 2),
        lambda: schubert_expansion(3, 2),
        lambda: schubert_expansion(3),
        lambda: sym_lambda_average(1, Composition((2,))),
        lambda: divide(_P, [1]),
        lambda: _P.substitute(_Z, [1, 2]),
        lambda: jet_generators([1], JetRingDesc(2, 1)),
        lambda: homogeneous_membership(_P, [1]),
        lambda: homogeneous_membership(1, [_P]),
        lambda: _P + 1,
        lambda: _P * 0.5,
        lambda: spoly(_P, 3),
        lambda: spoly(3, _P),
        lambda: homogeneous_membership(_P, [_P]).verify(None, [_P]),
        lambda: format_poly(5),
    ],
    ids=[
        "normal_form_IS", "nu", "schubert_expansion", "schubert_expansion_of_its_ring",
        "sym_lambda_average", "divide", "substitute", "jet_generators",
        "membership_generator", "membership_query", "add", "mul", "spoly", "spoly_first",
        "verify_query", "format_poly",
    ],
)
def test_a_value_that_is_not_a_polynomial_is_a_domain_error(call):
    # `errors._in_ring` refuses a value with no ring, naming what it wanted
    with pytest.raises(DomainError, match="must be a Poly, not "):
        call()


_DESC21 = JetRingDesc(2, 1)
_X1X2 = _DESC21.base_ring.var(0) * _DESC21.base_ring.var(1)
_Q = _DESC21.ring.var(0) * _DESC21.ring.var(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: jet_generators(_X1X2, _DESC21), "generators must be a sequence"),
        (lambda: homogeneous_membership(_Q, _Q), "generators must be a sequence"),
        (lambda: homogeneous_membership(_Q, None), "generators must be a sequence"),
        (
            lambda: homogeneous_membership(_Q, jet_generators(None, _DESC21)).verify(_Q, None),
            "generators must be a sequence",
        ),
        (lambda: divide(_P, _P), "division basis must be a sequence"),
        (lambda: _P.substitute(zring(3), 5), "substitution images must be a sequence"),
        (lambda: elementary_symmetric(zring(3), 1, 5), "variable indices must be a sequence"),
        (lambda: Permutation(3), "permutation must be a sequence"),
        (lambda: Composition(5), "composition parts must be a sequence"),
        (lambda: parse_poly(zring(3), 5), "polynomial text must be a str, not int"),
        (lambda: Ring(5), "variable names must be a sequence"),
        (lambda: _Z.monomial(5), "exponent vector must be a sequence"),
        (lambda: _P.permute_vars(5), "variable images must be a sequence"),
        (
            lambda: homogeneous_membership(_Q, jet_generators(None, _DESC21)).to_json(None),
            "ring must be a Ring, not NoneType$",
        ),
        (lambda: _Z.from_terms(5), "polynomial terms must be a Mapping, not int$"),
        (lambda: min_degree_search((1, 1), budget=5), "memory budget must be a Budget, not int$"),
        (lambda: ExactSpan(budget=5).insert({1: 1}, 0), "memory budget must be a Budget, not int$"),
        (
            lambda: homogeneous_membership(_Q, [_Q], budget=5),
            "memory budget must be a Budget, not int$",
        ),
    ],
    ids=[
        "jet_generators", "membership_generators", "membership_no_generators", "verify",
        "divide", "substitute", "elementary_symmetric", "Permutation", "Composition",
        "parse_poly", "Ring", "Ring.monomial", "permute_vars", "to_json", "Ring.from_terms",
        "min_degree_search_budget", "ExactSpan_budget", "membership_budget",
    ],
)
def test_a_value_that_is_not_a_sequence_or_text_is_a_domain_error(call, message):
    # `errors._sequence` refuses a value it cannot iterate, and `errors._instance`
    # a value of another type, naming the argument
    with pytest.raises(DomainError, match=message):
        call()


def test_ring_axioms_random():
    rng = make_rng(101)
    ring = zring(3)
    for _ in range(40):
        a = random_poly(ring, rng)
        b = random_poly(ring, rng)
        c = random_poly(ring, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


# -- division -----------------------------------------------------------------


def test_divide_to_zero_remainder():
    ring = zring(2)
    z1, z2 = ring.gens()
    quots, rem = divide(z1**2, [z1 + z2, z2**2])
    assert rem.is_zero()
    assert quots[0] == z1 - z2
    assert quots[1] == ring.one()


def test_divide_no_leading_division():
    ring = zring(2)
    z1, z2 = ring.gens()
    quots, rem = divide(z2, [z1])
    assert rem == z2
    assert quots[0].is_zero()


def test_divide_single_step():
    ring = zring(2)
    z1, z2 = ring.gens()
    quots, rem = divide(z1, [z1 + z2])
    assert rem == -z2
    assert z1 == quots[0] * (z1 + z2) + rem


def test_divide_identity_and_reduced_remainder():
    rng = make_rng(2024)
    ring = zring(3)
    for _ in range(25):
        p = random_poly(ring, rng, max_deg=4, terms=5)
        basis = []
        while len(basis) < 2:
            g = random_poly(ring, rng, max_deg=2, terms=3)
            if not g.is_zero():
                basis.append(g)
        quots, rem = divide(p, basis)
        recombined = rem
        for q, g in zip(quots, basis):
            recombined = recombined + q * g
        assert recombined == p
        lead_monos = [g.leading()[0] for g in basis]
        for mono in rem.terms:
            assert not any(lm.divides(mono) for lm in lead_monos)
        # dividing the remainder again changes nothing
        quots2, rem2 = divide(rem, basis)
        assert rem2 == rem
        assert all(q.is_zero() for q in quots2)


def test_divide_ties_go_to_lowest_index():
    ring = zring(2)
    z1, z2 = ring.gens()
    # both basis elements have leading monomial dividing z1^2
    quots, rem = divide(z1**2, [z1, z1 + z2])
    assert quots[0] == z1
    assert quots[1].is_zero()
    assert rem.is_zero()


def test_divide_by_an_empty_basis_leaves_p_as_the_remainder():
    ring = zring(2)
    p = ring.var(0) + ring.one()
    assert divide(p, []) == ([], p)


def test_divide_rejects_zero_basis_element():
    ring = zring(2)
    with pytest.raises(ValueError):
        divide(ring.var(0), [ring.zero()])


# -- monomial order -----------------------------------------------------------


def test_lex_order_is_multiplicative():
    ring = zring(4)
    rng = make_rng(31)

    def random_monomial():
        exps = [rng.randint(0, 3) for _ in range(4)]
        return ring.monomial(exps)

    for _ in range(200):
        m = random_monomial()
        n1 = random_monomial()
        n2 = random_monomial()
        if n1 < n2:
            assert m * n1 < m * n2


def test_leading_is_lex_with_first_variable_largest():
    ring = zring(2)
    z1, z2 = ring.gens()
    p = z1**2 + z2
    assert p.leading()[0] == (z1**2).leading()[0]


# -- series coefficients -------------------------------------------------------
# jet_generators and c_lambda_generators read t-coefficients off a product of
# series; the reference multiplies in a ring with t adjoined instead.


def _t_coefficients(p: Poly, ring: Ring, top: int) -> list[Poly]:
    """The coefficients of t^0..t^top of p, in a ring of `ring`'s variables
    and t last, as polynomials in `ring`; nothing above t^top is checked."""
    sliced = [{} for _ in range(top + 1)]
    for mono, coeff in p.terms.items():
        if mono[-1] <= top:
            sliced[mono[-1]][ring.monomial(mono[:-1])] = coeff
    return [ring.from_terms(terms) for terms in sliced]


def test_jet_generators_match_substituting_jet_series():
    rng = make_rng(21)
    for n in range(1, 4):
        for m in range(5):
            desc = JetRingDesc(n, m)
            ext = Ring(desc.ring.names + ("t",))
            t = ext.var(ext.nvars - 1)
            series = [
                sum((ext.var(desc.slot(i, j)) * t**j for j in range(m + 1)), ext.zero())
                for i in range(1, n + 1)
            ]
            base = desc.base_ring
            x1 = base.var(0)
            product = base.one()
            for x in base.gens():
                product = product * x
            # None stands for x_1...x_n; then a zero generator, a constant
            # term, a repeated factor and random generators
            gens = [product, base.zero(), x1**2 + base.const(Fraction(-2, 3)), x1**2 * base.var(n - 1)]
            gens += [random_poly(base, rng, max_deg=3, terms=3) for _ in range(4)]
            expected = []
            for g in gens:
                expected += _t_coefficients(g.substitute(ext, series), desc.ring, m)
            assert jet_generators(gens, desc) == expected
            assert jet_generators(None, desc) == expected[: m + 1]


def test_c_lambda_generators_match_the_product_of_block_polynomials():
    for ell in range(1, 7):
        for n in range(1, 5):
            for lam in compositions(ell, n):
                ring = c_lambda_ring(lam)
                ext = Ring(ring.names + ("t",))
                t = ext.var(ext.nvars - 1)
                product = ext.one()
                for i in range(1, n + 1):
                    block = t ** lam.parts[i - 1]
                    for j, slot in enumerate(lam.block(i)):
                        block = block + ext.var(slot) * t**j
                    product = product * block
                *expected, lead = _t_coefficients(product, ring, ell)
                assert lead == ring.one(), lam
                assert c_lambda_generators(lam) == tuple(expected), lam


# -- parsing and printing ------------------------------------------------------


def test_parse_simple_examples():
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert parse_poly(ring, "z1 + z2") == z1 + z2
    assert parse_poly(ring, "2*z1^2*z3 - 1/2*z2") == 2 * z1**2 * z3 - z2.scale(Fraction(1, 2))
    assert parse_poly(ring, "-z2") == -z2
    assert parse_poly(ring, "5") == ring.const(5)
    assert parse_poly(ring, " z1 * z2 ^ 2 ") == z1 * z2**2


def test_parse_jet_variable_names():
    ring = Ring(("x1_0", "x1_1", "x2_0", "x2_1"))
    p = parse_poly(ring, "x1_0*x2_1 + x1_1*x2_0")
    assert p == ring.var(0) * ring.var(3) + ring.var(1) * ring.var(2)


def test_parse_rejects_unknown_variable():
    ring = zring(3)
    with pytest.raises(ParseError):
        parse_poly(ring, "z7")
    with pytest.raises(ParseError):
        parse_poly(ring, "z1 + w2")


def test_parse_rejects_garbage():
    ring = zring(2)
    with pytest.raises(ParseError, match="empty polynomial text"):
        parse_poly(ring, "")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly(ring, "3/0")
    # one input per rejection branch of the reference parser below
    for bad in ("z1 +", "* z1", "z1 ^", "z1 ? z2", "z1 - -z2", "2 z1", "z1 z2",
                "z1^2^3", "z1/2", "1/2/3", "+-z1", "(z1)", "z1**2", "2*3", "z1*2",
                "z1 # z2"):
        with pytest.raises(ParseError):
            reference_parse(ring, bad)
        with pytest.raises(ParseError, match=r"^unexpected .+ at position \d+$"):
            parse_poly(ring, bad)
    with pytest.raises(ParseError, match=r"^unexpected '#' at position 3$"):
        parse_poly(ring, "z1 # z2")
    # past int()'s limit on converted digits: a coefficient, exponent, denominator
    long = "1" * 5000
    for bad, at in ((long, 0), ("z1^" + long, 3), ("z2 + 1/" + long, 7)):
        with pytest.raises(ParseError, match=r"^number too long at position %d$" % at):
            parse_poly(ring, bad)


def test_parse_drops_a_cancelled_term_at_once():
    # the running sum z1, z1 + z2, z2, z2 + z1: z1 cancels and comes back last
    ring = zring(2)
    z1, z2 = (g.leading()[0] for g in ring.gens())
    for parse in (parse_poly, reference_parse):
        assert list(parse(ring, "z1 + z2 - z1 + z1").terms) == [z2, z1]


def test_format_round_trip_random():
    rng = make_rng(77)
    ring = zring(4)
    for _ in range(100):
        p = random_poly(ring, rng, max_deg=5, terms=6)
        assert parse_poly(ring, format_poly(p)) == p
    assert format_poly(ring.zero()) == "0"
    assert parse_poly(ring, "0") == ring.zero()


# -- reference parser ----------------------------------------------------------
# The tokenizer and token-stream parser that `parse_poly` replaced, copied
# verbatim: the oracle that `parse_poly` must match on acceptance, rejection
# and term order.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError("unexpected character %r at position %d" % (tail[0], pos))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: Ring, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_num(self) -> int:
        kind, val = self.take()
        if kind != "num":
            raise ParseError("expected a number, got %r" % (val,))
        return int(val)

    def parse(self) -> Poly:
        result = self.ring.zero()
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        while True:
            result = result + self.term().scale(sign)
            kind, val = self.peek()
            if kind is None:
                return result
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError("expected '+' or '-', got %r" % (val,))

    def term(self) -> Poly:
        coeff = Fraction(1)
        exps = [0] * self.ring.nvars
        kind, val = self.peek()
        if kind == "num":
            self.take()
            num = int(val)
            kind, nxt = self.peek()
            if kind == "op" and nxt == "/":
                self.take()
                den = self.expect_num()
                if den == 0:
                    raise ParseError("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            kind, nxt = self.peek()
            if kind == "op" and nxt == "*":
                self.take()
                self.factor(exps)
            else:
                # bare constant term
                return self.ring.const(coeff)
        else:
            self.factor(exps)
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exps)
                continue
            break
        return Poly(self.ring, {Monomial(tuple(exps)): coeff})

    def factor(self, exps: list[int]):
        kind, val = self.take()
        if kind != "name":
            raise ParseError("expected a variable name, got %r" % (val,))
        idx = self.ring.index(val)
        exp = 1
        kind, nxt = self.peek()
        if kind == "op" and nxt == "^":
            self.take()
            exp = self.expect_num()
        exps[idx] += exp


def reference_parse(ring: Ring, text: str) -> Poly:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _Parser(ring, tokens).parse()


# the grammar's alphabet: whitespace (`\s` and `str.strip` agree on all of
# it), signs, coefficients with zero numerators, known names and a non-ASCII
# digit; one piece in ten is a stray: a zero denominator, an unknown name, a
# bare '^', a stray '*', '#', a parenthesis or '?'
_SPACES = ["", "", " ", "\t", "\n", "\x1c", "\xa0"]
_SIGNS = ["+", "-"]
_TERMS = ["z1", "z2", "1", "2*z1", "z1*z2", "1/2", "0", "0/3", "z1^2", "1 / 2 * z1 ^ 2",
          "z2^0", "\u0663*z"]
_STRAYS = ["", "3/0", "/0", "2/", "x1", "z12", "z1z2", "z1^", "^", "^3", "*", "**", "#",
           "(", ")", "?", "z1 z2"]


@st.composite
def poly_texts(draw):
    """Sums of up to eight signed terms, with a stray piece now and then."""

    def piece(alphabet):
        if not draw(st.integers(0, 9)):
            alphabet = _STRAYS
        return "".join(draw(st.sampled_from(a)) for a in (_SPACES, alphabet, _SPACES))

    text = draw(st.sampled_from(["", "+", "-"])) + piece(_TERMS)
    for _ in range(draw(st.integers(0, 7))):
        text += piece(_SIGNS) + piece(_TERMS)
    return text


@settings(max_examples=2000)
@given(poly_texts())
def test_parse_matches_reference_parser(text):
    ring = Ring(("z1", "z2", "z"))
    try:
        reference = reference_parse(ring, text)
    except ParseError:
        with pytest.raises(ParseError):
            parse_poly(ring, text)
    else:
        _assert_parsed_as(parse_poly(ring, text), reference)


def _assert_parsed_as(p: Poly, reference: Poly):
    """p has the reference's terms in its order, and the integer form the
    public constructor gives them: the same nums, in order, and denom."""
    assert list(p.terms.items()) == list(reference.terms.items())
    canonical = Poly(reference.ring, reference.terms)
    assert list(p.nums.items()) == list(canonical.nums.items())
    assert p.denom == canonical.denom


def test_parse_sums_many_distinct_denominators():
    # 300 terms over the first 150 primes, each prime twice: the second half
    # of the text cancels every third term of the first half, dropping it at
    # once, and adds the rest onto other monomials
    primes = [q for q in range(2, 1000) if all(q % d for d in range(2, int(q**0.5) + 1))][:150]
    monos = ["z1^%d*z2^%d*z3^%d" % (k // 25, k // 5 % 5, k % 5) for k in range(150)]
    first = ["%d/%d*%s" % (k + 1, q, monos[k]) for k, q in enumerate(primes)]
    second = [
        "- %d/%d*%s" % (k + 1, q, monos[k]) if k % 3 == 0 else "+ 1/%d*%s" % (q, monos[7 * k % 150])
        for k, q in enumerate(primes)
    ]
    text = " + ".join(first) + " " + " ".join(second)
    ring = zring(3)
    p = parse_poly(ring, text)
    _assert_parsed_as(p, reference_parse(ring, text))
    assert len(p.nums) == 100
    assert p.denom == prod(primes[k] for k in range(150) if k % 3)


@settings(max_examples=1000)
@given(st.integers() | st.integers(-(2**200), 2**200), st.integers(1) | st.integers(1, 2**100))
@example(0, 7)
@example(-6, 4)
@example(2**70, 3)
@example(-(2**65) * 9, 3 * 2**64)
def test_ratio_text_is_fraction_text(num, den):
    assert _ratio_text(num, den) == str(Fraction(num, den))


def reference_format(p: Poly) -> str:
    """`format_poly` as it was: str(Fraction) of each term of `.terms`, its
    sign split off."""
    if p.is_zero():
        return "0"
    chunks = []
    for i, (mono, coeff) in enumerate(sorted(p.terms.items(), reverse=True)):
        mag = str(coeff)
        neg = mag[0] == "-"
        mag = mag.lstrip("-")
        body = format_monomial(p.ring, mono)
        if body == "1":
            text = mag
        elif mag == "1":
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if i == 0:
            chunks.append("-" + text if neg else text)
        else:
            chunks.append((" - " if neg else " + ") + text)
    return "".join(chunks)


_FORMAT_COEFFS = st.sampled_from([Fraction(1), Fraction(-1)]) | st.fractions(max_denominator=60)


@settings(max_examples=500)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3).map(Monomial), _FORMAT_COEFFS, max_size=6),
    st.integers(1, 12),
)
def test_format_matches_reference_formatter(terms, spread):
    # the canonical integer form, and the same values over a denominator
    # `spread` times too large, as arithmetic may leave it
    ring = zring(3)
    p = Poly(ring, terms)
    wide = Poly._from_ints(ring, {m: n * spread for m, n in p.nums.items()}, p.denom * spread)
    for q in (p, wide):
        assert format_poly(q) == reference_format(q)


def reference_substitute(p: Poly, target: Ring, images) -> Poly:
    """`Poly.substitute` as it was before it summed into one dict: it added
    each term's image to a new Poly, copying the running sum every time."""
    result = target.zero()
    power_cache = {}
    for m, c in p.terms.items():
        acc = target.const(c)
        for i, e in enumerate(m):
            if not e:
                continue
            key = (i, e)
            q = power_cache.get(key)
            if q is None:
                q = images[i] ** e
                power_cache[key] = q
            acc = acc * q
        result = result + acc
    return result


_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


def _small_polys(nvars):
    """Up to five terms of degree at most 2 per variable, coefficients that
    cancel one another often."""
    monos = st.tuples(*[st.integers(0, 2)] * nvars).map(Monomial)
    return st.dictionaries(monos, _COEFFS, max_size=5)


@settings(max_examples=500)
@given(_small_polys(3), st.lists(_small_polys(2), min_size=3, max_size=3))
def test_substitute_matches_reference_term_order(terms, image_terms):
    source, target = zring(3), zring(2)
    p = Poly(source, terms)
    images = [Poly(target, t) for t in image_terms]
    expected = reference_substitute(p, target, images)
    assert list(p.substitute(target, images).terms.items()) == list(expected.terms.items())


@st.composite
def packed_pairs(draw):
    """A degree at or near a field-width boundary and two exponent vectors
    with entries up to it, the first clipped to divide the second half the
    time."""
    degree = draw(st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16]))
    nvars = draw(st.integers(min_value=1, max_value=5))
    vector = st.tuples(*[st.integers(0, degree)] * nvars).map(Monomial)
    a, b = draw(vector), draw(vector)
    if draw(st.booleans()):
        a = Monomial(map(min, a, b))
    return degree, a, b


@settings(max_examples=500)
@given(packed_pairs())
def test_packing_round_trips_and_keeps_order_product_and_divisibility(case):
    degree, a, b = case
    packing = Packing(len(a), degree)
    pa, pb = packing.pack(a), packing.pack(b)
    assert packing.unpack(pa) == a and type(packing.unpack(pa)) is Monomial
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    if max(a * b) <= degree:
        assert pa + pb == packing.pack(a * b)
    assert packing.divides(pa, pb) == a.divides(b)

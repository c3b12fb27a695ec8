from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetform import schubert, symfun
from jetform import (
    DomainError,
    ExactSpan,
    InvariantViolationError,
    ParseError,
    Permutation,
    Poly,
    block_rotation,
    catalan_congruence_check,
    catalan_number,
    divided_difference,
    in_IS,
    monk_expand,
    normal_form_IS,
    schubert_expansion,
    schubert_poly,
    schubert_table,
    zring,
)
from jetform.polyring import Monomial, _clear_denominators

from conftest import make_rng, random_poly
from test_properties import polys_in


def test_inversions_examples():
    assert Permutation.identity(4).length == 0
    assert Permutation([2, 3, 1]).length == 2
    w = block_rotation(3, 2)
    assert w.oneline == (2, 3, 1)
    assert w.length == 2 * (3 - 2) * 2 // 2  # lam1 * (ell - lam1) = 2


def test_permutation_validation_and_parse():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    w = Permutation.parse("[2,3,1]")
    assert w == Permutation([2, 3, 1])
    assert Permutation.parse(str(w)) == w
    assert repr(w) == "Permutation([2,3,1])"
    with pytest.raises(DomainError):
        Permutation.parse("[2,3]")
    with pytest.raises(ParseError):
        Permutation.parse("nope")


def test_permutation_composition_convention():
    # (self * other)(i) = self(other(i))
    a = Permutation([2, 1, 3])
    b = Permutation([1, 3, 2])
    assert (a * b).oneline == (2, 3, 1)
    assert (b * a).oneline == (3, 1, 2)


def test_divided_difference_examples():
    ring = zring(3)
    z1, z2, _ = ring.gens()
    assert divided_difference(z1, 1) == ring.one()
    assert divided_difference(z1 * z2, 1).is_zero()
    assert divided_difference(z1**2, 1) == z1 + z2


def test_divided_difference_square_zero_and_braid():
    rng = make_rng(12)
    ring = zring(4)
    for _ in range(15):
        p = random_poly(ring, rng, max_deg=4, terms=5)
        for i in (1, 2, 3):
            assert divided_difference(divided_difference(p, i), i).is_zero()
        for i in (1, 2):
            lhs = divided_difference(
                divided_difference(divided_difference(p, i), i + 1), i
            )
            rhs = divided_difference(
                divided_difference(divided_difference(p, i + 1), i), i + 1
            )
            assert lhs == rhs


def _indices_and_polys(ells, nindices, npolys):
    """Divided-difference indices, then polynomials, in one zring(ell)."""
    return st.sampled_from(ells).flatmap(
        lambda ell: st.tuples(
            *[st.integers(1, ell - 1)] * nindices, *[polys_in(zring(ell))] * npolys
        )
    )


@given(_indices_and_polys((2, 3, 4), 1, 2))
def test_divided_difference_leibniz_rule(args):
    i, f, g = args
    s_i_f = f.swap_vars(i - 1, i)
    expected = divided_difference(f, i) * g + s_i_f * divided_difference(g, i)
    assert divided_difference(f * g, i) == expected


@given(_indices_and_polys((4, 5), 2, 1))
def test_distant_divided_differences_commute(args):
    i, j, p = args
    if abs(i - j) >= 2:
        lhs = divided_difference(divided_difference(p, i), j)
        assert lhs == divided_difference(divided_difference(p, j), i)


def _indices_and_permutations(ells):
    """An index 1..ell-1 and a permutation in S_ell."""
    return st.sampled_from(ells).flatmap(
        lambda ell: st.tuples(
            st.integers(1, ell - 1), st.permutations(range(1, ell + 1)).map(Permutation)
        )
    )


@given(_indices_and_permutations((2, 3, 4, 5)))
def test_divided_difference_of_schubert_polynomial(args):
    i, w = args
    ws = w.swap_positions(i, i + 1)  # w * s_i
    image = divided_difference(schubert_poly(w), i)
    if ws.length < w.length:
        assert image == schubert_poly(ws)
    else:
        assert image.is_zero()


@given(_indices_and_permutations((5, 6)))
def test_monk_rule_through_expansion(args):
    r, w = args
    ell = w.ell
    product = schubert_poly(Permutation.simple(r, ell)) * schubert_poly(w)
    assert schubert_expansion(product, ell) == {v: Fraction(1) for v in monk_expand(r, w)}


def test_schubert_simple_reflections():
    for ell in (2, 3, 4):
        ring = zring(ell)
        for i in range(1, ell):
            expected = ring.zero()
            for k in range(i):
                expected = expected + ring.var(k)
            assert schubert_poly(Permutation.simple(i, ell)) == expected


def test_schubert_identity_and_grassmannian():
    assert schubert_poly(Permutation.identity(3)) == zring(3).one()
    ring = zring(3)
    assert schubert_poly(Permutation([3, 1, 2])) == ring.var(0) ** 2


def test_schubert_table_complete_and_graded():
    for ell in (2, 3, 4):
        table = schubert_table(ell)
        assert len(table) == factorial(ell)
        for w, poly in table.items():
            assert poly.is_homogeneous()
            assert poly.total_degree() == w.length


def test_schubert_word_independence():
    # every ascent route from a longer permutation gives the same polynomial
    for ell in (3, 4, 5):
        table = schubert_table(ell)
        for w, poly in table.items():
            for i in range(1, ell):
                v = w.swap_positions(i, i + 1)
                if v.length == w.length + 1:
                    assert divided_difference(table[v], i) == poly


def test_monk_examples():
    assert monk_expand(1, Permutation.identity(2)) == [Permutation([2, 1])]
    with pytest.raises(DomainError, match="Monk permutation size must be at least 2, got 1"):
        monk_expand(1, Permutation([1]))
    assert monk_expand(1, Permutation([2, 1])) == []
    assert in_IS(zring(2).var(0) ** 2)
    assert monk_expand(1, Permutation([2, 1, 3])) == [Permutation([3, 1, 2])]


def test_monk_matches_normal_form_product():
    for ell in (2, 3, 4):
        table = schubert_table(ell)
        nf = {w: normal_form_IS(p, ell) for w, p in table.items()}
        for w in table:
            for r in range(1, ell):
                product = normal_form_IS(table[Permutation.simple(r, ell)] * table[w], ell)
                total = zring(ell).zero()
                for v in monk_expand(r, w):
                    total = total + nf[v]
                assert product == normal_form_IS(total, ell)


def test_monk_matches_expansion_at_ell_6():
    ell = 6
    table = schubert_table(ell)
    perms = sorted(table)
    rng = make_rng(6)
    # the longest permutation gives a degree-16 product, beyond the top degree
    pairs = [(r, perms[-1]) for r in (1, 5)]
    pairs += [(rng.randint(1, ell - 1), w) for w in rng.sample(perms, 24)]
    for r, w in pairs:
        product = table[Permutation.simple(r, ell)] * table[w]
        expected = {v: Fraction(1) for v in monk_expand(r, w)}
        assert schubert_expansion(product, ell) == expected


def test_schubert_normal_forms_have_full_rank():
    from jetform import ExactSpan
    from jetform.polyring import _clear_denominators

    for ell in (2, 3, 4, 5):
        span = ExactSpan()
        for w, p in schubert_table(ell).items():
            assert span.insert(_clear_denominators(normal_form_IS(p, ell).terms)[0], w)
        assert span.rank == factorial(ell)


def test_expansion_examples():
    ring = zring(4)
    z = ring.gens()
    for i in (1, 2, 3):
        p = ring.zero()
        for k in range(i):
            p = p + z[k]
        assert schubert_expansion(p) == {Permutation.simple(i, 4): Fraction(1)}
    sym = z[0] + z[1] + z[2] + z[3]
    assert schubert_expansion(sym) == {}
    # binomial power lands on a single Grassmannian class with a Catalan coefficient
    expansion = schubert_expansion((z[0] + z[1]) ** 4)
    assert expansion == {block_rotation(4, 2): Fraction(2)}


def test_expansion_recombines_to_normal_form():
    rng = make_rng(3)
    ring = zring(4)
    table = schubert_table(4)
    for _ in range(8):
        p = random_poly(ring, rng, max_deg=4, terms=5)
        expansion = schubert_expansion(p)
        total = ring.zero()
        for w, c in expansion.items():
            total = total + table[w].scale(c)
        assert normal_form_IS(total, 4) == normal_form_IS(p, 4)


def _divided_difference_coefficients(f, ell):
    """c_w as the constant term of f after the divided differences of w:
    while w is not the identity, apply the one at its first descent i,
    w(i) > w(i+1), to f and swap positions i and i+1 of w.  A divided
    difference maps I_S into itself and an element of I_S has constant
    term 0, so c_w depends only on the class of f.  Any descent gives a
    reduced word of w and the same operator; the word applied in reverse
    order is that of w^-1 and disagrees on 13 of the 48 polynomials below."""
    out = {}
    for w in sorted(schubert_table(ell)):
        g, v = f, list(w.oneline)
        descents = [i for i in range(1, ell) if v[i - 1] > v[i]]
        while descents:
            i = descents[0]
            g = divided_difference(g, i)
            v[i - 1], v[i] = v[i], v[i - 1]
            descents = [i for i in range(1, ell) if v[i - 1] > v[i]]
        if g.constant_term():
            out[w] = g.constant_term()
    return out


def test_expansion_matches_the_divided_difference_oracle():
    rng = make_rng(2212)
    for ell in range(1, 5):
        ring = zring(ell)
        for _ in range(12):
            p = random_poly(ring, rng, max_deg=ell * (ell - 1) // 2 + 2, terms=5)
            assert schubert_expansion(p) == _divided_difference_coefficients(p, ell)
    table = schubert_table(5)
    perms = sorted(table)
    # the longest permutation gives a product above the top degree
    pairs = [(1, perms[-1])] + [(rng.randint(1, 4), w) for w in rng.sample(perms, 4)]
    for r, w in pairs:
        product = table[Permutation.simple(r, 5)] * table[w]
        expected = _divided_difference_coefficients(product, 5)
        assert schubert_expansion(product, 5) == expected
        if r != 1 or w != perms[-1]:
            assert expected == {v: Fraction(1) for v in monk_expand(r, w)}


@lru_cache(maxsize=None)
def _normal_form_span(ell):
    """The expansion's span before reversal: the normal forms of the S_w."""
    span = ExactSpan()
    for w, p in sorted(schubert_table(ell).items()):
        assert span.insert(symfun._normal_form(p, ell)[0], w)
    return span


def _expansion_by_normal_forms(p, ell):
    """The reference expansion: NF(p) reduced against the NF(S_w)."""
    terms, denom = symfun._normal_form(p, ell)
    coeffs, scale = _normal_form_span(ell).reduce(terms)
    return {w: Fraction(c, scale * denom) for w, c in sorted(coeffs.items())}


def _reversed(p):
    return p.permute_vars(range(p.ring.nvars - 1, -1, -1))


def _reference_divided_difference(p, i):
    """The Poly-level divided-difference loop that preceded the packed
    kernel, kept as a reference."""
    ia, ib = i - 1, i
    out = {}
    for mono, coeff in p.terms.items():
        a, b = mono[ia], mono[ib]
        if a == b:
            continue
        sign = 1
        if a < b:
            a, b = b, a
            sign = -1
        for k in range(b, a):
            exps = list(mono)
            exps[ia] = k
            exps[ib] = a + b - 1 - k
            key = Monomial(exps)
            out[key] = out.get(key, 0) + sign * coeff
    return Poly(p.ring, out)


@lru_cache(maxsize=None)
def _reference_table(ell):
    """The Poly-level search by length that preceded the packed rows."""
    ring = zring(ell)
    w0 = Permutation.longest(ell)
    table = {w0: Poly(ring, {Monomial(tuple(ell - 1 - k for k in range(ell))): Fraction(1)})}
    by_length = {w0.length: [w0]}
    for target_len in range(w0.length - 1, -1, -1):
        found = {}
        for w in by_length.get(target_len + 1, []):
            for i in range(1, ell):
                v = w.swap_positions(i, i + 1)
                if v.length == target_len and v not in found:
                    found[v] = _reference_divided_difference(table[w], i)
        by_length[target_len] = list(found)
        table.update(found)
    return table


def _reference_span(ell):
    """The span of the reference rows, reversed, packed and cleared."""
    pack = symfun._packing(ell).pack
    span = ExactSpan()
    for w, p in sorted(_reference_table(ell).items()):
        row, _ = _clear_denominators({pack(m): c for m, c in _reversed(p).terms.items()})
        assert span.insert(row, w)
    return span


def test_schubert_table_hands_out_no_cache():
    table = schubert_table(3)
    expected = dict(table)
    table.clear()
    assert schubert_table(3) == expected


def test_schubert_table_matches_the_poly_reference():
    for ell in range(1, 7):
        table, reference = schubert_table(ell), _reference_table(ell)
        assert list(table) == list(reference)
        for w, p in reference.items():
            assert list(table[w].terms.items()) == list(p.terms.items())


def test_schubert_span_pivots_match_the_reference_rows():
    # the inverse's rows are the reference span's relations for z^a, on
    # every reduced key a: its pivots' leads
    for ell in range(1, 7):
        perms, inverse = schubert._schubert_inverse(ell)
        reference = _reference_span(ell)
        assert list(perms) == sorted(_reference_table(ell))
        assert sorted(inverse) == sorted(reference.pivots)
        for key, row in inverse.items():
            combination, scale = reference.reduce({key: 1})
            assert scale == 1
            assert {perms[i]: c for i, c in row.items()} == combination
            assert all(row.values())


def test_schubert_inverse_inverts_the_rows():
    # M * X = I and X * M = I exactly, M the rows rho(S_w) by permutation
    # index over the reduced keys, X the inverse's rows by key
    for ell in range(1, 7):
        perms, inverse = schubert._schubert_inverse(ell)
        pack = symfun._packing(ell).pack
        rows = [
            _clear_denominators({pack(m): c for m, c in _reversed(_reference_table(ell)[w]).terms.items()})
            for w in perms
        ]
        assert all(d == 1 for _, d in rows)
        rows = [row for row, _ in rows]
        identity = {i: {i: 1} for i in range(len(perms))}
        product = {}
        for i, row in enumerate(rows):
            out = {}
            for key, c in row.items():
                for j, x in inverse[key].items():
                    out[j] = out.get(j, 0) + c * x
            product[i] = {j: v for j, v in out.items() if v}
        assert product == identity
        product = {}
        for key, x in inverse.items():
            out = {}
            for i, c in x.items():
                for k, v in rows[i].items():
                    out[k] = out.get(k, 0) + c * v
            product[key] = {k: v for k, v in out.items() if v}
        assert product == {key: {key: 1} for key in inverse}
        assert len(inverse) == factorial(ell)


def test_expansion_runs_no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Schubert expansion eliminated against an ExactSpan")

    rng = make_rng(3701)
    queries = []
    for ell in range(1, 7):
        ring = zring(ell)
        for _ in range(3):
            p = random_poly(ring, rng, max_deg=ell * (ell - 1) // 2, terms=4)
            queries.append((p, _expansion_by_normal_forms(p, ell)))
    monkeypatch.setattr(ExactSpan, "reduce", refuse)
    monkeypatch.setattr(ExactSpan, "_eliminate", refuse)
    schubert._schubert_inverse.cache_clear()
    try:
        for p, expected in queries:
            assert schubert_expansion(p) == expected
    finally:
        schubert._schubert_inverse.cache_clear()


def test_divided_difference_matches_the_poly_reference():
    rng = make_rng(2601)
    for n in (2, 3, 4):
        ring = zring(n)
        for _ in range(10):
            p = random_poly(ring, rng, max_deg=6, terms=6)
            for i in range(1, n):
                assert divided_difference(p, i) == _reference_divided_difference(p, i)


def test_schubert_poly_is_one_chain_of_the_table():
    for ell in range(1, 7):
        for w, p in schubert_table(ell).items():
            assert schubert_poly(w) == p


def test_schubert_polynomials_use_the_z_rings_packing(monkeypatch):
    # the table and single polynomials run on `symfun._packing(ell)` and
    # leave it by `symfun._z_poly`: no Packing of their own
    def refuse(*args):
        raise AssertionError("a Schubert polynomial built a Packing of its own")

    monkeypatch.setattr(schubert, "Packing", refuse)
    for ell in range(1, 7):
        table, reference = schubert_table(ell), _reference_table(ell)
        assert list(table) == list(reference)
        for w, p in reference.items():
            assert list(table[w].terms.items()) == list(p.terms.items())
    table = schubert_table(4)
    assert len(table) == 24
    for w, p in table.items():
        assert schubert_poly(w) == p


def test_schubert_poly_of_nine_builds_no_table(monkeypatch):
    def refuse(ell):
        raise AssertionError("schubert_poly built the whole table")

    monkeypatch.setattr(schubert, "schubert_table", refuse)
    w = Permutation([1, 3, 2, 5, 4, 7, 6, 9, 8])
    p = schubert_poly(w)
    # s_2 s_4 s_6 s_8 commute and are far apart, so Monk's rule gives one
    # term each time: S_w is the product of the S_{s_i} = z_1 + ... + z_i
    ring = zring(9)
    expected = ring.one()
    for i in (2, 4, 6, 8):
        expected = expected * sum((ring.var(k) for k in range(1, i)), ring.var(0))
    assert p == expected
    for i in range(1, 9):
        image = divided_difference(p, i)
        if w(i) > w(i + 1):
            assert image == schubert_poly(w.swap_positions(i, i + 1))
        else:
            assert image.is_zero()


def test_reversed_schubert_polynomials_are_normal_forms():
    for ell in range(1, 7):
        for p in schubert_table(ell).values():
            assert normal_form_IS(_reversed(p), ell) == _reversed(p)


def test_expansion_matches_the_normal_form_reference():
    rng = make_rng(2401)
    for ell in range(1, 7):
        ring = zring(ell)
        top = ell * (ell - 1) // 2
        for _ in range(10):
            # rational coefficients, and degrees up to three above the top
            p = random_poly(ring, rng, max_deg=top + 3, terms=6)
            assert schubert_expansion(p) == _expansion_by_normal_forms(p, ell)
        p = random_poly(ring, rng, max_deg=top, terms=4).mul_monomial(
            ring.monomial([1] + [0] * (ell - 1)), Fraction(-2, 7)
        )
        assert schubert_expansion(p) == _expansion_by_normal_forms(p, ell)


def test_monk_expansion_matches_the_normal_form_reference():
    rng = make_rng(2402)
    for ell in range(2, 7):
        table = schubert_table(ell)
        pairs = [(r, w) for w in sorted(table) for r in range(1, ell)]
        if ell == 6:
            pairs = rng.sample(pairs, 40)
        for r, w in pairs:
            product = table[Permutation.simple(r, ell)] * table[w]
            assert schubert_expansion(product, ell) == _expansion_by_normal_forms(product, ell)


def _unreversed_rows(rows, ell, shifts, mask):
    """The S_w packed in the z ring's own field order: not reduced."""
    return rows(ell, shifts[::-1], mask)


def _one_row_duplicated(rows, ell, shifts, mask):
    """Reduced integer rows, but the last one repeats the first."""
    out = rows(ell, shifts, mask)
    out[max(out)] = dict(out[min(out)])
    return out


def _one_lead_doubled(rows, ell, shifts, mask):
    """Reduced, independent integer rows, but the last one doubled."""
    out = rows(ell, shifts, mask)
    out[max(out)] = {key: 2 * c for key, c in out[max(out)].items()}
    return out


def _one_row_dropped(rows, ell, shifts, mask):
    """Reduced integer rows with distinct unit leads, one short of ell!."""
    out = rows(ell, shifts, mask)
    del out[max(out)]
    return out


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_unreversed_rows, "not a normal form"),
        (_one_row_duplicated, "linearly dependent"),
        (_one_lead_doubled, "lead coefficient 2"),
        (_one_row_dropped, "not %d"),
    ],
    ids=["unreduced", "dependent", "non-unit-lead", "short"],
)
def test_a_span_of_unreduced_or_dependent_rows_is_refused(monkeypatch, mutate, message):
    rows = schubert._schubert_rows
    monkeypatch.setattr(schubert, "_schubert_rows", lambda *args: mutate(rows, *args))
    for ell in range(2, 7):
        with pytest.raises(InvariantViolationError, match=message.replace("%d", str(factorial(ell)))):
            schubert._schubert_inverse.__wrapped__(ell)


def test_the_schubert_span_builds_no_poly_or_fraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Schubert inverse built a Poly or a Fraction")

    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(Fraction, "__new__", refuse)
    perms, inverse = schubert._schubert_inverse.__wrapped__(6)
    assert len(perms) == len(inverse) == 720


def test_the_schubert_span_takes_no_normal_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Schubert inverse took a normal form")

    monkeypatch.setattr(symfun, "_reduce_packed", refuse)
    monkeypatch.setattr(schubert, "_normal_form", refuse)
    schubert._schubert_inverse.cache_clear()
    try:
        for ell in range(1, 7):
            perms, inverse = schubert._schubert_inverse(ell)
            assert len(perms) == len(inverse) == factorial(ell)
    finally:
        schubert._schubert_inverse.cache_clear()


def test_expansion_cap():
    ring = zring(7)
    with pytest.raises(ValueError):
        schubert_expansion(ring.var(0), 7)


def test_catalan_values():
    assert [catalan_number(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    catalan = [1]
    for k in range(40):  # C_{k+1} = sum over i of C_i * C_{k-i}
        catalan.append(sum(catalan[i] * catalan[k - i] for i in range(k + 1)))
    assert [catalan_number(k) for k in range(41)] == catalan
    assert catalan_congruence_check(2) == 1
    assert catalan_congruence_check(3) == 1
    assert catalan_congruence_check(4) == 2
    assert catalan_congruence_check(5) == 5


def test_block_rotation_length_and_factorisation():
    for ell in range(2, 7):
        for lam1 in range(1, ell):
            w = block_rotation(ell, lam1)
            assert w.length == lam1 * (ell - lam1)
            # product of the straddling transpositions, applied left to right
            prod = Permutation.identity(ell)
            for i in range(1, lam1 + 1):
                for k in range(ell, lam1, -1):
                    prod = Permutation.transposition(i, k, ell) * prod
            assert prod == w


def test_block_rotation_is_unique_maximal_chain_target():
    # repeated straddling transpositions that raise the length land on the
    # rotation alone at full length
    for ell in (3, 4, 5):
        for lam1 in range(1, ell):
            frontier = {Permutation.identity(ell)}
            for _ in range(lam1 * (ell - lam1)):
                nxt = set()
                for w in frontier:
                    for j in range(1, lam1 + 1):
                        for k in range(lam1 + 1, ell + 1):
                            v = w.swap_positions(j, k)
                            if v.length == w.length + 1:
                                nxt.add(v)
                frontier = nxt
            assert frontier == {block_rotation(ell, lam1)}


def test_binomial_power_expansion_is_positive_integral():
    for ell in (3, 4, 5):
        ring = zring(ell)
        for lam1 in range(1, ell):
            base = ring.zero()
            for k in range(lam1):
                base = base + ring.var(k)
            expansion = schubert_expansion(base ** (lam1 * (ell - lam1)))
            assert expansion
            for c in expansion.values():
                assert c.denominator == 1 and c > 0

from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetform import symfun
from jetform import (
    Composition,
    InvariantViolationError,
    Monomial,
    Poly,
    Ring,
    RingMismatchError,
    block_sigma,
    complete_homogeneous,
    decompose_block_elementary,
    divide,
    elementary_symmetric,
    expand_block_elementary,
    groebner_basis_IS,
    homogeneous_membership,
    in_IS,
    is_lambda_symmetric,
    nilpotency_order,
    normal_form_IS,
    nu,
    schubert_expansion,
    schubert_table,
    spoly,
    sym_lambda_average,
    zring,
)

from conftest import (
    make_rng,
    positive_compositions,
    random_lambda_symmetric,
    random_nonzero_poly,
    random_poly,
)


# -- generators of the basis ----------------------------------------------------


def test_complete_homogeneous_last_variable():
    for d in range(4):
        p = complete_homogeneous(d, 3, 3)
        assert p == zring(3).var(2) ** d


def test_complete_homogeneous_two_vars():
    ring = zring(2)
    z1, z2 = ring.gens()
    assert complete_homogeneous(2, 1, 2) == z1**2 + z1 * z2 + z2**2


def test_complete_homogeneous_degree_zero():
    assert complete_homogeneous(0, 2, 3) == zring(3).one()


def test_complete_homogeneous_range_check():
    with pytest.raises(ValueError):
        complete_homogeneous(2, 0, 3)
    with pytest.raises(ValueError):
        complete_homogeneous(2, 4, 3)


def test_elementary_symmetric_examples():
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert elementary_symmetric(ring, 1, range(3)) == z1 + z2 + z3
    assert elementary_symmetric(ring, 2, range(2)) == z1 * z2
    assert elementary_symmetric(ring, 3, range(3)) == z1 * z2 * z3
    with pytest.raises(ValueError):
        elementary_symmetric(ring, 4, range(3))
    with pytest.raises(ValueError):
        elementary_symmetric(ring, 0, range(3))


def test_groebner_basis_small():
    ring = zring(1)
    assert list(groebner_basis_IS(1)) == [ring.var(0)]
    ring = zring(2)
    z1, z2 = ring.gens()
    assert list(groebner_basis_IS(2)) == [z1 + z2, z2**2]
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert list(groebner_basis_IS(3)) == [
        z1 + z2 + z3,
        z2**2 + z2 * z3 + z3**2,
        z3**3,
    ]


def test_basis_leading_monomials_are_pure_powers():
    for ell in range(1, 7):
        for i, g in enumerate(groebner_basis_IS(ell), start=1):
            lm, lc = g.leading()
            assert lc == 1
            expected = [0] * ell
            expected[i - 1] = i
            assert lm.exps == tuple(expected)
            assert g.is_homogeneous() and g.total_degree() == i


def test_spolys_reduce_to_zero_small():
    for ell in range(1, 5):
        basis = list(groebner_basis_IS(ell))
        for f, g in combinations(basis, 2):
            _, rem = divide(spoly(f, g), basis)
            assert rem.is_zero()


# -- normal forms ---------------------------------------------------------------


def test_normal_form_examples():
    ring = zring(2)
    z1, z2 = ring.gens()
    assert normal_form_IS(z1 * z2).is_zero()
    assert normal_form_IS(z1) == -z2
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert normal_form_IS((z1 + z2) ** 2) == z3**2


def test_normal_form_is_linear_and_idempotent():
    rng = make_rng(11)
    ring = zring(4)
    for _ in range(20):
        p = random_poly(ring, rng, max_deg=4)
        q = random_poly(ring, rng, max_deg=4)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        nf_p = normal_form_IS(p)
        nf_q = normal_form_IS(q)
        assert normal_form_IS(p + q.scale(c)) == nf_p + nf_q.scale(c)
        assert normal_form_IS(nf_p) == nf_p


# -- the packed heap kernel against generic division -----------------------------


def _division_nf(p, ell):
    return divide(p, groebner_basis_IS(ell))[1]


def _random_terms(ring, rng, top, terms, denominators=(1, 2, 3)):
    # one term of total degree exactly `top`, the rest of degree 0..top
    out = {}
    for k in range(terms):
        exps = [0] * ring.nvars
        for _ in range(top if k == 0 else rng.randint(0, top)):
            exps[rng.randrange(ring.nvars)] += 1
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        out[tuple(exps)] = Fraction(num, rng.choice(denominators))
    return ring.from_terms(out)


def test_normal_form_matches_division_random():
    rng = make_rng(2024)
    for ell in range(1, 7):
        ring = zring(ell)
        for _ in range(25):
            p = random_poly(ring, rng, max_deg=5, terms=5)
            assert normal_form_IS(p) == _division_nf(p, ell)


def test_normal_form_fractional_coefficients():
    rng = make_rng(8)
    for ell in range(1, 7):
        ring = zring(ell)
        for _ in range(8):
            p = _random_terms(ring, rng, 4, 5, denominators=(5, 7, 12, 49, 360))
            assert normal_form_IS(p) == _division_nf(p, ell)


def test_normal_form_zero_and_constants():
    for ell in range(1, 7):
        ring = zring(ell)
        assert normal_form_IS(ring.zero()).is_zero()
        for c in (1, -3, Fraction(5, 7)):
            assert normal_form_IS(ring.const(c)) == ring.const(c)


@pytest.mark.parametrize("top", [*range(1, 9), 15, 16])
def test_normal_form_at_field_width_boundaries(top):
    # the z ring of ell variables packs exponents into fields of
    # d.bit_length() + 1 bits for d = ell(ell-1)/2, the top one a guard bit:
    # 1 bit at ell = 1, 2 at ell = 2, 3 at ell = 3, 4 at ell = 4 and 5 at
    # ell = 5, 6; a pure power of degree up to d fills its field up to the
    # guard bit, and one above d is dropped.  Generic division at degree 15
    # and up in six variables takes seconds per input, so those degrees stop
    # at five.
    rng = make_rng(top)
    for ell in range(1, 7 if top <= 8 else 6):
        ring = zring(ell)
        polys = [ring.var(v) ** top for v in range(ell)]
        polys += [_random_terms(ring, rng, top, 4) for _ in range(3)]
        for p in polys:
            assert normal_form_IS(p) == _division_nf(p, ell)


def _above_top_cases():
    """(ell, p) with p mixing terms above the top degree ell(ell-1)/2 of a
    reduced monomial and terms below it.  A term above the top is dropped
    before packing; packed instead, a power such as z_1^5 at ell = 3 or
    z_1^9 at ell = 4 would carry out of its field."""
    z3, z4, z6 = zring(3).gens(), zring(4).gens(), zring(6).gens()
    cases = [
        (6, z6[0] ** 16 + z6[1]),
        (3, z3[0] ** 4 + z3[0] * z3[1] - z3[2].scale(Fraction(2, 3))),
        (3, z3[0] ** 5 * z3[1] + z3[2] ** 9 + z3[0] ** 2 + z3[1] ** 7 * z3[2]),
        (3, z3[0] ** 4 * z3[2] - (z3[1] ** 5).scale(Fraction(2, 3))),  # all above the top
        (4, z4[2] ** 9 + z4[0] ** 9 * z4[3] + z4[0] ** 3 * z4[1] ** 2 + z4[3]),
    ]
    rng = make_rng(2210)
    for ell in (2, 3, 4):
        ring = zring(ell)
        for _ in range(6):
            top = ell * (ell - 1) // 2 + rng.randint(1, 8)
            cases.append((ell, _random_terms(ring, rng, top, 5, denominators=(1, 2, 7))))
    return cases


def test_terms_above_the_top_degree_match_division():
    for ell, p in _above_top_cases():
        rem = _division_nf(p, ell)
        assert normal_form_IS(p) == rem
        assert nu(p) == rem.min_degree()
        assert in_IS(p) == rem.is_zero()
        assert schubert_expansion(p) == schubert_expansion(rem)


@pytest.mark.parametrize("parts, block", [((1, 2), 2), ((2, 1), 1), ((2, 2), 1)])
def test_nilpotency_order_with_terms_above_the_top_degree_matches_division(parts, block):
    # sigma_1 + sigma_1^7 of the block: its seventh power lies above the top
    # degree and in I_S, so the order is the least e with p^e in I_S
    lam = Composition(parts)
    s1 = block_sigma(lam, block, 1)
    p = s1 + s1**7
    e = 1
    while not _division_nf(p**e, lam.ell).is_zero():
        e += 1
    assert nilpotency_order(p, lam, block) == e


def test_normal_form_of_every_schubert_polynomial_small():
    for ell in range(1, 6):
        for p in schubert_table(ell).values():
            assert normal_form_IS(p, ell) == _division_nf(p, ell)


def test_normal_form_rejects_bad_rings():
    with pytest.raises(ValueError):
        normal_form_IS(zring(0).one(), 0)
    with pytest.raises(ValueError):
        normal_form_IS(zring(0).zero())
    with pytest.raises(RingMismatchError):
        normal_form_IS(zring(3).var(0), 4)
    with pytest.raises(RingMismatchError):
        normal_form_IS(Ring(("x1", "x2")).var(0), 2)


def test_in_IS_examples():
    assert in_IS(complete_homogeneous(3, 2, 3))
    assert not in_IS(zring(3).one())
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert in_IS(z1 + z2 + z3)


def test_tail_complete_polynomials_lie_in_ideal_small():
    for ell in range(1, 5):
        for i in range(1, ell + 1):
            for j in range(i, ell + 2):
                assert in_IS(complete_homogeneous(j, i, ell))


def test_nu_examples():
    ring = zring(3)
    z1, z2, _ = ring.gens()
    assert nu(z1 + z2) == 1
    assert nu(elementary_symmetric(ring, 2, range(2))) == 2
    ring2 = zring(2)
    assert nu(ring2.var(0) * ring2.var(1)) is None


def test_nu_additive_on_products():
    rng = make_rng(23)
    ring = zring(4)
    hits = 0
    for _ in range(60):
        a = random_nonzero_poly(ring, rng, max_deg=2, terms=3)
        b = random_nonzero_poly(ring, rng, max_deg=2, terms=3)
        if normal_form_IS(a * b).is_zero():
            continue
        hits += 1
        assert nu(a * b) == nu(a) + nu(b)
    assert hits > 10


def test_difference_with_normal_form_lies_in_ideal():
    # membership via the homogeneous span oracle, degree by degree
    rng = make_rng(41)
    for ell in (2, 3, 4, 5):
        ring = zring(ell)
        basis = list(groebner_basis_IS(ell))
        for _ in range(6):
            p = random_poly(ring, rng, max_deg=5, terms=4)
            diff = p - normal_form_IS(p)
            for component in diff.homogeneous_components().values():
                if component.is_zero():
                    continue
                assert homogeneous_membership(component, basis).member


# -- reduction symmetry (the two-variable exchange identity) --------------------


@pytest.mark.parametrize("ell,s,ds,ds1", [(3, 2, 2, 1), (4, 2, 3, 2), (5, 3, 3, 3), (4, 3, 4, 1)])
def test_exchange_identity_symmetric_and_leading(ell, s, ds, ds1):
    # f1 - f2 is swap-symmetric in (z_s, z_{s+1}) with leading monomial
    # z_s^ds * z_{s+1}^ds1, and both pieces lie in the ideal when ds >= s
    assert ds >= ds1 and ds >= s
    ring = zring(ell)
    zs = ring.var(s - 1)
    zs1 = ring.var(s)
    f1 = zs1**ds1 * complete_homogeneous(ds, s, ell)
    f2 = ring.zero()
    for i in range(1, ds1 + 1):
        f2 = f2 + zs ** (ds1 - i) * complete_homogeneous(ds + i, s + 1, ell)
    diff = f1 - f2
    assert diff.swap_vars(s - 1, s) == diff
    lm, _ = diff.leading()
    expected = [0] * ell
    expected[s - 1] = ds
    expected[s] = ds1
    assert lm.exps == tuple(expected)
    assert in_IS(f1) and in_IS(f2)


def test_normal_form_preserves_block_symmetry():
    rng = make_rng(99)
    for parts in [(2, 1), (1, 2), (2, 2), (3, 1), (2, 1, 1)]:
        lam = Composition(parts)
        ring = zring(lam.ell)
        for _ in range(10):
            p = random_lambda_symmetric(lam, ring, rng)
            assert is_lambda_symmetric(normal_form_IS(p), lam)


# -- block symmetry -------------------------------------------------------------


def test_is_lambda_symmetric_examples():
    lam = Composition((2, 1))
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert is_lambda_symmetric(z1 + z2, lam)
    assert not is_lambda_symmetric(z1, lam)
    assert is_lambda_symmetric(z1 * z2 + z3, lam)


def test_lambda_symmetric_zero_blocks_vacuous():
    lam = Composition((0, 2, 0, 1))
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert is_lambda_symmetric(z1 + z2, lam)
    assert not is_lambda_symmetric(z1 + z3, lam)


def test_sym_average_examples():
    lam = Composition((2, 1))
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    assert sym_lambda_average(z1, lam) == (z1 + z2).scale(Fraction(1, 2))
    assert sym_lambda_average(z1**2 * z2, lam) == (z1**2 * z2 + z1 * z2**2).scale(
        Fraction(1, 2)
    )
    fixed = z1 * z2 + 4 * z3
    assert sym_lambda_average(fixed, lam) == fixed


def test_sym_average_projector_properties():
    rng = make_rng(5)
    lam = Composition((2, 2))
    ring = zring(4)
    for _ in range(15):
        p = random_poly(ring, rng, max_deg=3)
        q = random_poly(ring, rng, max_deg=3)
        avg = sym_lambda_average(p, lam)
        assert is_lambda_symmetric(avg, lam)
        assert sym_lambda_average(avg, lam) == avg
        c = Fraction(rng.randint(-3, 3))
        assert sym_lambda_average(p + q.scale(c), lam) == avg + sym_lambda_average(
            q, lam
        ).scale(c)
        a = random_lambda_symmetric(lam, ring, rng, max_deg=2, terms=2)
        assert sym_lambda_average(a * q, lam) == a * sym_lambda_average(q, lam)


def test_sym_average_block_orbit_path_matches_full_group():
    # the literal average over all 12 elements of S_3 x S_2
    rng = make_rng(17)
    lam = Composition((3, 2))
    ring = zring(5)
    for _ in range(10):
        p = random_poly(ring, rng, max_deg=3)
        full = ring.zero()
        for first, second in product(permutations(range(3)), permutations(range(3, 5))):
            full = full + p.permute_vars(first + second)
        assert sym_lambda_average(p, lam) == full.scale(Fraction(1, 12))


def _average_by_blocks(p, lam):
    """The per-block Fraction averaging that `sym_lambda_average` replaced,
    kept as the reference for its values and its term order."""
    for block in lam.blocks():
        if len(block) <= 1:
            continue
        out = {}
        for mono, coeff in p.terms.items():
            arrangements = sorted(set(permutations(mono[block.start : block.stop])), reverse=True)
            for arr in arrangements:
                key = Monomial(mono[: block.start] + arr + mono[block.stop :])
                out[key] = out.get(key, 0) + coeff / len(arrangements)
        p = Poly(p.ring, out)
    return p


@st.composite
def compositions_with_polys(draw):
    """A composition of ell <= 5, zero parts and singleton blocks allowed,
    and a polynomial in z_1..z_ell with coefficient denominators in
    {1, 2, 3, 7, 12}.  With two blocks of size two or more, it is often
    q - q' + r + q'' for swaps q' and q'' of q within the two, so that
    averaging the earlier block cancels terms and averaging the later one
    brings them back, after those of r."""
    parts = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4).filter(
            lambda parts: 1 <= sum(parts) <= 5
        )
    )
    lam = Composition(parts)
    ell = lam.ell
    ring = zring(ell)
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-4, max_value=4).filter(bool),
        st.sampled_from((1, 2, 3, 7, 12)),
    )
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * ell)

    def poly(min_size=0):
        return ring.from_terms(draw(st.dictionaries(exps, coeff, min_size=min_size, max_size=4)))

    wide = [block for block in lam.blocks() if len(block) > 1]
    if len(wide) < 2 or draw(st.booleans()):
        return lam, poly()
    pair = draw(st.lists(st.sampled_from(wide), min_size=2, max_size=2, unique=True))
    first, second = sorted(pair, key=lambda block: block.start)
    q = poly(1)
    p = q - q.swap_vars(first.start, first.start + 1) + poly(1)
    return lam, p + q.swap_vars(second.start, second.start + 1)


@given(compositions_with_polys())
def test_sym_average_matches_full_group_average(case):
    lam, p = case
    blocks = [permutations(block) for block in lam.blocks()]
    full = p.ring.zero()
    count = 0
    for images in product(*blocks):
        full = full + p.permute_vars([i for block in images for i in block])
        count += 1
    avg = sym_lambda_average(p, lam)
    assert avg == full.scale(Fraction(1, count))
    assert list(avg.terms.items()) == list(_average_by_blocks(p, lam).terms.items())


def test_sym_average_drops_cancelled_terms_between_blocks():
    # averaging block 1 cancels z1*z3 and z2*z3, and averaging block 2
    # brings them back from z1*z4, after z1 and z2
    lam = Composition((2, 2))
    z1, z2, z3, z4 = zring(4).gens()
    p = z1 * z3 - z2 * z3 + z1 + z1 * z4
    avg = sym_lambda_average(p, lam)
    assert avg == (z1 + z2).scale(Fraction(1, 2)) + (z1 + z2) * (z3 + z4).scale(Fraction(1, 4))
    assert list(avg.terms) == [
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)
    ]
    assert list(avg.terms.items()) == list(_average_by_blocks(p, lam).terms.items())


# -- the averaging's integer hand-off to the normal form -------------------------


@st.composite
def averaging_inputs(draw):
    """(ell, p) for ell <= 5: p has terms of degree at most ell(ell-1)/2
    with denominators in {1, 2, 3, 4}, and terms above it, which lie in
    I_S, with denominators 11 or 13, which no other term and no block
    order b! <= 120 shares.  So the lcm over all of p's terms differs from
    the lcm over the terms a normal form keeps."""
    ell = draw(st.integers(1, 5))
    top = ell * (ell - 1) // 2
    ring = zring(ell)
    var = st.integers(0, ell - 1)

    def exps(degree):
        out = [0] * ell
        for i in draw(st.lists(var, min_size=degree, max_size=degree)):
            out[i] += 1
        return tuple(out)

    def coeff(denominators):
        num = draw(st.integers(-5, 5).filter(bool))
        return Fraction(num, draw(st.sampled_from(denominators)))

    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        terms[exps(draw(st.integers(0, min(top, 4))))] = coeff((1, 2, 3, 4))
    for _ in range(draw(st.integers(1, 2))):
        terms[exps(draw(st.integers(top + 1, top + 2)))] = coeff((11, 13))
    return ell, ring.from_terms(terms)


@given(averaging_inputs())
def test_normal_form_of_an_average_matches_its_plain_copy(case):
    # the kept integer form is the terms; normal forms, Schubert expansions
    # and nilpotency orders read through it equal those of a copy without it
    ell, p = case
    for parts in positive_compositions(ell):
        lam = Composition(parts)
        avg = sym_lambda_average(p, lam)
        plain = Poly(p.ring, dict(avg.terms))
        assert plain._ints is None
        if avg is not p:
            nums, denom = avg._ints
            assert nums.keys() == avg.terms.keys()
            assert all(n and Fraction(n, denom) == avg.terms[m] for m, n in nums.items())
        nf = normal_form_IS(avg)
        assert nf == normal_form_IS(plain) == _division_nf(plain, ell)
        assert schubert_expansion(avg) == schubert_expansion(plain)
        for block in range(1, lam.n + 1):
            # p's terms on the block alone, constant aside, averaged
            support = set(lam.block(block))
            q = Poly(p.ring, {
                m: c for m, c in p.terms.items()
                if any(m) and all(i in support for i, e in enumerate(m) if e)
            })
            q_avg = sym_lambda_average(q, lam)
            if q_avg:
                q_plain = Poly(p.ring, dict(q_avg.terms))
                assert nilpotency_order(q_avg, lam, block) == nilpotency_order(q_plain, lam, block)


def test_normal_form_of_an_average_clears_no_denominators(monkeypatch):
    # the average's numerators go to the normal form as they are
    from jetform import polyring

    def refuse(terms):
        raise AssertionError("the averaged terms were cleared again")

    ring = zring(4)
    z1, z2, z3, z4 = ring.gens()
    p = z1**2 * z3 * Fraction(2, 3) - z2 * z4 * Fraction(5, 4) + z1**7 * Fraction(1, 11)
    lam = Composition((2, 2))
    avg = sym_lambda_average(p, lam)
    expected = _division_nf(Poly(ring, dict(avg.terms)), 4)
    for module in (polyring, symfun):
        monkeypatch.setattr(module, "_clear_denominators", refuse, raising=False)
    assert normal_form_IS(avg) == expected != 0


def test_average_makes_one_fraction_per_distinct_coefficient(monkeypatch):
    from jetform import polyring

    made = []

    class Counting(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    z = zring(4).gens()
    p = z[0] ** 3 * z[1] ** 2 * z[2]
    lam = Composition((4,))
    expected = Poly(p.ring, {m: Fraction(1, 24) for m in map(Monomial, permutations((3, 2, 1, 0)))})
    for module in (polyring, symfun):
        monkeypatch.setattr(module, "Fraction", Counting)
    avg = sym_lambda_average(p, lam)
    assert avg == expected and len(avg.terms) == 24
    assert len(made) == 1


def test_poly_from_ints_is_the_poly_of_its_fractions():
    ring = zring(3)
    nums = {Monomial((2, 0, 1)): 4, Monomial((0, 0, 0)): -6, Monomial((1, 1, 0)): 4,
            Monomial((0, 3, 0)): 9, Monomial((0, 1, 2)): -6}
    for keep in (False, True):
        for denom in (1, 6, 12):
            built = Poly._from_ints(ring, nums, denom, keep)
            plain = Poly(ring, {m: Fraction(n, denom) for m, n in nums.items()})
            assert built == plain and plain == built
            assert hash(built) == hash(plain)
            assert str(built) == str(plain) and repr(built) == repr(plain)
            assert list(built.terms.items()) == list(plain.terms.items())
            assert built._ints == ((nums, denom) if keep else None)
    assert Poly._from_ints(ring, {}, 5) == ring.zero()


def test_normal_forms_keep_no_integer_form():
    # callers keep normal forms: on the quotient bench workload, which keeps
    # every output, a kept form on them read peak_rss_mb 33.1-33.2 MB
    # against 31.5 MB without (+5.4%), and ran 3% slower
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    p = z1**2 * Fraction(1, 2) + z2 * z3 * Fraction(2, 3)
    avg = sym_lambda_average(p, Composition((3,)))
    assert avg._ints is not None
    for q in (p, avg, normal_form_IS(avg)):
        assert normal_form_IS(q)._ints is None


# -- block elementary decomposition ---------------------------------------------


def test_decompose_newton_identity():
    lam = Composition((2,))
    ring = zring(2)
    z1, z2 = ring.gens()
    q = decompose_block_elementary(z1**2 + z2**2, lam)
    y = q.ring
    y11, y12 = y.var(0), y.var(1)
    assert q == y11**2 - 2 * y12


def test_decompose_block_sums():
    lam = Composition((2, 1))
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    q = decompose_block_elementary(z1 + z2, lam)
    assert q == q.ring.var(0)
    q = decompose_block_elementary((z1 + z2) * z3, lam)
    assert q == q.ring.var(0) * q.ring.var(2)


def test_decompose_requires_block_symmetry():
    lam = Composition((2, 1))
    with pytest.raises(ValueError):
        decompose_block_elementary(zring(3).var(0), lam)


def test_decompose_unsorted_lead_past_the_symmetry_check_is_an_invariant_violation(monkeypatch):
    # the lead of a block-symmetric polynomial never rises within a block, so
    # only a wrong symmetry check can let z2 under lambda = (2,) through
    monkeypatch.setattr(symfun, "is_lambda_symmetric", lambda p, lam: True)
    with pytest.raises(InvariantViolationError, match="not sorted within block 1"):
        decompose_block_elementary(zring(2).var(1), Composition((2,)))


def test_decompose_round_trip_random():
    rng = make_rng(4242)
    for parts in [(2,), (3,), (2, 1), (2, 2), (1, 1, 2), (3, 2)]:
        lam = Composition(parts)
        ring = zring(lam.ell)
        for _ in range(6):
            p = random_lambda_symmetric(lam, ring, rng, max_deg=4, terms=4)
            q = decompose_block_elementary(p, lam)
            assert expand_block_elementary(q, lam) == p


def test_block_sigma_matches_elementary():
    lam = Composition((2, 3))
    ring = zring(5)
    assert block_sigma(lam, 2, 2) == elementary_symmetric(ring, 2, range(2, 5))


@pytest.mark.parametrize("ell", range(1, 7))
def test_nf_powers_are_the_normal_forms_of_the_powers(ell):
    # the packed power kernel yields d^e * NF(p^e) and d^e for every e up to
    # the first zero power; p has Fraction coefficients and a term above the
    # top degree ell(ell-1)/2
    from jetform import symfun

    rng = make_rng(ell)
    ring = zring(ell)
    top = ell * (ell - 1) // 2
    unpack = symfun._packing(ell).unpack
    for _ in range(3 if ell < 6 else 1):  # the powers at ell = 6 take 1.5 s
        terms = dict(random_poly(ring, rng, max_deg=2, terms=3).terms)
        high = [0] * ell
        high[rng.randrange(ell)] = top + 1
        terms[ring.monomial(high)] = Fraction(1, 2)
        for i in range(ell):  # a linear form sum of i*z_i, whose power top is nonzero
            unit = ring.monomial([int(j == i) for j in range(ell)])
            terms[unit] = terms.get(unit, 0) + Fraction(i, 7)
        p = Poly(ring, {m: c for m, c in terms.items() if sum(m)})
        e, power = 0, ring.one()
        powers = list(symfun._nf_powers(p, ell))
        for e, (packed, scale) in enumerate(powers, 1):
            # p^e cut to degree <= top, which is all of it normal_form_IS reads
            power = Poly(ring, {m: c for m, c in (power * p).terms.items() if sum(m) <= top})
            assert scale == powers[0][1] ** e
            assert {unpack(k): Fraction(c, scale) for k, c in packed.items()} == (
                normal_form_IS(power).terms
            )
        assert normal_form_IS(power * p).is_zero()
        assert e == top  # degree top is reached, so no product of it is dropped


# -- the normal-form row table ----------------------------------------------------


@contextmanager
def _empty_row_table():
    """Run with an empty `_reduce_packed` row table, then put the old one back."""
    saved = symfun._ROW_TABLE, symfun._row_terms
    symfun._ROW_TABLE, symfun._row_terms = defaultdict(lambda: ({}, {})), 0
    try:
        yield symfun._ROW_TABLE
    finally:
        symfun._ROW_TABLE, symfun._row_terms = saved


def _stored_terms(table) -> int:
    """The table's count: each row's terms plus one for its key, and one
    for each Monomial."""
    count = 0
    for rows, monomials in table.values():
        count += sum(len(row) + 1 for row in rows.values()) + len(monomials)
    return count


@st.composite
def packed_polys(draw):
    """(ell, packed integer polynomial) for ell = 1..7: keys of degree at
    most ell(ell-1)/2, zero coefficients among them."""
    ell = draw(st.integers(1, 7))
    top = ell * (ell - 1) // 2
    pack = symfun._packing(ell).pack
    exps = st.lists(st.integers(0, top), min_size=ell, max_size=ell).filter(lambda e: sum(e) <= top)
    terms = draw(st.dictionaries(exps.map(pack), st.integers(-3, 3), max_size=8))
    return ell, terms


@given(packed_polys())
def test_cached_rows_sum_to_the_heap_reduction(case):
    # cold, then warm as the rows come in, one at a time or by the calls'
    # found rows: each call equals one heap reduction of the same input,
    # holds no zero and leaves its input alone
    ell, pending = case
    expected = symfun._heap_reduce(dict(pending), ell)
    with _empty_row_table():
        for key in [*pending, None]:
            got = symfun._reduce_packed(dict(pending), ell)
            assert got == expected
            assert all(got.values())
            if key is not None:
                assert symfun._reduce_packed({key: 1}, ell) == symfun._heap_reduce({key: 1}, ell)
        keep = dict(pending)
        symfun._reduce_packed(pending, ell)
        assert pending == keep


def test_reduced_monomials_are_their_own_rows():
    # a reduced key is its own normal form: it is never stored, nor counted
    ell = 4
    packing, bump, _ = symfun._packed_rules(ell)
    pack = packing.pack
    with _empty_row_table() as table:
        reduced = {pack((0, 1, 2, 3)): 5, pack((0, 0, 1, 0)): -2}
        assert symfun._reduce_packed(dict(reduced), ell) == reduced
        assert symfun._reduce_packed({pack((0, 1, 2, 3)): 1}, ell) == {pack((0, 1, 2, 3)): 1}
        assert not table[ell][0] and symfun._row_terms == 0
        symfun._reduce_packed({pack((0, 3, 0, 0)): 1}, ell)
        assert list(table[ell][0]) == [pack((0, 3, 0, 0))]
        assert all((key + bump) & packing.guard for key in table[ell][0])


def test_row_table_stops_at_its_term_bound():
    # one-term calls at ell = 7, each a lone miss that makes its row, flood
    # the table past ROW_TABLE_TERMS; the row that does not fit, and every
    # miss after it, is used but not stored, no Monomial is stored past the
    # bound, and each answer stays right
    ell = 7
    pack = symfun._packing(ell).pack
    keys = [pack(e) for e in product(range(4), repeat=ell) if sum(e) == 10]
    with _empty_row_table() as table:
        rows, monomials = table[ell]
        full = None
        for i, key in enumerate(keys):
            assert symfun._reduce_packed({key: 2}, ell) == symfun._heap_reduce({key: 2}, ell)
            assert _stored_terms(table) <= symfun.ROW_TABLE_TERMS
            if full is None and symfun._row_terms > symfun.ROW_TABLE_TERMS:
                full = i
            elif full is not None and i > full + 50:
                break
        assert full is not None
        assert all(key not in rows for key in keys[full:i + 1])
        assert _stored_terms(table) > symfun.ROW_TABLE_TERMS - 1000
        # a call mixing stored rows and misses past the bound still sums right
        mixed = {key: c for c, key in enumerate(keys[full - 20:full + 20], 1)}
        assert symfun._reduce_packed(dict(mixed), ell) == symfun._heap_reduce(dict(mixed), ell)
        assert not monomials
        unpack = symfun._packing(ell).unpack
        p = Poly(zring(ell), {unpack(key): Fraction(c) for key, c in mixed.items()})
        assert normal_form_IS(p) == _division_nf(p, ell)
        assert not monomials and _stored_terms(table) <= symfun.ROW_TABLE_TERMS


def test_row_table_hands_out_no_cache():
    ell = 4
    ring = zring(ell)
    p = ring.var(0) ** 3 + ring.var(1) ** 2 * ring.var(2)
    expected = normal_form_IS(p)
    pending = symfun._normal_form(p, ell)[0]
    for _ in range(2):  # the second time from stored rows and Monomials
        nf = normal_form_IS(p)
        assert nf == expected
        nf.terms.clear()
        packed = symfun._reduce_packed(dict(pending), ell)
        assert packed == pending
        packed.clear()
        assert normal_form_IS(p) == expected
        key = symfun._packing(ell).pack((3, 0, 0, 0))
        single = symfun._reduce_packed({key: 1}, ell)
        single[key] = 5
        single.update({k: v + 1 for k, v in single.items()})
        assert symfun._reduce_packed({key: 1}, ell) == symfun._heap_reduce({key: 1}, ell)

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, repeat
from math import factorial

import pytest

from jetform import alambda
from jetform import (
    Composition,
    DomainError,
    ExactSpan,
    InvariantViolationError,
    RingMismatchError,
    alpha_map,
    basis_exponents,
    basis_polys,
    block_sigma,
    c_lambda_generators,
    c_lambda_ring,
    dim_A_lambda,
    elementary_symmetric,
    in_IS,
    nilpotency_order,
    normal_form_IS,
    nu,
    sym_lambda_average,
    zring,
)
from jetform.polyring import _clear_denominators

from conftest import make_rng, positive_compositions, random_poly


def test_dim_examples():
    assert dim_A_lambda(Composition((2, 1))) == 3
    assert dim_A_lambda(Composition((5,))) == 1
    assert dim_A_lambda(Composition((1, 1, 1))) == 6


def test_dim_ignores_zero_parts():
    assert dim_A_lambda(Composition((2, 0, 1))) == dim_A_lambda(Composition((2, 1)))


def test_basis_exponents_examples():
    assert basis_exponents(Composition((1, 1))) == [(0, 0), (0, 1)]
    assert basis_exponents(Composition((2, 1))) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    assert basis_exponents(Composition((1,))) == [(0,)]


@pytest.mark.parametrize("parts", [(0,), (0, 0)])
def test_basis_refuses_a_composition_of_total_zero(parts):
    # as dim_A_lambda does: the algebra of no variables has no basis here
    for call in (dim_A_lambda, basis_exponents, basis_polys):
        with pytest.raises(DomainError, match="composition total"):
            call(Composition(parts))


def test_basis_exponent_constraints():
    for parts in [(2, 2), (1, 2, 1), (3, 1)]:
        lam = Composition(parts)
        vectors = basis_exponents(lam)
        assert len(vectors) == dim_A_lambda(lam)
        assert vectors == sorted(vectors)
        for d in vectors:
            for i in range(1, lam.n + 1):
                block = list(lam.block(i))
                if not block:
                    continue
                assert d[block[0]] <= lam.prefix(i)
                for a, b in zip(block, block[1:]):
                    assert d[a] >= d[b]


def _q_multinomial(parts):
    """Coefficients of [ell; lambda]_q, by MacMahon: the generating function
    of inversions over the words with lambda_i letters i."""
    word = [i for i, part in enumerate(parts) for _ in range(part)]
    counts = Counter(sum(a > b for a, b in combinations(w, 2)) for w in set(permutations(word)))
    return [counts[d] for d in range(max(counts) + 1)]


def test_basis_degrees_follow_the_q_multinomial():
    # the Hilbert series of A_lambda is [ell; lambda]_q; its top degree is
    # e_2(lambda), the sum of lambda_i * lambda_j over i < j
    checked = 0
    for ell in range(1, 7):
        for a in range(ell + 1):
            for b in range(ell - a + 1):
                parts = (a, b, ell - a - b)
                top = sum(p * q for i, p in enumerate(parts) for q in parts[i + 1:])
                counts = [0] * (top + 1)
                for exps in basis_exponents(Composition(parts)):
                    counts[sum(exps)] += 1
                assert counts == _q_multinomial(parts), parts
                checked += 1
    assert checked == 83


def test_basis_polys_examples():
    ring = zring(2)
    polys = basis_polys(Composition((1, 1)))
    assert polys == [ring.one(), ring.var(1)]

    lam = Composition((2, 1))
    polys = basis_polys(lam)
    ring = zring(3)
    z3 = ring.var(2)
    # orbit sums count the group with repetition: |G| = 2
    assert polys[0] == ring.const(2)
    assert polys[1] == (z3).scale(2)
    assert polys[2] == (z3**2).scale(2)


def test_basis_polys_leading_coefficient_is_stabiliser_size():
    lam = Composition((2, 2))
    for d, f in zip(basis_exponents(lam), basis_polys(lam)):
        lm, lc = normal_form_IS(f).leading() if not f.is_zero() else (None, None)
        assert lm.exps == d
        stab = 1
        for i in range(1, lam.n + 1):
            block = [d[v] for v in lam.block(i)]
            for value in set(block):
                stab *= factorial(block.count(value))
        assert lc == stab


def test_basis_normal_forms_independent_small():
    for parts in positive_compositions(4):
        lam = Composition(parts)
        span = ExactSpan()
        count = 0
        for f in basis_polys(lam):
            nf = normal_form_IS(f)
            assert not nf.is_zero()
            assert span.insert(_clear_denominators(nf.terms)[0], count)
            count += 1
        assert span.rank == dim_A_lambda(lam)


# -- nilpotency ------------------------------------------------------------------


def test_nilpotency_examples():
    lam = Composition((2, 1))
    ring = zring(3)
    z1, z2, _ = ring.gens()
    assert nilpotency_order(z1 + z2, lam, 1) == 3

    lam = Composition((1, 1))
    ring = zring(2)
    assert nilpotency_order(ring.var(0), lam, 1) == 2

    lam = Composition((4,))
    ring = zring(4)
    sigma1 = elementary_symmetric(ring, 1, range(4))
    assert nilpotency_order(sigma1, lam, 1) == 1


def test_nilpotency_block_sum_value():
    for parts in [(2, 1), (2, 2), (3, 1), (1, 3), (2, 1, 1)]:
        lam = Composition(parts)
        ring = zring(lam.ell)
        for i, part in enumerate(lam.parts, start=1):
            if part == 0:
                continue
            sigma1 = block_sigma(lam, i, 1)
            order = nilpotency_order(sigma1, lam, i)
            assert order == part * (lam.ell - part) + 1


def test_nilpotency_rejections():
    lam = Composition((2, 1))
    ring = zring(3)
    z1, z2, z3 = ring.gens()
    with pytest.raises(ValueError):
        nilpotency_order(z3, lam, 1)  # wrong block support
    with pytest.raises(ValueError):
        nilpotency_order(z1, lam, 1)  # not symmetric in the block
    with pytest.raises(ValueError):
        nilpotency_order(z1 + z2 + 1 * ring.one(), lam, 1)  # constant term
    with pytest.raises(ValueError):
        nilpotency_order(z1 + z2, lam, 5)  # no such block


def test_nilpotency_without_a_zero_power_is_an_invariant_violation(monkeypatch):
    z1, z2, _ = zring(3).gens()
    assert nilpotency_order(z1 + z2, Composition((2, 1)), 1) == 3
    # a power kernel that never reaches zero: no power of the class does
    monkeypatch.setattr(alambda, "_nf_powers", lambda p, ell: repeat(({0: 1}, 1)))
    with pytest.raises(InvariantViolationError, match="certified bound 3"):
        nilpotency_order(z1 + z2, Composition((2, 1)), 1)


def test_nilpotency_ring_mismatch_is_ring_mismatch_error():
    lam = Composition((2, 1))
    for ell in (2, 4):
        p = zring(ell).var(0) + zring(ell).var(1)
        with pytest.raises(RingMismatchError):
            nilpotency_order(p, lam, 1)
        with pytest.raises(RingMismatchError):
            normal_form_IS(p, lam.ell)
        with pytest.raises(RingMismatchError):
            sym_lambda_average(p, lam)


def _nilpotency_order_by_poly_powers(p, lam, block):
    """The Poly power loop that `nilpotency_order` replaced, kept as the
    reference: multiply the last power's normal form by NF(p) and reduce,
    up to the certified bound."""
    nf = normal_form_IS(p, lam.ell)
    if nf.is_zero():
        return 1
    part = lam.parts[block - 1]
    power = nf
    for e in range(2, (part * (lam.ell - part)) // nf.min_degree() + 2):
        power = normal_form_IS(power * nf, lam.ell)
        if power.is_zero():
            return e
    return None


def test_nilpotency_matches_poly_power_loop():
    # every block of every composition of ell <= 5: sigma_1, and
    # c_1 sigma_1 + c_2 sigma_2 with denominators as the benchmark draws them
    rng = make_rng(4)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 7, 12)))

    for ell in range(1, 6):
        for parts in positive_compositions(ell):
            lam = Composition(parts)
            for i, part in enumerate(parts, start=1):
                p = block_sigma(lam, i, 1).scale(coeff())
                if part >= 2:
                    p = p + block_sigma(lam, i, 2).scale(coeff())
                for q in (block_sigma(lam, i, 1), p):
                    assert nilpotency_order(q, lam, i) == _nilpotency_order_by_poly_powers(
                        q, lam, i
                    ), (parts, i, q)


def test_nilpotency_bound_random():
    rng = make_rng(321)
    for parts in [(2, 1), (2, 2), (3, 2)]:
        lam = Composition(parts)
        ring = zring(lam.ell)
        for i, part in enumerate(lam.parts, start=1):
            for _ in range(5):
                p = ring.zero()
                for _ in range(rng.randint(1, 3)):
                    j = rng.randint(1, part)
                    e = rng.randint(1, 2)
                    c = rng.randint(1, 4)
                    p = p + (block_sigma(lam, i, j) ** e).scale(c)
                order = nilpotency_order(p, lam, i)
                assert order is not None
                r = nu(p, lam.ell)
                if r is not None:
                    assert order <= (part * (lam.ell - part)) // r + 1
                else:
                    assert order == 1


# -- coefficient presentation ------------------------------------------------------


def test_c_lambda_generator_examples():
    lam = Composition((1, 1))
    y = c_lambda_ring(lam)
    y10, y20 = y.var(0), y.var(1)
    assert c_lambda_generators(lam) == (y10 * y20, y10 + y20)

    lam = Composition((2,))
    y = c_lambda_ring(lam)
    assert c_lambda_generators(lam) == (y.var(0), y.var(1))

    lam = Composition((2, 1))
    y = c_lambda_ring(lam)
    y10, y11, y20 = y.gens()
    assert c_lambda_generators(lam) == (y10 * y20, y11 * y20 + y10, y20 + y11)
    assert all(f.ring == y for f in c_lambda_generators(lam))


def test_c_lambda_generator_count():
    for parts in [(2, 1), (1, 1, 1), (3, 2), (2, 0, 2)]:
        lam = Composition(parts)
        assert len(c_lambda_generators(lam)) == lam.ell


def test_alpha_defining_images():
    lam = Composition((2, 1))
    ring = c_lambda_ring(lam)
    z = zring(3)
    z1, z2, _ = z.gens()
    assert alpha_map(ring.var(0), lam) == z1 * z2
    assert alpha_map(ring.var(1), lam) == z1 + z2


def test_alpha_refuses_a_polynomial_outside_the_coefficient_ring():
    lam = Composition((2, 1))
    for q in (zring(3).var(0), c_lambda_ring(Composition((1, 2))).var(0)):
        with pytest.raises(RingMismatchError):
            alpha_map(q, lam)


def test_alpha_sends_relations_to_full_elementaries():
    for parts in [(1, 1), (2, 1), (2, 2), (1, 1, 1)]:
        lam = Composition(parts)
        ell = lam.ell
        ring = zring(ell)
        for k, f in enumerate(c_lambda_generators(lam)):
            assert alpha_map(f, lam) == elementary_symmetric(ring, ell - k, range(ell))


def test_alpha_image_is_block_symmetric_and_ideal_maps_in():
    from jetform import is_lambda_symmetric

    rng = make_rng(777)
    lam = Composition((2, 2))
    y = c_lambda_ring(lam)
    for _ in range(10):
        q = random_poly(y, rng, max_deg=3)
        assert is_lambda_symmetric(alpha_map(q, lam), lam)
        combo = y.zero()
        for f in c_lambda_generators(lam):
            combo = combo + f * random_poly(y, rng, max_deg=2, terms=2)
        assert in_IS(alpha_map(combo, lam))


def test_nu_of_alpha_images():
    # for the single full block the images are full elementary symmetrics,
    # which lie in the ideal outright, so only proper blocks carry the value
    for ell in range(1, 7):
        for parts in positive_compositions(ell):
            if len(parts) == 1:
                lam = Composition(parts)
                ring = c_lambda_ring(lam)
                for slot in range(ring.nvars):
                    assert nu(alpha_map(ring.var(slot), lam), ell) is None
                continue
            lam = Composition(parts)
            ring = c_lambda_ring(lam)
            slot = 0
            for i, part in enumerate(lam.parts, start=1):
                for j in range(part):
                    assert nu(alpha_map(ring.var(slot), lam), ell) == part - j
                    slot += 1

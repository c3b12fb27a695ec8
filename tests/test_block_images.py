"""The block specialisations against the hand-indexed loops they replaced.

psi, alpha, the block elementary presentation and the 0/1 witness phi each
take their images from one table, `symfun._block_sigmas`, or from one
substitution.  The loops below are the per-slot derivations they had
before, kept as references: every image must come out the same.  psi's
packed integer table is checked against the Poly image list and the
`Poly.substitute` it replaced, kept here as the reference.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetform import jetring, symfun
from jetform import (
    Composition,
    JetRingDesc,
    Monomial,
    Poly,
    PsiSpecialization,
    alpha_map,
    block_elementary_ring,
    block_sigma,
    c_lambda_ring,
    compositions,
    decompose_block_elementary,
    expand_block_elementary,
    jet_generators,
    normal_form_IS,
    phi_binary_eval,
    zring,
)
from jetform.polyring import _clear_denominators

from conftest import make_rng, random_lambda_symmetric, random_poly


def _psi_images_by_slot(lam, desc):
    """x_i^(j) -> sigma_(lambda_i - j) of block i, 1 at j = lambda_i, 0
    above."""
    target = zring(lam.ell)
    images = []
    for slot in range(desc.ring.nvars):
        i, j = desc.pair(slot)
        part = lam.parts[i - 1]
        if j < part:
            images.append(block_sigma(lam, i, part - j, target))
        elif j == part:
            images.append(target.one())
        else:
            images.append(target.zero())
    return images


def _psi_poly_images(lam, desc):
    """The Poly image list psi substituted before its packed table: each
    block's sigmas reversed, then 1, then zeros, cut to m+1 entries."""
    target = zring(desc.m + 1)
    one, zero = target.one(), target.zero()
    return [
        image
        for sigmas in symfun._block_sigmas(lam, target)
        for image in (sigmas[::-1] + [one] + [zero] * desc.m)[: desc.m + 1]
    ]


def _alpha_images_by_slot(lam):
    target = zring(lam.ell)
    images = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(part):
            images.append(block_sigma(lam, i, part - j, target))
    return images


def _expand_images_by_slot(lam):
    target = zring(lam.ell)
    images = []
    for i, part in enumerate(lam.parts, start=1):
        for j in range(1, part + 1):
            images.append(block_sigma(lam, i, j, target))
    return images


def _phi_by_zero_slots(p, h, desc):
    zero_slots = {
        desc.slot(i, j) for i in range(1, desc.n + 1) for j in range(min(h[i - 1], desc.m + 1))
    }
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        if all(e == 0 or i not in zero_slots for i, e in enumerate(mono)):
            total += coeff
    return total


def _derivative_tuples(max_n, max_total):
    for n in range(1, max_n + 1):
        for h in itertools.product(range(max_total + 1), repeat=n):
            if sum(h) <= max_total:
                yield h


# every composition of total 1..5 into 1..4 parts, zero parts included
_COMPOSITIONS = [lam for ell in range(1, 6) for n in range(1, 5) for lam in compositions(ell, n)]


@pytest.mark.parametrize("h", list(_derivative_tuples(3, 4)))
def test_psi_images_match_the_slot_loop(h):
    # the compositions h + e_i of H+1; over these 55 tuples they are every
    # composition of total 1..5 into 1..3 parts, zero parts included
    desc = JetRingDesc(len(h), sum(h))
    for i in range(len(h)):
        lam = Composition(hk + (k == i) for k, hk in enumerate(h))
        spec = PsiSpecialization(lam, desc)
        images = [spec.apply(v) for v in desc.ring.gens()]
        assert images == _psi_images_by_slot(lam, desc), lam


# every composition of m+1 into n parts, zero parts included, for n <= 4 and m <= 4
_PSI_SHAPES = [
    (lam, JetRingDesc(n, m)) for n in range(1, 5) for m in range(5) for lam in compositions(m + 1, n)
]


def test_packed_psi_kernel_check_matches_the_poly_path():
    # the packed check accepts psi of every jet generator, as the Poly path
    # does, and on random integer combinations of the generators' terms the
    # two verdicts agree
    assert len(_PSI_SHAPES) == 205
    rng = make_rng(3232)
    verdicts = []
    for lam, desc in _PSI_SHAPES:
        spec, images = PsiSpecialization(lam, desc), _psi_poly_images(lam, desc)
        gens = jet_generators(None, desc)
        jetring._check_psi_kernel(spec, gens)
        for g in gens:
            assert not symfun._image_nf(spec._table, _clear_denominators(g.terms)[0].items(), lam.ell)
            assert normal_form_IS(g.substitute(spec.target, images)).is_zero(), lam
        mixed = {t: rng.randint(-3, 3) for g in gens for t in g.terms}
        expected = normal_form_IS(Poly(desc.ring, mixed).substitute(spec.target, images)).is_zero()
        assert (not symfun._image_nf(spec._table, mixed.items(), lam.ell)) == expected, lam
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_psi_apply_is_exact_past_the_packing_of_its_table():
    # the narrow packing of z1..z3 holds exponents up to 7; psi(x1_0^20) has 20
    desc = JetRingDesc(2, 2)
    for lam in compositions(3, 2):
        spec, images = PsiSpecialization(lam, desc), _psi_poly_images(lam, desc)
        for p in (desc.var(1, 0) ** 20, (desc.var(1, 0) + desc.var(2, 1)) ** 9):
            assert spec.apply(p) == p.substitute(spec.target, images), lam


def _jet_polys(shape):
    coefficients = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))
    monomials = st.tuples(*[st.integers(0, 3)] * shape[1].ring.nvars).map(Monomial)
    polys = st.dictionaries(monomials, coefficients, max_size=4)
    return st.tuples(st.just(shape), polys.map(lambda terms: Poly(shape[1].ring, terms)))


@given(st.sampled_from([s for s in _PSI_SHAPES if s[1].ring.nvars <= 6]).flatmap(_jet_polys))
def test_psi_apply_matches_the_poly_substitution(drawn):
    (lam, desc), p = drawn
    spec = PsiSpecialization(lam, desc)
    image = spec.apply(p)
    assert image == p.substitute(spec.target, _psi_poly_images(lam, desc))
    assert all(type(c) is Fraction for c in image.terms.values())


def test_alpha_and_expand_images_match_the_slot_loops():
    for lam in _COMPOSITIONS:
        y = c_lambda_ring(lam)
        assert [alpha_map(v, lam) for v in y.gens()] == _alpha_images_by_slot(lam), lam
        y = block_elementary_ring(lam)
        assert [expand_block_elementary(v, lam) for v in y.gens()] == (
            _expand_images_by_slot(lam)
        ), lam


def test_decompose_round_trips():
    rng = make_rng(2525)
    for lam in _COMPOSITIONS:
        if lam.ell > 4:
            continue
        ring, y = zring(lam.ell), block_elementary_ring(lam)
        for _ in range(3):
            p = random_lambda_symmetric(lam, ring, rng, max_deg=3, terms=3)
            assert expand_block_elementary(decompose_block_elementary(p, lam), lam) == p
            q = random_poly(y, rng, max_deg=2, terms=3)
            assert decompose_block_elementary(expand_block_elementary(q, lam), lam) == q


def test_phi_matches_the_zero_slot_loop():
    rng = make_rng(1717)
    for n, m in itertools.product(range(1, 4), range(4)):
        desc = JetRingDesc(n, m)
        polys = jet_generators(None, desc)
        polys += [random_poly(desc.ring, rng, max_deg=3, terms=5) for _ in range(6)]
        for h in itertools.product(range(m + 2), repeat=n):
            for p in polys:
                assert phi_binary_eval(p, h, desc) == _phi_by_zero_slots(p, h, desc), (h, p)

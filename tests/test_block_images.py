"""The block specialisations against the hand-indexed loops they replaced.

psi, alpha, the block elementary presentation and the 0/1 witness phi each
take their images from one table, `symfun._block_sigmas`, or from one
substitution.  The loops below are the per-slot derivations they had
before, kept as references: every image must come out the same.
"""

import itertools
from fractions import Fraction

import pytest

from jetform import (
    Composition,
    JetRingDesc,
    PsiSpecialization,
    alpha_map,
    block_elementary_ring,
    block_sigma,
    c_lambda_ring,
    compositions,
    decompose_block_elementary,
    expand_block_elementary,
    jet_generators,
    phi_binary_eval,
    zring,
)

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

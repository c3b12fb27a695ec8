"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from itertools import combinations
from math import factorial

import pytest

from jetform import (
    Composition,
    ExactSpan,
    JetRingDesc,
    Permutation,
    basis_exponents,
    basis_polys,
    block_sigma,
    c_lambda_generators,
    alpha_map,
    catalan_congruence_check,
    complete_homogeneous,
    derivative_monomial,
    dim_A_lambda,
    divide,
    elementary_symmetric,
    groebner_basis_IS,
    homogeneous_membership,
    in_IS,
    is_lambda_symmetric,
    jet_generators,
    min_degree_formula,
    min_degree_search,
    monk_expand,
    multiplicity_table,
    nilpotency_order,
    normal_form_IS,
    nu,
    psi_specialize,
    radical_witness,
    schubert_table,
    spoly,
    zring,
)
from jetform.polyring import _clear_denominators

from conftest import make_rng, positive_compositions, random_lambda_symmetric


def _report(name):
    def decorator(fn):
        def wrapped():
            try:
                fn()
            except BaseException:
                print("ACCEPTANCE FAIL %s" % name)
                raise
            print("ACCEPTANCE PASS %s" % name)

        wrapped.__name__ = fn.__name__
        return wrapped

    return decorator


def _all_compositions(ell):
    return [Composition(parts) for parts in positive_compositions(ell)]


@_report("criterion 1: dimension law and basis rank")
def test_criterion_01_dimension_law():
    for ell in range(1, 8):
        for lam in _all_compositions(ell):
            expected = factorial(ell)
            for part in lam.parts:
                expected //= factorial(part)
            assert len(basis_exponents(lam)) == expected == dim_A_lambda(lam)
    # zero parts contribute nothing
    for parts in [(2, 0, 1), (0, 3), (1, 0, 0, 2)]:
        lam = Composition(parts)
        squeezed = Composition([p for p in parts if p])
        assert dim_A_lambda(lam) == dim_A_lambda(squeezed)
        assert len(basis_exponents(lam)) == dim_A_lambda(lam)
    # normal forms of the orbit-sum basis have full rank
    for ell in range(1, 7):
        for lam in _all_compositions(ell):
            span = ExactSpan()
            for k, f in enumerate(basis_polys(lam)):
                nf = normal_form_IS(f, ell)
                assert not nf.is_zero()
                assert span.insert(_clear_denominators(nf.terms)[0], k)
            assert span.rank == dim_A_lambda(lam)


@_report("criterion 2: multiplicity sum equals n^(m+1)")
def test_criterion_02_multiplicity_sum():
    for n in range(1, 5):
        for m in range(0, 6):
            table = multiplicity_table(n, m)
            assert sum(table.values()) == n ** (m + 1)
            assert len(table) == len(set(table))


@_report("criterion 3: Groebner basis confirmation")
def test_criterion_03_groebner_confirmation():
    for ell in range(1, 7):
        basis = list(groebner_basis_IS(ell))
        for f, g in combinations(basis, 2):
            _, rem = divide(spoly(f, g), basis)
            assert rem.is_zero()
        for i in range(1, ell + 1):
            for j in range(i, ell + 3):
                assert in_IS(complete_homogeneous(j, i, ell))


@_report("criterion 4: normal forms preserve block symmetry (200 per shape)")
def test_criterion_04_symmetry_preservation():
    rng = make_rng(0xBEEF)
    for ell in range(1, 7):
        ring = zring(ell)
        for lam in _all_compositions(ell):
            for _ in range(200):
                p = random_lambda_symmetric(lam, ring, rng, max_deg=5, terms=3)
                assert is_lambda_symmetric(normal_form_IS(p, ell), lam)


@_report("criterion 5: nilpotency sandwich")
def test_criterion_05_nilpotency_sandwich():
    rng = make_rng(0xFEED)
    for ell in range(1, 7):
        for lam in _all_compositions(ell):
            for i, part in enumerate(lam.parts, start=1):
                order = nilpotency_order(block_sigma(lam, i, 1), lam, i)
                assert order == part * (ell - part) + 1
    # random symmetric block elements satisfy the certified upper bound
    for parts in [(2, 1), (2, 2), (3, 2), (3, 3), (2, 2, 2), (4, 2)]:
        lam = Composition(parts)
        ell = lam.ell
        for i, part in enumerate(lam.parts, start=1):
            for _ in range(4):
                p = zring(ell).zero()
                for _ in range(rng.randint(1, 3)):
                    j = rng.randint(1, part)
                    p = p + (block_sigma(lam, i, j) ** rng.randint(1, 2)).scale(
                        rng.randint(1, 5)
                    )
                order = nilpotency_order(p, lam, i)
                assert order is not None
                r = nu(p, ell)
                if r is None:
                    assert order == 1
                else:
                    assert order <= (part * (ell - part)) // r + 1


@_report("criterion 6: Monk product matches normal-form product, ell <= 5")
def test_criterion_06_monk_formula():
    for ell in range(2, 6):
        table = schubert_table(ell)
        nf = {w: normal_form_IS(p, ell) for w, p in table.items()}
        assert len(table) == factorial(ell)
        for w in table:
            for r in range(1, ell):
                lhs = normal_form_IS(table[Permutation.simple(r, ell)] * table[w], ell)
                rhs = zring(ell).zero()
                expansion = monk_expand(r, w)
                assert len(set(expansion)) == len(expansion)
                for v in expansion:
                    rhs = rhs + nf[v]
                assert lhs == normal_form_IS(rhs, ell)


@_report("criterion 7: Catalan congruence, ell = 3..6")
def test_criterion_07_catalan():
    assert catalan_congruence_check(3) == 1
    assert catalan_congruence_check(4) == 2
    assert catalan_congruence_check(5) == 5
    assert catalan_congruence_check(6) == 14


SEARCH_CASES = [(1, 0), (1, 1), (2, 1), (1, 2), (1, 1, 1)]
_SEARCH_RESULTS = {}


def _search(h):
    if h not in _SEARCH_RESULTS:
        _SEARCH_RESULTS[h] = min_degree_search(h)
    return _SEARCH_RESULTS[h]


@_report("criterion 8: minimal degree search agrees with the closed formula")
def test_criterion_08_degree_theorem():
    assert min_degree_formula((1, 0)) == 2
    assert min_degree_formula((1, 1)) == 3
    assert min_degree_formula((2, 1)) == 5
    assert min_degree_formula((1, 2)) == 5
    # (1+1)(3-1)+1 for the all-ones triple
    assert min_degree_formula((1, 1, 1)) == 5
    for h in SEARCH_CASES:
        result = _search(h)
        assert result.degree == min_degree_formula(h)
        assert result.certificate.member
        assert result.certificate.combination
        for d in range(1, result.degree):
            assert result.refusals[d].member is False


@pytest.mark.stretch
def test_criterion_08_stretch_case_2_2():
    result = min_degree_search((2, 2))
    assert result.degree == min_degree_formula((2, 2)) == 7
    print("ACCEPTANCE PASS criterion 8 stretch: h=(2,2) degree 7")


@_report("criterion 9: radical witness for 1 <= H <= 6")
def test_criterion_09_radical_witness():
    def tuples(n, total):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in tuples(n - 1, total - first):
                yield (first,) + rest

    for n in (1, 2, 3):
        for total in range(1, 7):
            for h in tuples(n, total):
                assert radical_witness(h)
    for h in [(1, 1, 1, 1), (2, 1, 1, 0), (0, 0, 0, 4)]:
        assert radical_witness(h)


@_report("criterion 10: psi kernel and psi witness, H <= 4")
def test_criterion_10_psi_kernel_and_witness():
    def tuples(n, total):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in tuples(n - 1, total - first):
                yield (first,) + rest

    for n in (1, 2, 3):
        for total in range(0, 5):
            for h in tuples(n, total):
                desc = JetRingDesc(n, total)
                for g in jet_generators(None, desc):
                    assert in_IS(psi_specialize(g, h, desc))
                image = psi_specialize(derivative_monomial(h, desc), h, desc)
                witness_power = min_degree_formula(h) - 1
                assert not normal_form_IS(image**witness_power).is_zero()


@_report("criterion 11: coefficient map sends relations to full elementaries")
def test_criterion_11_alpha_identity():
    for ell in range(1, 7):
        ring = zring(ell)
        for lam in _all_compositions(ell):
            relations = c_lambda_generators(lam)
            assert len(relations) == ell
            for k, f in enumerate(relations):
                assert alpha_map(f, lam) == elementary_symmetric(ring, ell - k, range(ell))


@_report("criterion 12: oracle certificates re-expand; refusals have witnesses")
def test_criterion_12_oracle_soundness():
    # certificates from the degree searches re-expand to their queries
    for h in SEARCH_CASES:
        result = _search(h)
        desc = JetRingDesc(len(h), sum(h))
        gens = jet_generators(None, desc)
        mono = derivative_monomial(h, desc)
        assert result.certificate.verify(mono**result.degree, gens)
        # each refused degree is confirmed by the psi witness
        for d in result.refusals:
            image = psi_specialize(mono**d, h, desc)
            assert not normal_form_IS(image).is_zero()
    # certificates from symmetric-ideal membership re-expand as well
    rng = make_rng(0xACE)
    for ell in (3, 4):
        ring = zring(ell)
        basis = list(groebner_basis_IS(ell))
        for _ in range(5):
            p = random_lambda_symmetric(Composition((1,) * ell), ring, rng, max_deg=4)
            target = p - normal_form_IS(p)
            for comp in target.homogeneous_components().values():
                if comp.is_zero():
                    continue
                res = homogeneous_membership(comp, basis)
                assert res.member
                assert res.verify(comp, basis)

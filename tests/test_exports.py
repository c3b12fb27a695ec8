"""Guards on the package's public names: a name deleted from a module must
leave its `__all__` and the package's re-exports with it.  Also guards on
what passes between the kernels: `linalg` works on integer rows only,
each z ring has one packing whose keys fit one CPython digit, and only
`symfun` reduces packed z-ring polynomials.  And a guard that every index
is checked by `errors._size` alone, and one that psi and alpha take their
images from the one block sigma table."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jetform

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(jetform.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module("jetform." + name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, missing


def test_package_imports_only_names_its_modules_export():
    tree = ast.parse(Path(jetform.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module("jetform." + node.module)
        exported = getattr(module, "__all__", ())
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert not stray, (node.module, stray)


def test_linalg_is_integer_only():
    from jetform import linalg

    assert "Fraction" not in vars(linalg)
    assert sorted(linalg.__all__) == ["Budget", "ExactSpan", "integer_nullspace"]


@pytest.mark.parametrize("ell", range(1, 7))
def test_z_ring_packing_keys_fit_one_cpython_digit(ell):
    # one packing per z ring, for degree ell(ell-1)/2; its fields, guard
    # bits included, take at most 30 bits, so every key, bump added, is an
    # int of one 30-bit CPython digit
    from jetform import symfun

    packing = symfun._packing(ell)
    assert packing is symfun._packing(ell)
    assert packing.width * ell <= 30
    top = ell * (ell - 1) // 2
    assert packing.pack((top,) + (0,) * (ell - 1)) | packing.guard < 2**30


def test_each_z_ring_has_one_packing():
    # normal forms, nilpotency orders, psi refusals and expansions all take
    # the one packing of their z ring: one cached entry per ell
    from jetform import symfun

    symfun._packed_rules.cache_clear()
    for ell in range(1, 7):
        ring = jetform.zring(ell)
        jetform.normal_form_IS(ring.var(0) ** ell)
        jetform.schubert_expansion(ring.var(ell - 1) ** 2)
        lam = jetform.Composition((1, ell - 1))
        jetform.nilpotency_order(jetform.block_sigma(lam, 1, 1), lam, 1)
    for h in [(1,), (1, 1), (2, 1), (2, 2)]:
        jetform.min_degree_search(h)
    assert symfun._packed_rules.cache_info().currsize == 6


def test_only_symfun_reduces_packed_polynomials():
    # `_reduce_packed` is named in `symfun` alone, and `alambda` takes its
    # powers from `symfun._nf_powers`, not from the packed kernels
    privates = {"_normal_form", "_packed_rules", "_packing", "_reduce_packed"}
    for name in MODULES:
        tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
        named = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
        if name != "symfun":
            assert "_reduce_packed" not in named, name
        if name == "alambda":
            assert "_nf_powers" in named
            assert not named & privates, named & privates


def test_schubert_span_is_keyed_by_packed_ints():
    from jetform import schubert

    schubert.schubert_expansion(jetform.zring(4).var(0))
    pivots = schubert._schubert_span(4).pivots
    assert len(pivots) == 24 and all(type(lead) is int for lead in pivots)


@pytest.mark.parametrize("name", ["jets", "alambda"])
def test_block_images_come_from_the_one_table(name):
    # psi and alpha read their images from `symfun._block_sigmas`, not from
    # sigmas of their own
    tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_block_sigmas" in imported
    assert not imported & {"block_sigma", "elementary_symmetric"}


def test_only_errors_checks_an_index_by_hand():
    # every size and index argument goes through `errors._size`: no other
    # module takes `operator.index` or words its own range refusal
    for name in MODULES:
        if name == "errors":
            continue
        tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                assert "index" not in [alias.name for alias in node.names], name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert (node.value.id, node.attr) != ("operator", "index"), name
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in ("out of range", "must be at least", "must be in "):
                    assert phrase not in node.value, (name, node.value)

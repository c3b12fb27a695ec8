"""Guards on the package's public names: the union of the modules'
`__all__`, re-exported by wildcard or on first use; every name in an
`__all__` exists.  Guards that each workload loads only the layers it runs,
that the jet ring imports no oracle, and that the bench tracer finds every
lazy module.
Also guards on what passes between the kernels: `linalg` works on integer rows only,
each z ring has one packing whose keys fit one CPython digit, and only
`symfun` reduces packed z-ring polynomials.  And guards that every index
is checked by `errors._size` alone and every ring by `errors._in_ring`
alone, that psi and alpha take their images from the one block sigma
table, and that psi runs on packed integers.  Guards that the membership
oracle reads its query in one half only, that a Poly is integer
numerators over one denominator, and that every name the bench tracer
wraps still exists."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import jetform

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(jetform.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module("jetform." + name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, missing


def _package_imports():
    tree = ast.parse(Path(jetform.__file__).read_text())
    return [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_package_imports_every_name_by_a_relative_wildcard():
    # the modules loaded with the package give their names by relative
    # wildcard; the others load on first use, from `_LAZY`, and between them
    # they are every module but the CLI
    imports = _package_imports()
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.unparse(node)
        assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)
    eager = [node.module for node in imports]
    assert not set(eager) & set(jetform._LAZY)
    assert sorted(eager + list(jetform._LAZY)) == [name for name in MODULES if name != "cli"]


@pytest.mark.parametrize("node", _package_imports(), ids=ast.unparse)
def test_each_module_the_package_imports_defines_all(node):
    # a wildcard import from a module without `__all__` would leak its
    # helpers and the stdlib names it imports
    assert "__all__" in vars(importlib.import_module("jetform." + node.module))


@pytest.mark.parametrize("name", sorted(jetform._LAZY))
def test_each_module_the_package_loads_lazily_defines_all(name):
    # `_LAZY` copies each lazy module's `__all__`, which stays the one list
    assert "__all__" in vars(importlib.import_module("jetform." + name))


def test_package_names_are_the_union_of_its_modules_all():
    # one owner per public name; the lazy table is exactly the lazy
    # modules' names, and every name is its module's own object
    owners = {}
    for name in [node.module for node in _package_imports()] + list(jetform._LAZY):
        for export in importlib.import_module("jetform." + name).__all__:
            owners.setdefault(export, []).append(name)
    assert not {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert jetform._OWNER == {name: mod for name, (mod,) in owners.items() if mod in jetform._LAZY}
    assert sorted(jetform.__all__) == sorted(owners)
    for name, (mod,) in owners.items():
        assert getattr(jetform, name) is getattr(importlib.import_module("jetform." + mod), name)
    public = {
        name for name in dir(jetform)
        if not name.startswith("_") and not inspect.ismodule(getattr(jetform, name))
    }
    assert public == set(owners)


# Runs in a fresh interpreter: prints, after each step, the lazy modules
# whose bodies have run.  `type` reads no attribute, so it loads nothing.
_IMPORT_STEPS = """
import json, sys, types

def ran():
    return sorted(name for name in ("alambda", "jetring", "jets", "linalg", "schubert", "symfun")
                  if type(sys.modules["jetform." + name]) is types.ModuleType)

import jetform, jetform.cli
steps = [ran()]
for ell in range(1, 7):
    jetform.symfun.normal_form_IS(jetform.zring(ell).var(0), ell)
steps.append(ran())
result, _ = jetform.cli.run(["expand", "z1", "--ell", "6", "--json"])
assert result.status == "ok", result.payload
steps.append(ran())
for argv in (["primes", "--n", "3", "--m", "3"], ["jet-gens", "--n", "2", "--m", "2"],
             ["radical-witness", "--h", "1,2"]):
    result, _ = jetform.cli.run(argv + ["--json"])
    assert result.status == "ok", result.payload
steps.append(ran())
jetform.min_degree_search((1, 1))
steps.append(ran())
jetform.multiplicity_table(2, 2)
steps.append(ran())
print(json.dumps(steps))
"""


def _fresh_python(code: str) -> str:
    src = str(Path(jetform.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_each_workload_loads_only_the_layers_it_runs():
    steps = json.loads(_fresh_python(_IMPORT_STEPS))
    imported, quotient, expand, jet_ring, oracle, multiplicities = steps
    assert imported == []
    assert not {"jetring", "jets", "linalg", "schubert"} & set(quotient)
    assert not {"alambda", "jetring", "jets", "linalg"} & set(expand)
    # the jet ring's commands run no oracle, and so no linear algebra
    assert "jetring" in jet_ring and not {"jets", "linalg"} & set(jet_ring)
    # the oracle never reads dim A_lambda; only the multiplicity table does
    assert {"jetring", "jets"} <= set(oracle) and "alambda" not in oracle
    assert "alambda" in multiplicities


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
    # normal forms, nilpotency orders, psi refusals, expansions and Schubert
    # polynomials all take the one packing of their z ring: one cached
    # record per ell
    from jetform import symfun

    symfun._quotient.cache_clear()
    for ell in range(1, 7):
        ring = jetform.zring(ell)
        jetform.normal_form_IS(ring.var(0) ** ell)
        jetform.schubert_expansion(ring.var(ell - 1) ** 2)
        jetform.schubert_table(ell)
        lam = jetform.Composition((1, ell - 1))
        jetform.nilpotency_order(jetform.block_sigma(lam, 1, 1), lam, 1)
    for h in [(1,), (1, 1), (2, 1), (2, 2)]:
        jetform.min_degree_search(h)
    assert symfun._quotient.cache_info().currsize == 6


def test_only_symfun_reduces_packed_polynomials():
    # `_reduce_packed` and `_heap_reduce` are named in `symfun` alone, and
    # `alambda` takes its powers from `symfun._nf_powers`, not from the
    # packed kernels
    privates = {"_heap_reduce", "_normal_form", "_packing", "_quotient", "_reduce_packed"}
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
            assert not named & {"_heap_reduce", "_reduce_packed"}, name
        if name == "alambda":
            assert "_nf_powers" in named
            assert not named & privates, named & privates


def test_only_the_row_count_is_a_mutated_global():
    # the z rings' state lives in their `symfun._quotient` records; the one
    # `global` statement in the package is `_reduce_packed`'s, for the row
    # count that bounds every ring's rows together
    statements, owners = [], []
    for name in MODULES:
        tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
        statements += [node.names for node in ast.walk(tree) if isinstance(node, ast.Global)]
        owners += [(name, func.name) for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   and any(isinstance(node, ast.Global) for node in func.body)]
    assert statements == [["_row_terms"]]
    assert owners == [("symfun", "_reduce_packed")]


def test_a_poly_is_numerators_over_one_denominator():
    # one representation: no integer copy beside the terms, denominators
    # cleared by the constructor alone, and the Fraction view of a Poly's
    # terms, built on each read, never read inside a loop; `linalg`'s own
    # rows also have `.terms`, of ints, and are left out
    from jetform import polyring

    assert polyring.Poly.__slots__ == ("ring", "nums", "denom", "_hash")
    assert not hasattr(polyring, "_integer_form")
    callers, loop_reads = [], []
    for name in MODULES:
        tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                called = getattr(getattr(node, "func", None), "id", None)
                if isinstance(node, ast.Call) and called == "_clear_denominators":
                    callers.append((name, func.name))
                if name != "linalg" and isinstance(node, (ast.For, ast.While)):
                    # a for loop's iterable is read once, its body on every pass
                    repeated = node.body + node.orelse + [getattr(node, "test", ast.Pass())]
                    loop_reads += [
                        (name, func.name, ast.unparse(inner))
                        for stmt in repeated
                        for inner in ast.walk(stmt)
                        if isinstance(inner, ast.Attribute) and inner.attr == "terms"
                    ]
    assert callers == [("polyring", "__init__")]
    assert not loop_reads, loop_reads


def test_schubert_span_is_keyed_by_packed_ints():
    from jetform import schubert

    schubert.schubert_expansion(jetform.zring(4).var(0))
    perms, inverse = schubert._schubert_inverse(4)
    assert len(inverse) == 24 and all(type(key) is int for key in inverse)
    assert all(type(i) is int and type(c) is int for row in inverse.values() for i, c in row.items())
    assert all(type(w) is schubert.Permutation for w in perms)


def _imported_names(name: str) -> set:
    tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@pytest.mark.parametrize("name", ["jetring", "alambda"])
def test_block_images_come_from_the_one_table(name):
    # psi and alpha read their images from `symfun._block_sigmas`, not from
    # sigmas of their own; the oracle reads psi from `jetring`, and none of
    # the packed psi helpers
    imported = _imported_names(name)
    assert "_block_sigmas" in imported
    assert not imported & {"block_sigma", "elementary_symmetric"}
    psi_helpers = {"_block_sigmas", "_image_nf", "_packed_image", "_packed_powers", "_packing",
                   "_z_poly"}
    assert not _imported_names("jets") & psi_helpers


def test_jet_ring_imports_no_oracle():
    # `jetring` can re-check its objects without the oracle: it imports
    # neither `jets` nor `linalg`, and not the CLI
    tree = ast.parse(Path(jetform.__file__).with_name("jetring.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # `from . import x` names x
            modules.update(alias.name for alias in node.names)
    assert modules
    names = {module.rpartition(".")[2] for module in modules}
    assert not names & {"cli", "jets", "linalg"}, modules


def test_psi_runs_on_packed_integers():
    # psi's table, `apply`, the kernel check and the refusals' powers add
    # packed integer keys: none of them, nor the symfun kernels they call,
    # names `substitute` or `Fraction`, so the psi path cannot drift back
    # onto Poly arithmetic
    from jetform import jetring, symfun

    for obj in (jetring.PsiSpecialization, jetring._check_psi_kernel, jetring._psi_normal_forms,
                symfun._packed_image, symfun._image_nf, symfun._packed_powers):
        tree = ast.parse(inspect.getsource(obj))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not named & {"substitute", "Fraction"}, obj.__name__


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


def test_only_errors_compares_a_polynomials_ring():
    # ring identity is checked by `errors._in_ring` alone: no other module
    # tests `<expr>.ring != ...`; `p.ring.nvars != ...` counts variables,
    # an arity check, and stays allowed
    for name in MODULES:
        if name == "errors":
            continue
        tree = ast.parse(Path(jetform.__file__).with_name(name + ".py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops):
                operands = [node.left, *node.comparators]
                assert not any(
                    isinstance(o, ast.Attribute) and o.attr == "ring" for o in operands
                ), (name, ast.unparse(node))


def test_oracle_packs_the_query_in_one_place():
    # `_Component.certify` packs and projects the query; no second helper
    # keys a query or a row for the span
    from jetform import jets

    assert not hasattr(jets, "_columns")


def test_span_half_of_the_oracle_reads_no_query_terms():
    # `_Component.__init__` builds the span of the query's graded component
    # from the query's degree and weights only
    from jetform import jets

    (func,) = ast.parse(textwrap.dedent(inspect.getsource(jets._Component.__init__))).body
    query = func.args.args[1].arg  # after self
    reads = [
        ast.unparse(node)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and node.attr in ("terms", "nums")
        and isinstance(node.value, ast.Name)
        and node.value.id == query
    ]
    assert not reads, reads


def test_trailing_term_basis_takes_the_cleared_rows_themselves(monkeypatch):
    # no negated or un-negated copy of a row is made for the F5 basis: the
    # rows it receives are the objects `_Component` keeps as `cleared`, keyed
    # by positive packed monomials
    from jetform import jets

    received = []
    leads = jets._trailing_term_leads

    def spy(rows, *args):
        received.append(rows)
        return leads(rows, *args)

    monkeypatch.setattr(jets, "_trailing_term_leads", spy)
    desc = jetform.JetRingDesc(2, 2)
    gens = jetform.jet_generators(None, desc)
    query = jetform.derivative_monomial((1, 1), desc) ** 3
    usable = list(range(len(gens)))
    gradings = jets._common_gradings(gens + [query], desc.ring.nvars)
    generators = jets._Generators(gens, usable, gradings)
    component = jets._Component(query, generators, None)
    (rows,) = received
    assert len(rows) == len(component.cleared) == len(gens)
    assert all(got is row for got, (row, _) in zip(rows, component.cleared.values()))
    assert all(key > 0 for row in rows for key in row)
    assert component.certify(query).combination


def test_every_traced_name_resolves():
    # `bench/tracer.py` wraps each (module, class, attribute) of its TARGETS
    # by name; one deleted from jetform fails here instead of in a traced run
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "tracer.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    for _, module, cls, attr in targets:
        owner = importlib.import_module("jetform." + module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), (module, cls, attr)


def test_tracer_installs_over_the_lazy_modules():
    # as `bench/run.py` does: the package and its CLI, then the tracer, which
    # reads every module from `sys.modules`; a name-only lazy package that
    # left a module out of `sys.modules` fails the install
    bench = Path(__file__).resolve().parents[1] / "bench"
    out = _fresh_python(
        "import sys; sys.path.insert(0, %r)\n"
        "import jetform, jetform.cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "jetform.symfun.normal_form_IS(jetform.zring(3).var(0), 3)\n"
        "print(tracer.calls['symfun.normal_form_IS'])\n" % str(bench)
    )
    assert out.split() == ["1"]

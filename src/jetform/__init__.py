"""Exact computer algebra for jets of x_1...x_n and block-symmetric quotients.

The package computes normal forms modulo the ideal of constant-free
symmetric polynomials, the finite-dimensional algebras of block-symmetric
classes, Schubert-polynomial products through Monk's formula, jet ideal
generators, and certified minimal membership degrees for powers of
derivative monomials, all over exact rational arithmetic.

The package's public names are the `__all__` of each of its modules,
re-exported here; the command-line front end, `jetform.cli`, is not
imported.  `errors` and `polyring`, which every computation needs, load
with the package.  `alambda`, `jetring`, `jets`, `linalg`, `schubert` and
`symfun` load on first use: each is put in `sys.modules` and on the
package by `importlib.util.LazyLoader`, and its body runs on the first
attribute read.  So the quotients never load the jet modules, the jet
ring's names load `jetring` and `symfun`, and only the oracle's names load
`jets` and `linalg`.  A lazy module is still an entry of `sys.modules`,
so tools that wrap functions module by module find all eight.  `_LAZY`
names each lazy module's `__all__`; a name is bound here on its first read.
"""

from .errors import *
from .polyring import *

__version__ = "0.1.0"

_LAZY = {
    "alambda": ("dim_A_lambda", "basis_exponents", "basis_polys", "nilpotency_order",
                "c_lambda_generators", "c_lambda_ring", "alpha_map"),
    "jetring": ("JetRingDesc", "MinimalPrime", "PsiSpecialization", "PsiWitness",
                "jet_generators", "minimal_primes", "compositions", "phi_binary_eval",
                "radical_witness", "derivative_monomial", "multiplicity_table"),
    "jets": ("MembershipResult", "MinDegreeResult", "homogeneous_membership", "psi_specialize",
             "min_degree_formula", "min_degree_search"),
    "linalg": ("ExactSpan", "Budget", "integer_nullspace"),
    "schubert": ("Permutation", "divided_difference", "schubert_poly", "schubert_table",
                 "monk_expand", "schubert_expansion", "catalan_congruence_check",
                 "catalan_number", "block_rotation"),
    "symfun": ("Composition", "zring", "complete_homogeneous", "elementary_symmetric",
               "groebner_basis_IS", "normal_form_IS", "in_IS", "nu", "is_lambda_symmetric",
               "sym_lambda_average", "block_sigma", "decompose_block_elementary",
               "expand_block_elementary", "block_elementary_ring"),
}
# public name -> the lazy module whose `__all__` holds it
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*errors.__all__, *polyring.__all__, *_OWNER]


def _bind_lazy_modules():
    import importlib.util
    import sys

    for module in _LAZY:
        spec = importlib.util.find_spec(__name__ + "." + module)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        lazy = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = globals()[module] = lazy
        spec.loader.exec_module(lazy)


_bind_lazy_modules()


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})

"""Exact computer algebra for jets of x_1...x_n and block-symmetric quotients.

The package computes normal forms modulo the ideal of constant-free
symmetric polynomials, the finite-dimensional algebras of block-symmetric
classes, Schubert-polynomial products through Monk's formula, jet ideal
generators, and certified minimal membership degrees for powers of
derivative monomials, all over exact rational arithmetic.

The package's public names are the `__all__` of each of its modules,
re-exported here; the command-line front end, `jetform.cli`, is not
imported.
"""

from .alambda import *
from .errors import *
from .jets import *
from .linalg import *
from .polyring import *
from .schubert import *
from .symfun import *

__version__ = "0.1.0"

"""Permutations, divided differences, Schubert polynomials, Monk products.

Schubert polynomials are indexed by permutations of {1..ell} and computed by
applying divided difference operators to the staircase monomial
z_1^(ell-1) z_2^(ell-2) ... z_{ell-1}, the polynomial of the longest
permutation.  Their classes modulo the ideal I_S of constant-free symmetric
polynomials form a basis of k[z]/I_S (Lascoux & Schuetzenberger, C. R.
Acad. Sci. Paris 294, 1982), which the expansion routine solves against in
reversed variables: see `_schubert_span`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError, InvariantViolationError, ParseError, _size
from .linalg import ExactSpan
from .polyring import Monomial, Poly, _clear_denominators
from .symfun import _normal_form, _packed_rules, normal_form_IS, zring

__all__ = [
    "Permutation",
    "divided_difference",
    "schubert_poly",
    "schubert_table",
    "monk_expand",
    "schubert_expansion",
    "catalan_congruence_check",
    "catalan_number",
    "block_rotation",
]

# dimensions above this factorial cap are refused by schubert_expansion
MAX_ELL = 6


class Permutation:
    """A permutation of {1..ell} in one-line notation, with cached length."""

    __slots__ = ("oneline", "length", "_hash")

    def __init__(self, oneline):
        oneline = tuple(_size(v, "permutation entry", 1) for v in oneline)
        n = len(oneline)
        if sorted(oneline) != list(range(1, n + 1)):
            raise DomainError("not a permutation of 1..%d: %r" % (n, oneline))
        self.oneline = oneline
        self.length = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if oneline[i] > oneline[j]
        )
        self._hash = hash(oneline)

    @classmethod
    def identity(cls, ell: int) -> "Permutation":
        return cls(range(1, _size(ell, "permutation size") + 1))

    @classmethod
    def simple(cls, i: int, ell: int) -> "Permutation":
        """The adjacent transposition s_i swapping i and i+1 (1-based)."""
        ell = _size(ell, "permutation size")
        i = _size(i, "simple reflection index", 1, ell - 1)
        oneline = list(range(1, ell + 1))
        oneline[i - 1], oneline[i] = oneline[i], oneline[i - 1]
        return cls(oneline)

    @classmethod
    def transposition(cls, j: int, k: int, ell: int) -> "Permutation":
        ell = _size(ell, "permutation size")
        j, k = (_size(v, "transposition argument", 1, ell) for v in (j, k))
        if j == k:
            raise DomainError("transposition (%d %d) moves nothing" % (j, k))
        oneline = list(range(1, ell + 1))
        oneline[j - 1], oneline[k - 1] = oneline[k - 1], oneline[j - 1]
        return cls(oneline)

    @classmethod
    def longest(cls, ell: int) -> "Permutation":
        return cls(range(_size(ell, "permutation size"), 0, -1))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Read one-line notation like [2,3,1].

        Text that is not a list of integers is a ParseError; integers that
        are not a permutation are the constructor's DomainError.
        """
        stripped = text.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            stripped = stripped[1:-1]
        if not stripped.strip():
            raise ParseError("empty permutation text %r" % text)
        try:
            values = [int(v) for v in stripped.split(",")]
        except ValueError as exc:
            raise ParseError("bad permutation text %r" % text) from exc
        return cls(values)

    @property
    def ell(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[_size(i, "position", 1, self.ell) - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition as functions: (self * other)(i) = self(other(i))."""
        if self.ell != other.ell:
            raise DomainError("permutations of different sizes")
        return Permutation(self.oneline[v - 1] for v in other.oneline)

    def swap_positions(self, j: int, k: int) -> "Permutation":
        """Right multiplication by the transposition (j k): entries at
        positions j and k of the one-line notation are exchanged."""
        j, k = (_size(v, "position", 1, self.ell) - 1 for v in (j, k))
        oneline = list(self.oneline)
        oneline[j], oneline[k] = oneline[k], oneline[j]
        return Permutation(oneline)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.oneline == other.oneline

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.oneline < other.oneline

    def __repr__(self):
        return "Permutation([%s])" % ",".join(map(str, self.oneline))

    def __str__(self):
        return "[%s]" % ",".join(map(str, self.oneline))


def divided_difference(p: Poly, i: int) -> Poly:
    """(p - s_i p) / (z_i - z_{i+1}) for 1-based i; always a polynomial.

    Computed monomial by monomial through the telescoping identity for
    (z_i^a z_{i+1}^b - z_i^b z_{i+1}^a) / (z_i - z_{i+1}), which avoids an
    actual division.
    """
    i = _size(i, "divided difference index", 1, p.ring.nvars - 1)
    ia, ib = i - 1, i
    out: dict[Monomial, Fraction] = {}
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
def schubert_table(ell: int) -> dict[Permutation, Poly]:
    """All Schubert polynomials of S_ell, keyed by permutation."""
    ring = zring(_size(ell, "ell", 1))
    w0 = Permutation.longest(ell)
    staircase = Poly(
        ring,
        {Monomial(tuple(ell - 1 - k for k in range(ell))): Fraction(1)},
    )
    table = {w0: staircase}
    by_length: dict[int, list[Permutation]] = {w0.length: [w0]}
    order = w0.length
    for target_len in range(order - 1, -1, -1):
        found: dict[Permutation, Poly] = {}
        for w in by_length.get(target_len + 1, []):
            for i in range(1, ell):
                v = w.swap_positions(i, i + 1)
                if v.length == target_len and v not in found:
                    found[v] = divided_difference(table[w], i)
        by_length[target_len] = list(found)
        table.update(found)
    return table


def schubert_poly(w: Permutation) -> Poly:
    return schubert_table(w.ell)[w]


def monk_expand(r: int, w: Permutation) -> list[Permutation]:
    """Permutations appearing in the Monk product of s_r with w.

    All w * t_{jk} with j <= r < k whose length is exactly length(w) + 1;
    the product of the corresponding Schubert classes is their
    multiplicity-free sum.
    """
    ell = w.ell
    r = _size(r, "Monk index", 1, ell - 1)
    out = []
    for j in range(1, r + 1):
        for k in range(r + 1, ell + 1):
            v = w.swap_positions(j, k)
            if v.length == w.length + 1:
                out.append(v)
    return sorted(out)


@lru_cache(maxsize=None)
def _schubert_span(ell: int) -> ExactSpan:
    """The rows rho(S_w), w in S_ell, for rho: z_i -> z_{ell+1-i}, inserted
    with no normal form taken.  S_w is supported on z^a with a_i <= ell - i
    (Macdonald, Notes on Schubert Polynomials, LaCIM 1991), so rho(S_w) has
    deg_{z_j} < j: it is reduced.  This is checked, not assumed: every row
    must be integral and pass `_reduce_packed`'s test (key + bump) & guard
    == 0; S_w has degree at most the packing's, so no field overflows.
    """
    packing, bump, guard, _ = _packed_rules(ell, ell * (ell - 1) // 2)
    span = ExactSpan()
    table = schubert_table(ell)
    for w in sorted(table):
        terms = table[w].permute_vars(range(ell - 1, -1, -1)).terms
        row, denom = _clear_denominators({packing.pack(m): c for m, c in terms.items()})
        if denom != 1 or any((key + bump) & guard for key in row):
            raise InvariantViolationError(
                "reversed Schubert polynomial of %s is not an integral normal form" % w
            )
        if not span.insert(row, w):
            raise InvariantViolationError(
                "reversed Schubert polynomials are linearly dependent at ell=%d" % ell
            )
    return span


def schubert_expansion(p: Poly, ell: int | None = None) -> dict[Permutation, Fraction]:
    """Coefficients c_w with p congruent to sum(c_w * Schubert_w) mod I_S.

    rho permutes the variables, so it fixes I_S: p is congruent to
    sum(c_w * S_w) iff rho(p) is congruent to sum(c_w * rho(S_w)).  So the
    span's relation scale * d*NF(rho(p)) = sum of c * rho(S_w) gives each
    c_w once, as c / (scale * d).  Refuses ell beyond `MAX_ELL` because
    the table grows with the factorial.
    """
    ell = _size(p.ring.nvars if ell is None else ell, "ell", 1, MAX_ELL)
    terms, denom = _normal_form(p.permute_vars(range(p.ring.nvars - 1, -1, -1)), ell)
    relation = _schubert_span(ell).reduce(terms)
    if relation is None:
        raise InvariantViolationError(
            "normal form escaped the Schubert span at ell=%d" % ell
        )
    coeffs, scale = relation
    return {w: Fraction(c, scale * denom) for w, c in sorted(coeffs.items())}


def catalan_number(k: int) -> int:
    k = _size(k, "Catalan index")
    return comb(2 * k, k) // (k + 1)


def catalan_congruence_check(ell: int) -> Fraction:
    """The scalar c with (z_1+z_2)^(2(ell-2)) congruent to c * z_3^2...z_ell^2.

    Raises if the normal form is not proportional to the single reduced
    monomial, which would indicate a bug rather than bad input.
    """
    ell = _size(ell, "ell", 2)
    ring = zring(ell)
    power = (ring.var(0) + ring.var(1)) ** (2 * (ell - 2))
    nf = normal_form_IS(power, ell)
    target = Monomial(tuple([0, 0] + [2] * (ell - 2)))
    if set(nf.terms) != {target}:
        raise InvariantViolationError(
            "normal form of the binomial power is not proportional to the "
            "staircase square at ell=%d: %s" % (ell, nf)
        )
    return nf.terms[target]


def block_rotation(ell: int, lam1: int) -> Permutation:
    """The permutation sending 1..lam1 to the top lam1 values and shifting
    the rest down; its length is lam1 * (ell - lam1)."""
    ell = _size(ell, "ell")
    lam1 = _size(lam1, "block size", 0, ell)
    oneline = [ell - lam1 + i for i in range(1, lam1 + 1)]
    oneline += list(range(1, ell - lam1 + 1))
    return Permutation(oneline)

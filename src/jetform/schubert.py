"""Permutations, divided differences, Schubert polynomials, Monk products.

Schubert polynomials are indexed by permutations of {1..ell} and computed by
applying divided difference operators to the staircase monomial
z_1^(ell-1) z_2^(ell-2) ... z_{ell-1}, the polynomial of the longest
permutation.  Their classes modulo the ideal of constant-free symmetric
polynomials form a basis of the quotient, which is what the expansion
routine solves against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InvariantViolationError, ParseError
from .linalg import ExactSpan, int_row
from .polyring import Monomial, Poly
from .symfun import normal_form_IS, zring

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
        oneline = tuple(int(v) for v in oneline)
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
        return cls(range(1, ell + 1))

    @classmethod
    def simple(cls, i: int, ell: int) -> "Permutation":
        """The adjacent transposition s_i swapping i and i+1 (1-based)."""
        if not 1 <= i < ell:
            raise DomainError("simple reflection index %d out of range" % i)
        oneline = list(range(1, ell + 1))
        oneline[i - 1], oneline[i] = oneline[i], oneline[i - 1]
        return cls(oneline)

    @classmethod
    def transposition(cls, j: int, k: int, ell: int) -> "Permutation":
        if not (1 <= j <= ell and 1 <= k <= ell and j != k):
            raise DomainError("bad transposition (%d %d) in S_%d" % (j, k, ell))
        oneline = list(range(1, ell + 1))
        oneline[j - 1], oneline[k - 1] = oneline[k - 1], oneline[j - 1]
        return cls(oneline)

    @classmethod
    def longest(cls, ell: int) -> "Permutation":
        return cls(range(ell, 0, -1))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Read one-line notation like [2,3,1]."""
        stripped = text.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            stripped = stripped[1:-1]
        try:
            values = [int(v) for v in stripped.split(",") if v.strip()]
        except ValueError as exc:
            raise ParseError("bad permutation text %r" % text) from exc
        if not values:
            raise ParseError("empty permutation text %r" % text)
        try:
            return cls(values)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    @property
    def ell(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition as functions: (self * other)(i) = self(other(i))."""
        if self.ell != other.ell:
            raise DomainError("permutations of different sizes")
        return Permutation(self.oneline[v - 1] for v in other.oneline)

    def swap_positions(self, j: int, k: int) -> "Permutation":
        """Right multiplication by the transposition (j k): entries at
        positions j and k of the one-line notation are exchanged."""
        oneline = list(self.oneline)
        oneline[j - 1], oneline[k - 1] = oneline[k - 1], oneline[j - 1]
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
    ell = p.ring.nvars
    if not 1 <= i < ell:
        raise DomainError("divided difference index %d out of range 1..%d" % (i, ell - 1))
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
    if ell < 1:
        raise DomainError("need ell >= 1")
    ring = zring(ell)
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
    if not 1 <= r < ell:
        raise DomainError("Monk index %d out of range 1..%d" % (r, ell - 1))
    out = []
    for j in range(1, r + 1):
        for k in range(r + 1, ell + 1):
            v = w.swap_positions(j, k)
            if v.length == w.length + 1:
                out.append(v)
    return sorted(out)


@lru_cache(maxsize=None)
def _schubert_span(ell: int) -> ExactSpan:
    span = ExactSpan()
    for w in sorted(schubert_table(ell)):
        nf = normal_form_IS(schubert_table(ell)[w], ell)
        if not span.insert(int_row(nf.terms), w):
            raise InvariantViolationError(
                "Schubert normal forms are linearly dependent at ell=%d" % ell
            )
    return span


def schubert_expansion(p: Poly, ell: int | None = None) -> dict[Permutation, Fraction]:
    """Coefficients c_w with p congruent to sum(c_w * Schubert_w) mod I_S.

    Solved exactly against the normal forms of all ell! Schubert
    polynomials; refuses ell beyond `MAX_ELL` because the table grows with
    the factorial.
    """
    if ell is None:
        ell = p.ring.nvars
    if ell > MAX_ELL:
        raise DomainError("ell=%d exceeds the expansion cap %d" % (ell, MAX_ELL))
    nf = normal_form_IS(p, ell)
    if nf.is_zero():
        return {}
    rem, comb = _schubert_span(ell).reduce(nf.terms)
    if rem:
        raise InvariantViolationError(
            "normal form escaped the Schubert span at ell=%d" % ell
        )
    return {w: c for w, c in sorted(comb.items()) if c}


def catalan_number(k: int) -> int:
    if k < 0:
        raise DomainError("negative Catalan index")
    num = 1
    for i in range(k):
        num = num * (2 * k - i)
    for i in range(1, k + 1):
        num //= i
    return num // (k + 1)


def catalan_congruence_check(ell: int) -> Fraction:
    """The scalar c with (z_1+z_2)^(2(ell-2)) congruent to c * z_3^2...z_ell^2.

    Raises if the normal form is not proportional to the single reduced
    monomial, which would indicate a bug rather than bad input.
    """
    if ell < 2:
        raise DomainError("need ell >= 2")
    ring = zring(ell)
    power = (ring.var(0) + ring.var(1)) ** (2 * (ell - 2))
    nf = normal_form_IS(power, ell)
    target = Monomial(tuple([0, 0] + [2] * (ell - 2)))
    if ell == 2:
        target = ring.one_monomial()
    if set(nf.terms) != {target}:
        raise InvariantViolationError(
            "normal form of the binomial power is not proportional to the "
            "staircase square at ell=%d: %s" % (ell, nf)
        )
    return nf.terms[target]


def block_rotation(ell: int, lam1: int) -> Permutation:
    """The permutation sending 1..lam1 to the top lam1 values and shifting
    the rest down; its length is lam1 * (ell - lam1)."""
    if not 0 <= lam1 <= ell:
        raise DomainError("block size %d out of range 0..%d" % (lam1, ell))
    oneline = [ell - lam1 + i for i in range(1, lam1 + 1)]
    oneline += list(range(1, ell - lam1 + 1))
    return Permutation(oneline)

"""Permutations, divided differences, Schubert polynomials, Monk products.

Schubert polynomials S_w, w in S_ell, come from the staircase
z_1^(ell-1) z_2^(ell-2) ... z_{ell-1} = S_w0 by one divided-difference
kernel on packed integer monomials.  Their classes modulo I_S form a basis
of k[z]/I_S (Lascoux & Schuetzenberger, C. R. Acad. Sci. Paris 294, 1982).
The expansion works in reversed variables rho: z_i -> z_{ell+1-i}: on the
reversed field order the kernel makes the rows rho(S_w) directly, already
reduced, with distinct leads of coefficient 1.  That matrix is
unitriangular with ell! leads, as many as reduced monomials, so every
reduced key is a lead and `_schubert_inverse` inverts it once per ell, by
back-substitution in integers.  An expansion is then a sum of that
inverse's rows over the terms of one normal form, with no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import DomainError, InvariantViolationError, _in_ring, _size
from .polyring import Monomial, Packing, Poly, _parse_ints
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
        self.length = sum(a > b for i, a in enumerate(oneline) for b in oneline[i + 1 :])
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
        return cls(_parse_ints(stripped, "permutation text"))

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


def _packed_divided_difference(terms: dict, si: int, sj: int, mask: int) -> dict:
    """d_i of packed `terms`, z_i's field at shift si and z_{i+1}'s at sj:
    z_i^a z_{i+1}^b goes to the sum over b <= k < a of z_i^k z_{i+1}^(a+b-1-k),
    negated if a < b, 0 if a = b; integers stay integers, exponents fall."""
    out: dict = {}
    for key, c in terms.items():
        a, b = (key >> si) & mask, (key >> sj) & mask
        base = key - (a << si) - (b << sj)
        if a < b:
            a, b, c = b, a, -c
        for k in range(b, a):
            child = base + (k << si) + ((a + b - 1 - k) << sj)
            out[child] = out.get(child, 0) + c
    return {key: c for key, c in out.items() if c}


def _staircase(shifts) -> dict[int, int]:
    """The packed S_w0 = z_1^(ell-1) z_2^(ell-2) ... z_{ell-1}, ell = len(shifts)."""
    return {sum((len(shifts) - 1 - k) << s for k, s in enumerate(shifts)): 1}


def divided_difference(p: Poly, i: int) -> Poly:
    """(p - s_i p) / (z_i - z_{i+1}) for 1-based i; always a polynomial.
    p is packed, `_packed_divided_difference` runs, and the result unpacked."""
    i = _size(i, "divided difference index", 1, p.ring.nvars - 1)
    packing = Packing(p.ring.nvars, max((max(m) for m in p.terms), default=0))
    terms = {packing.pack(m): c for m, c in p.terms.items()}
    si, sj = packing.shifts[i - 1 : i + 1]
    terms = _packed_divided_difference(terms, si, sj, packing.mask)
    return Poly(p.ring, {packing.unpack(key): c for key, c in terms.items()})


def _schubert_rows(ell: int, shifts, mask: int) -> dict[tuple, dict[int, int]]:
    """{one-line w: S_w as packed integer terms} over S_ell, z_k's field at
    shifts[k - 1]; uncached.  From the staircase down by length, with
    S_{w s_i} = d_i S_w at each descent w(i) > w(i+1), each v from the
    first w of the level above and the smallest such i."""
    level = {tuple(range(ell, 0, -1)): _staircase(shifts)}
    rows: dict = {}
    while level:
        rows.update(level)
        found: dict = {}
        for w, terms in level.items():
            for i in range(ell - 1):
                if w[i] > w[i + 1]:
                    v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if v not in found:
                        found[v] = _packed_divided_difference(terms, shifts[i], shifts[i + 1], mask)
        level = found
    return rows


def schubert_table(ell: int) -> dict[Permutation, Poly]:
    """All Schubert polynomials of S_ell, keyed by permutation: the rows
    that `_schubert_inverse` inverts, from the same generator, in unreversed
    field order, made afresh on every call."""
    ring, packing = zring(_size(ell, "ell", 1)), Packing(ell, ell - 1)
    return {
        Permutation(w): Poly(ring, {packing.unpack(key): Fraction(c) for key, c in terms.items()})
        for w, terms in _schubert_rows(ell, packing.shifts, packing.mask).items()
    }


def schubert_poly(w: Permutation) -> Poly:
    """S_w from one chain, with no table: bubble-sort w into w0 by swapping
    ascents, w s_i1 ... s_ik = w0, so S_w = d_i1 ... d_ik S_w0."""
    ell, oneline, steps = _size(w.ell, "ell", 1), list(w.oneline), []
    for _ in range(ell):
        for i in range(ell - 1):
            if oneline[i] < oneline[i + 1]:
                oneline[i], oneline[i + 1] = oneline[i + 1], oneline[i]
                steps.append(i)
    packing = Packing(ell, ell - 1)
    shifts, terms = packing.shifts, _staircase(packing.shifts)
    for i in reversed(steps):
        terms = _packed_divided_difference(terms, shifts[i], shifts[i + 1], packing.mask)
    return Poly(zring(ell), {packing.unpack(key): Fraction(c) for key, c in terms.items()})


def monk_expand(r: int, w: Permutation) -> list[Permutation]:
    """Permutations appearing in the Monk product of s_r with w.

    All w * t_{jk} with j <= r < k whose length is exactly length(w) + 1;
    the product of the corresponding Schubert classes is their
    multiplicity-free sum.  A permutation of size below 2 has no s_r.
    """
    _size(w.ell, "Monk permutation size", 2)
    r = _size(r, "Monk index", 1, w.ell - 1)
    swaps = (w.swap_positions(j, k) for j in range(1, r + 1) for k in range(r + 1, w.ell + 1))
    return sorted(v for v in swaps if v.length == w.length + 1)


@lru_cache(maxsize=None)
def _schubert_inverse(ell: int) -> tuple[tuple[Permutation, ...], dict[int, dict[int, int]]]:
    """(perms, inverse): the permutations of S_ell in sorted one-line order,
    and for every reduced packed key a the integer row inverse[a] = {i: c}
    with z^a = sum of c * rho(S_perms[i]), rho: z_i -> z_{ell+1-i}.

    The rows rho(S_w) are `_schubert_rows` on the z ring's packing with the
    field order reversed, integral by construction.  S_w lives on z^a with
    a_i <= ell-i (Macdonald, Notes on Schubert Polynomials, LaCIM 1991), so
    rho(S_w) is reduced and no normal form is taken; that is checked by
    `_heap_reduce`'s test (key + bump) & guard == 0 on every key.  Their
    leads are checked distinct, each with coefficient 1, so the matrix is
    unitriangular, and its ell! leads are all the reduced keys, as
    k[z]/I_S has dimension ell!.  So back-substitution in ascending lead
    order inverts it in integers: z^lead = rho(S_w) minus the other terms
    c * z^k of rho(S_w), each k below the lead and already expanded.
    """
    packing, bump, _ = _packed_rules(ell)
    rows = _schubert_rows(ell, packing.shifts[::-1], packing.mask)
    perms = tuple(Permutation(w) for w in sorted(rows))
    by_lead: dict[int, int] = {}
    for i, w in enumerate(perms):
        row = rows[w.oneline]
        if any((key + bump) & packing.guard for key in row):
            raise InvariantViolationError("reversed S_w is not a normal form for w=%s" % w)
        lead = max(row)
        if lead in by_lead:
            raise InvariantViolationError(
                "reversed S_w are linearly dependent or not triangular at ell=%d: "
                "w=%s repeats the lead of %s" % (ell, w, perms[by_lead[lead]])
            )
        if row[lead] != 1:
            raise InvariantViolationError(
                "reversed S_w is not unitriangular: w=%s has lead coefficient %d" % (w, row[lead])
            )
        by_lead[lead] = i
    if len(by_lead) != factorial(ell):
        raise InvariantViolationError(
            "%d reversed S_w at ell=%d, not %d" % (len(by_lead), ell, factorial(ell))
        )
    inverse: dict[int, dict[int, int]] = {}
    for lead, i in sorted(by_lead.items()):
        x = {i: 1}
        for key, c in rows.pop(perms[i].oneline).items():  # freed once used: a lower peak
            if key != lead:
                for j, d in inverse[key].items():
                    s = x.get(j, 0) - c * d
                    if s:
                        x[j] = s
                    else:
                        del x[j]
        inverse[lead] = x
    return perms, inverse


def schubert_expansion(p: Poly, ell: int | None = None) -> dict[Permutation, Fraction]:
    """Coefficients c_w with p congruent to sum(c_w * Schubert_w) mod I_S.

    rho permutes the variables, so it fixes I_S: p is congruent to
    sum(c_w * S_w) iff rho(p) is congruent to sum(c_w * rho(S_w)).  Every
    key of d*NF(rho(p)) is reduced, so `_schubert_inverse` has its row, and
    the sum of c * inverse[a] over its terms c * z^a gives d * c_w in
    integers, by permutation index; each c_w is one Fraction, made in
    index order, which is sorted permutation order.  Refuses ell beyond
    `MAX_ELL` because the table grows with the factorial.
    """
    ell = _size(p.ring.nvars if ell is None else ell, "ell", 1, MAX_ELL)
    _in_ring(p, zring(ell), "polynomial")
    perms, inverse = _schubert_inverse(ell)
    terms, denom = _normal_form(p, ell, reverse=True)
    sums: dict[int, int] = {}
    for key, c in terms.items():
        for i, x in inverse[key].items():
            sums[i] = sums.get(i, 0) + c * x
    return {perms[i]: Fraction(sums[i], denom) for i in sorted(sums) if sums[i]}


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

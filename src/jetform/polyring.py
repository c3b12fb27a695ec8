"""Sparse multivariate polynomials over exact rationals.

A `Ring` is just an ordered tuple of variable names.  Polynomials are
immutable sparse maps Monomial -> Fraction with no zero coefficients stored,
in construction order; `format_poly` prints terms in descending lex.  Two
polynomials are equal iff their term maps (and rings) are equal.  The
monomial order is lexicographic with the first ring variable most
significant, which is the order every quotient computation here relies on.

The module also provides multivariate division with remainder, truncated
power series with polynomial coefficients, and the text grammar used by the
CLI:

    poly  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff | [coeff '*'] factor ('*' factor)*
    factor:= var ['^' uint]
    coeff := uint ['/' uint]
    var   := identifier known to the ring (e.g. z1, x1_0)

Whitespace is ignored.  Unknown variable names are rejected, never guessed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ParseError, RingMismatchError

__all__ = [
    "Ring",
    "Monomial",
    "Poly",
    "TruncatedSeries",
    "divide",
    "spoly",
    "parse_poly",
]


class Ring:
    """An ordered list of variable names; the context every Poly carries."""

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise DomainError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._hash = hash(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError("unknown variable %r in ring %s" % (name, self)) from None

    def monomial(self, exps: Iterable[int]) -> Monomial:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise RingMismatchError(
                "exponent vector of length %d in a ring with %d variables"
                % (len(exps), self.nvars)
            )
        if any(e < 0 for e in exps):
            raise DomainError("negative exponent in %r" % (exps,))
        return Monomial(exps)

    def one_monomial(self) -> Monomial:
        return Monomial((0,) * self.nvars)

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c) -> Poly:
        c = Fraction(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {self.one_monomial(): c})

    def var(self, i: int) -> Poly:
        """The variable with 0-based index `i` as a polynomial."""
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {Monomial(tuple(exps)): Fraction(1)})

    def gens(self) -> list[Poly]:
        return [self.var(i) for i in range(self.nvars)]

    def from_terms(self, terms: Mapping[tuple[int, ...] | "Monomial", object]) -> Poly:
        fixed = {}
        for mono, coeff in terms.items():
            if not isinstance(mono, Monomial):
                mono = self.monomial(mono)
            fixed[mono] = fixed.get(mono, Fraction(0)) + Fraction(coeff)
        return Poly(self, fixed)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.nvars <= 6:
            return "Ring(%s)" % ", ".join(self.names)
        return "Ring(%s, ..., %s)" % (", ".join(self.names[:3]), self.names[-1])


class Monomial(tuple):
    """Exponent vector: a tuple, so hashing and plain lex order are the
    tuple's.  `*` adds exponents; `exps` is the monomial itself."""

    __slots__ = ()

    @property
    def exps(self) -> "Monomial":
        return self

    @property
    def deg(self) -> int:
        return sum(self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(map(add, self, other))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self, other))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        quot = Monomial(map(sub, self, other))
        if any(e < 0 for e in quot):
            raise DomainError("%r does not divide %r" % (other, self))
        return quot

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(map(max, self, other))

    def __pow__(self, e: int) -> "Monomial":
        if e < 0:
            raise DomainError("negative monomial power")
        return Monomial(a * e for a in self)

    def __repr__(self):
        return "Monomial%s" % tuple.__repr__(self)


class Poly:
    """Immutable sparse polynomial: Monomial -> Fraction, no zeros stored.

    Terms iterate in construction order; `format_poly` prints them in
    descending lex.  Only the constructor drops zero coefficients.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int | None:
        """Maximal term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.deg for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {m.deg for m in self.terms}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        one = self.ring.one_monomial()
        return self.terms.get(one, Fraction(0))

    def leading(self) -> tuple[Monomial, Fraction]:
        """The lex-largest term, first ring variable most significant."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def min_degree(self) -> int | None:
        """Minimal term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(m.deg for m in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                "operands in different rings: %r vs %r" % (self.ring, other.ring)
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.ring, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise DomainError("negative polynomial power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def mul_monomial(self, mono: Monomial, coeff=Fraction(1)) -> "Poly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.ring.zero()
        return Poly(self.ring, {m * mono: c * coeff for m, c in self.terms.items()})

    # -- structural operations ----------------------------------------------

    def permute_vars(self, images: Sequence[int]) -> "Poly":
        """Relabel variables: old slot i becomes new slot images[i]."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = [0] * self.ring.nvars
            for i, e in enumerate(m):
                exps[images[i]] = e
            mono = Monomial(exps)
            out[mono] = out.get(mono, 0) + c
        return Poly(self.ring, out)

    def swap_vars(self, i: int, j: int) -> "Poly":
        images = list(range(self.ring.nvars))
        images[i], images[j] = images[j], images[i]
        return self.permute_vars(images)

    def substitute(self, target: Ring, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at `images`, one target-ring polynomial per variable."""
        if len(images) != self.ring.nvars:
            raise RingMismatchError(
                "need %d images, got %d" % (self.ring.nvars, len(images))
            )
        for img in images:
            if img.ring != target:
                raise RingMismatchError("image %s not in target ring" % img)
        result = target.zero()
        power_cache: dict[tuple[int, int], Poly] = {}
        for m, c in self.terms.items():
            acc = target.const(c)
            for i, e in enumerate(m):
                if not e:
                    continue
                key = (i, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[i] ** e
                    power_cache[key] = p
                acc = acc * p
            result = result + acc
        return result

    def homogeneous_components(self) -> dict[int, "Poly"]:
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.deg, {})[m] = c
        return {d: Poly(self.ring, t) for d, t in sorted(buckets.items())}

    # -- equality / hashing / printing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


# -- division --------------------------------------------------------------


def divide(
    p: Poly, basis: Sequence[Poly]
) -> tuple[list[Poly], Poly]:
    """Multivariate division: p = sum(q_i * basis_i) + r.

    No monomial of r is divisible by any leading monomial of the basis.
    Ties between basis elements whose leading monomials both divide the
    current leading term go to the lowest index, so the result is
    deterministic.
    """
    if not basis:
        return [], p
    ring = p.ring
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("basis element in a different ring")
        if g.is_zero():
            raise DomainError("zero polynomial in division basis")
    leads = [g.leading() for g in basis]
    quot: list[dict[Monomial, Fraction]] = [{} for _ in basis]
    rem: dict[Monomial, Fraction] = {}
    work = dict(p.terms)
    while work:
        lm = max(work)
        lc = work.pop(lm)
        for i, (gm, gc) in enumerate(leads):
            if gm.divides(lm):
                factor = lm / gm
                coeff = lc / gc
                q = quot[i]
                q[factor] = q.get(factor, Fraction(0)) + coeff
                for m, c in basis[i].terms.items():
                    if m == gm:
                        continue
                    mono = m * factor
                    s = work.get(mono, Fraction(0)) - coeff * c
                    if s:
                        work[mono] = s
                    else:
                        work.pop(mono, None)
                break
        else:
            rem[lm] = lc
    return [Poly(ring, q) for q in quot], Poly(ring, rem)


def spoly(f: Poly, g: Poly) -> Poly:
    """S-polynomial of f and g under lex."""
    fm, fc = f.leading()
    gm, gc = g.leading()
    l = fm.lcm(gm)
    return f.mul_monomial(l / fm, Fraction(1, 1) / fc) - g.mul_monomial(
        l / gm, Fraction(1, 1) / gc
    )


# -- truncated power series --------------------------------------------------


class TruncatedSeries:
    """Polynomial-coefficient series modulo t^(m+1): exactly m+1 coefficients."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring: Ring, coeffs: Sequence[Poly], order: int):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise DomainError(
                "series truncated at order %d needs %d coefficients, got %d"
                % (order, order + 1, len(coeffs))
            )
        for c in coeffs:
            if c.ring != ring:
                raise RingMismatchError("series coefficient in a different ring")
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, ring: Ring, value: Poly, order: int) -> "TruncatedSeries":
        coeffs = [value] + [ring.zero()] * order
        return cls(ring, coeffs, order)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.ring != other.ring or self.order != other.order:
            raise RingMismatchError("series with mismatched ring or truncation order")
        return TruncatedSeries(
            self.ring,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.order,
        )

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, [p.scale(c) for p in self.coeffs], self.order)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.ring != other.ring or self.order != other.order:
            raise RingMismatchError("series with mismatched ring or truncation order")
        m = self.order
        zero = self.ring.zero()
        out = [zero] * (m + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(0, m + 1 - i):
                b = other.coeffs[j]
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.ring, out, m)

    def __pow__(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise DomainError("negative series power")
        result = TruncatedSeries.constant(self.ring, self.ring.one(), self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        return "TruncatedSeries(%s)" % " + ".join(
            "(%s)*t^%d" % (c, k) for k, c in enumerate(self.coeffs)
        )


# -- text format -------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ParseError("unexpected character %r at position %d" % (tail[0], pos))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: Ring, tokens: list[tuple[str, str]]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_num(self) -> int:
        kind, val = self.take()
        if kind != "num":
            raise ParseError("expected a number, got %r" % (val,))
        return int(val)

    def parse(self) -> Poly:
        result = self.ring.zero()
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        while True:
            result = result + self.term().scale(sign)
            kind, val = self.peek()
            if kind is None:
                return result
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
                continue
            raise ParseError("expected '+' or '-', got %r" % (val,))

    def term(self) -> Poly:
        coeff = Fraction(1)
        exps = [0] * self.ring.nvars
        saw_factor = False
        kind, val = self.peek()
        if kind == "num":
            self.take()
            num = int(val)
            kind, nxt = self.peek()
            if kind == "op" and nxt == "/":
                self.take()
                den = self.expect_num()
                if den == 0:
                    raise ParseError("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            kind, nxt = self.peek()
            if kind == "op" and nxt == "*":
                self.take()
                self.factor(exps)
                saw_factor = True
            else:
                # bare constant term
                return self.ring.const(coeff)
        else:
            self.factor(exps)
            saw_factor = True
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                self.factor(exps)
                continue
            break
        if not saw_factor:
            return self.ring.const(coeff)
        return Poly(self.ring, {Monomial(tuple(exps)): coeff})

    def factor(self, exps: list[int]):
        kind, val = self.take()
        if kind != "name":
            raise ParseError("expected a variable name, got %r" % (val,))
        idx = self.ring.index(val)
        exp = 1
        kind, nxt = self.peek()
        if kind == "op" and nxt == "^":
            self.take()
            exp = self.expect_num()
        exps[idx] += exp


def parse_poly(ring: Ring, text: str) -> Poly:
    """Parse the textual polynomial grammar in the given ring."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _Parser(ring, tokens).parse()


def format_monomial(ring: Ring, mono: Monomial) -> str:
    parts = []
    for name, e in zip(ring.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for i, (mono, coeff) in enumerate(sorted(p.terms.items(), reverse=True)):
        neg = coeff < 0
        mag = -coeff if neg else coeff
        body = format_monomial(p.ring, mono)
        if body == "1":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if i == 0:
            chunks.append("-" + text if neg else text)
        else:
            chunks.append((" - " if neg else " + ") + text)
    return "".join(chunks)

"""Sparse multivariate polynomials over exact rationals.

A `Ring` is just an ordered tuple of variable names.  Polynomials are
immutable sparse maps Monomial -> nonzero int, in construction order, over
one positive denominator; `.terms` reads them as Monomial -> Fraction, and
`format_poly` prints the integers in descending lex.  Two polynomials are
equal iff their rings and term values are, whatever denominators they carry.
Whether a polynomial lies in the ring an operation needs, the operands of
`+`, `-` and `*` included, is checked by `errors._in_ring` alone.  The
monomial order is lexicographic with the first ring variable most
significant, which is the order every quotient computation here relies on.

The module also provides multivariate division with remainder, the
t-coefficients of a product of series with single-variable coefficients,
and the text grammar used by the CLI:

    poly  := ['+'|'-'] term (('+'|'-') term)*
    term  := coeff | [coeff '*'] factor ('*' factor)*
    factor:= var ['^' uint]
    coeff := uint ['/' uint]
    var   := identifier known to the ring (e.g. z1, x1_0)
    ints  := int (',' int)*

`ints`, read by `_parse_ints`, spells derivative tuples, compositions and
permutations, the last optionally in brackets.  Whitespace is ignored.
Unknown variable names are rejected, never guessed.  The grammar has no
nesting, so `parse_poly` matches one signed term at a time, in linear
time; a syntax error gives its position.  No Fraction is made either way:
terms are summed as pairs of ints, and `_ratio_text` prints a coefficient.
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .errors import (
    DomainError, ParseError, RingMismatchError, _in_ring, _instance, _sequence, _size,
)

__all__ = [
    "Ring",
    "Monomial",
    "Poly",
    "divide",
    "spoly",
    "parse_poly",
]


class Ring:
    """An ordered list of variable names; the context every Poly carries."""

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names: Iterable[str]):
        names = _sequence(names, "variable names")
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
        exps = tuple(_size(e, "exponent") for e in _sequence(exps, "exponent vector"))
        if len(exps) != self.nvars:
            raise RingMismatchError(
                "exponent vector of length %d in a ring with %d variables"
                % (len(exps), self.nvars)
            )
        return Monomial(exps)

    def one_monomial(self) -> Monomial:
        return Monomial((0,) * self.nvars)

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.const(1)

    def const(self, c) -> Poly:
        c = Fraction(_coefficient(c))
        if c == 0:
            return Poly(self, {})
        return Poly(self, {self.one_monomial(): c})

    def var(self, i: int) -> Poly:
        """The variable with 0-based index `i` as a polynomial."""
        exps = [0] * self.nvars
        exps[_size(i, "variable index", 0, self.nvars - 1)] = 1
        return Poly(self, {Monomial(exps): 1})

    def gens(self) -> list[Poly]:
        return [self.var(i) for i in range(self.nvars)]

    def from_terms(self, terms: Mapping[tuple[int, ...] | "Monomial", object]) -> Poly:
        fixed = {}
        for mono, coeff in _instance(terms, Mapping, "polynomial terms").items():
            mono = self.monomial(mono)
            fixed[mono] = fixed.get(mono, Fraction(0)) + Fraction(_coefficient(coeff))
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

    def __repr__(self):
        return "Monomial%s" % tuple.__repr__(self)


class Packing:
    """Exponent vectors of `nvars` entries, each at most `degree`, packed
    into one int (Monagan & Pearce, CASC 2007).

    Variable i sits in a field of `width` = degree.bit_length() + 1 bits,
    shifted left by shifts[i], variable 0 in the most significant field, so
    integer order is lex order; `mask` covers one field.  Every entry stays
    below its field's top bit, the guard bit, which `guard` sets in every
    field.  While no entry exceeds `degree`, pack(a*b) = pack(a) + pack(b).

    t divides m iff ((m | guard) - t) & guard == guard: in each field, the
    guard bit plus m_i minus t_i stays positive, so no borrow crosses a
    field, and it keeps the guard bit exactly when m_i >= t_i.  Hot loops
    test inline; `divides` is the same test.
    """

    __slots__ = ("width", "shifts", "guard", "mask")

    def __init__(self, nvars: int, degree: int):
        self.width = width = degree.bit_length() + 1
        self.shifts = list(range(width * (nvars - 1), -1, -width))
        self.mask = mask = (1 << width) - 1
        # (2^(width*nvars) - 1) / mask sets the lowest bit of every field
        self.guard = ((1 << width * nvars) - 1) // mask << (width - 1)

    def pack(self, exps) -> int:
        width = self.width
        key = 0
        for e in exps:
            key = (key << width) | e
        return key

    def unpack(self, key: int) -> Monomial:
        mask = self.mask
        return Monomial([(key >> s) & mask for s in self.shifts])

    def divides(self, t: int, m: int) -> bool:
        guard = self.guard
        return ((m | guard) - t) & guard == guard


class Poly:
    """Immutable sparse polynomial: integer numerators `nums`, Monomial ->
    nonzero int in construction order, over one denominator `denom` > 0.

    The public constructor takes Monomial -> int or Fraction, checks each
    key as `Ring.monomial` checks an exponent vector, and clears the values
    once, over the lcm of their denominators; `_from_ints` takes numerators
    that are already zero-free and keeps them, with no Fraction made.  Every
    operation works on the integers.  Equal Polys may carry different
    denominators, as d*p over d, so `==` cross-multiplies.  `terms`, the
    Monomial -> Fraction view, is built afresh on each read; nothing
    mutates `nums` after construction.
    """

    __slots__ = ("ring", "nums", "denom", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Fraction]):
        nvars = ring.nvars
        for m in terms:
            if not isinstance(m, Monomial):
                raise DomainError("term keys must be Monomials, not %s" % type(m).__name__)
            if len(m) != nvars or not all(type(e) is int and e >= 0 for e in m):
                ring.monomial(m)  # refuses a wrong length or exponent as it does a tuple
        self.ring = ring
        try:
            self.nums, self.denom = _clear_denominators(terms)
        except AttributeError:  # a float or a str has no .denominator
            for c in terms.values():
                _coefficient(c)
            raise
        self._hash = None

    @classmethod
    def _from_ints(cls, ring: Ring, nums: dict[Monomial, int], denom: int) -> "Poly":
        """The Poly nums[m] / denom, owning `nums`, which has no zero value,
        for denom > 0; no zero filter runs and no Fraction is made."""
        p = cls.__new__(cls)
        p.ring, p.nums, p.denom, p._hash = ring, nums, denom, None
        return p

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """Monomial -> Fraction in construction order, a new dict per read."""
        denom = self.denom
        return {m: Fraction(n, denom) for m, n in self.nums.items()}

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def total_degree(self) -> int | None:
        """Maximal term degree, or None for the zero polynomial."""
        if not self.nums:
            return None
        return max(m.deg for m in self.nums)

    def is_homogeneous(self) -> bool:
        degs = {m.deg for m in self.nums}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(self.ring.one_monomial(), 0), self.denom)

    def leading(self) -> tuple[Monomial, Fraction]:
        """The lex-largest term, first ring variable most significant."""
        if not self.nums:
            raise DomainError("zero polynomial has no leading term")
        m = max(self.nums)
        return m, Fraction(self.nums[m], self.denom)

    def min_degree(self) -> int | None:
        """Minimal term degree, or None for the zero polynomial."""
        if not self.nums:
            return None
        return min(m.deg for m in self.nums)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _in_ring(other, self.ring, "operand")
        return Poly._from_ints(self.ring, *_accumulate(dict(self.nums), self.denom, other, 1))

    def __sub__(self, other: "Poly") -> "Poly":
        _in_ring(other, self.ring, "operand")
        return Poly._from_ints(self.ring, *_accumulate(dict(self.nums), self.denom, other, -1))

    def __neg__(self) -> "Poly":
        return Poly._from_ints(self.ring, {m: -n for m, n in self.nums.items()}, self.denom)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        _in_ring(other, self.ring, "operand")
        out: dict[Monomial, int] = {}
        right = other.nums.items()
        for m1, c1 in self.nums.items():
            for m2, c2 in right:
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
        nums = {m: c for m, c in out.items() if c}
        return Poly._from_ints(self.ring, nums, self.denom * other.denom)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Poly":
        c = Fraction(_coefficient(c))
        if c == 0:
            return self.ring.zero()
        num = c.numerator
        nums = {m: n * num for m, n in self.nums.items()}
        return Poly._from_ints(self.ring, nums, self.denom * c.denominator)

    def __pow__(self, e: int) -> "Poly":
        """self**e by square-and-multiply."""
        e = _size(e, "exponent")
        result, base = self.ring.one(), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def mul_monomial(self, mono: Monomial, coeff=1) -> "Poly":
        coeff = Fraction(_coefficient(coeff))
        if coeff == 0:
            return self.ring.zero()
        num = coeff.numerator
        nums = {m * mono: n * num for m, n in self.nums.items()}
        return Poly._from_ints(self.ring, nums, self.denom * coeff.denominator)

    # -- structural operations ----------------------------------------------

    def permute_vars(self, images: Sequence[int]) -> "Poly":
        """Relabel variables: old slot i becomes new slot images[i]; the
        images must be a permutation of 0..nvars-1."""
        n = self.ring.nvars
        images = [_size(v, "variable image") for v in _sequence(images, "variable images")]
        if sorted(images) != list(range(n)):
            raise DomainError("not a permutation of 0..%d: %r" % (n - 1, images))
        sources = sorted(range(n), key=images.__getitem__)  # new slot j reads old slot sources[j]
        nums = {Monomial([m[i] for i in sources]): c for m, c in self.nums.items()}
        return Poly._from_ints(self.ring, nums, self.denom)

    def swap_vars(self, i: int, j: int) -> "Poly":
        n = self.ring.nvars
        i, j = (_size(v, "variable index", 0, n - 1) for v in (i, j))
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return self.permute_vars(images)

    def substitute(self, target: Ring, images: Sequence["Poly"]) -> "Poly":
        """Evaluate at `images`, one target-ring polynomial per variable; a
        cancelled coefficient is dropped at once, as in a running sum."""
        images = _sequence(images, "substitution images")
        if len(images) != self.ring.nvars:
            raise RingMismatchError(
                "need %d images, got %d" % (self.ring.nvars, len(images))
            )
        for img in images:
            _in_ring(img, target, "image")
        out: dict[Monomial, int] = {}
        denom = 1
        for m, c in self.nums.items():
            acc = target.const(c)
            for i, e in enumerate(m):
                if e:
                    acc = acc * images[i] ** e
            out, denom = _accumulate(out, denom, acc, 1)
        return Poly._from_ints(target, out, denom * self.denom)

    def homogeneous_components(self) -> dict[int, "Poly"]:
        buckets: dict[int, dict[Monomial, int]] = {}
        for m, c in self.nums.items():
            buckets.setdefault(m.deg, {})[m] = c
        return {d: Poly._from_ints(self.ring, t, self.denom) for d, t in sorted(buckets.items())}

    # -- equality / hashing / printing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        mine, theirs = self.nums, other.nums
        d1, d2 = self.denom, other.denom
        if d1 == d2 or mine.keys() != theirs.keys():
            return self.ring == other.ring and mine == theirs
        return self.ring == other.ring and all(n * d2 == theirs[m] * d1 for m, n in mine.items())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def _coefficient(c):
    """`c` if it is an int or a Fraction: the one check of a coefficient,
    for `Poly`, `Ring.const`, `Ring.from_terms`, `Poly.scale` and
    `Poly.mul_monomial`.  Anything else, such as a float or a string that
    Fraction would round or parse, is a DomainError naming its type."""
    if not hasattr(c, "denominator"):
        raise DomainError("coefficients must be ints or Fractions, not %s" % type(c).__name__)
    return c


def _clear_denominators(terms: Mapping[Hashable, Fraction]) -> tuple[dict, int]:
    """(d * terms without zeros, d) for d the lcm of the denominators: the
    integer row spanning the same line.  Ints and Fractions both carry a
    numerator and a denominator, so no Fraction is made."""
    denom = lcm(*(v.denominator for v in terms.values()))
    return {k: v.numerator * (denom // v.denominator) for k, v in terms.items() if v}, denom


def _accumulate(out: dict[Monomial, int], denom: int, p: Poly, sign: int) -> tuple[dict, int]:
    """(out, d) holding out/denom + sign*p over d = lcm(denom, p.denom): out
    is rescaled in place, keeping its order, and a term that cancels is
    dropped at once, so it keeps no place should it come back."""
    common = lcm(denom, p.denom)
    if common != denom:
        factor = common // denom
        for m in out:
            out[m] *= factor
    factor = sign * (common // p.denom)
    for m, n in p.nums.items():
        n = out.get(m, 0) + factor * n
        if n:
            out[m] = n
        else:
            del out[m]
    return out, common


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
    basis = _sequence(basis, "division basis")
    if not basis:
        return [], p
    ring = p.ring
    for g in basis:
        if _in_ring(g, ring, "basis element").is_zero():
            raise DomainError("zero polynomial in division basis")
    leads = [g.leading() for g in basis]
    tails = [[(m, c) for m, c in g.terms.items() if m != gm] for g, (gm, _) in zip(basis, leads)]
    quot: list[dict[Monomial, Fraction]] = [{} for _ in basis]
    rem: dict[Monomial, Fraction] = {}
    work = p.terms
    while work:
        lm = max(work)
        lc = work.pop(lm)
        for i, (gm, gc) in enumerate(leads):
            if gm.divides(lm):
                factor = lm / gm
                coeff = lc / gc
                q = quot[i]
                q[factor] = q.get(factor, Fraction(0)) + coeff
                for m, c in tails[i]:
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
    _in_ring(g, _in_ring(f, None, "S-polynomial operand").ring, "S-polynomial operand")
    fm, fc = f.leading()
    gm, gc = g.leading()
    l = fm.lcm(gm)
    return f.mul_monomial(l / fm, Fraction(1, 1) / fc) - g.mul_monomial(
        l / gm, Fraction(1, 1) / gc
    )


# -- series coefficients -----------------------------------------------------


def _series_coefficients(nvars: int, factors, top: int) -> list[dict[tuple[int, ...], int]]:
    """The coefficients of t^0..t^top in prod over p of sum_j v_{p,j} t^j,
    each as {exponent tuple: int} over `nvars` variables.

    Factor p lists its coefficients' variable indices v_{p,0}, v_{p,1}, ...,
    None standing for the constant 1.  The coefficient of t^k is the sum of
    v_{1,j_1}*...*v_{P,j_P} over j_1 + ... + j_P = k; the empty product is 1.
    """
    coeffs = [{(0,) * nvars: 1}] + [{} for _ in range(top)]
    for factor in factors:
        out = [{} for _ in range(top + 1)]
        for k, terms in enumerate(coeffs):
            for j, v in enumerate(factor[: top + 1 - k]):
                acc = out[k + j]
                for exps, c in terms.items():
                    if v is not None:
                        exps = exps[:v] + (exps[v] + 1,) + exps[v + 1 :]
                    acc[exps] = acc.get(exps, 0) + c
        coeffs = out
    return coeffs


# -- text format -------------------------------------------------------------

# One pattern matches a whole signed term; the factor pattern then reads the
# factors inside it.
_FACTOR = r"([A-Za-z][A-Za-z0-9_]*) (?: \s* \^ \s* (\d+) )?"  # factor := var ['^' uint]
_FACTOR_RE = re.compile(_FACTOR, re.VERBOSE)
_TERM_RE = re.compile(
    rf"""
    \s* (?: (?P<sign> [-+] ) \s* )? (?= \d | [A-Za-z] )  # poly := ['+'|'-'] term (('+'|'-') term)*
    (?: (?P<num> \d+ ) (?: \s* / \s* (?P<den> \d+ ) )? )?  # coeff := uint ['/' uint]
    # term := coeff | [coeff '*'] factor ('*' factor)*
    (?P<factors> (?(num) \s*\*\s* ) {_FACTOR} (?: \s*\*\s* {_FACTOR} )* )?
    """,
    re.VERBOSE,
)


def parse_poly(ring: Ring, text: str) -> Poly:
    """Parse the textual polynomial grammar in the given ring, with no
    Fraction made.  Each monomial keeps a running sum, a pair of ints, and a
    sum that cancels is dropped at once.  The sums are then put over the lcm
    of their reduced denominators, taken once, as the public constructor
    would put them."""
    if not isinstance(text, str):
        raise DomainError("polynomial text must be a str, not %s" % type(text).__name__)
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial text")
    sums: dict[Monomial, tuple[int, int]] = {}
    pos = 0
    while pos < end:
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m["sign"]):
            at = len(text) - len(text[pos:].lstrip())
            raise ParseError("unexpected %r at position %d" % (text[at : at + 20].split()[0], at))
        try:
            num, den = int(m["num"] or 1), int(m["den"] or 1)
            factors = [(name, int(e or 1)) for name, e in _FACTOR_RE.findall(m["factors"] or "")]
        except ValueError:  # past int()'s digit limit; point at the longest number
            at = max(re.finditer(r"(?<!\w)\d+", m[0]), key=lambda d: len(d[0])).start()
            raise ParseError("number too long at position %d" % (m.start() + at)) from None
        if not den:
            raise ParseError("zero denominator")
        exps = [0] * ring.nvars
        for name, e in factors:
            exps[ring.index(name)] += e
        mono, num = Monomial(exps), -num if m["sign"] == "-" else num
        if mono in sums:
            n, d = sums[mono]
            common = gcd(d, den)
            num, den = n * (den // common) + num * (d // common), d // common * den
        sums[mono] = num, den
        if not num:
            del sums[mono]
        pos = m.end()
    denom = lcm(*[d // gcd(n, d) for n, d in sums.values()])
    return Poly._from_ints(ring, {mono: n * denom // d for mono, (n, d) in sums.items()}, denom)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """A nonempty comma-separated list of ints, no field empty; `what` names
    it in errors."""
    if not text.strip():
        raise ParseError("empty %s %r" % (what, text))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError("bad %s %r" % (what, text)) from exc


def format_monomial(ring: Ring, mono: Monomial) -> str:
    parts = []
    for name, e in zip(ring.names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den >= 1, with no Fraction made."""
    common = gcd(num, den)
    return "%d" % (num // den) if common == den else "%d/%d" % (num // common, den // common)


def format_poly(p: Poly) -> str:
    """p in the grammar `parse_poly` reads, in descending lex, from p.nums."""
    if not _in_ring(p, None, "polynomial").nums:
        return "0"
    chunks = []
    for mono, n in sorted(p.nums.items(), reverse=True):
        mag, body = _ratio_text(abs(n), p.denom), format_monomial(p.ring, mono)
        text = mag if body == "1" else body if mag == "1" else "%s*%s" % (mag, body)
        sign = (" - " if n < 0 else " + ") if chunks else ("-" if n < 0 else "")
        chunks.append(sign + text)
    return "".join(chunks)

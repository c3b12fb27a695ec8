"""Checks of jetform answers, computed apart from jetform.

Nothing here imports jetform.  Polynomials are plain dicts from exponent
tuples to Fractions, permutations are tuples in one-line notation, and the
Groebner-basis work goes through sympy, which is imported only when a check
needs it.  Every check_* function returns a list of error strings; an empty
list means the answer passed.

The same dict arithmetic builds the benchmark's structured inputs (Monk
products, block-symmetric elements), so those inputs do not depend on the
program under test either.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

# -- dict polynomials ---------------------------------------------------------


def padd(a: dict, b: dict, scale=1) -> dict:
    """a + scale * b."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + scale * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def elementary(nvars: int, degree: int, indices) -> dict:
    """Elementary symmetric polynomial of the given degree in `indices`."""
    out = {}
    for combo in itertools.combinations(indices, degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] = 1
        out[tuple(exps)] = Fraction(1)
    return out


def format_text(poly: dict, prefix: str = "z") -> str:
    """The polynomial in jetform's text grammar, variables prefix1..prefixN."""
    if not poly:
        return "0"
    chunks = []
    for exps, c in sorted(poly.items(), reverse=True):
        factors = [
            "%s%d" % (prefix, i + 1) if e == 1 else "%s%d^%d" % (prefix, i + 1, e)
            for i, e in enumerate(exps)
            if e
        ]
        mag = abs(Fraction(c))
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "%s*%s" % (mag, "*".join(factors))
        if chunks:
            chunks.append((" - " if c < 0 else " + ") + body)
        else:
            chunks.append("-" + body if c < 0 else body)
    return "".join(chunks)


# -- permutations, Schubert polynomials, Monk's rule ---------------------------


def perm_length(w) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def _divided_difference(p: dict, i: int) -> dict:
    """(p - s_i p) / (z_i - z_{i+1}) for 0-based i, term by term:
    (x^a y^b - x^b y^a) / (x - y) = x^b y^b (x^(a-b) - y^(a-b)) / (x - y)."""
    out: dict = {}
    for exps, c in p.items():
        a, b = exps[i], exps[i + 1]
        if a == b:
            continue
        sign = 1 if a > b else -1
        hi, lo = max(a, b), min(a, b)
        for k in range(hi - lo):
            m = list(exps)
            m[i], m[i + 1] = hi - 1 - k, lo + k
            m = tuple(m)
            s = out.get(m, 0) + sign * c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


@lru_cache(maxsize=None)
def schubert_polys(ell: int) -> dict:
    """All Schubert polynomials of S_ell, from the staircase monomial of the
    longest permutation down by divided differences at descents."""
    w0 = tuple(range(ell, 0, -1))
    table = {w0: {tuple(ell - 1 - k for k in range(ell)): Fraction(1)}}
    level = [w0]
    while level:
        nxt = []
        for w in level:
            for i in range(ell - 1):
                if w[i] > w[i + 1]:
                    v = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                    if v not in table:
                        table[v] = _divided_difference(table[w], i)
                        nxt.append(v)
        level = nxt
    return table


def simple_reflection(r: int, ell: int) -> tuple:
    w = list(range(1, ell + 1))
    w[r - 1], w[r] = w[r], w[r - 1]
    return tuple(w)


def monk_terms(r: int, w: tuple) -> set:
    """Monk's rule: S_{s_r} * S_w is the sum of S_{w t_jk} over j <= r < k
    with length(w t_jk) = length(w) + 1; terms outside S_ell vanish modulo
    the symmetric ideal."""
    ell = len(w)
    target = perm_length(w) + 1
    out = set()
    for j in range(1, r + 1):
        for k in range(r + 1, ell + 1):
            v = list(w)
            v[j - 1], v[k - 1] = v[k - 1], v[j - 1]
            if perm_length(v) == target:
                out.add(tuple(v))
    return out


# -- block symmetry -----------------------------------------------------------


def blocks(parts) -> list[range]:
    out, start = [], 0
    for p in parts:
        out.append(range(start, start + p))
        start += p
    return out


def block_average(poly: dict, parts) -> dict:
    """Average over the product of per-block symmetric groups, by literal
    enumeration of the group."""
    bl = [list(b) for b in blocks(parts) if len(b) > 1]
    order = 1
    for b in bl:
        order *= len(list(itertools.permutations(b)))
    out: dict = {}
    for perms in itertools.product(*(itertools.permutations(b) for b in bl)):
        images = list(range(sum(parts)))
        for b, perm in zip(bl, perms):
            for src, dst in zip(b, perm):
                images[src] = dst
        for exps, c in poly.items():
            m = [0] * len(exps)
            for i, e in enumerate(exps):
                m[images[i]] = e
            out = padd(out, {tuple(m): c})
    return {m: Fraction(c) / order for m, c in out.items()}


def is_block_symmetric(poly: dict, parts) -> bool:
    for b in blocks(parts):
        for j in range(b.start, b.stop - 1):
            swapped = {}
            for exps, c in poly.items():
                m = list(exps)
                m[j], m[j + 1] = m[j + 1], m[j]
                swapped[tuple(m)] = c
            if swapped != poly:
                return False
    return True


def is_reduced(poly: dict) -> bool:
    """Every monomial has deg_{z_i} < i (1-based), the standard monomials of
    the symmetric ideal under lex z_1 > ... > z_ell."""
    return all(e <= i for exps in poly for i, e in enumerate(exps))


# -- sympy bridges ------------------------------------------------------------


@lru_cache(maxsize=None)
def _sym_groebner(ell: int):
    import sympy

    zs = sympy.symbols("z1:%d" % (ell + 1))
    es = [
        sympy.Add(*(sympy.Mul(*c) for c in itertools.combinations(zs, k)))
        for k in range(1, ell + 1)
    ]
    return zs, sympy.groebner(es, *zs, order="lex")


def _to_expr(poly: dict, zs):
    import sympy

    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(z**e for z, e in zip(zs, exps)))
            for exps, c in ((m, Fraction(c)) for m, c in poly.items())
        )
    )


def sympy_normal_form(poly: dict, ell: int) -> dict:
    """Remainder of poly modulo groebner(e_1..e_ell, lex), as a dict."""
    import sympy

    zs, gb = _sym_groebner(ell)
    _, rem = sympy.reduced(_to_expr(poly, zs), list(gb.exprs), *zs, order="lex")
    if rem == 0:
        return {}
    return {
        tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(rem, *zs).terms()
    }


# -- oracle -------------------------------------------------------------------


def min_degree_formula(h) -> int:
    total = sum(h)
    return max((hi + 1) * (total - hi) for hi in h) + 1


def check_min_degree(h, degree: int, certificate: dict) -> list[str]:
    """The degree matches max_i (h_i+1)(H-h_i)+1 and the certificate
    re-expands, in sympy's ring arithmetic, to (prod_i x_i^(h_i))^degree.

    `certificate` is the JSON form jetform prints: generator index k stands
    for the t^k coefficient of prod_i (x_i_0 + x_i_1 t + ... + x_i_H t^H).
    """
    from sympy import QQ
    from sympy.polys.rings import ring

    errors = []
    expected = min_degree_formula(h)
    if degree != expected:
        errors.append("h=%r: degree %r, formula gives %d" % (h, degree, expected))
    if not certificate.get("member") or certificate.get("combination") is None:
        return errors + ["h=%r: certificate is not a membership certificate" % (h,)]
    n, total = len(h), sum(h)
    names = ["x%d_%d" % (i, j) for i in range(1, n + 1) for j in range(total + 1)]
    R, *xs = ring(",".join(names), QQ)
    var = dict(zip(names, xs))
    coeffs = [R.one] + [R.zero] * total
    for i in range(1, n + 1):
        series = [var["x%d_%d" % (i, j)] for j in range(total + 1)]
        coeffs = [
            sum((coeffs[a] * series[k - a] for a in range(k + 1)), R.zero)
            for k in range(total + 1)
        ]
    query = R.one
    for i, hi in enumerate(h, start=1):
        query *= var["x%d_%d" % (i, hi)] ** degree
    acc = R.zero
    try:
        for entry in certificate["combination"]:
            mono = R.one
            if entry["monomial"] != "1":
                for factor in entry["monomial"].split("*"):
                    name, _, e = factor.partition("^")
                    mono *= var[name] ** (int(e) if e else 1)
            c = Fraction(entry["coeff"])
            acc += QQ(c.numerator, c.denominator) * mono * coeffs[entry["gen"]]
    except (KeyError, IndexError, ValueError) as exc:
        return errors + ["h=%r: malformed certificate entry: %r" % (h, exc)]
    if acc != query:
        errors.append("h=%r: certificate does not re-expand to the query" % (h,))
    return errors


# -- quotient -----------------------------------------------------------------


def check_normal_form(parts, source: dict, nf: dict, against_sympy: bool) -> list[str]:
    """`nf` is the normal form of the block average of `source`: reduced,
    block-symmetric, and, when asked, equal to sympy's remainder of the
    literal group average modulo the lex Groebner basis of e_1..e_ell."""
    errors = []
    tag = "lambda=%r" % (tuple(parts),)
    if not is_reduced(nf):
        errors.append("%s: normal form has a monomial with deg z_i >= i" % tag)
    if not is_block_symmetric(nf, parts):
        errors.append("%s: normal form is not block-symmetric" % tag)
    if against_sympy and not errors:
        expected = sympy_normal_form(block_average(source, parts), sum(parts))
        if expected != nf:
            errors.append("%s: normal form differs from sympy.reduced" % tag)
    return errors


def check_nilpotency(parts, block: int, order) -> list[str]:
    """Block elements with a non-zero sigma_1 coefficient have nilpotency
    order lambda_i (ell - lambda_i) + 1: the block subalgebra of the quotient
    is the cohomology of a Grassmannian, whose top degree is
    lambda_i (ell - lambda_i) and in which sigma_1 to that power is non-zero."""
    lam_i, ell = parts[block - 1], sum(parts)
    expected = lam_i * (ell - lam_i) + 1
    if order != expected:
        return ["lambda=%r block %d: order %r, expected %d" % (tuple(parts), block, order, expected)]
    return []


# -- expand -------------------------------------------------------------------


def parse_coefficients(payload: dict) -> dict:
    return {tuple(e["perm"]): Fraction(e["coeff"]) for e in payload["coefficients"]}


def check_monk(r: int, w: tuple, coefficients: dict) -> list[str]:
    expected = {v: Fraction(1) for v in monk_terms(r, w)}
    if coefficients != expected:
        return ["Monk s_%d * %r: expansion differs from Monk's rule" % (r, w)]
    return []


def check_expansion(poly: dict, ell: int, coefficients: dict) -> list[str]:
    """sum_w c_w S_w - poly reduces to zero modulo the symmetric ideal."""
    table = schubert_polys(ell)
    diff = {m: -Fraction(c) for m, c in poly.items()}
    for w, c in coefficients.items():
        if w not in table:
            return ["expansion names %r, not a permutation of 1..%d" % (w, ell)]
        diff = padd(diff, table[w], c)
    if sympy_normal_form(diff, ell):
        return ["expansion of %s does not re-sum to the query" % format_text(poly)]
    return []

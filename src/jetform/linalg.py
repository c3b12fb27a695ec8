"""Exact sparse linear algebra used by the membership oracle and basis tests.

Rows are sparse integer vectors keyed by comparable hashable keys: packed
ints in the membership oracle, `Monomial`s in the Schubert expansion.
`ExactSpan` keeps an incremental triangular basis of the row span: every
stored pivot row has a distinct leading key, so reducing a query vector
against the pivots decides span membership exactly.  Elimination is exact
and fraction-free: rows are cross-multiplied with integer coefficients and
renormalised by their gcd, never divided into fractions.

Each pivot carries a history vector expressing it as an integer combination
of the originally inserted rows, which is what turns a successful reduction
into an explicit membership certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Hashable, Mapping

from .errors import BudgetExceededError

__all__ = ["ExactSpan", "Budget", "int_row", "rational_nullspace"]


def int_row(terms: Mapping[Hashable, Fraction]) -> dict[Hashable, int]:
    """Clear denominators: the integer row spanning the same line."""
    denom = 1
    for c in terms.values():
        c = Fraction(c)
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return {k: int(Fraction(v) * denom) for k, v in terms.items() if v}


class Budget:
    """Rough memory accounting for sparse elimination.

    Counts stored matrix entries; each entry is costed at ~120 bytes (key
    reference, two boxed ints, dict overhead).  Exceeding the configured
    limit raises BudgetExceededError instead of thrashing.
    """

    BYTES_PER_ENTRY = 120

    def __init__(self, megabytes: float | None):
        self.limit_entries = (
            None
            if megabytes is None
            else int(megabytes * (1 << 20) / self.BYTES_PER_ENTRY)
        )
        self.entries = 0

    def charge(self, n: int, context: str = ""):
        """Count n more entries; `context` only names the step in the error
        message, which carries no partial result."""
        self.entries += n
        if self.limit_entries is not None and self.entries > self.limit_entries:
            raise BudgetExceededError(
                "memory budget exhausted (%d entries > %d)%s"
                % (self.entries, self.limit_entries, " in " + context if context else "")
            )


def _normalize(row: dict, hist: dict) -> None:
    """Divide row and history by their joint content."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g != 1:
        for v in hist.values():
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        for k in row:
            row[k] //= g
        for k in hist:
            hist[k] //= g


class _Row:
    __slots__ = ("lead", "terms", "hist")

    def __init__(self, lead, terms: dict, hist: dict):
        self.lead = lead
        self.terms = terms
        self.hist = hist


class ExactSpan:
    """Incremental triangular basis of an integer row span with certificates.

    Every pivot row keeps its history over the inserted rows' labels, so a
    query that reduces to zero comes back with the combination proving it.
    `budget`, if given, is charged for every stored entry.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget
        self.pivots: dict[Hashable, _Row] = {}
        self.rank = 0

    # -- insertion ----------------------------------------------------------

    def insert(self, terms: Mapping[Hashable, int], label: Hashable) -> bool:
        """Add one row; return True if it enlarged the span.

        Each step cancels the leading entry against its pivot: the row and
        its history are scaled by the pivot's positive lead a (skipped when
        a == 1, as it almost always is), then the pivot times the row's old
        lead is subtracted in place.  An entry of +-1 makes the joint content
        of row and history 1, so `_normalize` runs only once the row's own
        label has lost its unit coefficient; with distinct labels only a
        non-unit pivot lead can do that.  The row starts with history
        {label: 1} and every step leaves joint content 1, so a row that
        becomes a pivot is already primitive.
        """
        row = {k: int(v) for k, v in terms.items() if v}
        hist = {label: 1}
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                if row[lead] < 0:
                    row = {k: -v for k, v in row.items()}
                    hist = {k: -v for k, v in hist.items()}
                self.pivots[lead] = _Row(lead, row, hist)
                self.rank += 1
                if self.budget is not None:
                    self.budget.charge(len(row) + len(hist), "span insertion")
                return True
            a = piv.terms[lead]
            b = row.pop(lead)
            if a != 1:
                for k in row:
                    row[k] *= a
                for k in hist:
                    hist[k] *= a
            for k, v in piv.terms.items():
                if k == lead:
                    continue
                s = row.get(k, 0) - b * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
            for k, v in piv.hist.items():
                s = hist.get(k, 0) - b * v
                if s:
                    hist[k] = s
                else:
                    hist.pop(k, None)
            if abs(hist.get(label, 0)) != 1:
                _normalize(row, hist)
        return False

    # -- reduction ----------------------------------------------------------

    def reduce(
        self, terms: Mapping[Hashable, Fraction]
    ) -> tuple[dict[Hashable, Fraction], dict[Hashable, Fraction]]:
        """Reduce a rational query vector against the pivot rows.

        Returns (remainder, combination).  The remainder is empty exactly
        when the query lies in the span; the combination then expresses the
        query over the labels of the originally inserted rows.
        """
        rem = {k: Fraction(v) for k, v in terms.items() if v}
        comb: dict[Hashable, Fraction] = {}
        while rem:
            lead = max(rem)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            c = rem.pop(lead) / piv.terms[lead]
            for k, v in piv.terms.items():
                if k == lead:
                    continue
                s = rem.get(k, Fraction(0)) - c * v
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
            for k, v in piv.hist.items():
                s = comb.get(k, Fraction(0)) + c * v
                if s:
                    comb[k] = s
                else:
                    comb.pop(k, None)
        return rem, comb


def rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of a small dense rational matrix."""
    matrix = [list(map(Fraction, r)) for r in rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(matrix)):
            if matrix[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        matrix[r], matrix[sel] = matrix[sel], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(matrix):
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[i][fc]
        basis.append(vec)
    return basis

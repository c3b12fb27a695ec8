"""Exact sparse linear algebra used by the membership oracle and basis tests.

Rows are sparse integer vectors keyed by comparable hashable keys: packed
ints in the membership oracle, `Monomial`s in the Schubert expansion, row
indices in `rational_nullspace`.  `ExactSpan` keeps an incremental
triangular basis of the row span: every stored pivot row has a distinct
leading key, so reducing a query vector against the pivots decides span
membership exactly.  Elimination is fraction-free throughout: insertion and
reduction share one integer step, and a rational query is scaled to
integers and divided back once.

Each pivot carries a history vector expressing it as an integer combination
of the originally inserted rows, which is what turns a successful reduction
into an explicit membership certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping

from .errors import BudgetExceededError

__all__ = ["ExactSpan", "Budget", "int_row", "rational_nullspace"]

_QUERY = object()  # the label `ExactSpan.reduce` gives its query


def _clear_denominators(terms: Mapping[Hashable, Fraction]) -> tuple[dict, int]:
    """(d * terms without zeros, d) for d the lcm of the denominators."""
    denom = lcm(*(Fraction(v).denominator for v in terms.values()))
    return {k: int(Fraction(v) * denom) for k, v in terms.items() if v}, denom


def int_row(terms: Mapping[Hashable, Fraction]) -> dict[Hashable, int]:
    """Clear denominators: the integer row spanning the same line."""
    return _clear_denominators(terms)[0]


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
    g = gcd(*row.values(), *hist.values())
    if g > 1:
        for k in row:
            row[k] //= g
        for k in hist:
            hist[k] //= g


class _Row:
    __slots__ = ("terms", "hist")

    def __init__(self, terms: dict, hist: dict):
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

    def _eliminate(self, row: dict, hist: dict, label: Hashable) -> Hashable | None:
        """Cancel the row's leads against the pivots in place; return the
        first lead without a pivot, or None once the row is zero.

        Each step scales row and history by the pivot's lead a (unless it is
        1, as it almost always is) and subtracts b times the pivot, b the
        row's lead.  A row started with history {label: 1} keeps joint
        content 1: `_normalize` runs once its label's coefficient is not +-1.
        """
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return lead
            a = piv.terms[lead]
            b = row[lead]
            if a != 1:
                for k in row:
                    row[k] *= a
                for k in hist:
                    hist[k] *= a
            for k, v in piv.terms.items():
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
        return None

    def insert(self, row: dict[Hashable, int], label: Hashable) -> bool:
        """Add one integer row; return True if it enlarged the span.

        The span takes ownership of `row`, a dict of nonzero ints that the
        caller must not use again: it is eliminated in place and may become
        the stored pivot.  What elimination leaves of a new row is
        primitive; it is stored, with a positive lead, as the pivot of the
        lead it stopped at.
        """
        hist = {label: 1}
        lead = self._eliminate(row, hist, label)
        if lead is None:
            return False
        if row[lead] < 0:
            row = {k: -v for k, v in row.items()}
            hist = {k: -v for k, v in hist.items()}
        self.pivots[lead] = _Row(row, hist)
        self.rank += 1
        if self.budget is not None:
            self.budget.charge(len(row) + len(hist), "span insertion")
        return True

    def reduce(self, terms: Mapping[Hashable, Fraction]) -> tuple[dict, dict]:
        """Reduce a rational query vector against the pivot rows.

        Returns (remainder, combination).  The remainder is empty exactly
        when the query lies in the span; the combination then expresses the
        query over the labels of the inserted rows, and is empty otherwise.
        The query is eliminated fraction-free, as an integer row under a
        label of its own whose final coefficient is divided out at the end.
        """
        row, denom = _clear_denominators(terms)
        hist = {_QUERY: 1}
        self._eliminate(row, hist, _QUERY)
        # row = scale * query - sum over labels k of hist[k] * (row k)
        scale = hist.pop(_QUERY) * denom
        if row:
            return {k: Fraction(v, scale) for k, v in row.items()}, {}
        return {}, {k: Fraction(-v, scale) for k, v in hist.items()}


def rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of a small dense rational matrix.

    Each column (rows scaled to integers) is reduced against the independent
    columns before it; a dependent column j gives e_j minus its combination.
    This is the reduced-echelon basis, in column order.
    """
    scaled = [int_row(dict(enumerate(r))) for r in rows]
    span = ExactSpan()
    basis = []
    for j in range(ncols):
        column = {i: r[j] for i, r in enumerate(scaled) if j in r}
        rem, comb = span.reduce(column)
        if rem:
            span.insert(column, j)
        else:
            basis.append([Fraction(k == j) - comb.get(k, 0) for k in range(ncols)])
    return basis

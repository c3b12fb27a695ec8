"""Exact sparse integer linear algebra for the membership oracle and the
grading systems.

Rows are dicts of nonzero ints keyed by comparable hashable keys: packed
monomials in the oracle, row indices in `integer_nullspace`; callers clear
denominators first.  `ExactSpan` keeps an incremental triangular basis of
the row span: every stored pivot row has a distinct leading key, so
reducing a query row against the pivots decides span membership exactly.
Elimination is fraction-free throughout: insertion and reduction share
one integer step, and a member comes back as an integer relation.

Each pivot carries a step history: its own row's coefficient and one
coefficient per pivot it was reduced by, so that a certificate is not
built up entry by entry during elimination but expanded once per query,
by back-substitution through the pivots' steps (the product form of the
inverse, Dantzig & Orchard-Hays, Math. Tables Aids Comput. 8, 1954).  A
pivot's steps name only pivots of larger lead, so one walk in ascending
lead order is that back-substitution; pivots need no insertion index.  A
row that reduces to zero on insertion is discarded with nothing to undo.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, inf
from numbers import Real
from types import MappingProxyType
from typing import Hashable, Mapping

from .errors import BudgetExceededError, DomainError, _instance, _sequence, _size

__all__ = ["ExactSpan", "Budget", "integer_nullspace"]

_OWN = object()  # the key of a row's own coefficient in its step history
_UNIT = MappingProxyType({_OWN: 1})  # shared step history of a pivot stored unchanged


class Budget:
    """Rough memory accounting for sparse elimination.

    Everything charged, with the step named in the error message:
    - "span insertion": the entries of each pivot row and of its step
      history, its own coefficient and one per elimination step (see
      `ExactSpan`), so one for a pivot sharing `_UNIT`;
    - "trailing-term basis": the terms of each element the membership
      oracle stores in its trailing-term basis, a jet ring's included when
      its record, `jets._jet_ideal`, builds it under a budget;
    - "multiplier table": 68 bytes per packed multiplier of the oracle's
      multiplier table, 55 per block product that a jet ring's table keeps
      or combines further, charged while the table is built, each
      last-block list for every candidate product before the F5 test and
      credited the rejected ones after; a monomial generator g_0 that the
      oracle filters as columns has no list in it.  That is about the
      traced peak of a table of thousands of products; a small jet table's
      block masks and lead bits, tens of KB, are not charged;
    - "row feed": one entry per kept row the oracle records, unit or not.
    Not charged: what a jet ring's record keeps across searches once built,
    its psi kernel checks, and a lead basis it built with no budget given.
    Each entry is costed at BYTES_PER_ENTRY, set from `tracemalloc` peaks
    of whole searches, which also hold the query and the psi normal forms.
    Since the jet ring's table builds only the multipliers the F5 test
    keeps, those peaks are 109 bytes per entry for min_degree_search((2,
    2)), 122 for (1, 1, 2) and 97 for (0, 4), so the charge is 0.82-1.03
    times the traced peak.
    Exceeding the configured limit raises BudgetExceededError instead of
    thrashing.  The limit is None, for no limit, or a finite number of MB,
    at least 0; anything else raises DomainError.
    """

    BYTES_PER_ENTRY = 100

    def __init__(self, megabytes: float | None):
        if megabytes is not None and not (isinstance(megabytes, Real) and 0 <= megabytes < inf):
            raise DomainError("memory budget must be a finite number of MB >= 0: %r" % (megabytes,))
        self.limit_entries = (
            None
            if megabytes is None
            else int(megabytes * (1 << 20) / self.BYTES_PER_ENTRY)
        )
        self.entries = 0

    def charge(self, n: int, context: str):
        """Count n more entries; `context` only names the step in the error
        message, which carries no partial result."""
        self.entries += n
        if self.limit_entries is not None and self.entries > self.limit_entries:
            raise BudgetExceededError(
                "memory budget exhausted (%d entries > %d) in %s"
                % (self.entries, self.limit_entries, context)
            )


def _normalize(row: dict, hist: dict) -> None:
    """Divide row and step history by their joint content."""
    g = gcd(*row.values(), *hist.values())
    if g > 1:
        for k in row:
            row[k] //= g
        for k in hist:
            hist[k] //= g


class _Row:
    __slots__ = ("terms", "hist", "label")

    def __init__(self, terms: dict, hist: dict, label: Hashable):
        self.terms = terms
        self.hist = hist
        self.label = label


class ExactSpan:
    """Incremental triangular basis of an integer row span with certificates.

    The pivot with lead L is stored with the relation

        pivot_L = hist[_OWN] * (the row inserted as `label`)
                  + sum over j of hist[j] * (the pivot with lead j),

    integral, over pivots of leads j > L only: `_eliminate`, which every
    inserted row goes through, lowers the lead at every step and stops at
    L.  A pivot whose row needed no step has the history {_OWN: +-1}; with
    a positive lead it is {_OWN: 1}, and `_store` gives all of those the
    one read-only `_UNIT`, so they cost no dict each.  No pivot history
    changes once stored.  The labels of the inserted rows that became
    pivots are linearly independent rows, so the combination `reduce`
    returns for a member is the only one over them.  `budget`, if given,
    is charged for every stored entry.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget if budget is None else _instance(budget, Budget, "memory budget")
        self.pivots: dict[Hashable, _Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict, hist: dict) -> Hashable | None:
        """Cancel the row's leads against the pivots in place; return the
        first lead without a pivot, or None once the row is zero.

        Each step scales row and step history by the pivot's lead a (unless
        it is 1, as it almost always is), subtracts b times the pivot, b the
        row's lead, and records the step as hist[lead] = -b.  The row's lead
        falls strictly at every step, so no pivot is recorded twice.  A step
        history started as {_OWN: 1} keeps joint content 1 with the row
        while hist[_OWN] is +-1; `_normalize` runs when it is not.
        """
        pivots = self.pivots
        while row:
            lead = max(row)
            piv = pivots.get(lead)
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
            hist[lead] = -b
            if abs(hist[_OWN]) != 1:
                _normalize(row, hist)
        return None

    def _expand(self, hist: Mapping[Hashable, int]) -> dict[Hashable, int]:
        """Turn a combination of pivots, keyed by their leads, into the same
        combination of inserted rows, keyed by their labels; integral in,
        integral out, with no zero entries.

        Pending leads wait in one heap and are popped smallest first.  A
        pivot's steps name only leads above its own, so every pivot that
        refers to the popped one has a smaller lead and was popped before
        it: its coefficient is complete, and it passes the coefficient on
        through its steps, once.
        """
        pivots = self.pivots
        out: dict = {}
        pending = dict(hist)
        heap = list(pending)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            c = pending.pop(lead)
            piv = pivots[lead]
            for k, d in piv.hist.items():
                if k is _OWN:
                    out[piv.label] = out.get(piv.label, 0) + c * d
                elif k in pending:
                    pending[k] += c * d
                else:
                    pending[k] = c * d
                    heappush(heap, k)
        return {k: v for k, v in out.items() if v}

    def insert(self, row: dict[Hashable, int], label: Hashable) -> bool:
        """Add one integer row; return True if it enlarged the span.

        The span takes ownership of `row`, a dict of nonzero ints that the
        caller must not use again: it is eliminated in place and may become
        the stored pivot.  Every row goes through `_eliminate`, which
        returns at once, with no step taken, for an empty row or one whose
        lead has no pivot.  What is left of the row, if anything, is
        stored by `_store` as the pivot of the lead it stopped at.
        """
        hist = {_OWN: 1}
        lead = self._eliminate(row, hist)
        if lead is None:
            return False
        self._store(row, hist, lead, label)
        return True

    def _store(self, row: dict, hist: dict, lead: Hashable, label: Hashable) -> None:
        """Store an eliminated row as the pivot of `lead`, the first lead
        without a pivot, with a positive lead."""
        if row[lead] < 0:
            row = {k: -v for k, v in row.items()}
            hist = {k: -v for k, v in hist.items()}
        elif len(hist) == 1:
            hist = _UNIT
        self.pivots[lead] = _Row(row, hist, label)
        if self.budget is not None:
            self.budget.charge(len(row) + len(hist), "span insertion")

    def reduce(self, row: Mapping[Hashable, int]) -> tuple[dict, int] | None:
        """Reduce an integer query row, on a copy, against the pivot rows.

        Returns None for a non-member, otherwise (combination, scale) with
        scale > 0 and scale * row = the sum of combination[label] times the
        row inserted as `label`, integral with no zero entries.  The scale
        is the query's own step coefficient, a product of pivot leads over a
        gcd; `_expand` turns its other steps into the combination.
        """
        row = dict(row)
        hist = {_OWN: 1}
        if self._eliminate(row, hist) is not None:
            return None
        scale = hist.pop(_OWN)
        # 0 = scale * query + sum over leads j of hist[j] * (pivot j)
        return {k: -v for k, v in self._expand(hist).items()}, scale


def integer_nullspace(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right nullspace of a small dense integer matrix.

    Each column is eliminated once against the independent columns before
    it.  An independent column becomes a pivot.  A dependent column j
    leaves the relation hist[_OWN] * column_j + (its steps, expanded over
    the earlier columns) = 0, whose coefficient vector, divided by its
    content, is the basis vector of j.  hist[_OWN] stays positive, as every
    pivot's lead is.  That is the reduced-echelon basis in column order,
    each vector primitive and positive at j.
    """
    ncols = _size(ncols, "nullspace column count")
    rows = [_sequence(r, "nullspace row") for r in _sequence(rows, "nullspace rows")]
    for r in rows:
        if len(r) != ncols:
            raise DomainError("nullspace row must have %d entries, not %d: %r" % (ncols, len(r), r))
        for e in r:
            _size(e, "nullspace entry", None)
    span = ExactSpan()
    basis = []
    for j in range(ncols):
        column = {i: r[j] for i, r in enumerate(rows) if r[j]}
        hist = {_OWN: 1}
        lead = span._eliminate(column, hist)
        if lead is not None:
            span._store(column, hist, lead, j)
            continue
        own = hist.pop(_OWN)
        vec = span._expand(hist)
        vec[j] = own
        content = gcd(*vec.values())
        basis.append(tuple(vec.get(k, 0) // content for k in range(ncols)))
    return basis

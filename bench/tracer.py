"""Span tracing of jetform's layers from outside the package.

`Tracer.install` wraps a fixed list of public functions and methods.  A
wrapped function is rebound in every jetform module attribute that holds it
(`schubert.normal_form_IS` as well as `symfun.normal_form_IS`), and a
wrapped method on its class.  Each call becomes a span with a name, start,
end, parent span and operation id, kept in compact arrays and written out
when the run ends.  Self time, call counts and the counters recorded at the
same boundaries are accumulated as the spans close.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (span name, jetform module, class or None, attribute)
TARGETS = [
    ("polyring.construct", "polyring", "Poly", "__init__"),
    ("polyring.mul", "polyring", "Poly", "__mul__"),
    # one span name for both, since they share one implementation shape
    ("polyring.add", "polyring", "Poly", "__add__"),
    ("polyring.add", "polyring", "Poly", "__sub__"),
    ("polyring.substitute", "polyring", "Poly", "substitute"),
    ("polyring.divide", "polyring", None, "divide"),
    ("polyring.parse_poly", "polyring", None, "parse_poly"),
    ("polyring.format_poly", "polyring", None, "format_poly"),
    ("linalg.insert", "linalg", "ExactSpan", "insert"),
    ("linalg.reduce", "linalg", "ExactSpan", "reduce"),
    ("symfun.normal_form_IS", "symfun", None, "normal_form_IS"),
    ("symfun.sym_lambda_average", "symfun", None, "sym_lambda_average"),
    ("symfun.is_lambda_symmetric", "symfun", None, "is_lambda_symmetric"),
    ("jets.jet_generators", "jets", None, "jet_generators"),
    ("jets.homogeneous_membership", "jets", None, "homogeneous_membership"),
    ("jets.min_degree_search", "jets", None, "min_degree_search"),
    ("jets.verify", "jets", "MembershipResult", "verify"),
    ("jets.psi", "jets", "PsiSpecialization", "apply"),
    ("jets.psi", "jets", None, "psi_specialize"),
    ("alambda.nilpotency_order", "alambda", None, "nilpotency_order"),
    ("schubert.schubert_table", "schubert", None, "schubert_table"),
    ("schubert.schubert_expansion", "schubert", None, "schubert_expansion"),
    ("cli.run", "cli", None, "run"),
    ("cli.build_parser", "cli", None, "build_parser"),
]

# every per-layer metric the traced run prints, with its unit
PER_LAYER = [
    ("linalg.insert.calls", "count"),
    ("linalg.insert.self_s", "s"),
    ("linalg.insert.useful_ratio", "ratio"),
    ("linalg.pivot_entries", "count"),
    ("linalg.hist_entries", "count"),
    ("linalg.reduce.calls", "count"),
    ("linalg.reduce.self_s", "s"),
    ("jets.min_degree_search.self_s", "s"),
    ("jets.homogeneous_membership.calls", "count"),
    ("jets.homogeneous_membership.self_s", "s"),
    ("jets.jet_generators.self_s", "s"),
    ("jets.verify.self_s", "s"),
    ("jets.psi.self_s", "s"),
    ("symfun.normal_form_IS.calls", "count"),
    ("symfun.normal_form_IS.self_s", "s"),
    ("symfun.normal_form_IS.terms_in", "count"),
    ("symfun.normal_form_IS.terms_out", "count"),
    ("polyring.divide.calls", "count"),
    ("polyring.divide.self_s", "s"),
    ("symfun.sym_lambda_average.calls", "count"),
    ("symfun.sym_lambda_average.self_s", "s"),
    ("symfun.is_lambda_symmetric.self_s", "s"),
    ("alambda.nilpotency_order.calls", "count"),
    ("alambda.nilpotency_order.self_s", "s"),
    ("polyring.mul.calls", "count"),
    ("polyring.mul.self_s", "s"),
    ("polyring.add.calls", "count"),
    ("polyring.add.self_s", "s"),
    ("polyring.construct.calls", "count"),
    ("polyring.construct.self_s", "s"),
    ("polyring.substitute.self_s", "s"),
    ("schubert.schubert_table.self_s", "s"),
    ("schubert.schubert_expansion.calls", "count"),
    ("schubert.schubert_expansion.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.build_parser.self_s", "s"),
    ("polyring.parse_poly.self_s", "s"),
    ("polyring.format_poly.self_s", "s"),
    ("trace.ops_per_s", "1/s"),
]


class Tracer:
    """In-memory span recorder; `op_id` tags the spans of the operation in
    flight (-1 for set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_id = -1
        self.origin = perf_counter()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            "symfun.normal_form_IS.terms_in": 0,
            "symfun.normal_form_IS.terms_out": 0,
            "linalg.insert.useful": 0,
            "linalg.pivot_entries": 0,
            "linalg.hist_entries": 0,
        }
        # per open span: [span index, seconds covered by its children]
        self._stack: list[list] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "jetform" or name.startswith("jetform.")
        }
        for span, modname, clsname, attr in TARGETS:
            mod = mods["jetform." + modname]
            after = _AFTER.get(span)
            if clsname is not None:
                cls = getattr(mod, clsname)
                setattr(cls, attr, self._wrap(span, getattr(cls, attr), after))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span, orig, after)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _wrap(self, span: str, fn, after):
        if span not in self.names:
            self.names.append(span)
            self.calls[span] = 0
            self.self_s[span] = 0.0
        name_id = self.names.index(span)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        origin = self.origin

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0 - origin)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[idx] = t1 - origin
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[span] += 1
                self_s[span] += dur - frame[1]
            if after is not None:
                after(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, ops_per_s: float) -> dict:
        values = {}
        for span in self.names:
            values[span + ".calls"] = self.calls[span]
            values[span + ".self_s"] = self.self_s[span]
        values.update(self.counters)
        inserts = self.calls["linalg.insert"]
        values["linalg.insert.useful_ratio"] = (
            self.counters["linalg.insert.useful"] / inserts if inserts else 0.0
        )
        values["trace.ops_per_s"] = ops_per_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: str) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (
                        i,
                        self.span_parent[i],
                        self.span_op[i],
                        self.names[self.span_name[i]],
                        self.span_start[i],
                        self.span_end[i],
                    )
                )
        return len(self.span_start)


def _after_normal_form(counters, args, result):
    counters["symfun.normal_form_IS.terms_in"] += len(args[0].terms)
    counters["symfun.normal_form_IS.terms_out"] += len(result.terms)


def _after_insert(counters, args, result):
    if not result:
        return
    counters["linalg.insert.useful"] += 1
    # the pivot row an enlarging insert stores is the newest in the span
    row = next(reversed(args[0].pivots.values()))
    counters["linalg.pivot_entries"] += len(row.terms)
    counters["linalg.hist_entries"] += len(row.hist)


_AFTER = {
    "symfun.normal_form_IS": _after_normal_form,
    "linalg.insert": _after_insert,
}

"""Command-line front end.

Every computation of the library is exposed as a subcommand with plain-text
output by default and machine-readable JSON behind --json.  Printed
polynomials use the same grammar the parser accepts, so outputs are valid
inputs.  Exit codes: 0 success, 1 domain error (e.g. search cap exceeded),
2 parse/usage error, 3 resource budget exceeded, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from . import alambda, jets, schubert, symfun
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
    InvariantViolationError,
    ParseError,
)
from .linalg import Budget
from .polyring import parse_poly
from .schubert import Permutation
from .symfun import Composition

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

BUDGET_ENV = "JETFORM_BUDGET_MB"


class CommandResult:
    """status, command payload, and wall time in milliseconds."""

    __slots__ = ("status", "payload", "timing_ms", "exit_code", "json_mode")

    def __init__(self, status, payload, timing_ms, exit_code=EXIT_OK, json_mode=False):
        self.status = status
        self.payload = payload
        self.timing_ms = timing_ms
        self.exit_code = exit_code
        self.json_mode = json_mode

    def to_json(self) -> dict:
        return {"status": self.status, "payload": self.payload, "timing_ms": self.timing_ms}


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """A nonempty comma-separated list of ints, no field empty; `what` names
    it in errors."""
    if not text.strip():
        raise ParseError("empty %s %r" % (what, text))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError("bad %s %r" % (what, text)) from exc


def _parse_lambda(text: str) -> Composition:
    return Composition(_parse_ints(text, "composition"))


def _global_flags() -> argparse.ArgumentParser:
    # shared by the top-level parser and every subcommand, so the flags are
    # accepted on either side of the subcommand name; SUPPRESS keeps the
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    common.add_argument(
        "--budget-mb",
        type=float,
        default=argparse.SUPPRESS,
        help="memory budget for linear algebra, a finite number of MB >= 0 "
        "(default: env %s or unlimited)" % BUDGET_ENV,
    )
    return common


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every `run` shares it."""
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="jetform",
        description="Exact computations in jet ideals and block-symmetric quotients.",
        epilog="Values may start with a minus sign, as in `dim --lambda -2,1` "
        "or `nf -z1 --ell 2`; `--lambda=-2,1` and `nf --ell 2 -- -z1` work too.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = command("nf", "normal form modulo the symmetric ideal", _cmd_nf)
    p.add_argument("poly")
    p.add_argument("--ell", type=int, required=True)

    p = command("nu", "minimal degree in the normal form", _cmd_nu)
    p.add_argument("poly")
    p.add_argument("--ell", type=int, required=True)

    p = command("dim", "dimension of the block-symmetric quotient", _cmd_dim)
    p.add_argument("--lambda", dest="lam", required=True)

    p = command("basis", "monomial basis of the block-symmetric quotient", _cmd_basis)
    p.add_argument("--lambda", dest="lam", required=True)

    p = command("nilpotency", "nilpotency order of a block-symmetric class", _cmd_nilpotency)
    p.add_argument("poly")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--block", type=int, required=True)

    p = command("schubert", "Schubert polynomial of a permutation", _cmd_schubert)
    p.add_argument("perm")

    p = command("monk", "Monk product expansion", _cmd_monk)
    p.add_argument("perm")
    p.add_argument("--r", type=int, required=True)

    p = command(
        "expand", "expansion in the Schubert basis modulo the symmetric ideal", _cmd_expand
    )
    p.add_argument("poly")
    p.add_argument("--ell", type=int, required=True)

    p = command("catalan", "coefficient of the binomial-power congruence", _cmd_catalan)
    p.add_argument("--ell", type=int, required=True)

    p = command("jet-gens", "jet ideal generators", _cmd_jet_gens)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gens", default=None, help="semicolon-separated base polynomials")

    p = command("primes", "minimal primes of the jet ideal of x1...xn", _cmd_primes)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("member", "certified membership in the jet ideal of x1...xn", _cmd_member)
    p.add_argument("poly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("min-degree", "minimal member power of a derivative monomial", _cmd_min_degree)
    p.add_argument("--h", required=True)
    p.add_argument("--cap", type=int, default=None)

    p = command(
        "radical-witness", "non-membership witness in the radical", _cmd_radical_witness
    )
    p.add_argument("--h", required=True)

    p = command("multiplicity", "multiplicities of the minimal primes", _cmd_multiplicity)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    return parser


def _budget_from(args) -> Budget | None:
    """--budget-mb, else env JETFORM_BUDGET_MB, else None: read by member and min-degree only."""
    mb = getattr(args, "budget_mb", None)  # SUPPRESS leaves it unset
    if mb is None:
        env = os.environ.get(BUDGET_ENV)
        if env:
            try:
                mb = float(env)
            except ValueError:
                raise ParseError("bad %s value %r" % (BUDGET_ENV, env)) from None
    return Budget(mb) if mb is not None else None


# -- handlers -----------------------------------------------------------------


def _cmd_nf(args):
    ring = symfun.zring(args.ell)
    p = parse_poly(ring, args.poly)
    nf = symfun.normal_form_IS(p, args.ell)
    return {"ell": args.ell, "input": str(p), "normal_form": str(nf)}, [str(nf)]


def _cmd_nu(args):
    ring = symfun.zring(args.ell)
    p = parse_poly(ring, args.poly)
    value = symfun.nu(p, args.ell)
    return {"ell": args.ell, "nu": value}, ["none" if value is None else str(value)]


def _cmd_dim(args):
    lam = _parse_lambda(args.lam)
    dim = alambda.dim_A_lambda(lam)
    return {"lambda": list(lam.parts), "dim": dim}, [str(dim)]


def _cmd_basis(args):
    lam = _parse_lambda(args.lam)
    exps = alambda.basis_exponents(lam)
    polys = alambda.basis_polys(lam)
    payload = {
        "lambda": list(lam.parts),
        "dim": alambda.dim_A_lambda(lam),
        "basis": [{"exponent": list(d), "poly": str(f)} for d, f in zip(exps, polys)],
    }
    lines = ["%-16s %s" % ("d=%s" % (d,), f) for d, f in zip(exps, polys)]
    return payload, lines


def _cmd_nilpotency(args):
    lam = _parse_lambda(args.lam)
    ring = symfun.zring(lam.ell)
    p = parse_poly(ring, args.poly)
    order = alambda.nilpotency_order(p, lam, args.block)
    return (
        {"lambda": list(lam.parts), "block": args.block, "order": order},
        [str(order)],
    )


def _cmd_schubert(args):
    w = Permutation.parse(args.perm)
    poly = schubert.schubert_poly(w)
    return {"perm": list(w.oneline), "poly": str(poly)}, [str(poly)]


def _cmd_monk(args):
    w = Permutation.parse(args.perm)
    terms = schubert.monk_expand(args.r, w)
    return (
        {"r": args.r, "perm": list(w.oneline), "terms": [list(v.oneline) for v in terms]},
        [", ".join(str(v) for v in terms) if terms else "(empty)"],
    )


def _cmd_expand(args):
    ring = symfun.zring(args.ell)
    p = parse_poly(ring, args.poly)
    coeffs = schubert.schubert_expansion(p, args.ell)
    payload = {
        "ell": args.ell,
        "coefficients": [
            {"perm": list(w.oneline), "coeff": str(c)} for w, c in coeffs.items()
        ],
    }
    lines = ["%s: %s" % (w, c) for w, c in coeffs.items()] or ["(zero class)"]
    return payload, lines


def _cmd_catalan(args):
    value = schubert.catalan_congruence_check(args.ell)
    expected = schubert.catalan_number(args.ell - 2)
    return (
        {
            "ell": args.ell,
            "coefficient": str(value),
            "catalan": str(expected),
            "match": value == expected,
        },
        ["%s (Catalan C_%d = %d)" % (value, args.ell - 2, expected)],
    )


def _cmd_jet_gens(args):
    desc = jets.JetRingDesc(args.n, args.m)
    gens = None
    if args.gens is not None:
        base = desc.base_ring
        gens = [parse_poly(base, chunk) for chunk in args.gens.split(";") if chunk.strip()]
        if not gens:
            raise ParseError("no generators given")
    out = jets.jet_generators(gens, desc)
    return (
        {"n": args.n, "m": args.m, "generators": [str(g) for g in out]},
        [str(g) for g in out],
    )


def _cmd_primes(args):
    primes = jets.minimal_primes(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "primes": [
            {"lambda": list(p.lam.parts), "generators": p.variable_names} for p in primes
        ],
    }
    lines = [
        "lambda=%-12s (%s)" % (p.lam.parts, ", ".join(p.variable_names)) for p in primes
    ]
    return payload, lines


def _cmd_member(args):
    budget = _budget_from(args)
    desc = jets.JetRingDesc(args.n, args.m)
    p = parse_poly(desc.ring, args.poly)
    gens = jets.jet_generators(None, desc)
    result = jets.homogeneous_membership(p, gens, budget=budget)
    payload = result.to_json(desc.ring)
    line = "member" if result.member else "not a member"
    return payload, [line]


def _cmd_min_degree(args):
    budget = _budget_from(args)
    h = _parse_ints(args.h, "derivative tuple")
    formula = jets.min_degree_formula(h)
    result = jets.min_degree_search(h, cap=args.cap, budget=budget)
    desc = jets.JetRingDesc(len(h), sum(h))
    psi = sum(1 for r in result.refusals.values() if r.witness is not None)
    payload = {
        "h": list(h),
        "formula": formula,
        "search": result.degree,
        "agree": formula == result.degree,
        "certificate": result.certificate.to_json(desc.ring),
        "refusals": {"psi": psi, "elimination": len(result.refusals) - psi},
    }
    refusal = result.refusal_below
    if refusal is not None:
        payload["refusal_below"] = refusal.to_json(desc.ring)
    return payload, [
        "formula=%d search=%d agree=%s" % (formula, result.degree, formula == result.degree)
    ]


def _cmd_radical_witness(args):
    h = _parse_ints(args.h, "derivative tuple")
    value = jets.radical_witness(h)
    return {"h": list(h), "witness": value}, [str(value).lower()]


def _cmd_multiplicity(args):
    table = jets.multiplicity_table(args.n, args.m)
    total = sum(table.values())
    payload = {
        "n": args.n,
        "m": args.m,
        "entries": [
            {"lambda": list(lam.parts), "multiplicity": mult} for lam, mult in table.items()
        ],
        "total": total,
        "expected": args.n ** (args.m + 1),
    }
    lines = ["lambda=%-12s %d" % (lam.parts, mult) for lam, mult in table.items()]
    lines.append("total=%d (n^(m+1)=%d)" % (total, args.n ** (args.m + 1)))
    return payload, lines


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, taking every argument that starts with a single minus
    sign, other than -h, as a value.

    argparse would read `-2,1` or `-z1` as an unknown option, but every
    option here is --name or -h.  A leading space makes such an argument a
    value to argparse; int() and float() skip it, and it is removed from
    string values after parsing.
    """
    shielded = [
        " " + a if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h" else a
        for a in argv
    ]
    args = build_parser().parse_args(shielded)
    for key, value in vars(args).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(args, key, value[1:])
    return args


def run(argv) -> tuple[CommandResult, list[str]]:
    """Execute one CLI invocation; returns the result and text lines."""
    args = _parse_args(argv)
    # global flags default to SUPPRESS so either parser may supply them
    json_mode = getattr(args, "json", False)
    start = time.perf_counter()
    try:
        payload, lines = args.handler(args)
    except ParseError as exc:
        return _error("parse-error", str(exc), start, EXIT_PARSE, json_mode), []
    except BudgetExceededError as exc:
        result = _error("budget-exceeded", str(exc), start, EXIT_BUDGET, json_mode)
        result.payload["partial"] = exc.partial
        return result, []
    except InvariantViolationError as exc:
        return _error("invariant-violation", str(exc), start, EXIT_INVARIANT, json_mode), []
    except CapExceededError as exc:
        result = _error("cap-exceeded", str(exc), start, EXIT_ERROR, json_mode)
        result.payload["lower_bound"] = exc.lower_bound
        return result, []
    except DomainError as exc:
        return _error("domain-error", str(exc), start, EXIT_ERROR, json_mode), []
    timing = (time.perf_counter() - start) * 1000.0
    return CommandResult("ok", payload, timing, json_mode=json_mode), lines


def _error(code, message, start, exit_code, json_mode=False) -> CommandResult:
    timing = (time.perf_counter() - start) * 1000.0
    return CommandResult(
        "error", {"code": code, "message": message}, timing, exit_code, json_mode
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        result, lines = run(argv)
    except SystemExit as exc:
        # argparse reports its own usage errors on stderr with code 2
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    if result.json_mode:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    elif result.status == "ok":
        for line in lines:
            print(line)
    else:
        print(
            "error [%s]: %s" % (result.payload["code"], result.payload["message"]),
            file=sys.stderr,
        )
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

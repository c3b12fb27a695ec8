"""Command-line front end.

Every computation of the library is exposed as a subcommand with plain-text
output by default and machine-readable JSON behind --json.  Printed
polynomials use the same grammar the parser accepts, so outputs are valid
inputs.  Coefficients cross the text boundary as integers: `parse_poly`
and `format_poly` make no Fraction, and `expand` prints the integer sums of
`schubert._schubert_sums` over their denominator by `_ratio_text`.  Exit
codes: 0 on success, 2 on a usage error that argparse reports, and for an
error a command raises, the one the table `ERRORS` gives its class, with
its payload code.  A run whose reader has gone, such as `jetform primes
--n 4 --m 9 | head -1`, prints no traceback: the output still pending goes
to os.devnull, and the exit code is the command's own.

`COMMANDS` is the CLI's one definition: each command once, with its
handler, help and argument spellings, and `ARGUMENTS` gives each spelling
its add_argument keywords once.  `build_parser` builds the parser from
them in one loop.

The layer modules are bound here without being run: each handler loads
only the layers it calls, and all load `symfun`.  `dim`, `basis`,
`nilpotency` and `multiplicity` also load `alambda`; `schubert`, `monk`,
`expand` and `catalan` load `schubert`; `jet-gens`, `primes`,
`radical-witness`, `multiplicity`, `member` and `min-degree` load
`jetring`, and only the last two load `jets` and `linalg`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections.abc import Iterable
from functools import lru_cache

from . import alambda, jetring, jets, linalg, schubert, symfun
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DomainError,
    InvariantViolationError,
    ParseError,
)
from .polyring import _parse_ints, _ratio_text, parse_poly

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

# Each error class a command may raise -> (payload code, exit code); `run`
# reads it along the exception's MRO, and lets any other exception through.
ERRORS = {
    ParseError: ("parse-error", EXIT_PARSE),
    DomainError: ("domain-error", EXIT_ERROR),
    CapExceededError: ("cap-exceeded", EXIT_ERROR),
    BudgetExceededError: ("budget-exceeded", EXIT_BUDGET),
    InvariantViolationError: ("invariant-violation", EXIT_INVARIANT),
}

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


def _parse_lambda(text: str) -> symfun.Composition:
    return symfun.Composition(_parse_ints(text, "composition"))


def _budget_from(args) -> linalg.Budget | None:
    """--budget-mb, else env JETFORM_BUDGET_MB, else None: read by member and min-degree only."""
    mb = getattr(args, "budget_mb", None)  # SUPPRESS leaves it unset
    if mb is None:
        env = os.environ.get(BUDGET_ENV)
        if env:
            try:
                mb = float(env)
            except ValueError:
                raise ParseError("bad %s value %r" % (BUDGET_ENV, env)) from None
    return linalg.Budget(mb) if mb is not None else None


# -- handlers -----------------------------------------------------------------


def _cmd_nf(args):
    ring = symfun.zring(args.ell)
    p = parse_poly(ring, args.poly)
    nf = str(symfun.normal_form_IS(p, args.ell))
    return {"ell": args.ell, "input": str(p), "normal_form": nf}, [nf]


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
    w = schubert.Permutation.parse(args.perm)
    poly = str(schubert.schubert_poly(w))
    return {"perm": list(w.oneline), "poly": poly}, [poly]


def _cmd_monk(args):
    w = schubert.Permutation.parse(args.perm)
    terms = schubert.monk_expand(args.r, w)
    return (
        {"r": args.r, "perm": list(w.oneline), "terms": [list(v.oneline) for v in terms]},
        [", ".join(str(v) for v in terms) if terms else "(empty)"],
    )


def _cmd_expand(args):
    ring = symfun.zring(args.ell)
    p = parse_poly(ring, args.poly)
    perms, sums, denom = schubert._schubert_sums(p, args.ell)
    coeffs = [(perms[i], _ratio_text(c, denom)) for i, c in sums.items()]
    payload = {
        "ell": args.ell,
        "coefficients": [{"perm": list(w.oneline), "coeff": c} for w, c in coeffs],
    }
    if not coeffs:
        return payload, ["(zero class)"]
    # formatted only if printed: --json mode never reads them
    return payload, ("%s: %s" % (w, c) for w, c in coeffs)


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
    desc = jetring.JetRingDesc(args.n, args.m)
    gens = None
    if args.gens is not None:
        base = desc.base_ring
        gens = [parse_poly(base, chunk) for chunk in args.gens.split(";") if chunk.strip()]
        if not gens:
            raise ParseError("no generators given")
    out = [str(g) for g in jetring.jet_generators(gens, desc)]
    return {"n": args.n, "m": args.m, "generators": out}, out


def _cmd_primes(args):
    primes = jetring.minimal_primes(args.n, args.m)
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
    desc = jetring.JetRingDesc(args.n, args.m)
    p = parse_poly(desc.ring, args.poly)
    gens = jetring.jet_generators(None, desc)
    result = jets.homogeneous_membership(p, gens, budget=budget)
    if not result.member:
        # a refusal by elimination also carries a psi witness, if one refuses p
        result.witness = jetring._psi_witness(p, gens, desc)
    # what was asked rides with the verdict, so the payload re-checks alone
    payload = {"n": desc.n, "m": desc.m, "query": str(p), **result.to_json(desc.ring)}
    line = "member" if result.member else "not a member"
    return payload, [line]


def _cmd_min_degree(args):
    budget = _budget_from(args)
    h = _parse_ints(args.h, "derivative tuple")
    formula = jets.min_degree_formula(h)
    result = jets.min_degree_search(h, cap=args.cap, budget=budget)
    desc = jetring.JetRingDesc(len(h), sum(h))
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
    value = jetring.radical_witness(h)
    return {"h": list(h), "witness": value}, [str(value).lower()]


def _cmd_multiplicity(args):
    table = jetring.multiplicity_table(args.n, args.m)
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


# -- the command table ---------------------------------------------------------

# Each argument spelling once, with its add_argument keywords.  The global
# flags go on the top-level parser and on every subcommand, so they are
# accepted on either side of the subcommand name; SUPPRESS keeps a
# subparser from clobbering a value parsed at the top level.
ARGUMENTS = {
    "--json": {"action": "store_true", "default": argparse.SUPPRESS,
               "help": "machine-readable output"},
    "--budget-mb": {"type": float, "default": argparse.SUPPRESS,
                    "help": "memory budget for linear algebra, a finite number of MB >= 0 "
                    "(default: env %s or unlimited)" % BUDGET_ENV},
    "poly": {},
    "perm": {},
    **dict.fromkeys(("--ell", "--block", "--r", "--n", "--m"), {"type": int, "required": True}),
    "--lambda": {"dest": "lam", "required": True},
    "--gens": {"default": None, "help": "semicolon-separated base polynomials"},
    "--h": {"required": True},
    "--cap": {"type": int, "default": None},
}

# Each command once, in the order the help lists them: name -> (handler,
# help, argument spellings).
COMMANDS = {
    "nf": (_cmd_nf, "normal form modulo the symmetric ideal", ("poly", "--ell")),
    "nu": (_cmd_nu, "minimal degree in the normal form", ("poly", "--ell")),
    "dim": (_cmd_dim, "dimension of the block-symmetric quotient", ("--lambda",)),
    "basis": (_cmd_basis, "monomial basis of the block-symmetric quotient", ("--lambda",)),
    "nilpotency": (_cmd_nilpotency, "nilpotency order of a block-symmetric class",
                   ("poly", "--lambda", "--block")),
    "schubert": (_cmd_schubert, "Schubert polynomial of a permutation", ("perm",)),
    "monk": (_cmd_monk, "Monk product expansion", ("perm", "--r")),
    "expand": (_cmd_expand, "expansion in the Schubert basis modulo the symmetric ideal",
               ("poly", "--ell")),
    "catalan": (_cmd_catalan, "coefficient of the binomial-power congruence", ("--ell",)),
    "jet-gens": (_cmd_jet_gens, "jet ideal generators", ("--n", "--m", "--gens")),
    "primes": (_cmd_primes, "minimal primes of the jet ideal of x1...xn", ("--n", "--m")),
    "member": (_cmd_member, "certified membership in the jet ideal of x1...xn",
               ("poly", "--n", "--m")),
    "min-degree": (_cmd_min_degree, "minimal member power of a derivative monomial",
                   ("--h", "--cap")),
    "radical-witness": (_cmd_radical_witness, "non-membership witness in the radical",
                        ("--h",)),
    "multiplicity": (_cmd_multiplicity, "multiplicities of the minimal primes", ("--n", "--m")),
}

# name -> subcommand parser: the choices of the add_subparsers action of
# the one parser `build_parser` builds, filled by that build
_COMMAND_PARSERS: dict[str, argparse.ArgumentParser] = {}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of `COMMANDS`, built once per process; parsing
    leaves it unchanged, so every `run` shares it."""
    common = argparse.ArgumentParser(add_help=False)
    for spelling in ("--json", "--budget-mb"):
        common.add_argument(spelling, **ARGUMENTS[spelling])
    parser = argparse.ArgumentParser(
        prog="jetform",
        description="Exact computations in jet ideals and block-symmetric quotients.",
        epilog="Values may start with a minus sign, as in `dim --lambda -2,1` "
        "or `nf -z1 --ell 2`; `--lambda=-2,1` and `nf --ell 2 -- -z1` work too.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, spellings) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        for spelling in spellings:
            p.add_argument(spelling, **ARGUMENTS[spelling])
    _COMMAND_PARSERS.update(sub.choices)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, taking every argument that starts with a single minus
    sign, other than -h, as a value.

    argparse would read `-2,1` or `-z1` as an unknown option, but every
    option here is --name or -h.  A leading space makes such an argument a
    value to argparse; int() and float() skip it, and it is removed from
    string values after parsing.

    An argv that starts with a subcommand name is parsed by that
    subcommand's parser alone, into a namespace that already holds the
    command; any other argv (global flags first, -h or --help, a missing or
    unknown command) goes through the top-level parser.  The two routes
    agree: on such an argv the top-level parser's first and only positional
    is its subcommand action, which hands every later argument to the same
    subparser and copies the namespace it returns.  Only the usage line of
    an "unrecognized arguments" error differs, `jetform expand: error:`
    rather than `jetform: error:`; the exit code is 2 on both routes.
    """
    shielded = [
        " " + a if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h" else a
        for a in argv
    ]
    parser = build_parser()
    sub = _COMMAND_PARSERS.get(shielded[0]) if shielded else None
    if sub is None:
        args = parser.parse_args(shielded)
    else:
        args = sub.parse_args(shielded[1:], argparse.Namespace(command=shielded[0]))
    for key, value in vars(args).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(args, key, value[1:])
    return args


def run(argv) -> tuple[CommandResult, Iterable[str]]:
    """Execute one CLI invocation; returns the result and its text lines,
    an iterable that may format each line only as it is read, so a caller
    that prints nothing pays for no formatting."""
    args = _parse_args(argv)
    # global flags default to SUPPRESS so either parser may supply them
    json_mode = getattr(args, "json", False)
    start = time.perf_counter()
    try:
        payload, lines = args.handler(args)
        status, exit_code = "ok", EXIT_OK
    except tuple(ERRORS) as exc:
        # the nearest class on the MRO: a RingMismatchError is a DomainError
        code, exit_code = next(ERRORS[c] for c in type(exc).__mro__ if c in ERRORS)
        payload = {"code": code, "message": str(exc)}
        for key in ("partial", "lower_bound"):
            if hasattr(exc, key):
                payload[key] = getattr(exc, key)
        status, lines = "error", []
    timing = (time.perf_counter() - start) * 1000.0
    return CommandResult(status, payload, timing, exit_code, json_mode), lines


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        result, lines = run(argv)
    except SystemExit as exc:
        # argparse reports its own usage errors on stderr with code 2
        code = exc.code
        return _flushed(code if isinstance(code, int) else (0 if code is None else 2))
    with contextlib.suppress(BrokenPipeError):  # `_flushed` deals with it
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
    return _flushed(result.exit_code)


def _flushed(code: int) -> int:
    """`code`, once stdout is flushed.  If its reader has gone, the output
    still pending goes to os.devnull, so the flush at shutdown cannot raise
    a second time."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())

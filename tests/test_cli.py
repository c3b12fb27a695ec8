import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetform
from jetform import normal_form_IS, parse_poly, zring
from jetform.cli import main, run


def run_json(capsys, argv):
    code = main(argv + ["--json"] if "--json" not in argv else argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dim(capsys):
    code, doc = run_json(capsys, ["dim", "--lambda", "2,1"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["dim"] == 3


def test_catalan(capsys):
    code, doc = run_json(capsys, ["catalan", "--ell", "4"])
    assert code == 0
    assert doc["payload"]["coefficient"] == "2"
    assert doc["payload"]["match"] is True


def test_nf_round_trips_through_parser(capsys):
    code, doc = run_json(capsys, ["nf", "z1^2 + z2", "--ell", "3"])
    assert code == 0
    ring = zring(3)
    reported = parse_poly(ring, doc["payload"]["normal_form"])
    assert reported == normal_form_IS(parse_poly(ring, "z1^2 + z2"), 3)


def test_nu_none(capsys):
    code, doc = run_json(capsys, ["nu", "z1*z2", "--ell", "2"])
    assert code == 0
    assert doc["payload"]["nu"] is None


def test_basis(capsys):
    code, doc = run_json(capsys, ["basis", "--lambda", "2,1"])
    assert code == 0
    assert doc["payload"]["dim"] == 3
    assert [e["exponent"] for e in doc["payload"]["basis"]] == [
        [0, 0, 0],
        [0, 0, 1],
        [0, 0, 2],
    ]


def test_nilpotency(capsys):
    code, doc = run_json(capsys, ["nilpotency", "z1 + z2", "--lambda", "2,1", "--block", "1"])
    assert code == 0
    assert doc["payload"]["order"] == 3


def test_schubert_and_monk(capsys):
    code, doc = run_json(capsys, ["schubert", "[3,1,2]"])
    assert code == 0
    assert doc["payload"]["poly"] == "z1^2"
    code, doc = run_json(capsys, ["monk", "[2,1,3]", "--r", "1"])
    assert code == 0
    assert doc["payload"]["terms"] == [[3, 1, 2]]


def test_expand(capsys):
    code, doc = run_json(capsys, ["expand", "z1 + z2", "--ell", "3"])
    assert code == 0
    assert doc["payload"]["coefficients"] == [{"perm": [1, 3, 2], "coeff": "1"}]


def test_jet_gens_and_primes(capsys):
    code, doc = run_json(capsys, ["jet-gens", "--n", "2", "--m", "1"])
    assert code == 0
    gens = doc["payload"]["generators"]
    assert gens == ["x1_0*x2_0", "x1_0*x2_1 + x1_1*x2_0"]
    code, doc = run_json(capsys, ["primes", "--n", "2", "--m", "1"])
    assert [p["lambda"] for p in doc["payload"]["primes"]] == [[2, 0], [1, 1], [0, 2]]


def test_jet_gens_custom_generators(capsys):
    code, doc = run_json(capsys, ["jet-gens", "--n", "2", "--m", "1", "--gens", "x1^2 + x2"])
    assert code == 0
    assert len(doc["payload"]["generators"]) == 2


def test_member_certificate_schema(capsys):
    code, doc = run_json(capsys, ["member", "x1_0*x2_1 + x1_1*x2_0", "--n", "2", "--m", "1"])
    assert code == 0
    payload = doc["payload"]
    assert payload["member"] is True
    assert payload["degree"] == 2
    assert payload["combination"] == [{"gen": 1, "monomial": "1", "coeff": "1"}]
    code, doc = run_json(capsys, ["member", "x1_1*x2_1", "--n", "2", "--m", "1"])
    assert doc["payload"]["member"] is False
    assert doc["payload"]["combination"] is None


def test_min_degree(capsys):
    code, doc = run_json(capsys, ["min-degree", "--h", "1,1"])
    assert code == 0
    payload = doc["payload"]
    assert payload["formula"] == 3
    assert payload["search"] == 3
    assert payload["agree"] is True
    assert payload["certificate"]["member"] is True
    assert payload["refusal_below"]["member"] is False
    assert payload["refusals"] == {"psi": 2, "elimination": 0}


def test_min_degree_refusal_witness_reparses(capsys):
    h = (2, 1)
    code, doc = run_json(capsys, ["min-degree", "--h", "2,1"])
    assert code == 0
    refusal = doc["payload"]["refusal_below"]
    witness = refusal["witness"]
    desc = jetform.JetRingDesc(len(h), sum(h))
    spec = jetform.PsiSpecialization(h, desc)
    assert witness["kind"] == "psi"
    assert witness["lambda"] == list(spec.lam.parts)
    d = doc["payload"]["search"] - 1
    mono = jetform.derivative_monomial(h, desc)
    expected = normal_form_IS(jetform.psi_specialize(mono**d, h, desc))
    assert not expected.is_zero()
    assert parse_poly(zring(sum(h) + 1), witness["normal_form"]) == expected


def test_min_degree_cap_exceeded(capsys):
    code, doc = run_json(capsys, ["min-degree", "--h", "1,1", "--cap", "1"])
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["code"] == "cap-exceeded"
    assert doc["payload"]["lower_bound"] == 2


def test_radical_witness(capsys):
    code, doc = run_json(capsys, ["radical-witness", "--h", "2,1"])
    assert code == 0
    assert doc["payload"]["witness"] is True


def test_multiplicity(capsys):
    code, doc = run_json(capsys, ["multiplicity", "--n", "3", "--m", "2"])
    assert code == 0
    assert doc["payload"]["total"] == 27
    assert doc["payload"]["expected"] == 27


@pytest.mark.parametrize("m", [-1, -2])
def test_multiplicity_rejects_negative_order(capsys, m):
    code, doc = run_json(capsys, ["multiplicity", "--n", "2", "--m", str(m)])
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"


def test_parse_error_exit_code(capsys):
    assert main(["nf", "z9", "--ell", "3"]) == 2
    capsys.readouterr()
    assert main(["schubert", "[1,x,2]"]) == 2
    capsys.readouterr()
    assert main(["dim", "--lambda", "a,1"]) == 2
    capsys.readouterr()
    # an empty field is an error, not a field to skip
    for argv in (["min-degree", "--h", "1,,1"], ["min-degree", "--h", ",1,1"],
                 ["min-degree", "--h", "1,1,"], ["dim", "--lambda", "2,,1"],
                 ["schubert", "[2,,1]"]):
        assert main(argv) == 2, argv
        capsys.readouterr()
    # a number too long for int() is a parse error, not a traceback
    assert main(["nf", "1" * 5000, "--ell", "3"]) == 2
    assert "number too long" in capsys.readouterr().err


def test_domain_error_exit_code(capsys):
    code, doc = run_json(capsys, ["nilpotency", "z1", "--lambda", "2", "--block", "1"])
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"
    code, doc = run_json(capsys, ["expand", "z1", "--ell", "7"])
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"
    # integers that are not a permutation or a composition: the
    # constructors' domain errors, not parse errors
    for argv in (["schubert", "[1,1,2]"], ["dim", "--lambda=-2,1"], ["dim", "--lambda=0,0"]):
        code, doc = run_json(capsys, argv)
        assert code == 1
        assert doc["payload"]["code"] == "domain-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--lambda", "-2,1"],
        ["dim", "--lambda=-2,1"],
        ["min-degree", "--h", "-1,2"],
        ["min-degree", "--h=-1,2"],
        ["radical-witness", "--h", "-1,2"],
        ["nf", "z1", "--ell", "-1"],
    ],
)
def test_negative_values_reach_the_domain_checks(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "-z1", "--ell", "2"],
        ["nf", "--ell", "2", "-z1"],
        ["--json", "nf", "--ell", "2", "--", "-z1"],
        ["--json", "nf", "-z1", "--ell", "2"],
    ],
)
def test_polynomials_may_start_with_a_minus_sign(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["payload"]["input"] == "-z1"
    assert doc["payload"]["normal_form"] == "z2"


def test_help_names_minus_sign_values_and_short_options_stay_usage_errors(capsys):
    assert main(["--help"]) == 0
    assert "`nf --ell 2 -- -z1`" in " ".join(capsys.readouterr().out.split())
    assert main(["dim", "-j", "--lambda", "2,1"]) == 2
    assert main(["dim", "--lambda", "2,1", "-h"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["nf", "z1", "--ell", "0"],
        ["nu", "z1", "--ell", "0"],
        ["expand", "z1", "--ell", "0"],
        ["nilpotency", "z1", "--lambda", "0", "--block", "1"],
    ],
)
def test_empty_ring_is_a_domain_error_before_parsing(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"


def test_basis_of_total_zero_names_the_composition(capsys):
    code, doc = run_json(capsys, ["basis", "--lambda", "0,0"])
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"
    assert "composition total" in doc["payload"]["message"]


def test_nilpotency_without_a_zero_power_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(jetform.alambda, "_nf_powers", lambda p, ell: itertools.repeat(({0: 1}, 1)))
    code, doc = run_json(capsys, ["nilpotency", "z1+z2", "--lambda", "2,1", "--block", "1"])
    assert code == 4
    assert doc["payload"]["code"] == "invariant-violation"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit):
        # argparse exits directly inside run(); main converts to return code
        run(["not-a-command"])
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


def test_budget_exit_code(capsys):
    assert main(["--budget-mb", "0.0001", "min-degree", "--h", "2,1"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err


def test_budget_error_reports_partial_result(capsys):
    code, doc = run_json(capsys, ["--budget-mb", "0.0001", "min-degree", "--h", "1,1"])
    assert code == 3
    assert doc["payload"]["code"] == "budget-exceeded"
    assert doc["payload"]["partial"] == {
        "refused": [1, 2],
        "psi_certified": [1, 2],
        "lower_bound": 3,
    }


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("JETFORM_BUDGET_MB", "0.0001")
    assert main(["min-degree", "--h", "2,1"]) == 3
    capsys.readouterr()
    monkeypatch.setenv("JETFORM_BUDGET_MB", "512")
    assert main(["min-degree", "--h", "1,1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--budget-mb", "-1", "min-degree", "--h", "1,1"], None),
        (["--budget-mb=nan", "min-degree", "--h", "1,1"], None),
        (["--budget-mb=inf", "min-degree", "--h", "1,1"], None),
        (["member", "x1_0", "--n", "1", "--m", "0"], "-5"),
    ],
)
def test_negative_or_non_finite_budgets_are_domain_errors(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("JETFORM_BUDGET_MB", raising=False)
    else:
        monkeypatch.setenv("JETFORM_BUDGET_MB", env)
    code, doc = run_json(capsys, argv)
    assert code == 1
    assert doc["payload"]["code"] == "domain-error"


def test_only_member_and_min_degree_read_a_budget(capsys, monkeypatch):
    monkeypatch.setenv("JETFORM_BUDGET_MB", "abc")
    assert main(["nf", "z1", "--ell", "2"]) == 0
    assert main(["min-degree", "--h", "1,1"]) == 2
    assert "JETFORM_BUDGET_MB" in capsys.readouterr().err
    monkeypatch.delenv("JETFORM_BUDGET_MB")
    assert main(["dim", "--lambda", "2,1", "--budget-mb", "-5"]) == 0
    capsys.readouterr()


def test_zero_budget_is_legal_and_exhausted(capsys):
    code, doc = run_json(capsys, ["--budget-mb", "0", "min-degree", "--h", "1,1"])
    assert code == 3
    assert doc["payload"]["code"] == "budget-exceeded"


def test_member_budget_error_has_no_partial_result(capsys):
    argv = ["--budget-mb", "0.0001", "member", "x1_0*x2_1", "--n", "2", "--m", "1"]
    code, doc = run_json(capsys, argv)
    assert code == 3
    assert doc["payload"]["code"] == "budget-exceeded"
    assert "span insertion" in doc["payload"]["message"]
    assert doc["payload"]["partial"] is None


def _cap_address_space():
    # 1 GiB: a run that ignores its budget fails here, not on the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_budget_stops_a_large_multiplier_table_end_to_end():
    # (3,3,3) reaches elimination at degree 25, whose multiplier table would
    # outgrow several GB; a 1 MB budget must stop it while it is built
    src = os.path.dirname(os.path.dirname(os.path.abspath(jetform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["min-degree", "--h", "3,3,3", "--budget-mb", "1", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "jetform.cli"] + argv,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["payload"]["code"] == "budget-exceeded"
    assert "multiplier table" in doc["payload"]["message"]


def test_unknown_global_flags_are_usage_errors(capsys):
    assert main(["--mod-p", "2147483647", "member", "x1_1*x2_1", "--n", "2", "--m", "1"]) == 2
    assert main(["--seed", "7", "dim", "--lambda", "2,1"]) == 2
    assert main(["expand", "z1", "--ell", "3", "--max-ell", "7"]) == 2
    capsys.readouterr()


def test_parser_reuse_keeps_no_flags():
    first, _ = run(["--budget-mb", "0.0001", "--json", "min-degree", "--h", "1,1"])
    assert first.exit_code == 3 and first.json_mode
    second, _ = run(["min-degree", "--h", "1,1"])
    assert second.status == "ok"
    assert second.json_mode is False


def test_expand_at_ell_6_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(jetform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "jetform.cli", "expand", "z1*z2", "--ell", "6", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["payload"]["coefficients"] == [{"perm": [2, 3, 1, 4, 5, 6], "coeff": "1"}]


def test_schubert_of_a_permutation_of_nine_entry_point():
    # one chain of divided differences, not the 362,880-row table of S_9
    src = os.path.dirname(os.path.dirname(os.path.abspath(jetform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "jetform.cli", "schubert", "[1,2,3,4,5,6,7,9,8]", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["payload"]["poly"] == "z1 + z2 + z3 + z4 + z5 + z6 + z7 + z8"


def test_text_output(capsys):
    assert main(["dim", "--lambda", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["catalan", "--ell", "5"]) == 0
    assert "5" in capsys.readouterr().out


# -- fuzzing ------------------------------------------------------------------

# small fixed alphabets of valid and malformed values; every valid size is
# small enough that a call finishes in milliseconds
POLYS = ["z1^2 + z2", "z1*z2 - 1/2*z3", "x1_0*x2_1", "x1_1^2*x2_1^2", "0", "-3",
         "", "z1^", "z9", "1/0", "z1 +", "**", "z1 z2", "(z1)", "x1_5",
         "z1 ^ 2\t+ 1/2 * z2", "z1 + z2 - z1 + z1",
         " + ".join("z1^%d*z2^%d*z3^%d" % (i // 49, i // 7 % 7, i % 7) for i in range(300)),
         "7" * 5000, "z1^" + "7" * 5000, "z1 + 1/" + "7" * 5000]
SIZES = ["-1", "0", "1", "2", "3", "x", ""]
LAMBDAS = ["2,1", "1,1", "3", "1,0,2", "", ",", "a,b", "-1,2", "0,0", "1,,1", "2,"]
PERMS = ["[2,3,1]", "3,1,2", "[1]", "[4,3,2,1]", "[1,1,2]", "[]", "[0,1]", "x", "[2,,1]"]
HS = ["1,1", "2", "1,0", "0", "0,0", "2,1", "", "-1,1", "a", ",", "1,,1", "2,"]
GENS = ["x1*x2", "x1^2 - x2", "x1;x2", ";", "", "z1"]
BUDGETS = ["0.0001", "512", "-1", "x", "nan", "inf"]

# per subcommand: positional alphabets, then (option, alphabet) pairs
SUBCOMMANDS = {
    "nf": [POLYS, ("--ell", SIZES)],
    "nu": [POLYS, ("--ell", SIZES)],
    "dim": [("--lambda", LAMBDAS)],
    "basis": [("--lambda", LAMBDAS)],
    "nilpotency": [POLYS, ("--lambda", LAMBDAS), ("--block", SIZES)],
    "schubert": [PERMS],
    "monk": [PERMS, ("--r", SIZES)],
    "expand": [POLYS, ("--ell", SIZES)],
    "catalan": [("--ell", SIZES)],
    "jet-gens": [("--n", SIZES), ("--m", SIZES), ("--gens", GENS)],
    "primes": [("--n", SIZES), ("--m", SIZES)],
    "member": [POLYS, ("--n", SIZES), ("--m", SIZES)],
    "min-degree": [("--h", HS), ("--cap", SIZES)],
    "radical-witness": [("--h", HS)],
    "multiplicity": [("--n", SIZES), ("--m", SIZES)],
    "not-a-command": [],
}


def _argument(spec):
    """An argument drawn from its alphabet; left out as often as any one
    value is drawn."""
    option, values = spec if isinstance(spec, tuple) else (None, spec)
    return st.sampled_from([None] + values).map(
        lambda v: [] if v is None else [v] if option is None else [option, v]
    )


def _flatten(parts):
    return [item for part in parts for item in part]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    body = [command] + _flatten(draw(st.tuples(*map(_argument, SUBCOMMANDS[command]))))
    flags = _flatten(
        draw(st.tuples(_argument(["--json"]), _argument(("--budget-mb", BUDGETS))))
    )
    extra = draw(st.sampled_from([[]] * 8 + [["--bogus"], ["extra"]]))
    if draw(st.booleans()):
        return flags + body + extra
    return body + flags + extra


@settings(max_examples=300)
@given(argvs())
def test_cli_fuzz_always_returns_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in range(5), (argv, code)

"""Tests of the benchmark itself: every checker accepts jetform's real
answer and rejects a corrupted one, the independent arithmetic agrees with
jetform, BENCHMARK.json names exactly the metrics the runner prints, and a
traced run repeats its counts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import jetform  # noqa: E402
import jetform.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _dict(poly) -> dict:
    return {m.exps: c for m, c in poly.terms.items()}


def _jet_poly(parts, poly: dict):
    ring = jetform.zring(sum(parts))
    return jetform.Poly(ring, {jetform.Monomial(m): c for m, c in poly.items()})


# -- oracle -------------------------------------------------------------------


def test_min_degree_check_accepts_and_rejects():
    h = (1, 2)
    result = jetform.min_degree_search(h)
    cert = result.certificate.to_json(jetform.JetRingDesc(2, 3).ring)
    assert checks.check_min_degree(h, result.degree, cert) == []
    assert checks.check_min_degree(h, result.degree + 1, cert)
    bad = json.loads(json.dumps(cert))
    bad["combination"][0]["coeff"] = str(Fraction(bad["combination"][0]["coeff"]) + 1)
    assert checks.check_min_degree(h, result.degree, bad)
    bad = json.loads(json.dumps(cert))
    del bad["combination"][-1]
    assert checks.check_min_degree(h, result.degree, bad)


# -- quotient -----------------------------------------------------------------


def test_normal_form_check_accepts_and_rejects():
    rng = random.Random(7)
    for parts in [(2, 1), (1, 3), (2, 2, 1)]:
        source = workloads._random_poly(rng, sum(parts), 4, 4)
        lam = jetform.Composition(parts)
        nf = _dict(jetform.normal_form_IS(jetform.sym_lambda_average(_jet_poly(parts, source), lam)))
        assert checks.check_normal_form(parts, source, nf, True) == []
        # a monomial that is not reduced: z1 never survives
        unreduced = checks.padd(nf, {(1,) + (0,) * (sum(parts) - 1): Fraction(1)})
        assert checks.check_normal_form(parts, source, unreduced, False)
        # reduced and block-symmetric, but the wrong class
        shifted = checks.padd(nf, {(0,) * sum(parts): Fraction(1)})
        assert checks.check_normal_form(parts, source, shifted, True)
    # breaks symmetry in block 2 = {z2, z3} while staying reduced
    assert checks.check_normal_form((1, 2), {}, {(0, 1, 0): Fraction(1)}, False)


def test_nilpotency_check_accepts_and_rejects():
    parts, block = (1, 3, 2), 2
    for random_element in (False, True):
        elem = workloads.Quotient._block_element(random.Random(3), parts, block, random_element)
        order = jetform.nilpotency_order(_jet_poly(parts, elem), jetform.Composition(parts), block)
        assert checks.check_nilpotency(parts, block, order) == []
        assert checks.check_nilpotency(parts, block, order - 1)
        assert checks.check_nilpotency(parts, block, None)


# -- expand -------------------------------------------------------------------


def test_schubert_polys_agree_with_jetform():
    ours = checks.schubert_polys(4)
    theirs = jetform.schubert_table(4)
    assert {w.oneline: _dict(p) for w, p in theirs.items()} == ours


def test_format_text_round_trips_through_the_parser():
    poly = {(2, 0, 1): Fraction(-3, 2), (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(5)}
    parsed = jetform.parse_poly(jetform.zring(3), checks.format_text(poly))
    assert _dict(parsed) == poly


def test_monk_and_expansion_checks_accept_and_reject():
    ell = 4
    table = checks.schubert_polys(ell)
    w, r = (2, 1, 4, 3), 2
    query = checks.pmul(table[checks.simple_reflection(r, ell)], table[w])
    argv = ["expand", checks.format_text(query), "--ell", str(ell), "--json"]
    result, _ = jetform.cli.run(argv)
    coeffs = checks.parse_coefficients(result.payload)
    assert checks.check_monk(r, w, coeffs) == []
    assert checks.check_expansion(query, ell, coeffs) == []
    dropped = dict(list(coeffs.items())[1:])
    assert checks.check_monk(r, w, dropped)
    assert checks.check_expansion(query, ell, dropped)
    scaled = {v: 2 * c for v, c in coeffs.items()}
    assert checks.check_monk(r, w, scaled)
    assert checks.check_expansion(query, ell, scaled)


# -- the benchmark's contract ---------------------------------------------------


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "quotient",
         "--seed", "5", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_traced_counts_repeat_for_a_seed():
    def traced():
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "quotient",
             "--seed", "9", "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
        )
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        assert list(metrics) == [name for name, _ in tracer.PER_LAYER]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}

    first = traced()
    assert first["symfun.sym_lambda_average.calls"] == len(workloads.Quotient.SHAPES)
    assert first == traced()

"""The benchmark's workloads: inputs, operations, warm-up and answer checks.

A workload is a round of operations repeated a fixed number of times.  Random
inputs come from the run's seed through `random.Random`, so one seed always
gives the same operations, and every round holds the same kinds of
operation in the same numbers, whatever the seed.  The round count follows
from the requested seconds and the round's nominal duration on a 2-core
Xeon; it never depends on the clock, so every run completes the same list.

Operations call jetform through module attributes at call time, so the
traced run's rebinding sees them.  Checks run after the timed phase.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import checks


class OpFailed(Exception):
    """The program answered an operation with an error."""


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Whole rounds covering at least `seconds` of nominal work."""
    return max(1, math.ceil(seconds / nominal_round_s))


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _random_poly(rng: random.Random, nvars: int, nterms: int, max_degree: int) -> dict:
    out: dict = {}
    while len(out) < nterms:
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(nvars)] += 1
        out[tuple(exps)] = _random_coeff(rng)
    return out


def _compositions(ell: int):
    if ell == 0:
        yield ()
        return
    for first in range(1, ell + 1):
        for rest in _compositions(ell - first):
            yield (first,) + rest


# -- oracle -------------------------------------------------------------------


class Oracle:
    """`jets.min_degree_search(h)` for every derivative tuple with n <= 3 and
    H <= 3 and every tuple with n <= 2 and H = 4 (37 tuples): the
    formula-check table of the paper's degree theorem.  The table is the
    whole input, so the seed is unused, and the order is fixed: shuffled
    per seed, each cheap search followed a different one, and the median,
    which falls among the 10-20 ms searches, spread by 24% over ten seeds."""

    nominal_round_s = 14.5

    @staticmethod
    def tuples() -> list[tuple]:
        out = []
        for n, H in [(n, H) for n in (1, 2, 3) for H in (1, 2, 3)] + [(1, 4), (2, 4)]:
            out.extend(h for h in itertools.product(range(H + 1), repeat=n) if sum(h) == H)
        return out

    def make_ops(self, rng: random.Random, rounds: int) -> list:
        return self.tuples() * rounds

    def to_inputs(self, jf, ops) -> list:
        return ops

    def warm_up(self, jf) -> None:
        jf.jets.min_degree_search((1, 1))

    def execute(self, jf, h):
        return jf.jets.min_degree_search(h)

    def check(self, jf, ops, outputs, rng) -> list[str]:
        errors = []
        for h, result in zip(ops, outputs):
            ring = jf.jets.JetRingDesc(len(h), sum(h)).ring
            errors += checks.check_min_degree(h, result.degree, result.certificate.to_json(ring))
        return errors


# -- quotient -----------------------------------------------------------------


class Quotient:
    """Per round: for each of the 63 compositions lambda of ell <= 6,
    `symfun.sym_lambda_average` then `symfun.normal_form_IS` of a seeded
    random polynomial (3 terms of degree 1-4); and NIL_PER_ROUND calls of
    `alambda.nilpotency_order`.  These walk a fixed cycle through every
    (lambda, block) with ell >= 2, alternating between the block's sigma_1
    and a seeded element c_1 sigma_1 + c_2 sigma_2 with c_1 non-zero.  The
    cycle keeps the set of blocks, and so the work, the same for every seed;
    the degree-2 cap keeps the costliest blocks near 0.5 s."""

    nominal_round_s = 0.21
    NIL_PER_ROUND = 2
    SYMPY_SAMPLE = 24

    SHAPES = [lam for ell in range(1, 7) for lam in _compositions(ell)]
    NIL_CASES = [
        (lam, block) for lam in SHAPES if sum(lam) >= 2 for block in range(1, len(lam) + 1)
    ]

    def make_ops(self, rng: random.Random, rounds: int) -> list:
        ops = []
        for r in range(rounds):
            batch = [
                ("sym", lam, _random_poly(rng, sum(lam), 3, 4))
                for lam in self.SHAPES
            ]
            for k in range(r * self.NIL_PER_ROUND, (r + 1) * self.NIL_PER_ROUND):
                lam, block = self.NIL_CASES[k % len(self.NIL_CASES)]
                batch.append(("nil", lam, block, self._block_element(rng, lam, block, k % 2)))
            rng.shuffle(batch)
            ops.extend(batch)
        return ops

    @staticmethod
    def _block_element(rng, lam, block, random_element: bool) -> dict:
        idx = checks.blocks(lam)[block - 1]
        poly = checks.elementary(sum(lam), 1, idx)
        if not random_element:
            return poly
        poly = checks.padd({}, poly, _random_coeff(rng))
        if len(idx) >= 2:
            poly = checks.padd(poly, checks.elementary(sum(lam), 2, idx), _random_coeff(rng))
        return poly

    def to_inputs(self, jf, ops) -> list:
        """Turn the dict polynomials into jetform objects before timing."""
        out = []
        for op in ops:
            lam = jf.Composition(op[1])
            ring = jf.zring(lam.ell)
            poly = jf.Poly(ring, {jf.Monomial(m): c for m, c in op[-1].items()})
            out.append((op[0], lam, op[2], poly) if op[0] == "nil" else (op[0], lam, poly))
        return out

    def warm_up(self, jf) -> None:
        for ell in range(1, 7):
            jf.symfun.normal_form_IS(jf.zring(ell).var(0), ell)

    def execute(self, jf, op):
        if op[0] == "sym":
            _, lam, poly = op
            return jf.symfun.normal_form_IS(jf.symfun.sym_lambda_average(poly, lam), lam.ell)
        _, lam, block, poly = op
        return jf.alambda.nilpotency_order(poly, lam, block)

    def check(self, jf, ops, outputs, rng) -> list[str]:
        errors = []
        sym_idx = [i for i, op in enumerate(ops) if op[0] == "sym"]
        sample = set(rng.sample(sym_idx, min(self.SYMPY_SAMPLE, len(sym_idx))))
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if op[0] == "sym":
                nf = {m.exps: c for m, c in out.terms.items()}
                errors += checks.check_normal_form(op[1], op[2], nf, i in sample)
            else:
                errors += checks.check_nilpotency(op[1], op[2], out)
        return errors


# -- expand -------------------------------------------------------------------


class Expand:
    """`cli.run(["expand", poly, "--ell", "6", "--json"])` in process.  Per
    round: 8 seeded random polynomials (3 terms of degree 1-4 in z1..z6) and
    2 Monk products S_{s_r} * S_w, shuffled.  The Monk pairs (r, w) come
    from one fixed pseudo-random order of all 5 * 720 of them, the same for
    every seed: their cost ranges from 4 ms to 300 ms, and drawing them per
    seed moved ops_per_s by 9% between seeds.  With 80% small queries the
    median lies inside the small class and the tail inside the Monk class."""

    ELL = 6
    SMALL_PER_ROUND = 8
    MONK_PER_ROUND = 2
    SYMPY_SAMPLE = 8

    nominal_round_s = 0.22

    def monk_pairs(self) -> list:
        pairs = [(r, w) for w in sorted(checks.schubert_polys(self.ELL)) for r in range(1, self.ELL)]
        random.Random("monk").shuffle(pairs)
        return pairs

    def make_ops(self, rng: random.Random, rounds: int) -> list:
        table = checks.schubert_polys(self.ELL)
        pairs = self.monk_pairs()
        ops = []
        for k in range(rounds):
            batch = [
                ("small", _random_poly(rng, self.ELL, 3, 4)) for _ in range(self.SMALL_PER_ROUND)
            ]
            for j in range(k * self.MONK_PER_ROUND, (k + 1) * self.MONK_PER_ROUND):
                r, w = pairs[j % len(pairs)]
                s_r = table[checks.simple_reflection(r, self.ELL)]
                batch.append(("monk", checks.pmul(s_r, table[w]), r, w))
            rng.shuffle(batch)
            ops.extend(batch)
        return ops

    def to_inputs(self, jf, ops) -> list:
        return [
            ["expand", checks.format_text(op[1]), "--ell", str(self.ELL), "--json"] for op in ops
        ]

    def warm_up(self, jf) -> None:
        self.execute(jf, ["expand", "z1", "--ell", str(self.ELL), "--json"])

    def execute(self, jf, argv):
        result, _ = jf.cli.run(argv)
        if result.status != "ok":
            raise OpFailed("%s: %s" % (result.payload["code"], result.payload["message"]))
        return result.payload

    def check(self, jf, ops, outputs, rng) -> list[str]:
        errors = []
        small = [i for i, op in enumerate(ops) if op[0] == "small"]
        monk = [i for i, op in enumerate(ops) if op[0] == "monk"]
        sample = set(rng.sample(small, min(self.SYMPY_SAMPLE, len(small))))
        sample.update(rng.sample(monk, min(2, len(monk))))
        for i, (op, payload) in enumerate(zip(ops, outputs)):
            coeffs = checks.parse_coefficients(payload)
            if op[0] == "monk":
                errors += checks.check_monk(op[2], op[3], coeffs)
            if i in sample:
                errors += checks.check_expansion(op[1], self.ELL, coeffs)
        return errors


WORKLOADS = {"oracle": Oracle, "quotient": Quotient, "expand": Expand}

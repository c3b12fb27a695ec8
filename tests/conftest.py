import random
from fractions import Fraction

from hypothesis import settings

from jetform import Composition, Ring, sym_lambda_average

# Property tests draw the same examples on every run, so tier-1 stays
# repeatable; no deadline, since shared machines vary in speed.
settings.register_profile("jetform", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("jetform")


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_poly(ring: Ring, rng: random.Random, max_deg=3, terms=4, coeff_bound=5):
    """A random sparse polynomial with small rational coefficients."""
    out = {}
    for _ in range(terms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        key = ring.monomial(exps)
        out[key] = out.get(key, Fraction(0)) + Fraction(num, den)
    return ring.from_terms(out)


def random_nonzero_poly(ring, rng, **kw):
    for _ in range(50):
        p = random_poly(ring, rng, **kw)
        if not p.is_zero():
            return p
    raise AssertionError("could not generate a nonzero polynomial")


def random_lambda_symmetric(lam: Composition, ring, rng, max_deg=4, terms=4):
    """Random polynomial invariant within the blocks of lam (possibly zero)."""
    return sym_lambda_average(random_poly(ring, rng, max_deg=max_deg, terms=terms), lam)


def positive_compositions(total: int) -> list[tuple[int, ...]]:
    """All compositions of `total` into positive parts."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in positive_compositions(total - first):
            out.append((first,) + rest)
    return out


def exponent_vectors(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, descending lex."""
    if nvars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in exponent_vectors(nvars - 1, degree - e)
    ]

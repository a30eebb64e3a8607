"""Random vectors, multi-indices and elements for the tests, drawn from the
``random.Random`` the caller passes in."""

from __future__ import annotations

from fractions import Fraction

from guttstar.sym import SymElement


def random_vector(L, rng, span=4):
    return tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(L.dim)
    )


def random_nonzero_vector(L, rng, span=4):
    while True:
        v = random_vector(L, rng, span)
        if any(v):
            return v


def random_monomial(L, rng, max_degree):
    alpha = [0] * L.dim
    for _ in range(rng.randint(0, max_degree)):
        alpha[rng.randrange(L.dim)] += 1
    return tuple(alpha)


def random_element(L, rng, max_degree, terms=3):
    data = {}
    for _ in range(terms):
        alpha = random_monomial(L, rng, max_degree)
        num = rng.randint(-9, 9) or 1
        data[alpha] = data.get(alpha, 0) + Fraction(num, rng.randint(1, 9))
    return SymElement(L, data)

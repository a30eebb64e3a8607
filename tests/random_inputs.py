"""Random vectors, multi-indices and elements for the tests, drawn from the
``random.Random`` the caller passes in, and the hypothesis strategies for
random algebras."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from guttstar.liealg import make_algebra, validate
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


@st.composite
def nilpotent_algebras(draw, constants, non_integral=False):
    """Strictly upper-triangular brackets [e_i, e_j] in span(e_k : k > j) of
    dimension 3-5, each structure constant drawn from the list constants
    (with non_integral, at least one of them not an integer), kept only when
    they satisfy the Jacobi identity."""
    dim = draw(st.integers(3, 5))
    constant = st.sampled_from(constants)
    brackets = {
        (i, j): {k: draw(constant) for k in range(j + 1, dim)}
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    if non_integral:
        assume(any(Fraction(c).denominator > 1 for row in brackets.values() for c in row.values()))
    L = make_algebra(dim, tuple(f"e{i}" for i in range(dim)), brackets)
    assume(validate(L))
    return L


@st.composite
def rescaled_sl2(draw):
    """sl2 on the basis aH, bE, cF: [H', E'] = 2a E', [H', F'] = -2a F',
    [E', F'] = (bc/a) H'."""
    scales = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    a, b, c = (draw(scales) for _ in range(3))
    return make_algebra(
        3, ("H", "E", "F"), {(0, 1): {1: 2 * a}, (0, 2): {2: -2 * a}, (1, 2): {0: b * c / a}}
    )

"""Weyl-superalgebra arithmetic against an independent rewriting oracle.

The oracle works on raw words in t, t^-1, d/dt, theta, dtheta and
normal-orders them with the defining relations only (no Euler-operator
shortcut), then converts t^a (d/dt)^l to the t^k D^j basis through the
falling-factorial identity  t^a (d/dt)^l = t^(a-l) D(D-1)...(D-l+1).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermod.scalars import Scalar, scalar
from supermod.weyl import (
    CF_DTHETA,
    CF_N,
    CF_ONE,
    CF_THETA,
    SDElement,
    SuperLaurent,
)

b = Scalar.parameter("b")

# letters: t, i = t^-1, p = d/dt, h = theta, e = dtheta
_RULES = {
    ("p", "t"): ((1, ("t", "p")), (1, ())),
    ("p", "i"): ((1, ("i", "p")), (-1, ("i", "i"))),
    ("t", "i"): ((1, ()),),
    ("i", "t"): ((1, ()),),
    ("h", "h"): (),
    ("e", "e"): (),
    ("e", "h"): ((1, ()), (-1, ("h", "e"))),
    ("h", "t"): ((1, ("t", "h")),),
    ("h", "i"): ((1, ("i", "h")),),
    ("h", "p"): ((1, ("p", "h")),),
    ("e", "t"): ((1, ("t", "e")),),
    ("e", "i"): ((1, ("i", "e")),),
    ("e", "p"): ((1, ("p", "e")),),
}


def _normalize(words):
    out = {}
    stack = list(words.items())
    while stack:
        word, coeff = stack.pop()
        for idx in range(len(word) - 1):
            rule = _RULES.get(word[idx:idx + 2])
            if rule is not None:
                for sign, repl in rule:
                    stack.append((word[:idx] + repl + word[idx + 2:], coeff * sign))
                break
        else:
            out[word] = out.get(word, 0) + coeff
    return {w: c for w, c in out.items() if c}


def _falling_factorial(l):
    coeffs = [1]
    for r in range(l):
        new = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            new[j + 1] += c
            new[j] -= r * c
        coeffs = new
    return coeffs


def _letters(word):
    k, l, c = word
    t_part = ("t",) * k if k >= 0 else ("i",) * (-k)
    cf_part = {CF_ONE: (), CF_N: ("h", "e"), CF_THETA: ("h",), CF_DTHETA: ("e",)}[c]
    return t_part + ("t", "p") * l + cf_part


def _to_sd(normalized):
    out = SDElement()
    for word, coeff in normalized.items():
        a = word.count("t") - word.count("i")
        l = word.count("p")
        th, dth = "h" in word, "e" in word
        cf = CF_N if th and dth else CF_THETA if th else CF_DTHETA if dth else CF_ONE
        for j, c in enumerate(_falling_factorial(l)):
            if c:
                out = out + SDElement.word(a - l, j, cf, Fraction(c * coeff))
    return out


def oracle_mul(x, y):
    acc = SDElement()
    for wx, cx in x.items():
        for wy, cy in y.items():
            words = _normalize({_letters(wx) + _letters(wy): 1})
            acc = acc + _to_sd(words).scale(cx * cy)
    return acc


def test_oracle_sanity():
    # D = t d/dt converts back to itself
    assert _to_sd(_normalize({("t", "p"): 1})) == SDElement.word(0, 1)
    # (d/dt)^2 = t^-2 D(D-1)
    assert _to_sd(_normalize({("p", "p"): 1})) == (
        SDElement.word(-2, 2) - SDElement.word(-2, 1))


def test_product_examples():
    tD = SDElement.word(1, 1)
    assert tD * tD == SDElement.word(2, 2) + SDElement.word(2, 1)
    D = SDElement.word(0, 1)
    t3 = SDElement.word(3, 0)
    assert D * t3 - t3 * D == t3.scale(3)
    assert oracle_mul(tD, tD) == tD * tD


def test_clifford_table_against_oracle():
    for c1 in range(4):
        for c2 in range(4):
            x, y = SDElement.word(0, 0, c1), SDElement.word(0, 0, c2)
            assert x * y == oracle_mul(x, y), (c1, c2)


def test_supercommutators():
    theta = SDElement.word(0, 0, CF_THETA)
    dtheta = SDElement.word(0, 0, CF_DTHETA)
    assert theta.supercommutator(dtheta) == SDElement.one()
    # [t dtheta, t theta D] = t^2 D + t^2 theta dtheta
    x = SDElement.word(1, 0, CF_DTHETA)
    y = SDElement.word(1, 1, CF_THETA)
    assert x.supercommutator(y) == SDElement.word(2, 1) + SDElement.word(2, 0, CF_N)
    with pytest.raises(ValueError):
        (theta + SDElement.one()).supercommutator(theta)


def test_parity():
    assert SDElement.word(2, 1).parity() == 0
    assert SDElement.word(0, 0, CF_N).parity() == 0
    assert SDElement.word(0, 0, CF_THETA).parity() == 1
    assert (SDElement.word(0, 0, CF_THETA) + SDElement.one()).parity() is None
    assert SDElement().parity() is None


def test_apply():
    f = SuperLaurent.monomial(2)  # t^2
    D = SDElement.word(0, 1)
    assert D.apply(f) == SuperLaurent.monomial(2, 0, 2)
    theta = SDElement.word(0, 0, CF_THETA)
    assert theta.apply(f) == SuperLaurent.monomial(2, 1)
    assert theta.apply(theta.apply(f)).is_zero
    N = SDElement.word(0, 0, CF_N)
    assert N.apply(f).is_zero
    assert N.apply(SuperLaurent.monomial(2, 1)) == SuperLaurent.monomial(2, 1)
    # D kills t^0 but not t^0*theta coefficients times zero
    assert D.apply(SuperLaurent.monomial(0)).is_zero


_words = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)


@st.composite
def sd_elements(draw, max_terms=3):
    out = SDElement()
    for _ in range(draw(st.integers(min_value=1, max_value=max_terms))):
        k, l, c = draw(_words)
        coeff = draw(st.integers(min_value=-3, max_value=3))
        if draw(st.booleans()):
            out = out + SDElement.word(k, l, c, coeff)
        else:
            out = out + SDElement.word(k, l, c, b * coeff)
    return out


@settings(max_examples=40, deadline=None)
@given(sd_elements(max_terms=2), sd_elements(max_terms=2))
def test_mul_matches_oracle(x, y):
    assert x * y == oracle_mul(x, y)


@settings(max_examples=30, deadline=None)
@given(sd_elements(), sd_elements(), sd_elements())
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(sd_elements(), sd_elements(),
       st.integers(min_value=-4, max_value=4),
       st.sampled_from([0, 1]))
def test_representation_property(x, y, n, th):
    f = SuperLaurent.monomial(n, th)
    assert (x * y).apply(f) == x.apply(y.apply(f))


def test_generator_products():
    t, D = SDElement.word(1, 0), SDElement.word(0, 1)
    theta, dtheta = SDElement.word(0, 0, CF_THETA), SDElement.word(0, 0, CF_DTHETA)
    assert t * D == SDElement.word(1, 1)
    assert D * t == SDElement.word(1, 1) + SDElement.word(1, 0)
    assert (theta * theta).is_zero
    assert theta * dtheta == SDElement.word(0, 0, CF_N)
    assert dtheta * theta == SDElement.one() - theta * dtheta
    assert SDElement.word(-1, 0) * SDElement.word(-1, 0) == SDElement.word(-2, 0)
    assert SDElement.word(3, 0) * (theta * D + theta * (2 * b)) * -2 == (
        SDElement.word(3, 1, CF_THETA, -2) + SDElement.word(3, 0, CF_THETA, -4 * b))


def test_render_pins_each_word_shape():
    # the hom-sigma-b violation reports print operators through render
    w = SDElement.word
    assert str(w(3, 1, CF_THETA, -2) + w(3, 0, CF_THETA, -4 * b)) == (
        "-4*b*t^3*theta - 2*t^3*D*theta")
    assert str(w(-2, 0) + w(0, 2) + w(1, 0, CF_DTHETA, Fraction(1, 2))) == (
        "t^-2 + D^2 + 1/2*t*dtheta")
    assert str(w(0, 0, CF_ONE, Fraction(-1, 3)) - w(0, 0, CF_N)) == (
        "-1/3 - theta*dtheta")
    assert str(w(-1, 1, CF_N, 1 + b)) == "(b + 1)*t^-1*D*theta*dtheta"
    assert str(SDElement()) == "0"
    # they name Laurent superfunctions through SuperLaurent.render
    f = SuperLaurent.monomial
    assert [str(f(0)), str(f(1)), str(f(-2, 1)), str(f(0, 1, 2))] == [
        "1", "t", "t^-2*theta", "2*theta"]

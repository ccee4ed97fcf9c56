import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from supermod.dmodules import LaurentModule, ModuleVector, OmegaModule
from supermod import scalars as kernel
from supermod.liealg import Generator, LieVector
from supermod.scalars import (
    ONE,
    ZERO,
    LinComb,
    Scalar,
    ScalarDivisionError,
    ScalarError,
    ScalarParseError,
    SingularSpecializationError,
    scalar,
)

a = Scalar.parameter("a")
b = Scalar.parameter("b")
alpha = Scalar.parameter("alpha")


def test_rational_arithmetic():
    assert scalar(Fraction(1, 2)) + scalar(Fraction(1, 3)) == Fraction(5, 6)
    assert scalar(2) * scalar(3) == 6
    assert scalar(7) / scalar(2) == Fraction(7, 2)
    assert (scalar(5) - scalar(5)).is_zero


def test_parameter_arithmetic():
    prod = b * (1 - 2 * b)
    assert prod == b - 2 * b * b
    assert prod - prod == 0
    assert b / b == 1
    assert (1 - 2 * b) / (2 - 4 * b) == Fraction(1, 2)


def test_division_by_zero_scalar():
    for divide in (lambda: ONE / ZERO, lambda: ONE / (b - b), lambda: 1 / (b - b)):
        with pytest.raises(ScalarDivisionError, match="division by zero scalar"):
            divide()
    with pytest.raises(ScalarDivisionError, match="negative power"):
        ZERO ** -1


def test_specialize():
    x = (alpha + b) * (alpha - b)
    assert x.specialize({"alpha": Fraction(1, 3)}) == Fraction(1, 9) - b * b
    assert x.specialize({"alpha": 1, "b": 2}) == -3
    # names the value does not involve are ignored
    assert b.specialize({"alpha": 5}) == b


def test_specialize_singular():
    x = ONE / (b * (1 - 2 * b))
    with pytest.raises(SingularSpecializationError):
        x.specialize({"b": Fraction(1, 2)})
    with pytest.raises(SingularSpecializationError):
        x.specialize({"b": 0})
    assert x.specialize({"b": 1}) == -1


def test_specialize_uses_reduced_form():
    # (b*a)/b has a removable factor of b; specializing b=0 must succeed
    x = (b * a) / b
    assert x.specialize({"b": 0}) == a


def test_powers():
    assert b ** 0 == 1
    assert b ** 3 == b * b * b
    assert b ** -2 * b ** 2 == 1
    assert ZERO ** 0 == 1


def test_render_canonical_forms():
    assert str(ZERO) == "0"
    assert str(scalar(Fraction(5, 6))) == "5/6"
    assert str(-(a + b)) == "-(a + b)"
    assert str((1 - 2 * b) / 3) == "(-2*b + 1)/3"
    assert str(ONE / (b * (1 - 2 * b))) == "-1/(2*b^2 - b)"
    assert str(b - 2 * b * b) == "-2*b^2 + b"
    assert str(-b) == "-b"
    assert str(a / b ** 2) == "a/b^2"
    assert str(a / (2 * b)) == "a/(2*b)"
    assert str((a * b) ** -1) == "1/(a*b)"


def test_equal_values_render_equal():
    x = (alpha + 1) / (1 - 2 * b)
    y = (-alpha - 1) / (2 * b - 1)
    assert x == y
    assert str(x) == str(y)
    assert hash(x) == hash(y)


def test_parse():
    assert Scalar.parse("5/6") == Fraction(5, 6)
    assert Scalar.parse("-(a + b)") == -(a + b)
    assert Scalar.parse("(-2*b + 1)/3") == (1 - 2 * b) / 3
    assert Scalar.parse("b^-1") == ONE / b
    assert Scalar.parse("2^3") == 8
    assert Scalar.parse("-b^2") == -(b * b)
    assert Scalar.parse("1 - 2*b") == 1 - 2 * b


def test_parse_errors():
    for bad in ["", "b +", "(a", "a ^ b", "1..2", "a $ b", "theta"]:
        with pytest.raises((ScalarParseError, ScalarDivisionError)):
            Scalar.parse(bad)
    # the parser names the text it was given, not just the failed division
    with pytest.raises(ScalarDivisionError,
                       match=re.escape("division by zero in '1/(b - b)'")):
        Scalar.parse("1/(b - b)")


def test_reserved_parameter_names():
    for name in ("t", "D", "theta", "dtheta"):
        with pytest.raises(ScalarParseError):
            Scalar.parameter(name)


def test_rational_hashes_match_int_and_fraction():
    assert hash(scalar(1)) == hash(1)
    assert hash(scalar(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert hash(b / b) == hash(1)
    assert {1: "x"}.get(scalar(1)) == "x"
    assert {Fraction(1, 2): "y"}.get(scalar(2) ** -1) == "y"


def test_parameters_visible():
    assert (alpha + b).parameters == ("alpha", "b")
    assert (b - b).parameters == ()
    assert scalar(3).is_rational
    assert (alpha / alpha).as_fraction() == 1
    with pytest.raises(Exception):
        (alpha + 1).as_fraction()


# ----------------------------------------------------------------------
# randomized field-axiom checks

_params = st.sampled_from([a, b, alpha])
_ints = st.integers(min_value=-4, max_value=4)
# fractional leaves put rational content into the denominators, so sums
# and products meet constant denominators other than 1
_leaves = st.one_of(_ints, st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def scalars(draw, depth=2):
    if depth == 0:
        if draw(st.booleans()):
            return draw(_params)
        return scalar(draw(_leaves))
    left = draw(scalars(depth=depth - 1))
    right = draw(scalars(depth=depth - 1))
    op = draw(st.sampled_from(["+", "-", "*"]))
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    assert x - y == x + (-y)
    if not y.is_zero:
        assert (x / y) * y == x


def _sympy(value) -> sympy.Expr:
    """An independent reading of a render (or an int/Fraction) in sympy."""
    return sympy.sympify(str(value).replace("^", "**"))


def _same(text_or_value, expr) -> bool:
    return sympy.cancel(_sympy(text_or_value) - expr) == 0


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), _ints, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_derived_operations_match_sympy(x, y, k, q):
    # -, / and == are derived from +, * and is_zero: check them against
    # sympy's own arithmetic on the renders, which shares none of that code
    sx, sy = _sympy(x), _sympy(y)
    assert _same(x - y, sx - sy)
    assert _same(k - x, k - sx) and _same(q - x, _sympy(q) - sx)
    assert (x == y) == (sympy.cancel(sx - sy) == 0)
    assert (x != y) == (sympy.cancel(sx - sy) != 0)
    assert (x == k) == (k == x) == (sympy.cancel(sx - k) == 0)
    if y.is_zero:
        with pytest.raises(ScalarDivisionError, match="division by zero scalar"):
            x / y
    else:
        assert _same(x / y, sx / sy)
    if not x.is_zero:
        assert _same(1 / x, 1 / sx) and _same(q / x, _sympy(q) / sx)
    assert (scalar(1) == "1") is False and (scalar(1) != "1") is True


_points = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), _points, _points)
def test_sums_products_and_specialization_match_sympy(x, y, p, q):
    # + and * do integer-polynomial arithmetic with the rational content in
    # the denominators: check them, and specialization at non-integer
    # points, against sympy on the renders
    sx, sy = _sympy(x), _sympy(y)
    assert _same(x + y, sx + sy) and _same(x * y, sx * sy)
    point = {"a": p, "b": q}
    subs = {sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
            for n, v in point.items()}
    num, den = sympy.fraction(sympy.cancel(sx))
    if den.subs(subs) == 0:
        with pytest.raises(SingularSpecializationError):
            x.specialize(point)
    else:
        assert _same(x.specialize(point), num.subs(subs) / den.subs(subs))


def _assert_int_coefficients(*polys):
    for poly in polys:
        assert all(type(c) is int and c for c in poly.values())


def _assert_canonical_over_zz(x):
    _, num, den = x._canonical()
    _assert_int_coefficients(num, den)
    assert math.gcd(*num.values(), *den.values()) == 1 and den[max(den)] > 0


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_canonical_form_is_primitive_over_zz(x, y):
    for value in (x, x + y, x * y, -x, (x / y if not y.is_zero else x)):
        if not _is_plain(value):
            _assert_int_coefficients(value._n, value._d)
        _assert_canonical_over_zz(value)
    partial = ((a - b) / 4).specialize({"a": Fraction(1, 3)})
    assert str(partial) == "(-3*b + 1)/12"
    _assert_canonical_over_zz(partial)


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_render_parse_roundtrip(x):
    assert Scalar.parse(str(x)) == x


@settings(max_examples=40, deadline=None)
@given(scalars(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_specialize_commutes_with_addition(x, q):
    y = x + Fraction(1, 2)
    assert y.specialize({"a": q, "b": q, "alpha": q}) == x.specialize(
        {"a": q, "b": q, "alpha": q}) + Fraction(1, 2)


# ----------------------------------------------------------------------
# the shared linear-combination core

@st.composite
def combinations(draw):
    keys = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=4))
    return LinComb({k: draw(scalars(depth=1)) for k in keys})


@settings(max_examples=60, deadline=None)
@given(combinations(), combinations(), scalars(depth=1))
def test_in_place_accumulation_matches_out_of_place(x, y, f):
    expected = x + y.scale(f)
    scaled = LinComb(dict(x.items())).add_scaled(y, f)
    termwise = LinComb(dict(x.items()))
    for key, coeff in y.items():
        termwise.add_term(key, coeff * f)
    for got in (scaled, termwise, expected, x - y, -x):
        assert not any(c.is_zero for _, c in got.items())
    assert scaled == expected and termwise == expected
    assert hash(scaled) == hash(expected) == hash(termwise)
    assert x + y - y == x and hash(x + y - y) == hash(x)


def test_container_key_checks_still_raise():
    with pytest.raises(ValueError, match="sector mismatch"):
        LieVector.basis(Generator("L", 0), 0) + LieVector.basis(Generator("L", 0), 1)
    laurent = ModuleVector.single(LaurentModule("a").token(0))
    omega = ModuleVector.single(OmegaModule(2).token(0))
    with pytest.raises(ValueError, match="mixed families"):
        laurent + omega
    with pytest.raises(ValueError, match="mixed families"):
        laurent - omega
    with pytest.raises(ValueError, match="mixed families"):
        ModuleVector({**dict(laurent.items()), **dict(omega.items())})


# ----------------------------------------------------------------------
# the parameter-free representation

_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_exponents = st.integers(min_value=-4, max_value=4)
_fixed = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _is_plain(x: Scalar) -> bool:
    """Whether x is held as an int pair rather than a polynomial pair."""
    return x._p is not None


def _as_polynomial(q: Fraction) -> Scalar:
    """The rational q in the polynomial form: a symbolic value that cancels."""
    return (a + q) - a


_pair_values = st.one_of(st.integers(min_value=-30, max_value=30).map(Fraction),
                         _rationals)


def _assert_pair(got: Scalar, want: Fraction) -> None:
    """got holds want as ints p/r, coprime with r > 0, and acts like it."""
    assert _is_plain(got)
    p, r = got._p, got._r
    assert type(p) is int and type(r) is int
    assert r > 0 and math.gcd(p, r) == 1 and Fraction(p, r) == want
    assert got == want and want == got
    assert (got == want.numerator) == (want.denominator == 1)
    assert hash(got) == hash(want) and got.render() == str(want)


@_fixed
@given(_pair_values, _pair_values, _exponents)
def test_rational_arithmetic_matches_fraction(p, q, k):
    x, y = scalar(p), scalar(q)
    cases = [(x + y, p + q), (x - y, p - q), (x * y, p * q), (-x, -p),
             (x + q, p + q), (q - x, q - p), (q * x, q * p), (x ** 0, 1)]
    if q:
        cases += [(x / y, p / q), (p / y, p / q), (y ** -1, 1 / q)]
    if p or k >= 0:
        cases += [(x ** k, p ** k), ((-x) ** k, (-p) ** k)]
    for got, want in cases:
        _assert_pair(got, Fraction(want))
    # a unit factor (p == r) hands back the other operand itself
    assert ONE * x is x
    if p not in (0, 1):
        assert x * ONE is x


def test_int_pair_sign_and_reduction_edges():
    _assert_pair(scalar(-2) ** -1, Fraction(-1, 2))
    _assert_pair(scalar(Fraction(-2, 3)) ** -3, Fraction(-27, 8))
    _assert_pair(scalar(Fraction(2, 3)) * Fraction(9, 4), Fraction(3, 2))
    _assert_pair(scalar(Fraction(1, 6)) + Fraction(1, 3), Fraction(1, 2))
    _assert_pair(scalar(Fraction(1, 2)) + Fraction(-1, 2), Fraction(0))
    _assert_pair(scalar(Fraction(-3, 4)) * 0, Fraction(0))


@_fixed
@given(_rationals, _rationals)
def test_rational_equality_and_hash_match_fraction_and_int(p, q):
    x, y = scalar(p), scalar(q)
    assert (x == y) == (p == q)
    assert x == p and hash(x) == hash(p)
    n = p.numerator
    assert scalar(n) == n and hash(scalar(n)) == hash(n)
    assert (x == n) == (p == n)
    assert {p: "v"}.get(x) == "v"


@_fixed
@given(_rationals)
def test_rational_render_parse_roundtrip(p):
    x = Scalar.parse(scalar(p).render())
    assert _is_plain(x)
    assert x == p and x.render() == str(p)


@_fixed
@given(_rationals, scalars())
def test_rational_with_symbolic_matches_parsed_and_polynomial_forms(q, s):
    r, slow = scalar(q), _as_polynomial(q)
    cases = [
        (r * s, s * r, slow * s, f"({q})*({s})"),
        (r + s, s + r, slow + s, f"({q}) + ({s})"),
        (r - s, -(s - r), slow - s, f"({q}) - ({s})"),
    ]
    if q:
        cases.append((s / r, s * (1 / r), s / slow, f"({s})/({q})"))
    if not s.is_zero:
        cases.append((r / s, r * (1 / s), slow / s, f"({q})/({s})"))
    for fast, swapped, full, text in cases:
        parsed = Scalar.parse(text)
        for got in (fast, swapped):
            assert got == full and got == parsed
            assert str(got) == str(full) and hash(got) == hash(full)


@_fixed
@given(_rationals.filter(bool))
def test_cancelled_symbolic_equals_plain_rational(q):
    r = scalar(q)
    for cancelled in (a * q / a, _as_polynomial(q), (q * b + q) * a / (a * b + a)):
        assert not _is_plain(cancelled)
        assert cancelled == r and r == cancelled and cancelled == q
        assert hash(cancelled) == hash(r) == hash(q)
        assert str(cancelled) == str(r) and cancelled.as_fraction() == q
        assert cancelled.parameters == () and cancelled.is_rational
        assert cancelled.as_integer_ratio() == q.as_integer_ratio()
    assert r.as_integer_ratio() == q.as_integer_ratio()
    assert a / a == ONE and hash(a / a) == hash(ONE)
    with pytest.raises(ScalarError):
        (a + q).as_integer_ratio()


@_fixed
@given(scalars())
def test_unit_and_zero_shortcuts_match_full_products(s):
    one, zero = _as_polynomial(Fraction(1)), b - b
    for got in (s * ONE, ONE * s, s * 1, 1 * s, s / ONE):
        assert got == s * one and str(got) == str(s * one)
        assert hash(got) == hash(s * one)
    for got in (s * ZERO, ZERO * s, s * 0):
        assert got.is_zero and got == s * zero and hash(got) == hash(ZERO)
    assert s + ZERO == s and ZERO + s == s and s - ZERO == s


@_fixed
@given(scalars(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_full_specialization_gives_plain_rational(x, q):
    y = x.specialize({"a": q, "b": q, "alpha": q})
    assert _is_plain(y)
    assert y == Scalar.parse(str(y))


def test_plain_rational_builds_ground_polynomials_on_demand():
    x = scalar(Fraction(-3, 4))
    assert x._num == {(): -3} and x._den == {(): 4}
    assert ZERO._num == {} and ZERO._den == {(): 1}
    _assert_int_coefficients(x._num, x._den)
    # reading the pair leaves the value parameter-free
    assert x._n is None and x == Fraction(-3, 4)


def test_reading_a_rational_pair_leaves_sympy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import sys\nfrom fractions import Fraction\n"
              "from supermod.scalars import scalar\n"
              "x = scalar(Fraction(-3, 4))\n"
              "print(x._num, x._den, 'sympy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "{(): -3} {(): 4} False"


# ----------------------------------------------------------------------
# the sparse polynomial kernel against sympy's rings, as an oracle only


def _oracle_ring(names: tuple[str, ...]):
    # sympy returns (ring,) for no names and (ring, *gens) otherwise
    return ring(",".join(names), ZZ, lex)[0]


def _from_oracle(poly) -> dict:
    return {mon: int(c) for mon, c in poly.items()}


@st.composite
def poly_triples(draw):
    """Three polynomials over one name tuple of 0-3 names; the small
    exponents and coefficients make sums and products cancel often."""
    names = ("a", "b", "c")[:draw(st.integers(min_value=0, max_value=3))]
    mons = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(names))
    coeffs = st.integers(min_value=-2, max_value=2).filter(bool)
    polys = st.dictionaries(mons, coeffs, max_size=4)
    return names, draw(polys), draw(polys), draw(polys)


@_fixed
@given(poly_triples(), st.integers(min_value=1, max_value=5))
def test_kernel_matches_sympy_rings(triple, k):
    names, a, b, c = triple
    R = _oracle_ring(names)
    pa, pb, pc = R.from_dict(a), R.from_dict(b), R.from_dict(c)
    before = (dict(a), dict(b), dict(c))
    pairs = [
        (kernel._padd(a, b), pa + pb),
        (kernel._padd(a, kernel._pneg(a)), R.zero),
        (kernel._pmul(a, b), pa * pb),
        (kernel._pmul(kernel._padd(a, c), kernel._padd(a, kernel._pneg(c))),
         pa * pa - pc * pc),
        (kernel._pneg(a), -pa),
        (kernel._ppow(a, k), pa ** k),
        (kernel._lift(a, names, ("A", *names, "z")),
         pa.set_ring(_oracle_ring(("A", *names, "z")))),
    ]
    if a and b and c:
        # a shared factor c: the canonical form must divide it out
        num, den = _from_oracle(pa * pc), _from_oracle(pb * pc)
        pairs += zip(kernel._cancel(num, den, names), (pa * pc).cancel(pb * pc))
    for got, want in pairs:
        _assert_int_coefficients(got)
        assert got == _from_oracle(want)
    assert (a, b, c) == before


@st.composite
def monomial_sided_pairs(draw):
    """num, den over 1-3 names, one of them a single term: a monomial
    times a constant, with a planted common monomial factor or not."""
    names = ("a", "b", "c")[:draw(st.integers(min_value=1, max_value=3))]
    mons = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(names))
    coeffs = st.integers(min_value=-6, max_value=6).filter(bool)
    poly = draw(st.dictionaries(mons, coeffs, min_size=1, max_size=4))
    single = {draw(mons): draw(coeffs)}
    if draw(st.booleans()):
        shift = {draw(mons): draw(st.sampled_from([1, 2, -3]))}
        poly, single = kernel._pmul(poly, shift), kernel._pmul(single, shift)
    return (names, poly, single) if draw(st.booleans()) else (names, single, poly)


@_fixed
@given(monomial_sided_pairs())
def test_monomial_side_gcd_matches_sympy_cofactors(pair):
    names, num, den = pair
    R = _oracle_ring(names)
    _, pn, pd = R.from_dict(num).cofactors(R.from_dict(den))
    want = _from_oracle(pn), _from_oracle(pd)
    content = math.gcd(*want[0].values(), *want[1].values())
    content *= -1 if want[1][max(want[1])] < 0 else 1
    want = tuple({mon: c // content for mon, c in side.items()} for side in want)
    before = dict(num), dict(den)

    def no_ring(names):
        raise AssertionError("a monomial side needs no polynomial gcd")

    real, kernel._get_ring = kernel._get_ring, no_ring
    try:
        got = kernel._cancel(num, den, names)
    finally:
        kernel._get_ring = real
    assert got == want and (num, den) == before


@_fixed
@given(poly_triples(), st.integers(min_value=-3, max_value=3).filter(bool), st.data())
def test_exact_quotient_divides_a_product_and_rejects_a_perturbed_one(triple, c, data):
    names, a, b, _ = triple
    if not b:
        return
    before = dict(a), dict(b)
    product = kernel._pmul(a, b)
    assert kernel._pexquo(product, b) == a
    if len(b) > 1:
        # a non-monomial b divides no single term, so not a*b + c x^m
        mon = data.draw(st.tuples(*[st.integers(min_value=0, max_value=4)] * len(names)))
        bumped = kernel._padd(product, {mon: c})
        assert kernel._pexquo(bumped, b) is None
        assert bumped == kernel._padd(product, {mon: c})
    assert (a, b) == before


def test_kernel_drops_cancelled_terms():
    up, down = {(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}
    assert kernel._pmul(up, down) == {(2,): 1, (0,): -1}
    assert kernel._padd(up, kernel._pneg(up)) == {}
    assert kernel._pmul(up, {}) == {} and kernel._ppow(up, 2) == {
        (2,): 1, (1,): 2, (0,): 1}
    # both sides constant or one side constant: the content gcd alone
    assert kernel._cancel({(0,): 4}, {(0,): -6}, ("b",)) == ({(0,): -2}, {(0,): 3})
    assert kernel._cancel({(1,): 6, (0,): -2}, {(0,): -4}, ("b",)) == (
        {(1,): -3, (0,): 1}, {(0,): 2})


# ----------------------------------------------------------------------
# one ring: re-expressing a value over a wider parameter tuple

RING = ("a", "alpha", "b")


@st.composite
def symbolic_quotients(draw):
    """A symbolic value over RING, with a unit denominator or not."""
    num, den = draw(scalars()), draw(scalars())
    value = num / den if draw(st.booleans()) and not den.is_zero else num
    if _is_plain(value):
        value = value + a
    return value.over(RING)


@_fixed
@given(symbolic_quotients(), symbolic_quotients())
def test_unit_denominator_skip_matches_full_product(x, y):
    R = _oracle_ring(RING)
    full = Scalar(RING, *(_from_oracle(R.from_dict(p) * R.from_dict(q))
                          for p, q in ((x._n, y._n), (x._d, y._d))))
    got = x * y
    assert got._names == RING
    assert got == full and str(got) == str(full) and hash(got) == hash(full)


@_fixed
@given(scalars())
def test_over_keeps_value_render_and_hash(x):
    wide = x.over(RING)
    assert wide == x and str(wide) == str(x) and hash(wide) == hash(x)
    assert wide.parameters == x.parameters
    if _is_plain(x):
        assert wide is x
    else:
        assert wide._names == RING


def test_over_needs_every_parameter_and_lifts_a_cancelled_ring():
    with pytest.raises(ScalarError):
        (a + b).over(("a",))
    # b - b + a lives in QQ[a, b] but depends on a alone
    assert (b - b + a).over(("a", "c"))._names == ("a", "c")
    assert (b - b + a).over(("a", "c")) == a


def test_mixed_ring_values_from_the_parser_stay_correct():
    prod = Scalar.parse("a") * Scalar.parse("b")
    assert prod._names == ("a", "b")
    assert prod == Scalar.parse("a*b") and str(prod) == "a*b"
    assert prod.over(RING) * Scalar.parse("alpha") == Scalar.parse("a*alpha*b")
    assert (Scalar.parse("1/a") * b).over(RING) == Scalar.parse("b/a")


# ----------------------------------------------------------------------
# monomial denominators meet at their lcm

def test_monomial_denominators_meet_at_their_lcm():
    x, y, l = (Scalar.parameter(n) for n in ("x", "y", "l"))
    names = ("l", "x", "y")
    left, right = (x / l ** 2).over(names), (y / (2 * l ** 3)).over(names)
    got = left + right
    assert got._d == {(3, 0, 0): 2}
    crossed = Scalar(names, kernel._padd(kernel._pmul(left._n, right._d),
                                         kernel._pmul(right._n, left._d)),
                     kernel._pmul(left._d, right._d))
    assert crossed._d == {(5, 0, 0): 2}
    assert got == crossed and str(got) == str(crossed) and hash(got) == hash(crossed)
    # a negative coefficient and equal exponents
    odd = Scalar(("l",), {(0,): 1}, {(1,): -3}) + Scalar(("l",), {(0,): 1}, {(1,): 2})
    assert odd._d == {(1,): 6} and odd == Scalar.parse("1/(6*l)")


def test_a_denominator_that_divides_the_other_meets_it_at_the_larger():
    # x/(a+1) + y/(a+1)^2 is over (a+1)^2, not the cross product (a+1)^3
    x, y = Scalar.parameter("x"), Scalar.parameter("y")
    got = x / Scalar.parse("a + 1") + y / Scalar.parse("(a + 1)^2")
    assert got._names == ("a", "x", "y")
    assert got._d == {(2, 0, 0): 1, (1, 0, 0): 2, (0, 0, 0): 1}
    assert got == Scalar.parse("(a*x + x + y)/(a^2 + 2*a + 1)")
    # in either order, and not where neither divides the other
    assert (y / Scalar.parse("(a + 1)^2") + x / Scalar.parse("a + 1"))._d == got._d
    assert len((x / Scalar.parse("a + 1") + y / Scalar.parse("a + 2"))._d) == 3


# ----------------------------------------------------------------------
# Kronecker certificates: one int tests an identity among cleared entries

def _kronecker_zero(entries, words, names, products, linear):
    """Whether sum v e_i e_j - sum u e_k is zero at the kernel's point, each
    entry e_i a list of (q, index of w) pairs read as sum q * words[index]."""
    at_ops, at_words, delta = kernel.kronecker_table(
        {i: dict(enumerate(q for q, _ in entry)) for i, entry in enumerate(entries)},
        {n: {0: w} for n, w in enumerate(words)}, names,
        sum(abs(v) for *_, v in products), sum(abs(u) for _, u in linear))
    e = [sum(at_ops[i][j] * at_words[n][0] for j, (_, n) in enumerate(entry))
         for i, entry in enumerate(entries)]
    return (sum(v * e[i] * e[j] for i, j, v in products)
            - delta * sum(u * e[k] for k, u in linear)) == 0


@st.composite
def kronecker_identities(draw):
    """Entries sum q * w over 0-3 names, factors with unit, constant,
    monomial, shared and non-monomial denominators, and an identity among
    the entries that holds by construction unless a random term is added."""
    names = ("a", "b", "c")[:draw(st.integers(min_value=0, max_value=3))]
    zero = (0,) * len(names)
    mons = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(names))
    coeffs = st.integers(min_value=-5, max_value=5).filter(bool)
    polys = st.dictionaries(mons, coeffs, max_size=4)
    dens = [{zero: 1}, {zero: draw(st.integers(min_value=2, max_value=6))},
            {draw(mons): draw(st.sampled_from([1, -2, 3]))},
            draw(polys.filter(bool))]

    def factor():
        if not names or draw(st.booleans()):
            return scalar(Fraction(draw(coeffs), draw(st.integers(1, 4))))
        return Scalar(names, draw(polys), draw(st.sampled_from(dens)))

    words = [factor() for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    entries = [[(factor(), draw(st.integers(0, len(words) - 1)))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))]
               for _ in range(draw(st.integers(min_value=2, max_value=5)))]
    n = len(entries)
    pick = st.integers(min_value=0, max_value=n - 1)
    weight = st.integers(min_value=-3, max_value=3).filter(bool)
    products, linear = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i, j, v = draw(pick), draw(pick), draw(weight)
        # e_i e_j over Delta^2 is Delta e_k, e_k the product as one q * w
        value = [sum((q * words[m] for q, m in entries[i]), ZERO),
                 sum((q * words[m] for q, m in entries[j]), ZERO)]
        words.append(value[1])
        entries.append([(value[0], len(words) - 1)])
        products.append((i, j, v))
        linear.append((len(entries) - 1, v))
    if draw(st.booleans()):
        products.append((draw(pick), draw(pick), draw(weight)))
    if draw(st.booleans()):
        linear.append((draw(pick), draw(weight)))
    return names, entries, words, products, linear


@st.composite
def kronecker_boundaries(draw):
    """Identities that are nonzero yet vanish at the point of a smaller B,
    the one a weaker bound would pick: a carry (x - 2^B') or a shared power
    of 2^B (x^(2e) - y, y one stride too low).  The drawn sizes move B'."""
    kind = draw(st.sampled_from(["norm", "weight", "stride", "products"]))
    x, a = Scalar.parameter("x"), draw(st.integers(min_value=2, max_value=12))
    if kind == "norm":
        # x - 4M, M = 2^a the largest word norm: B' from M alone is a + 2
        return (("x",), [[(ONE, n)] for n in range(4)], [x, ONE, scalar(-2 ** a), scalar(4)],
                [(0, 1, 1), (2, 3, 1)], [])
    if kind == "weight":
        # the weight in q, words of norm 1, and 2w more products that cancel:
        # a bound on the words' norms alone gives B' from 2 + 2w
        w = draw(st.integers(min_value=0, max_value=40))
        b = (2 + 2 * w).bit_length() + 1
        return (("x",), [[(ONE, 0)], [(ONE, 1)], [(scalar(-2), 1)], [(scalar(2 ** (b - 1)), 1)]],
                [x, ONE], [(0, 1, 1), (2, 3, 1), (1, 1, w), (1, 1, -w)], [])
    if kind == "stride":
        # c x^(2e) - c y: a stride of B (2e) for y, not B (2e + 1), sends
        # x^(2e) and y to one power of 2^B
        e, c, xy = draw(st.integers(1, 3)), draw(st.integers(1, 9)), ("x", "y")
        return (xy, [[(ONE, n)] for n in range(3)],
                [(x ** e).over(xy), Scalar.parameter("y").over(xy), scalar(c)],
                [(0, 0, c), (1, 2, -1)], [])
    # x - 4 M^2, M = 2^a: B' from one product, not five, is 2a + 2
    return (("x",), [[(ONE, n)] for n in range(3)], [x, ONE, scalar(2 ** a)],
            [(0, 1, 1), (2, 2, -4)], [])


@_fixed
@given(st.one_of(kronecker_identities(), kronecker_boundaries()))
def test_kronecker_zero_test_matches_polynomial_arithmetic(identity):
    names, entries, words, products, linear = identity
    # the same identity in QQ(names), through _pmul/_padd
    e = [sum((q * words[n] for q, n in entry), ZERO) for entry in entries]
    total = ZERO
    for i, j, v in products:
        total = total + e[i] * e[j] * v
    for k, u in linear:
        total = total - e[k] * u
    assert _kronecker_zero(entries, words, names, products, linear) == total.is_zero


def test_kronecker_point_keeps_carries_and_monomials_apart():
    x, y = Scalar.parameter("x"), Scalar.parameter("y")
    # x - 4M for M = 2^6, the bound on an entry's norm: at 2^B with
    # 2^(B-1) > M alone, 4M carries into the x digit and the sum vanishes
    assert not _kronecker_zero([[(ONE, n)] for n in range(4)], [x, ONE, scalar(-64), scalar(4)],
                               ("x",), [(0, 1, 1), (2, 3, 1)], [])
    # the same with the weight in q: x - 8 vanishes at x = 8, where B
    # bounds the words' norms alone
    assert not _kronecker_zero([[(ONE, 0)], [(ONE, 1)], [(scalar(-2), 1)], [(scalar(4), 1)]],
                               [x, ONE], ("x",), [(0, 1, 1), (2, 3, 1)], [])
    # x^2 - y: a stride of 2 B instead of 3 B sends x^2 and y to one power
    xy = ("x", "y")
    assert not _kronecker_zero([[(ONE, n)] for n in range(3)], [x.over(xy), y.over(xy), ONE],
                               xy, [(0, 0, 1), (1, 2, -1)], [])
    # 1/2 * 1/2 - 1/4: a product is over Delta^2, a linear term over Delta,
    # and Delta carries the denominators of q and w alike
    half, quarter = scalar(Fraction(1, 2)), scalar(Fraction(1, 4))
    assert _kronecker_zero([[(ONE, 0)], [(ONE, 1)]], [half, quarter], (), [(0, 0, 1)], [(1, 1)])
    assert _kronecker_zero([[(half, 0)], [(quarter, 0)]], [ONE], (), [(0, 0, 1)], [(1, 1)])
    assert _kronecker_zero([[(half, 0)], [(ONE, 1)]], [ONE, quarter], (), [(0, 0, 1)], [(1, 1)])


def test_clear_reads_one_factor_per_rational_value():
    # a rational is indexed by its value, so two objects of 1/2 in one table
    # are cleared and evaluated once; a polynomial is indexed by identity
    x = Scalar.parameter("x")
    half, other = scalar(Fraction(1, 2)), 1 / scalar(2)
    assert half is not other and half == other
    rows, factors, _, delta = kernel._clear({0: {0: half, 1: x}, 1: {0: other, 1: x}}, ("x",))
    assert rows == {0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}}
    assert factors == [({(0,): 1}, factors[0][1]), (x._n, factors[1][1])]
    assert delta == {(0,): 2}


def test_kronecker_delta_takes_each_primitive_part_once():
    l = Scalar.parameter("l")
    table = {0: {0: 1 / (l + 1)}, 1: {0: 1 / (l + 1) ** 3},
             2: {0: 3 / (2 * l * (l + 1) ** 2)}}
    _, values, delta = kernel.kronecker_table({0: {0: ONE}}, table, ("l",), 1, 1)
    # Delta = 2 l (l + 1)^3, not 2 l (l + 1)^6: l + 1 and (l + 1)^2 divide
    # (l + 1)^3, so the entries clear to 2 l (l + 1)^2, 2 l and 3 (l + 1)
    point = values[1][0] // 2
    assert values[0][0] == 2 * point * (point + 1) ** 2
    assert values[2][0] == 3 * (point + 1)
    assert delta == 2 * point * (point + 1) ** 3
    assert kernel._pexquo({(4,): 1, (3,): 3, (2,): 3, (1,): 1}, {(1,): 1, (0,): 1}) == {
        (3,): 1, (2,): 2, (1,): 1}
    assert kernel._pexquo({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}) is None
    assert kernel._pexquo({(0,): 3}, {(0,): 2}) is None

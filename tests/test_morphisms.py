from collections import Counter
from fractions import Fraction

import pytest

from supermod import morphisms
from supermod.liealg import Generator, LieVector, algebra_generators, bracket
from supermod.morphisms import (
    apply_delta,
    apply_sigma_aut,
    apply_sigma_b,
    apply_varpi,
    hom_check,
)
from supermod.scalars import Scalar
from supermod.weyl import CF_DTHETA, CF_N, CF_ONE, CF_THETA, SDElement, SuperLaurent

b = Scalar.parameter("b")


def lv(kind, index2, sector, coeff=1):
    return LieVector.basis(Generator(kind, index2), sector, coeff)


def test_delta_images():
    # L_0 -> L_0 + H_0/2 + C/24, H_0 -> H_0 + C/6, G+_p -> G+_{p+1/2}
    assert apply_delta(lv("L", 0, 1)) == (
        lv("L", 0, 0) + lv("H", 0, 0, Fraction(1, 2)) + lv("C", 0, 0, Fraction(1, 24)))
    assert apply_delta(lv("H", 0, 1)) == lv("H", 0, 0) + lv("C", 0, 0, Fraction(1, 6))
    assert apply_delta(lv("L", 2, 1)) == lv("L", 2, 0) + lv("H", 2, 0, Fraction(1, 2))
    assert apply_delta(lv("G+", 1, 1)) == lv("G+", 2, 0)
    assert apply_delta(lv("G-", 1, 1)) == lv("G-", 0, 0)
    assert apply_delta(lv("C", 0, 1)) == lv("C", 0, 0)
    # inverse direction
    assert apply_delta(lv("L", 0, 0)) == (
        lv("L", 0, 1) - lv("H", 0, 1, Fraction(1, 2)) + lv("C", 0, 1, Fraction(1, 24)))
    assert apply_delta(lv("G+", 2, 0)) == lv("G+", 1, 1)
    # the direction follows the argument's sector
    for x in (lv("L", 0, 1), lv("G-", 1, 1), lv("L", 0, 0), lv("G+", 2, 0)):
        assert apply_delta(x).sector == 1 - x.sector


def test_delta_is_a_homomorphism():
    report = hom_check("delta", 3)
    assert report.passed, report.violations[:3]
    assert report.checked > 0
    assert hom_check("delta-roundtrip", 6).passed


def test_delta_mutation_detected():
    # dropping the C/24 correction on L_0 breaks [L_2, L_-2]
    def mutated(x):
        image = apply_delta(x)
        c24 = x.coefficient(Generator("L", 0)) * Fraction(1, 24)
        return image + lv("C", 0, 0, -c24)

    x, y = lv("L", 4, 1), lv("L", -4, 1)
    assert bracket(mutated(x), mutated(y)) != mutated(bracket(x, y))


def test_varpi_images():
    assert apply_varpi(lv("L", 4, 0)) == (
        SDElement.word(2, 1, CF_ONE, -1) + SDElement.word(2, 0, CF_N, -1))
    assert apply_varpi(lv("L", 0, 0)) == SDElement.word(0, 1, CF_ONE, -1)
    assert apply_varpi(lv("H", -2, 0)) == SDElement.word(-1, 0, CF_N)
    assert apply_varpi(lv("G+", 2, 0)) == SDElement.word(1, 1, CF_THETA, -2)
    assert apply_varpi(lv("G-", 0, 0)) == SDElement.word(0, 0, CF_DTHETA)
    assert apply_varpi(lv("C", 0, 0)).is_zero


def test_varpi_sector_guard():
    with pytest.raises(ValueError):
        apply_varpi(lv("L", 0, 1))


def test_varpi_is_a_homomorphism():
    # the central term of [L_2, L_-2] must die in the Weyl superalgebra
    lhs = apply_varpi(lv("L", 4, 0)).supercommutator(apply_varpi(lv("L", -4, 0)))
    assert lhs == apply_varpi(lv("L", 0, 0, 4))
    report = hom_check("varpi", 3)
    assert report.passed, report.violations[:3]


def test_varpi_mutation_detected():
    # flipping the sign of the D-term in the image of L breaks [L_1, L_-1]
    def mutated(x):
        image = apply_varpi(x)
        for gen, c in x.items():
            if gen.kind == "L":
                image = image + SDElement.word(gen.index2 // 2, 1, CF_ONE, 2 * c)
        return image

    x, y = lv("L", 2, 0), lv("L", -2, 0)
    assert mutated(x).supercommutator(mutated(y)) != mutated(bracket(x, y))


def test_sigma_b_images():
    m = 3
    assert apply_sigma_b(lv("L", 2 * m, 0), b) == (
        SDElement.word(m, 1, CF_ONE, -1)
        + SDElement.word(m, 0, CF_N, Fraction(-m, 2))
        + SDElement.word(m, 0, CF_ONE, b * (-m)))
    assert apply_sigma_b(lv("H", 2 * m, 0), b) == (
        SDElement.word(m, 0, CF_N) + SDElement.word(m, 0, CF_ONE, b * (-2)))
    assert apply_sigma_b(lv("G+", 2 * m, 0), b) == (
        SDElement.word(m, 1, CF_THETA, -2) + SDElement.word(m, 0, CF_THETA, b * (-4 * m)))
    assert apply_sigma_b(lv("G-", 2 * m, 0), b) == SDElement.word(m, 0, CF_DTHETA)
    # multiplication operators
    assert apply_sigma_b(SuperLaurent.monomial(2, 1), b) == SDElement.word(2, 0, CF_THETA)


def test_sigma_b_is_a_homomorphism():
    report = hom_check("sigma-b", 2)
    assert report.passed, report.violations[:3]
    assert report.details["b"] == "b"
    # and at a rational value of b
    report = hom_check("sigma-b", 2, b=Scalar.parse("1/3"))
    assert report.passed


def test_sigma_b_mixed_bracket_example():
    # [sigma_b(G-_0), t^2 theta] = sigma_b(t^2)
    lhs = apply_sigma_b(lv("G-", 0, 0), b).supercommutator(
        apply_sigma_b(SuperLaurent.monomial(2, 1), b))
    assert lhs == apply_sigma_b(SuperLaurent.monomial(2, 0), b)


def test_sigma_b_mutation_detected():
    # dropping the -2b t^n term from the image of H_n breaks [G+_1, G-_0],
    # whose bracket produces an H with a nonzero index
    def mutated(x):
        image = apply_sigma_b(x, b)
        for gen, c in x.items():
            if gen.kind == "H":
                image = image + SDElement.word(gen.index2 // 2, 0, CF_ONE, c * b * 2)
        return image

    x, y = lv("G+", 2, 0), lv("G-", 0, 0)
    assert bracket(x, y) == lv("L", 2, 0, 2) + lv("H", 2, 0)
    assert mutated(x).supercommutator(mutated(y)) != mutated(bracket(x, y))


def test_sigma_aut():
    assert apply_sigma_aut(lv("L", 4, 0)) == lv("L", 4, 0)
    assert apply_sigma_aut(lv("H", 2, 0)) == lv("H", 2, 0, -1)
    assert apply_sigma_aut(lv("G+", 2, 0)) == lv("G-", 2, 0, -2)
    assert apply_sigma_aut(lv("G-", 2, 0)) == lv("G+", 2, 0, Fraction(-1, 2))
    assert apply_sigma_aut(lv("C", 0, 0)) == lv("C", 0, 0)
    report = hom_check("sigma-aut", 3)
    assert report.passed, report.violations[:3]


def test_hom_check_unknown_map():
    with pytest.raises(ValueError):
        hom_check("tau", 2)


def test_report_json_shape():
    report = hom_check("delta", 1)
    blob = report.to_json()
    assert set(blob) == {"schema", "kind", "passed", "checked", "violationCount",
                         "violations", "details", "notes"}
    assert blob["violationCount"] == 0


@pytest.mark.parametrize("which, name", [
    ("delta", "apply_delta"),
    ("varpi", "apply_varpi"),
    ("sigma-b", "apply_sigma_b"),
    ("sigma-aut", "apply_sigma_aut"),
])
def test_bracket_loop_catches_a_doubled_map(monkeypatch, which, name):
    # 2f is linear but not bracket-compatible: [2f(x), 2f(y)] = 4 f([x, y])
    clean = hom_check(which, 1)
    original = getattr(morphisms, name)
    monkeypatch.setattr(morphisms, name,
                        lambda *args: original(*args).scale(2))
    report = hom_check(which, 1)
    assert not report.passed
    assert report.checked == clean.checked
    # [L_1, L_-1] = 2 L_0 has a nonzero image under every map (sigma-aut
    # checks it once per sector)
    hits = [v for v in report.violations if (v.get("x"), v.get("y")) == ("L[1]", "L[-1]")]
    assert len(hits) == (2 if which == "sigma-aut" else 1)
    for v in hits:
        assert set(v) == {"x", "y", "lhs", "rhs"} and v["lhs"] != v["rhs"]


def test_sigma_b_function_pairs_are_checked(monkeypatch):
    # t^n theta -> (n + 2) t^n theta keeps functions supercommuting but breaks
    # [x, f] = x.f, so only the generator/function pairs fail, in both orders
    original = morphisms.apply_sigma_b

    def skewed(x, b):
        if isinstance(x, SuperLaurent):
            x = SuperLaurent({(n, th): c * (n + 2) if th else c
                              for (n, th), c in x.items()})
        return original(x, b)

    monkeypatch.setattr(morphisms, "apply_sigma_b", skewed)
    report = hom_check("sigma-b", 1)
    assert report.checked == 361
    gens = {str(lv(g.kind, g.index2, 0)) for g in algebra_generators(0, 1)}
    shapes = Counter((v["x"] in gens, v["y"] in gens) for v in report.violations)
    assert shapes == {(True, False): 23, (False, True): 23}

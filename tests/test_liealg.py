from fractions import Fraction

import pytest

from supermod import liealg
from supermod.liealg import (
    Generator,
    LieVector,
    algebra_generators,
    bracket,
    jacobi_check,
    n1_embed,
    parity,
    parse_generator,
    parse_sector,
    render_generator,
)


def lv(kind, index2, sector, coeff=1):
    return LieVector.basis(Generator(kind, index2), sector, coeff)


def test_generator_validation():
    with pytest.raises(ValueError):
        LieVector.basis(Generator("G+", 1), 0)  # half-integer index in sector 0
    with pytest.raises(ValueError):
        LieVector.basis(Generator("G-", 2), 1)


def test_generator_text():
    cases = ["L[2]", "H[-1]", "G+[3/2]", "G-[0]", "C", "G+[-7/2]"]
    for text in cases:
        assert render_generator(parse_generator(text)) == text
    assert parse_generator("G-[6/2]") == Generator("G-", 6)
    with pytest.raises(ValueError):
        parse_generator("L[1/3]")
    with pytest.raises(ValueError):
        parse_generator("H[1/2]")
    with pytest.raises(ValueError):
        parse_generator("Q[0]")
    with pytest.raises(ValueError):
        parse_generator("L[3/2]")  # L and H take integer indices
    with pytest.raises(ValueError):
        parse_generator("C[2]")  # the central element carries no index


def test_bare_n1_generator_is_not_an_n2_generator():
    # the N=1 supercurrent G has no N=2 realization; it must not parse
    for text in ("G[1]", "G[1/2]", "G[0]"):
        with pytest.raises(ValueError):
            parse_generator(text)


def test_parse_sector():
    assert parse_sector("0") == 0
    assert parse_sector("1/2") == 1
    with pytest.raises(ValueError):
        parse_sector("2")


def test_bracket_values():
    # [L_2, L_-2] = 4 L_0 + C/2
    out = bracket(lv("L", 4, 0), lv("L", -4, 0))
    assert out == lv("L", 0, 0, 4) + lv("C", 0, 0, Fraction(1, 2))
    # no central term at m = 1
    assert bracket(lv("L", 2, 0), lv("L", -2, 0)) == lv("L", 0, 0, 2)
    # [H_1, H_-1] = C/3
    assert bracket(lv("H", 2, 0), lv("H", -2, 0)) == lv("C", 0, 0, Fraction(1, 3))
    # [L_3, H_-1] = H_2
    assert bracket(lv("L", 6, 0), lv("H", -2, 0)) == lv("H", 4, 0)
    # [L_2, G+_{-1/2}] = (3/2) G+_{3/2}
    assert bracket(lv("L", 4, 1), lv("G+", -1, 1)) == lv("G+", 3, 1, Fraction(3, 2))
    # [H_1, G-_0] = -G-_1
    assert bracket(lv("H", 2, 0), lv("G-", 0, 0)) == lv("G-", 2, 0, -1)
    # [G-_1, G+_-1] = 2 L_0 - 2 H_0 + C/4
    out = bracket(lv("G-", 2, 0), lv("G+", -2, 0))
    assert out == (lv("L", 0, 0, 2) + lv("H", 0, 0, -2)
                   + lv("C", 0, 0, Fraction(1, 4)))
    # [G+_{1/2}, G-_{-1/2}] = 2 L_0 + H_0 (no central term at p = 1/2)
    out = bracket(lv("G+", 1, 1), lv("G-", -1, 1))
    assert out == lv("L", 0, 1, 2) + lv("H", 0, 1)
    assert bracket(lv("G+", 2, 0), lv("G+", -2, 0)).is_zero
    assert bracket(lv("C", 0, 0), lv("L", 10, 0)).is_zero


def test_bracket_sector_mismatch():
    with pytest.raises(ValueError):
        bracket(lv("L", 0, 0), lv("L", 0, 1))


def test_super_skew_symmetry():
    for sector in (0, 1):
        gens = algebra_generators(sector, 2)
        for gx in gens:
            for gy in gens:
                sign = -1 if parity(gx.kind) and parity(gy.kind) else 1
                lhs = bracket(LieVector.basis(gx, sector), LieVector.basis(gy, sector))
                rhs = bracket(LieVector.basis(gy, sector), LieVector.basis(gx, sector))
                assert lhs == rhs.scale(-1) if sign == 1 else lhs == rhs, (gx, gy)


def test_jacobi_small_windows():
    for sector in (0, 1):
        report = jacobi_check(sector, 2)
        assert report.passed, report.violations[:3]
        assert report.checked == len(algebra_generators(sector, 2)) ** 3
        assert report.to_json()["schema"] == "1"


def test_jacobi_renders_the_violation_of_a_perturbed_structure_constant(monkeypatch):
    # doubling [L_1, H_1] = -H_2 breaks the identity, first on L_-1, L_1, H_1
    real = liealg._basis_bracket

    def perturbed(x, y):
        out = real(x, y)
        if (x, y) == (Generator("L", 2), Generator("H", 2)):
            return [(g, 2 * c) for g, c in out]
        return out

    monkeypatch.setattr(liealg, "_basis_bracket", perturbed)
    report = jacobi_check(0, 1)
    assert not report.passed and len(report.violations) == 42
    assert report.violations[0] == {"x": "L[-1]", "y": "L[1]", "z": "H[1]",
                                    "value": "2*H[1]"}
    assert report.violations[1]["value"] == "H[2]"


def test_n1_relations():
    # [G_p, G_q] = 2 L_{p+q} + delta_{p+q,0} (4p^2 - 1)/12 C
    for sector in (0, 1):
        indices = [p2 for p2 in range(-4, 5) if p2 % 2 == sector]
        for p2 in indices:
            for q2 in indices:
                lhs = bracket(n1_embed("G", p2, sector), n1_embed("G", q2, sector))
                rhs = lv("L", p2 + q2, sector, 2)
                if p2 + q2 == 0:
                    p = Fraction(p2, 2)
                    rhs = rhs + lv("C", 0, sector, (4 * p * p - 1) / 12)
                assert lhs == rhs, (sector, p2, q2)
    # [L_m, G_p] = (m/2 - p) G_{m+p}
    for m2 in range(-4, 5, 2):
        for p2 in [-3, -1, 1, 3]:
            lhs = bracket(n1_embed("L", m2, 1), n1_embed("G", p2, 1))
            coeff = Fraction(m2, 4) - Fraction(p2, 2)
            assert lhs == n1_embed("G", m2 + p2, 1).scale(coeff), (m2, p2)


def test_n1_embed_validation():
    with pytest.raises(ValueError):
        n1_embed("G", 2, 1)
    with pytest.raises(ValueError):
        n1_embed("H", 2, 0)


def test_algebra_generators_window():
    gens = algebra_generators(1, 2)
    odd = [g for g in gens if g.kind == "G+"]
    assert [g.index2 for g in odd] == [-3, -1, 1, 3]
    assert sum(1 for g in gens if g.kind == "C") == 1
    gens0 = algebra_generators(0, 2, include_central=False)
    assert all(g.kind != "C" for g in gens0)


def test_vector_render():
    x = lv("L", 0, 0, 2) + lv("H", -2, 0, -1) + lv("C", 0, 0, Fraction(1, 2))
    assert str(x) == "2*L[0] - H[-1] + 1/2*C"
    assert str(LieVector(0)) == "0"


def test_lie_vector_has_no_sectorless_zero():
    # a LieVector needs its sector, so a zero() classmethod could only raise
    assert not hasattr(LieVector, "zero")

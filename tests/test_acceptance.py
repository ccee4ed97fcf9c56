"""End-to-end suite: every advertised guarantee at its stated window and budget.

Each test is one acceptance item; together they cover the bracket identities,
the structure maps, the module axioms for all four families with fully
symbolic parameters, the printed closed-form action tables, the T/Q operator
identities with their degenerate-b behavior, both degenerations, the
isomorphism witnesses, generic irreducibility evidence, and the agreement of
the two routes to the restricted (N=1) action.
"""

import time
from fractions import Fraction

import pytest

from supermod.analysis import (
    SingularNormalizerError,
    Window,
    iso_witness_check,
    module_axiom_check,
    phi_witness,
    psi_witness,
    span_probe,
    submodule_check,
    t_operator_check,
)
from supermod.dmodules import (
    DegreeModule,
    FractionModule,
    LaurentModule,
    ModuleVector,
    OmegaModule,
)
from supermod.functors import GModuleHandle, g_act, s_act_check
from supermod.liealg import Generator, LieVector, jacobi_check
from supermod.morphisms import hom_check
from supermod.scalars import Scalar

single = ModuleVector.single
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
B = Scalar.parameter("b")


def act(handle, kind, m, vec):
    return g_act(handle, LieVector.basis(Generator(kind, 2 * m), 0), vec)


def barred(vec):
    return vec.map_tokens(lambda tok: tok.barred())


def symbolic_families():
    return [
        LaurentModule("a"),
        OmegaModule("l"),
        FractionModule(("a0", "a1"), (0, 1)),
        DegreeModule(2),
    ]


def test_jacobi_identity_both_sectors():
    start = time.perf_counter()
    for sector in (0, 1):
        report = jacobi_check(sector, 4)
        assert report.passed and not report.violations, report.violations[:3]
    assert time.perf_counter() - start < 10


def test_structure_map_suite():
    start = time.perf_counter()
    for which, window in (("delta", 4), ("varpi", 4), ("sigma-b", 4),
                          ("sigma-aut", 4), ("delta-roundtrip", 6)):
        report = hom_check(which, window)
        assert report.passed, (which, report.violations[:3])
    assert time.perf_counter() - start < 10


def test_module_axioms_fully_symbolic():
    start = time.perf_counter()
    for module in symbolic_families():
        report = module_axiom_check(GModuleHandle(module, B), Window(3, 5))
        assert report.passed, (module.family, report.violations[:3])
    assert time.perf_counter() - start < 60


def test_closed_form_action_tables():
    checked = 0

    # weight shifts on the Laurent family: pure scalar formulas
    lau = LaurentModule("a")
    handle = GModuleHandle(lau, B)
    alpha = Scalar.parameter("a")
    for m in range(-3, 4):
        for n in range(-3, 4):
            v, vbar = single(lau.token(n)), single(lau.token(n, bar=True))
            out = single(lau.token(m + n))
            weight = alpha + n
            assert act(handle, "L", m, v) == out.scale(-(weight + B * m))
            assert act(handle, "L", m, vbar) == \
                barred(out).scale(-(weight + (B + HALF) * m))
            assert act(handle, "H", m, v) == out.scale(-2 * B)
            assert act(handle, "H", m, vbar) == barred(out).scale(1 - 2 * B)
            assert act(handle, "G+", m, v) == \
                barred(out).scale(-2 * (weight + 2 * B * m))
            assert act(handle, "G+", m, vbar).is_zero
            assert act(handle, "G-", m, v).is_zero
            assert act(handle, "G-", m, vbar) == out
            checked += 8

    # the D-power family: operator polynomials in the shifted Euler operator
    om = OmegaModule("l")
    handle = GModuleHandle(om, B)
    for m in range(-3, 4):
        for n in range(4):
            v, vbar = single(om.token(n)), single(om.token(n, bar=True))
            w = om.act_t(m, v)
            wbar = barred(w)
            assert act(handle, "L", m, v) == \
                (om.act_D(w) + w.scale((B - 1) * m)).scale(-1)
            assert act(handle, "L", m, vbar) == \
                (om.act_D(wbar) + wbar.scale((B - HALF) * m)).scale(-1)
            assert act(handle, "H", m, v) == w.scale(-2 * B)
            assert act(handle, "H", m, vbar) == wbar.scale(1 - 2 * B)
            assert act(handle, "G+", m, v) == \
                (om.act_D(wbar) + wbar.scale((2 * B - 1) * m)).scale(-2)
            assert act(handle, "G+", m, vbar).is_zero
            assert act(handle, "G-", m, v).is_zero
            assert act(handle, "G-", m, vbar) == w
            checked += 8

    # prescribed poles: the six carrier-generic lines
    fr = FractionModule(("a0", "a1"), (0, 1))
    handle = GModuleHandle(fr, B)
    for m in range(-3, 4):
        for tok in fr.tokens(2):
            v, vbar = single(tok), single(tok.barred())
            w = fr.act_t(m, v)
            dw = fr.act_t(m, fr.act_D(v))
            assert act(handle, "L", m, v) == (dw + w.scale(B * m)).scale(-1)
            assert act(handle, "L", m, vbar) == \
                (barred(dw) + barred(w).scale((B + HALF) * m)).scale(-1)
            assert act(handle, "H", m, v) == w.scale(-2 * B)
            assert act(handle, "H", m, vbar) == barred(w).scale(1 - 2 * B)
            assert act(handle, "G+", m, v) == \
                (barred(dw) + barred(w).scale(2 * B * m)).scale(-2)
            assert act(handle, "G+", m, vbar).is_zero
            assert act(handle, "G-", m, v).is_zero
            assert act(handle, "G-", m, vbar) == w
            checked += 8

    # nilpotent-derivative family: explicit tokens, including the d^(n-1) wrap
    deg = DegreeModule(2)
    handle = GModuleHandle(deg, B)
    for m in range(-3, 4):
        for i in range(-3, 4):
            for p in range(deg.n):
                v = single(deg.token(i, p))
                vbar = barred(v)
                shift = single(deg.token(m + i, p))
                tail = (single(deg.token(m + i + 1, p + 1)) if p + 1 < deg.n
                        else single(deg.token(m + i + 2, 0)))
                assert act(handle, "L", m, v) == \
                    (shift.scale(i + B * m) + tail).scale(-1)
                assert act(handle, "L", m, vbar) == \
                    (barred(shift).scale(i + (B + HALF) * m) + barred(tail)).scale(-1)
                assert act(handle, "H", m, v) == shift.scale(-2 * B)
                assert act(handle, "H", m, vbar) == barred(shift).scale(1 - 2 * B)
                assert act(handle, "G+", m, v) == \
                    (barred(shift).scale(i + 2 * B * m) + barred(tail)).scale(-2)
                assert act(handle, "G+", m, vbar).is_zero
                assert act(handle, "G-", m, v).is_zero
                assert act(handle, "G-", m, vbar) == shift
                checked += 8

    assert checked == 8 * 7 * (7 + 4 + 7 + 14)


def test_t_operator_identity_sweep():
    checked = 0
    for module in symbolic_families():
        handle = GModuleHandle(module, B)
        seeds = [tok for tok in module.tokens(1) if not tok.bar]
        for k in range(-3, 4):
            for d in (-3, -2, -1, 1, 2, 3):
                for tok in seeds:
                    report = t_operator_check(handle, k, d, single(tok))
                    assert report.passed, (module.family, k, d, report.violations)
                    checked += 1
    assert checked == 42 * (3 + 2 + 4 + 6)

    for module in symbolic_families():
        seed = single(next(tok for tok in module.tokens(1) if not tok.bar))
        for b in (0, HALF):
            with pytest.raises(SingularNormalizerError):
                t_operator_check(GModuleHandle(module, b), 1, 1, seed)


def test_b_zero_degeneration():
    handle = GModuleHandle(LaurentModule(0), 0)
    seed = single(handle.module.token(0))
    for window in (Window(1, 2, 1), Window(2, 3, 2), Window(2, 4, 4),
                   Window(3, 5, 3)):
        assert span_probe(handle, seed, window).rank == 1

    quotient = GModuleHandle(LaurentModule(0), 0, quotient=True)
    assert module_axiom_check(quotient, Window(3, 5)).passed
    report = span_probe(quotient, single(quotient.module.token(1)),
                        Window(2, 4, 4))
    assert report.full and report.ambient == 17, report.missing


def test_b_half_degeneration():
    handle = GModuleHandle(LaurentModule(0), HALF)
    mod = handle.module
    invariant = [single(mod.token(n)) for n in range(-4, 5)] + \
                [single(mod.token(n, bar=True)) for n in range(-4, 5) if n != 0]
    report = submodule_check(handle, invariant, Window(2, 4))
    assert report.passed, report.violations[:3]

    generic = GModuleHandle(LaurentModule(THIRD), HALF)
    for tok in generic.tokens(4):
        report = span_probe(generic, single(tok), Window(2, 4, 4))
        assert report.full, (report.seed, report.missing)


def test_isomorphism_witnesses():
    window = Window(2, 4)
    for witness in (phi_witness(THIRD, 4), psi_witness(4)):
        report = iso_witness_check(*witness, window)
        assert report.passed, report.violations[:3]


def test_generic_irreducibility_evidence():
    start = time.perf_counter()
    handles = [
        GModuleHandle(LaurentModule(THIRD), THIRD),
        GModuleHandle(OmegaModule(2), THIRD),
        GModuleHandle(FractionModule((THIRD, THIRD), (0, 1)), THIRD),
        GModuleHandle(DegreeModule(2), THIRD),
    ]
    probed = 0
    for handle in handles:
        for tok in handle.tokens(4):
            report = span_probe(handle, single(tok), Window(2, 4, 4))
            assert report.full, (handle.module.family, report.seed, report.missing)
            probed += 1
    assert probed == 18 + 10 + 26 + 36
    assert time.perf_counter() - start < 300


def test_symbolic_fraction_probe_at_full_window():
    # every parameter and b symbolic: the image coefficients' denominators
    # must meet at their lcm where one divides the other, or the closure's
    # rational functions grow with each level
    start = time.perf_counter()
    handle = GModuleHandle(FractionModule(("a0", "a1"), (0, 1)), B)
    report = span_probe(handle, single(handle.module.pow_token(0)), Window(2, 4, 4))
    assert report.full and report.rank == report.cross_check_rank == 26
    assert time.perf_counter() - start < 5


def test_n1_restriction_dual_routes():
    for eps2 in (0, 1):
        handle = GModuleHandle(LaurentModule("a"), B, sector=eps2)
        report = s_act_check(handle, 3, 3)
        assert report.passed and not report.violations, report.violations[:3]

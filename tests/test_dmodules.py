"""The four module families: actions, text forms, serialization."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from supermod.dmodules import (
    FAMILIES,
    DegreeModule,
    FractionModule,
    LaurentModule,
    ModuleVector,
    OmegaModule,
    parse_token,
    parse_vector,
    render_token,
    render_vector,
    spec_from_json,
)
from supermod.functors import superize_act
from supermod.liealg import Generator, LieVector
from supermod.morphisms import apply_sigma_b
from supermod.scalars import Scalar, ScalarParseError, scalar
from supermod.weyl import CF_DTHETA, CF_N, CF_ONE, CF_THETA, SDElement


def single(tok):
    return ModuleVector.single(tok)


def all_specs():
    return [
        LaurentModule("a"),
        OmegaModule("lam"),
        FractionModule(["a0", "a1"], [0, 1]),
        DegreeModule(2),
    ]


# ----------------------------------------------------------------------
# frozen actions per family

def test_laurent_actions():
    lau = LaurentModule("a")
    assert lau.act_t(3, single(lau.token(-1))) == single(lau.token(2))
    got = lau.act_D(single(lau.token(2)))
    assert got == single(lau.token(2)).scale(Scalar.parse("a + 2"))
    # the bar flag rides along untouched
    assert lau.act_t(1, single(lau.token(0, bar=True))) == single(lau.token(1, bar=True))


def test_omega_actions():
    om = OmegaModule("lam")
    lam = Scalar.parameter("lam")
    # t^2 * D^1 = lam^2 (D - 2)
    got = om.act_t(2, single(om.token(1)))
    want = (single(om.token(1)) - single(om.token(0)).scale(2)).scale(lam ** 2)
    assert got == want
    # t^{-1} * D^2 = lam^{-1} (D + 1)^2
    got = om.act_t(-1, single(om.token(2)))
    want = (single(om.token(2)) + single(om.token(1)).scale(2)
            + single(om.token(0))).scale(lam ** -1)
    assert got == want
    assert om.act_D(single(om.token(3))) == single(om.token(4))


def test_omega_t_action_injective_on_window():
    om = OmegaModule(2)
    toks = om.tokens(4)
    for m in (1, -1, 2):
        rows = []
        for tok in toks:
            img = om.act_t(m, single(tok))
            rows.append([img.coefficient(t2).as_fraction() for t2 in toks])
        assert sympy.Matrix(rows).rank() == len(toks)


def test_degree_boundary_rule():
    dg = DegreeModule(2)
    # d.(t^0 d^1) = t^1, so D = t*d sends it to the token t^2 d^0
    assert dg.act_D(single(dg.token(0, 1))) == single(dg.token(2, 0))
    got = dg.act_D(single(dg.token(2, 0)))
    assert got == single(dg.token(2, 0)).scale(2) + single(dg.token(3, 1))
    # t^k just shifts the exponent
    assert dg.act_t(-4, single(dg.token(1, 1))) == single(dg.token(-3, 1))


def test_fraction_partial_fractions_frozen():
    fr = FractionModule(["a0", "a1"], [0, 1])
    pole = fr.pole_token
    # 1/(t(t-1)) = 1/(t-1) - 1/t
    got = fr.act_t(-1, single(pole(1, 1)))
    assert got == single(pole(1, 1)) - single(pole(0, 1))
    # t * (t-1)^{-2} = (t-1)^{-1} + (t-1)^{-2}
    got = fr.act_t(1, single(pole(1, 2)))
    assert got == single(pole(1, 1)) + single(pole(1, 2))
    # t^3 * t^{-2} = t
    assert fr.act_t(3, single(pole(0, 2))) == single(fr.pow_token(1))


# ----------------------------------------------------------------------
# the fraction family against a rational-function oracle

_T, _A0, _A1 = sympy.symbols("t a0 a1")
_SYMS = {"t": _T, "a0": _A0, "a1": _A1}


def _expr(fr, vec):
    """A ModuleVector as a sympy rational function of t."""
    total = sympy.Integer(0)
    for tok, coeff in vec.items():
        c = sympy.sympify(coeff.render(), locals=_SYMS)
        if tok.kind == 0:
            total += c * _T ** tok.i
        else:
            total += c * (_T - sympy.Rational(fr.betas[tok.i])) ** (-tok.k)
    return total


def test_fraction_action_matches_rational_functions():
    fr = FractionModule(["a0", "a1"], [0, 1])
    connection = _A0 / _T + _A1 / (_T - 1)
    for tok in fr.tokens(2):
        f = _expr(fr, single(tok))
        for m in (-2, -1, 1, 2):
            got = _expr(fr, fr.act_t(m, single(tok)))
            assert sympy.cancel(got - _T ** m * f) == 0, (tok, m)
        oracle_d = _T * (sympy.diff(f, _T) + f * connection)
        got = _expr(fr, fr.act_D(single(tok)))
        assert sympy.cancel(got - oracle_d) == 0, tok


def test_fraction_negative_pole_and_higher_order():
    fr = FractionModule(["a0", "a1", "a2"], [0, 1, Fraction(-1, 2)])
    tok = fr.pole_token(2, 3)
    assert render_token(fr, tok) == "(t+1/2)^-3"
    f = (_T + sympy.Rational(1, 2)) ** -3
    got = _expr(fr, fr.act_t(-2, single(tok)))
    assert sympy.cancel(got - _T ** -2 * f) == 0


# ----------------------------------------------------------------------
# interface laws shared by every family

@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.family)
def test_euler_commutator_is_grading(spec):
    # [D, t^m] = m t^m on every window token
    for tok in spec.tokens(2):
        v = single(tok)
        for m in range(-3, 4):
            tv = spec.act_t(m, v)
            got = spec.act_D(tv) - spec.act_t(m, spec.act_D(v))
            assert got == tv.scale(m), (spec.family, tok, m)


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.family)
def test_t_is_invertible(spec):
    for tok in spec.tokens(2):
        v = single(tok)
        assert spec.act_t(0, v) == v
        for m in (1, 2, 3):
            assert spec.act_t(m, spec.act_t(-m, v)) == v, (spec.family, tok, m)
            assert spec.act_t(-m, spec.act_t(m, v)) == v, (spec.family, tok, m)


def test_construction_validation():
    with pytest.raises(ValueError):
        OmegaModule(0)
    with pytest.raises(ValueError):
        FractionModule(["a0"], [1])            # first pole must be 0
    with pytest.raises(ValueError):
        FractionModule(["a0", "a1"], [0, 0])   # poles must be distinct
    with pytest.raises(ValueError):
        FractionModule(["a0"], [0, 1])         # length mismatch
    with pytest.raises(ValueError):
        DegreeModule(0)
    with pytest.raises(ValueError):
        OmegaModule("lam").token(-1)
    with pytest.raises(ValueError):
        FractionModule(["a0"], [0]).pole_token(0, 0)
    with pytest.raises(ValueError):
        FractionModule(["a0"], [0]).pole_token(1, 1)
    with pytest.raises(ValueError):
        DegreeModule(2).token(0, 2)


def test_mixed_families_rejected():
    lau, om = LaurentModule(0), OmegaModule(2)
    with pytest.raises(ValueError):
        single(lau.token(0)) + single(om.token(0))


# ----------------------------------------------------------------------
# text and JSON forms

@pytest.mark.parametrize("spec,texts", [
    (LaurentModule("a"), ["t^-3", "t^0", "t^2~"]),
    (OmegaModule("lam"), ["D^0", "D^4~"]),
    (FractionModule(["a0", "a1"], [0, 1]), ["t^2", "t^-3~", "(t-1)^-2"]),
    (FractionModule(["a0", "a1"], [0, Fraction(-1, 2)]), ["(t+1/2)^-1", "(t+1/2)^-2~"]),
    (DegreeModule(2), ["t^-2*d^1", "t^0*d^0~"]),
], ids=lambda val: val if isinstance(val, list) else val.family)
def test_token_text_round_trip(spec, texts):
    for text in texts:
        tok = parse_token(spec, text)
        assert render_token(spec, tok) == text


def test_family_boundaries():
    lau, om = LaurentModule("a"), OmegaModule("lam")
    with pytest.raises(ValueError, match="does not match"):
        render_token(om, lau.token(1))
    # equality reads the canonical spec, not the spelling
    assert LaurentModule("a") == LaurentModule("2*a/2")
    assert LaurentModule(2) != OmegaModule(2)
    assert LaurentModule(1) != DegreeModule(1)
    assert (FractionModule(["a", "1"], ["0", "1"])
            != FractionModule(["a", "1"], ["0", "2"]))


def test_token_parse_rejects_foreign_text():
    fr = FractionModule(["a0", "a1"], [0, 1])
    for bad in ["D^1", "t^1*d^0", "(t-2)^-1", "(t-1)^2", "t^", "q^3"]:
        with pytest.raises(ScalarParseError):
            parse_token(fr, bad)


def test_vector_parse_render_round_trip():
    fr = FractionModule(["a0", "a1"], [0, 1])
    vec = parse_vector(fr, "t^0 - (a0 + 1)*(t-1)^-2~ + 1/2*t^-1")
    assert vec.coefficient(fr.pole_token(1, 2, bar=True)) == Scalar.parse("-(a0 + 1)")
    assert parse_vector(fr, render_vector(fr, vec)) == vec
    dg = DegreeModule(3)
    vec = parse_vector(dg, "2*t^1*d^2 - t^-1*d^0~")
    assert parse_vector(dg, render_vector(dg, vec)) == vec
    assert parse_vector(fr, "0").is_zero
    assert render_vector(fr, ModuleVector.zero()) == "0"


@settings(max_examples=40)
@given(st.lists(
    st.tuples(st.integers(-6, 6), st.booleans(),
              st.fractions(max_denominator=6)),
    min_size=1, max_size=5))
def test_laurent_vector_round_trip(entries):
    lau = LaurentModule("a")
    vec = ModuleVector.zero()
    for n, bar, q in entries:
        vec = vec + ModuleVector.single(lau.token(n, bar), scalar(q))
    assert parse_vector(lau, render_vector(lau, vec)) == vec


def test_spec_json_round_trip():
    for spec in all_specs():
        assert spec_from_json(spec.to_json()) == spec
    fr = spec_from_json('{"family":"fraction","alphas":["1/3","1/3"],"betas":["0","1"]}')
    assert fr.alphas == (scalar(Fraction(1, 3)),) * 2
    with pytest.raises(ValueError):
        spec_from_json('{"family":"poly"}')
    with pytest.raises(ValueError):
        spec_from_json('{"family":"omega"}')
    with pytest.raises(ValueError):
        spec_from_json("not json")


def test_specialize():
    lau = LaurentModule("a").specialize({"a": Fraction(1, 3)})
    assert lau.alpha == scalar(Fraction(1, 3))
    fr = FractionModule(["a0", "a1"], [0, 1]).specialize({"a0": 2})
    assert fr.alphas[0] == scalar(2)
    assert fr.alphas[1] == Scalar.parameter("a1")
    assert fr.parameters == ("a1",)
    om = OmegaModule("lam^2 + c").specialize({"lam": Fraction(1, 2)})
    assert om == OmegaModule("c + 1/4") and om.parameters == ("c",)
    with pytest.raises(ValueError, match="invertible"):
        OmegaModule("lam - 2").specialize({"lam": 2})


# ----------------------------------------------------------------------
# the per-module word table t^k D^l

THIRD = Fraction(1, 3)


def acceptance_specs():
    return [
        LaurentModule(THIRD),
        OmegaModule(2),
        FractionModule([THIRD, THIRD], [0, 1]),
        DegreeModule(2),
    ]


_WORD_SPECS = ([(spec, Scalar.parameter("b")) for spec in all_specs()]
               + [(spec, THIRD) for spec in acceptance_specs()])
_WORD_IDS = ([f"{spec.family}-symbolic" for spec in all_specs()]
             + [f"{spec.family}-point" for spec in acceptance_specs()])


def _chain(spec, k, l, tok):
    """t^k D^l on one token, by the module actions alone."""
    piece = single(tok)
    for _ in range(l):
        piece = spec.act_D(piece)
    return spec.act_t(k, piece)


def _superize_by_chains(spec, x, v):
    """superize_act before the word table: one D-chain per (word, token)."""
    out = ModuleVector.zero()
    for (k, l, c), coeff in x.items():
        for tok, tok_coeff in v.items():
            if c == CF_THETA:
                if tok.bar:
                    continue
                tok = tok.barred()
            elif c == CF_DTHETA:
                if not tok.bar:
                    continue
                tok = tok.unbarred()
            elif c == CF_N and not tok.bar:
                continue
            piece = ModuleVector.single(tok, coeff * tok_coeff)
            for _ in range(l):
                piece = spec.act_D(piece)
            out.add_scaled(spec.act_t(k, piece))
    return out


@pytest.mark.parametrize("spec, b", _WORD_SPECS, ids=_WORD_IDS)
def test_word_table_matches_the_action_chain(spec, b):
    tokens = spec.tokens(2)
    for tok in tokens + [t.barred() for t in tokens]:
        for l in range(4):
            for k in range(-2, 3):
                assert spec.word(k, l, tok) == _chain(spec, k, l, tok), (k, l, tok)
    # served from the table the second time
    tok = tokens[0]
    assert spec.word(1, 3, tok) is spec.word(1, 3, tok)


@pytest.mark.parametrize("spec, b", _WORD_SPECS, ids=_WORD_IDS)
def test_superize_act_matches_the_per_word_chains(spec, b):
    c = Scalar.parameter("c")
    tokens = spec.tokens(2)
    v = ModuleVector.zero()
    for tok, coeff in zip(tokens[:3] + [t.barred() for t in tokens[1:3]],
                          [c + 1, c * 2, scalar(Fraction(-3, 2)), c - Fraction(1, 2), c * c]):
        v = v + ModuleVector.single(tok, coeff)
    ops = [apply_sigma_b(LieVector.basis(Generator(kind, idx2), 0), b)
           for kind, idx2 in (("L", 2), ("L", -2), ("H", 0), ("G+", 2), ("G-", -2))]
    ops.append(SDElement.word(-1, 3, CF_ONE, c)
               + SDElement.word(2, 2, CF_THETA, c + 2)
               + SDElement.word(1, 1, CF_N, Fraction(-5, 2))
               + SDElement.word(0, 2, CF_DTHETA, c * 3))
    for x in ops:
        assert superize_act(spec, x, v) == _superize_by_chains(spec, x, v)


@pytest.mark.parametrize("family", FAMILIES)
def test_word_table_runs_each_d_step_once(family, monkeypatch):
    spec = next(s for s in all_specs() if s.family == family)
    calls = []
    real_act_D = type(spec).act_D
    monkeypatch.setattr(type(spec), "act_D",
                        lambda self, vec: calls.append(vec) or real_act_D(self, vec))
    tokens = spec.tokens(2)
    for tok in tokens:
        for l in range(4):
            for k in range(-2, 3):
                spec.word(k, l, tok)
    assert len(calls) == 3 * len(tokens)


def test_internal_builders_drop_zeros_and_match_the_checked_constructor():
    lau = LaurentModule("a")
    tok = lau.token(1)
    assert ModuleVector.single(tok, 0).is_zero
    assert ModuleVector.single(tok, scalar(0))._terms == {}
    assert ModuleVector.zero() == ModuleVector({})
    c = Scalar.parse("a + 1")
    assert ModuleVector.single(tok, c) == ModuleVector({tok: c})
    assert ModuleVector.single(tok)._terms == {tok: scalar(1)}

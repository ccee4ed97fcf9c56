"""Constructed module actions: superize, twists, sectors, N=1 restriction."""

from fractions import Fraction

import pytest

from supermod import analysis, functors
from supermod.analysis import Window, module_axiom_check, span_probe
from supermod.dmodules import (
    DegreeModule,
    FractionModule,
    LaurentModule,
    ModuleVector,
    OmegaModule,
)
from supermod.functors import (
    GModuleHandle,
    g_act,
    s_act,
    s_act_check,
    superize_act,
)
from supermod.liealg import Generator, LieVector, algebra_generators, bracket, parity
from supermod.morphisms import delta_terms
from supermod.scalars import Scalar, scalar
from supermod.weyl import CF_DTHETA, CF_N, CF_ONE, CF_THETA, SDElement

A = Scalar.parameter("a")
B = Scalar.parameter("b")


def gen(kind, idx2, sector=0):
    return LieVector.basis(Generator(kind, idx2), sector)


def single(tok):
    return ModuleVector.single(tok)


# ----------------------------------------------------------------------
# superize_act

def test_superize_clifford_rules():
    lau = LaurentModule("a")
    v, vbar = single(lau.token(0)), single(lau.token(0, bar=True))
    theta = SDElement.word(0, 0, 2)       # CF_THETA
    dtheta = SDElement.word(0, 0, 3)      # CF_DTHETA
    number = SDElement.word(0, 0, 1)      # CF_N = theta*dtheta
    assert superize_act(lau, theta, v) == vbar
    assert superize_act(lau, theta, vbar).is_zero
    assert superize_act(lau, dtheta, v).is_zero
    assert superize_act(lau, dtheta, vbar) == v
    assert superize_act(lau, number, v).is_zero
    assert superize_act(lau, number, vbar) == vbar


def test_superize_weyl_part_ignores_bar():
    lau = LaurentModule("a")
    op = SDElement.word(2, 1, CF_ONE)     # t^2 D
    assert superize_act(lau, op, single(lau.token(0, bar=True))) == \
        single(lau.token(2, bar=True)).scale(A)
    assert superize_act(lau, op, single(lau.token(0))) == \
        single(lau.token(2)).scale(A)


# ----------------------------------------------------------------------
# the plain action, one frozen line per family

def test_laurent_action_lines():
    lau = LaurentModule("a")
    h = GModuleHandle(lau, B)
    t = lambda n, bar=False: single(lau.token(n, bar))
    m, n = 3, -2
    assert g_act(h, gen("L", 2 * m), t(n)) == t(m + n).scale(-(A + n + B * m))
    assert g_act(h, gen("L", 2 * m), t(n, 1)) == \
        t(m + n, 1).scale(-(A + n + (B + Fraction(1, 2)) * m))
    assert g_act(h, gen("H", 2 * m), t(n)) == t(m + n).scale(-2 * B)
    assert g_act(h, gen("H", 2 * m), t(n, 1)) == t(m + n, 1).scale(1 - 2 * B)
    assert g_act(h, gen("G+", 2 * m), t(n)) == t(m + n, 1).scale(-2 * (A + n + 2 * m * B))
    assert g_act(h, gen("G+", 2 * m), t(n, 1)).is_zero
    assert g_act(h, gen("G-", 2 * m), t(n, 1)) == t(m + n)
    assert g_act(h, gen("G-", 2 * m), t(n)).is_zero


def test_omega_action_line():
    om = OmegaModule("lam")
    lam = Scalar.parameter("lam")
    h = GModuleHandle(om, B)
    # G+_1 . D^1 = -2 lam (Dbar + (2b-1)) (Dbar - 1)
    got = g_act(h, gen("G+", 2), single(om.token(1)))
    d = lambda n: single(om.token(n, bar=True))
    want = (d(2) + d(1).scale(2 * B - 2) - d(0).scale(2 * B - 1)).scale(-2 * lam)
    assert got == want


def test_fraction_action_line():
    fr = FractionModule(["a0", "a1"], [0, 1])
    h = GModuleHandle(fr, B)
    f = single(fr.pole_token(1, 1))
    m = 2
    # L_m . f = -(t^m D f + m b t^m f)
    want = -(fr.act_t(m, fr.act_D(f)) + fr.act_t(m, f).scale(B * m))
    assert g_act(h, gen("L", 2 * m), f) == want
    # G+_m . f = -2 (bar(t^m D f) + 2 m b bar(t^m f))
    bar = lambda vec: vec.map_tokens(lambda tok: tok.barred())
    want = (bar(fr.act_t(m, fr.act_D(f))) + bar(fr.act_t(m, f)).scale(2 * m * B)).scale(-2)
    assert g_act(h, gen("G+", 2 * m), f) == want


def test_degree_action_line():
    dg = DegreeModule(2)
    h = GModuleHandle(dg, B)
    tok = lambda i, m, bar=False: single(dg.token(i, m, bar))
    k, i = 2, -1
    # L_k . t^i d^0 = -(i + bk) t^{k+i} d^0 - t^{k+i+1} d^1
    got = g_act(h, gen("L", 2 * k), tok(i, 0))
    assert got == tok(k + i, 0).scale(-(B * k + i)) - tok(k + i + 1, 1)
    # boundary: L_k . t^i d^1 = -(i + bk) t^{k+i} d^1 - t^{k+i+2} d^0
    got = g_act(h, gen("L", 2 * k), tok(i, 1))
    assert got == tok(k + i, 1).scale(-(B * k + i)) - tok(k + i + 2, 0)


def test_central_element_acts_as_zero():
    h = GModuleHandle(LaurentModule("a"), B)
    c = LieVector.basis(Generator("C", 0), 0)
    assert g_act(h, c, single(h.module.token(3))).is_zero


def test_sector_mismatch_rejected():
    h = GModuleHandle(LaurentModule("a"), B)
    with pytest.raises(ValueError):
        g_act(h, gen("L", 2, sector=1), single(h.module.token(0)))


# ----------------------------------------------------------------------
# the module axiom, directly from brackets (small window)

@pytest.mark.parametrize("sector", [0, 1], ids=["0", "1/2"])
def test_module_axiom_small_window(sector):
    lau = LaurentModule("a")
    h = GModuleHandle(lau, B, sector=sector)
    gens = algebra_generators(sector, 2)
    tokens = [lau.token(n, bar) for n in (-2, 0, 1) for bar in (False, True)]
    for i, x in enumerate(gens):
        for y in gens[i:]:
            xv = LieVector.basis(x, sector)
            yv = LieVector.basis(y, sector)
            sign = (-1) ** (parity(x.kind) * parity(y.kind))
            for tok in tokens:
                v = single(tok)
                lhs = g_act(h, bracket(xv, yv), v)
                rhs = g_act(h, xv, g_act(h, yv, v)) \
                    - g_act(h, yv, g_act(h, xv, v)).scale(sign)
                assert lhs == rhs, (x, y, tok)


# ----------------------------------------------------------------------
# twists

def test_sigma_twist_values_and_involution():
    lau = LaurentModule("a")
    h = GModuleHandle(lau, B)
    hs = GModuleHandle(lau, B, sigma=True)
    t = lambda n, bar=False: single(lau.token(n, bar))
    assert g_act(hs, gen("H", 2), t(1)) == t(2).scale(2 * B)
    assert g_act(hs, gen("G+", 2), t(1, 1)) == t(2).scale(-2)
    assert g_act(hs, gen("G-", 2), t(1)) == t(2, 1).scale(A + 1 + 2 * B)
    # applying sigma on the algebra side twice is the identity
    from supermod.morphisms import apply_sigma_aut
    for kind in ("L", "H", "G+", "G-"):
        x = gen(kind, 2)
        assert g_act(hs, apply_sigma_aut(x), t(1)) == g_act(h, x, t(1))


def test_pi_flips_parity_but_not_action():
    lau = LaurentModule("a")
    h = GModuleHandle(lau, B)
    hp = GModuleHandle(lau, B, pi=True)
    tok = lau.token(2)
    assert h.token_parity(tok) == 0 and h.token_parity(tok.barred()) == 1
    assert hp.token_parity(tok) == 1 and hp.token_parity(tok.barred()) == 0
    x = gen("G+", 4)
    assert g_act(hp, x, single(tok)) == g_act(h, x, single(tok))


def test_quotient_validation_and_reduction():
    with pytest.raises(ValueError):
        GModuleHandle(OmegaModule(2), 0, quotient=True)
    with pytest.raises(ValueError):
        GModuleHandle(LaurentModule("a"), 0, quotient=True)
    with pytest.raises(ValueError):
        GModuleHandle(LaurentModule(Fraction(1, 3)), 0, quotient=True)
    with pytest.raises(ValueError):
        GModuleHandle(LaurentModule(0), B, quotient=True)
    hq = GModuleHandle(LaurentModule(-2), 0, quotient=True)
    assert hq.killed_token == hq.module.token(2)
    hq = GModuleHandle(LaurentModule(0), 0, quotient=True)
    t = lambda n, bar=False: single(hq.module.token(n, bar))
    assert hq.reduce(t(0) + t(1)) == t(1)
    assert hq.reduce(t(0, bar=True)) == t(0, bar=True)
    # G-_1 . bar(t^-1) lands on the killed token
    assert g_act(hq, gen("G-", 2), t(-1, 1)).is_zero
    assert hq.module.token(0) not in hq.tokens(3)
    assert hq.module.token(0, bar=True) in hq.tokens(3)


def test_handle_describe_and_specialize():
    h = GModuleHandle(LaurentModule("a"), B, sector=1, sigma=True)
    assert h.describe() == {
        "module": {"family": "laurent", "alpha": "a"},
        "b": "b",
        "sector": "1/2",
        "tags": ["sigma"],
    }
    assert h.parameters() == ("a", "b")
    hs = h.specialize({"a": Fraction(1, 3), "b": Fraction(1, 2)})
    assert hs.module.alpha == scalar(Fraction(1, 3))
    assert hs.b == scalar(Fraction(1, 2))
    assert GModuleHandle(LaurentModule(0), 0).tags == ("plain",)


# ----------------------------------------------------------------------
# the per-handle (generator, token) image table

def _spread(make_handle, g, v):
    """g . v summed from basis generators on single tokens, on a fresh handle."""
    h = make_handle()
    out = ModuleVector.zero()
    for gen_, coeff in g.items():
        for tok, c in v.items():
            piece = g_act(h, LieVector.basis(gen_, g.sector), single(tok))
            out = out + piece.scale(coeff * c)
    return out


@pytest.mark.parametrize("make_handle, g, tokens", [
    (lambda: GModuleHandle(LaurentModule(-2), 0, quotient=True),
     LieVector(0, {Generator("L", 2): scalar(3), Generator("G+", -2): A,
                   Generator("H", 0): scalar(Fraction(-1, 2)),
                   Generator("C", 0): scalar(5)}),
     [(1, False), (2, False), (2, True), (-1, True)]),
    (lambda: GModuleHandle(LaurentModule("a"), B, sector=1, sigma=True),
     LieVector(1, {Generator("L", 0): scalar(2), Generator("G+", 1): B,
                   Generator("G-", -1): scalar(Fraction(-1, 3)),
                   Generator("C", 0): scalar(7)}),
     [(0, False), (1, True), (-2, False)]),
], ids=["quotient", "sector-1/2-sigma"])
def test_g_act_is_the_sum_of_single_token_images(make_handle, g, tokens):
    h = make_handle()
    coeffs = [scalar(Fraction(-2, 3)), A + 1, scalar(4), scalar(Fraction(1, 5))]
    v = ModuleVector.zero()
    for (n, bar), c in zip(tokens, coeffs):
        v = v + single(h.module.token(n, bar)).scale(c)
    got = g_act(h, g, v)
    assert got == _spread(make_handle, g, v)
    # a second call is served from the table and agrees
    assert g_act(h, g, v) == got
    if h.quotient:
        assert got.coefficient(h.killed_token).is_zero


def test_specialized_handle_does_not_reuse_cached_images():
    h = GModuleHandle(LaurentModule("a"), B, sector=1)
    x, v = gen("L", 2, sector=1), single(h.module.token(0))
    symbolic = g_act(h, x, v)
    point = {"a": Fraction(1, 3), "b": Fraction(1, 2)}
    hs = h.specialize(point)
    fresh = GModuleHandle(LaurentModule(Fraction(1, 3)), Fraction(1, 2), sector=1)
    assert g_act(hs, x, v) == g_act(fresh, x, v) != symbolic
    assert g_act(h, x, v) == symbolic
    # the table is not part of a handle's identity
    assert h == GModuleHandle(LaurentModule("a"), B, sector=1)


def _inverse_shift_table(gen_):
    """The sector-1/2 pullback, written out generator by generator."""
    kind, idx2 = gen_
    if kind == "L":
        out = [(Generator("L", idx2), Fraction(1)),
               (Generator("H", idx2), Fraction(-1, 2))]
        if idx2 == 0:
            out.append((Generator("C", 0), Fraction(1, 24)))
        return out
    if kind == "H":
        out = [(Generator("H", idx2), Fraction(1))]
        if idx2 == 0:
            out.append((Generator("C", 0), Fraction(-1, 6)))
        return out
    if kind == "G+":
        return [(Generator("G+", idx2 - 1), Fraction(1))]
    if kind == "G-":
        return [(Generator("G-", idx2 + 1), Fraction(1))]
    return [(gen_, Fraction(1))]


def test_delta_terms_is_the_inverse_shift_table():
    for gen_ in algebra_generators(1, 3):
        assert delta_terms(gen_, -1) == _inverse_shift_table(gen_), gen_


# ----------------------------------------------------------------------
# the N=1 restriction

def test_s_act_frozen_values():
    lau = LaurentModule("a")
    handle = GModuleHandle(lau, B)
    t = lambda n, bar=False: single(lau.token(n, bar))
    # G_0 . t^n = (a + n) bar(t^n);  G_0 . bar(t^n) = -t^n
    assert s_act(handle, "G", 0, t(2)) == t(2, 1).scale(A + 2)
    assert s_act(handle, "G", 0, t(2, 1)) == -t(2)
    # L_m agrees with the unrestricted action
    assert s_act(handle, "L", 4, t(1)) == t(3).scale(-(A + 1 + 2 * B))


@pytest.mark.parametrize("eps2", [0, 1], ids=["eps=0", "eps=1/2"])
def test_s_act_routes_agree(eps2):
    handle = GModuleHandle(LaurentModule("a"), B, sector=eps2)
    report = s_act_check(handle, 2, 2)
    assert report.passed
    assert report.details["epsilon"] == ("1/2" if eps2 else "0")
    assert report.checked == (2 * 2 + 1 + 2 * 2 + (1 - eps2)) * len(handle.tokens(2))


def test_s_act_reports_a_perturbed_closed_form(monkeypatch):
    original = functors._closed_form

    def perturbed(kind, index2, epsilon2, b):
        op = original(kind, index2, epsilon2, b)
        return op + SDElement.word(0, 0, CF_ONE) if kind == "L" and index2 == 2 else op

    monkeypatch.setattr(functors, "_closed_form", perturbed)
    handle = GModuleHandle(LaurentModule("a"), B)
    # the action itself still comes from the embedding
    for tok in handle.tokens(1):
        v = single(tok)
        assert s_act(handle, "L", 2, v) == g_act(handle, gen("L", 2), v)
    report = s_act_check(handle, 1, 1)
    assert not report.passed
    # L_1 is wrong on every window token, and nothing else is
    assert report.violations == [
        {"generator": "L[1]", "token": str(tok),
         "note": "L[1]: embedding and closed form disagree"}
        for tok in handle.tokens(1)]


def test_s_act_index_validation():
    handle = GModuleHandle(LaurentModule("a"), B)
    v = single(handle.module.token(0))
    with pytest.raises(ValueError, match="does not live in sector 0"):
        s_act(handle, "G", 1, v)
    with pytest.raises(ValueError, match="L takes integer indices"):
        s_act(handle, "L", 1, v)
    with pytest.raises(ValueError, match="kinds L and G"):
        s_act(handle, "H", 0, v)


# ----------------------------------------------------------------------
# the per-module word table under superize_act

THIRD = Fraction(1, 3)


def _chain(spec, k, l, tok):
    """t^k D^l on one token, bypassing the word table."""
    piece = single(tok)
    for _ in range(l):
        piece = spec.act_D(piece)
    return spec.act_t(k, piece)


def _table_is_fresh(spec):
    """Every word-table entry still equals a recomputation."""
    return all(image == _chain(spec, k, l, tok)
               for (k, l, tok), image in spec._words.items())


def test_specialized_module_and_handle_start_with_their_own_word_table():
    fr = FractionModule(["a0", "a1"], [0, 1])
    tok = fr.pole_token(1, 1)
    symbolic = fr.word(1, 2, tok)
    fs = fr.specialize({"a0": THIRD, "a1": THIRD})
    assert fs._words is None
    got = fs.word(1, 2, tok)
    assert got == _chain(FractionModule([THIRD, THIRD], [0, 1]), 1, 2, tok) != symbolic
    assert fr.word(1, 2, tok) is symbolic

    h = GModuleHandle(LaurentModule("a"), B)
    x, v = gen("G+", 2), single(h.module.token(0))
    g_act(h, x, v)
    hs = h.specialize({"a": THIRD, "b": Fraction(1, 2)})
    assert hs.module is not h.module and hs.module._words is None
    fresh = GModuleHandle(LaurentModule(THIRD), Fraction(1, 2))
    assert g_act(hs, x, v) == g_act(fresh, x, v)
    parent_ids = {id(image) for image in h.module._words.values()}
    assert parent_ids.isdisjoint(id(image) for image in hs.module._words.values())
    assert _table_is_fresh(hs.module) and _table_is_fresh(h.module)


def _window_images(handle):
    """Every window generator's Scalar image of every window token, at
    window 1,1, through g_act and so the module's word table."""
    return [g_act(handle, LieVector.basis(g, handle.sector), single(tok))
            for g in algebra_generators(handle.sector, 1, include_central=False)
            for tok in handle.tokens(1)]


@pytest.mark.parametrize("make_handle", [
    lambda: GModuleHandle(LaurentModule("a"), B),
    lambda: GModuleHandle(OmegaModule(2), THIRD),
    lambda: GModuleHandle(FractionModule([THIRD, THIRD], [0, 1]), THIRD),
    lambda: GModuleHandle(DegreeModule(2), THIRD, sector=1),
], ids=["laurent-symbolic", "omega", "fraction", "degree-1/2"])
def test_checks_leave_the_word_table_intact(make_handle):
    # g_act fills the module's word table; the checks compose their own
    # words (analysis._ActionTable) and leave every entry as it was
    h = make_handle()
    _window_images(h)
    before = dict(h.module._words)
    assert before and _table_is_fresh(h.module)
    assert module_axiom_check(h, Window(1, 1)).passed
    report = span_probe(h, single(h.module.tokens(1)[0]), Window(1, 2, 2))
    assert report.rank > 0
    assert h.module._words.keys() == before.keys()
    assert all(h.module._words[key] is image for key, image in before.items())
    assert _table_is_fresh(h.module)


def test_twisted_handles_share_the_word_table(monkeypatch):
    module = OmegaModule("lam")
    plain = _window_images(GModuleHandle(module, B))
    # the pi twist asks for the very same words: no new D-chain runs
    chains = []
    real_act_D = OmegaModule.act_D
    monkeypatch.setattr(OmegaModule, "act_D",
                        lambda self, vec: chains.append(vec) or real_act_D(self, vec))
    assert _window_images(GModuleHandle(module, B, pi=True)) == plain
    assert chains == []
    monkeypatch.undo()
    for twisted in (GModuleHandle(module, B, sigma=True),
                    GModuleHandle(module, B, sector=1, sigma=True)):
        assert twisted.module is module
        report = module_axiom_check(twisted, Window(1, 1))
        assert report.passed and report.checked
        _window_images(twisted)
    assert _table_is_fresh(module)


def _landing_bar(c, bar):
    """The bar flag a Clifford unit sends a token to, None if it kills it."""
    if c == CF_THETA:
        return None if bar else True
    if c == CF_DTHETA:
        return False if bar else None
    if c == CF_N:
        return True if bar else None
    return bar


def test_land_moves_the_bar_flag_as_the_clifford_unit_acts():
    tok = LaurentModule("a").token(3)
    for c in (CF_ONE, CF_N, CF_THETA, CF_DTHETA):
        for start in (tok, tok.barred()):
            bar = _landing_bar(c, start.bar)
            want = None if bar is None else start._replace(bar=bar)
            assert functors.land(c, start) == want, (c, start)


def test_probe_runs_each_d_chain_step_once(monkeypatch):
    """A probe computes each one-step image, t, t^-1 or D on one token,
    once: the module's act_t(+-1) and act_D run once per (step, token)."""
    steps, depth = [], []

    def recording(name):
        real = getattr(DegreeModule, name)

        def wrapper(self, *args):
            if not depth:  # act_D's own call of act_t is not a step
                *m, vec = args
                steps.append((name, *m, *vec._terms))
            depth.append(name)
            try:
                return real(self, *args)
            finally:
                depth.pop()
        return wrapper

    for name in ("act_t", "act_D"):
        monkeypatch.setattr(DegreeModule, name, recording(name))
    module = DegreeModule(2)
    report = span_probe(GModuleHandle(module, THIRD), single(module.token(0, 0)),
                        Window(2, 2, 2))
    assert report.full
    assert {name for name, *_ in steps} == {"act_t", "act_D"}
    # each on one token: (name, m, token) or (name, token)
    assert all(len(step) == (3 if step[0] == "act_t" else 2) for step in steps)
    assert {m for name, m, *_ in steps if name == "act_t"} == {-1, 1}
    assert len(set(steps)) == len(steps)


def test_barred_word_reuses_its_unbarred_twin(monkeypatch):
    module = FractionModule(["a0", "a1"], [0, 1])
    tok = module.pole_token(1, 1)
    module.word(-1, 2, tok)
    calls = []
    for name in ("act_D", "act_t"):
        real = getattr(FractionModule, name)
        monkeypatch.setattr(FractionModule, name,
                            lambda self, *args, real=real, name=name:
                            calls.append(name) or real(self, *args))
    barred = module.word(-1, 2, tok.barred())
    assert calls == []
    monkeypatch.undo()
    want = _chain(module, -1, 2, tok.barred())
    assert barred == want and not barred.is_zero
    assert all(tok.bar for tok, _ in barred.items())


# ----------------------------------------------------------------------
# one parameter ring per handle

SYMBOLIC_FAMILIES = [
    lambda: LaurentModule("a"),
    lambda: OmegaModule("lam"),
    lambda: FractionModule(["a0", "a1"], [0, 1]),
    lambda: DegreeModule(2),
]
SHAPES = [(0, False), (0, True), (1, False), (1, True)]


def _stray_rings(handle, tables=()):
    """Rings other than the handle's among its images and operators, its
    module's words, and the {key: {key2: Scalar}} tables given."""
    vectors = list(handle._cache.values()) + list((handle.module._words or {}).values())
    coeffs = [c for vec in vectors for c in vec._terms.values()]
    coeffs += [c for table in tables for row in table.values() for c in row.values()]
    return {c._names for c in coeffs if c._p is None} - {handle.parameters()}


def _axiom_check_tables(handle, monkeypatch):
    """Run module_axiom_check on window 1,1, asserting it passes; return the
    two Scalar tables, operators and words, it hands kronecker_table."""
    seen, real = [], analysis.kronecker_table
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "kronecker_table", lambda ops, words, *rest: (
            seen.extend((ops, words)) or real(ops, words, *rest)))
        assert module_axiom_check(handle, Window(1, 1)).passed
    return seen


@pytest.mark.parametrize("make_module", SYMBOLIC_FAMILIES,
                         ids=["laurent", "omega", "fraction", "degree"])
@pytest.mark.parametrize("sector,sigma", SHAPES)
def test_symbolic_checks_stay_in_the_handle_ring(make_module, sector, sigma, monkeypatch):
    handle = GModuleHandle(make_module(), B, sector=sector, sigma=sigma)
    assert "b" in handle.parameters() and handle.b._names == handle.parameters()
    tables = _axiom_check_tables(handle, monkeypatch)
    assert handle._cache and tables[1] and _stray_rings(handle, tables) == set()


def test_ring_invariant_fails_without_widening(monkeypatch):
    monkeypatch.setattr(LaurentModule, "widen", lambda self, names: None)
    handle = GModuleHandle(LaurentModule("a"), B)
    tables = _axiom_check_tables(handle, monkeypatch)
    assert _stray_rings(handle, tables) == {("a",)}


def test_widening_keeps_the_module_value_and_drops_a_foreign_table():
    module = LaurentModule("a")
    module.word(0, 1, module.token(0))
    GModuleHandle(module, B)
    assert module._words is None and module.alpha._names == ("a", "b")
    assert module == LaurentModule("a") and module.to_json()["alpha"] == "a"


def test_partly_specialized_and_further_widened_handles_stay_correct(monkeypatch):
    handle = GModuleHandle(FractionModule(["a0", "a1"], [0, 1]), B)
    partial = handle.specialize({"a0": THIRD})
    assert partial.parameters() == ("a1", "b")
    assert _stray_rings(partial, _axiom_check_tables(partial, monkeypatch)) == set()
    x = gen("G+", 2)
    for tok in handle.module.tokens(1):
        full = g_act(handle, x, single(tok))
        want = ModuleVector({t: c.specialize({"a0": THIRD}) for t, c in full.items()})
        assert g_act(partial, x, single(tok)) == want
    # a second handle with another b widens the shared module further
    first = GModuleHandle(LaurentModule("a"), B)
    GModuleHandle(first.module, Scalar.parameter("c"))
    assert first.module._ring == ("a", "b", "c")
    assert module_axiom_check(first, Window(1, 1)).passed

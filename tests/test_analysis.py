"""Window analysis: span probes, operator identities, submodules, witnesses."""

import json
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermod import analysis, functors
from supermod.cli import main
from supermod.analysis import (
    ReachReport,
    SingularNormalizerError,
    Window,
    identity_witness,
    iso_witness_check,
    module_axiom_check,
    phi_witness,
    probe_seed,
    psi_witness,
    q_operator_check,
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
    parse_vector,
    render_token,
    render_vector,
)
from supermod.functors import GModuleHandle, g_act, superize_act
from supermod.liealg import (
    Generator,
    LieVector,
    VerificationReport,
    _basis_bracket,
    algebra_generators,
    bracket,
    parity,
    render_generator,
)
from supermod.scalars import Scalar, SingularSpecializationError, scalar

single = ModuleVector.single
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def laurent(alpha="a", b="b", **kw):
    return GModuleHandle(LaurentModule(alpha), b, **kw)


# ----------------------------------------------------------------------
# windows

def test_window_defaults_and_json():
    win = Window(2, 4)
    assert win.word_length == 1
    assert Window(2, 4, 4).to_json() == \
        {"genBound": 2, "tokenBound": 4, "wordLength": 4}


@pytest.mark.parametrize("args", [(0, 4), (2, 0), (2, 4, 0), (-1, 4)])
def test_window_rejects_nonpositive_bounds(args):
    with pytest.raises(ValueError):
        Window(*args)


def test_probe_seed_reads_environment(monkeypatch):
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    assert probe_seed() == 0
    monkeypatch.setenv("SUPERMOD_SEED", "7")
    assert probe_seed() == 7


# ----------------------------------------------------------------------
# the T-operator identity (generic b)

@pytest.mark.parametrize("handle", [
    laurent(),
    GModuleHandle(OmegaModule(2), "b"),
    GModuleHandle(FractionModule(("a0", "a1"), (0, 1)), "b"),
    GModuleHandle(DegreeModule(2), "b"),
], ids=["laurent", "omega", "fraction", "degree"])
def test_t_operator_symbolic(handle):
    for tok in handle.module.tokens(1):
        if tok.bar:
            continue
        rep = t_operator_check(handle, 2, -1, single(tok))
        assert rep.passed, rep.violations
        assert rep.kind == "t-operator"
        assert rep.details["b"] == "b"


@pytest.mark.parametrize("b", [0, HALF])
def test_t_operator_singular_at_degenerate_b(b):
    handle = laurent(0, b)
    with pytest.raises(SingularNormalizerError):
        t_operator_check(handle, 1, 1, single(handle.module.token(0)))


def test_t_operator_fails_on_twisted_action():
    handle = laurent(sigma=True)
    rep = t_operator_check(handle, 1, 1, single(handle.module.token(0)))
    assert not rep.passed and rep.violations


def _double_g_act(monkeypatch):
    original = analysis.g_act
    monkeypatch.setattr(analysis, "g_act",
                        lambda handle, g, v: original(handle, g, v).scale(2))


def test_t_operator_fails_on_a_perturbed_action(monkeypatch):
    handle = laurent()
    v = single(handle.module.token(1))
    assert t_operator_check(handle, 2, -1, v).passed
    _double_g_act(monkeypatch)
    data = t_operator_check(handle, 2, -1, v).to_json()
    assert not data["passed"] and data["violationCount"] == 1
    assert set(data["violations"][0]) == {"k", "d", "difference"}
    assert (data["violations"][0]["k"], data["violations"][0]["d"]) == (2, -1)


def test_t_operator_unaffected_by_parity_flip():
    rep = t_operator_check(laurent(pi=True), 2, -1,
                           single(LaurentModule("a").token(1)))
    assert rep.passed


def test_t_operator_input_validation():
    handle = laurent()
    mod = handle.module
    with pytest.raises(ValueError):
        t_operator_check(handle, 1, 0, single(mod.token(0)))
    with pytest.raises(ValueError):
        t_operator_check(handle, 1, 1, single(mod.token(0, bar=True)))
    with pytest.raises(ValueError):
        t_operator_check(handle, 1, 1, ModuleVector.zero())
    with pytest.raises(ValueError):
        t_operator_check(laurent(sector=1), 1, 1, single(mod.token(0)))


# ----------------------------------------------------------------------
# the Q-operator identity (b = 0 only)

def test_q_operator_laurent_symbolic_weight():
    handle = laurent("a", 0)
    rep = q_operator_check(handle, -1, 2, single(handle.module.token(2, bar=True)))
    assert rep.passed and rep.kind == "q-operator"
    assert rep.details == {"m": -1, "d": 2}


def test_q_operator_omega():
    handle = GModuleHandle(OmegaModule(2), 0)
    rep = q_operator_check(handle, 1, 1, single(handle.module.token(1, bar=True)))
    assert rep.passed


def test_q_operator_m_zero_is_identity_case():
    handle = laurent("a", 0)
    assert q_operator_check(handle, 0, 1,
                            single(handle.module.token(-1, bar=True))).passed


def test_q_operator_fails_on_a_perturbed_action(monkeypatch):
    handle = laurent("a", 0)
    wbar = single(handle.module.token(2, bar=True))
    assert q_operator_check(handle, -1, 2, wbar).passed
    _double_g_act(monkeypatch)
    data = q_operator_check(handle, -1, 2, wbar).to_json()
    assert not data["passed"] and data["violationCount"] == 1
    assert set(data["violations"][0]) == {"m", "d", "difference"}
    assert (data["violations"][0]["m"], data["violations"][0]["d"]) == (-1, 2)


def test_q_operator_needs_b_zero_and_barred_input():
    mod = LaurentModule("a")
    with pytest.raises(ValueError):
        q_operator_check(laurent(), 1, 1, single(mod.token(0, bar=True)))
    with pytest.raises(ValueError):
        q_operator_check(laurent("a", 0), 1, 1, single(mod.token(0)))


# ----------------------------------------------------------------------
# span probes

def test_probe_b_zero_seed_is_annihilated():
    handle = laurent(0, 0)
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 4, 4))
    assert (rep.rank, rep.ambient, rep.full) == (1, 18, False)
    assert len(rep.missing) == 17


def test_probe_b_zero_quotient_is_irreducible():
    handle = laurent(0, 0, quotient=True)
    rep = span_probe(handle, single(handle.module.token(1)), Window(2, 4, 4))
    assert (rep.rank, rep.ambient, rep.full) == (17, 17, True)
    assert rep.missing == []


def test_probe_b_half_unbarred_seed_misses_one_token():
    handle = laurent(0, HALF)
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 4, 4))
    assert (rep.rank, rep.ambient) == (17, 18)
    assert rep.missing == ["t^0~"]


def test_probe_b_half_barred_weight_zero_seed_reaches_everything():
    # bar(t^0) lies outside the invariant part: G- brings it down to t^0
    # and the seed itself supplies the one token the subspace misses.
    handle = laurent(0, HALF)
    rep = span_probe(handle, single(handle.module.token(0, bar=True)),
                     Window(2, 4, 4))
    assert (rep.rank, rep.ambient, rep.full) == (18, 18, True)


def test_probe_b_half_omega_misses_constant_barred_token():
    handle = GModuleHandle(OmegaModule(2), HALF)
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 4, 4))
    assert (rep.rank, rep.ambient) == (9, 10)
    assert rep.missing == ["D^0~"]


def test_probe_b_half_generic_weight_single_tokens_generate():
    handle = laurent(Fraction(1, 3), HALF)
    for tok in (handle.module.token(0), handle.module.token(0, bar=True)):
        assert span_probe(handle, single(tok), Window(2, 4, 4)).full


def test_probe_symbolic_with_cross_check(monkeypatch):
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    handle = laurent()
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 3, 4))
    assert (rep.rank, rep.ambient, rep.full) == (14, 14, True)
    assert rep.cross_check_rank == 14
    assert rep.specialization == "symbolic"
    assert rep.notes == ["cross-checked at a=28/31, b=13/31"]


def test_probe_notes_a_cross_check_above_the_symbolic_rank(monkeypatch):
    # an elimination that drops every row with a symbolic coefficient loses
    # rank symbolically but not at the rational cross-check point, whose
    # rows hold ints
    original = analysis._RowSpan.insert

    def lossy(self, vec):
        if all(isinstance(c, int) or c.is_rational for _, c in vec.items()):
            return original(self, vec)
        return False

    monkeypatch.setattr(analysis._RowSpan, "insert", lossy)
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    handle = laurent()
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 3, 4))
    assert rep.rank < rep.cross_check_rank == 14
    assert rep.notes == ["cross-checked at a=28/31, b=13/31",
                         "cross-check exceeded the symbolic rank; elimination bug"]
    assert set(rep.to_json()) == set(span_probe(
        laurent(0, 0), single(handle.module.token(0)), Window(2, 3)).to_json())


def test_probe_cross_check_gives_up_after_a_fixed_number_of_draws(monkeypatch):
    # every draw lands on the pole a = 28/31 of alpha: the probe draws
    # _CROSS_CHECK_DRAWS times, then lets the last singularity propagate
    draws = []

    class OnThePole:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            draws.append((lo, hi))
            return 28

    monkeypatch.setattr(analysis, "random", SimpleNamespace(Random=OnThePole))
    handle = laurent("1/(31*a - 28)")
    with pytest.raises(SingularSpecializationError, match="vanishes under a=28/31"):
        span_probe(handle, single(handle.module.token(0)), Window(1, 1))
    # one randint per parameter (a and b) per draw
    assert len(draws) == 2 * analysis._CROSS_CHECK_DRAWS == 20


def test_probe_keeps_the_callers_tables():
    # without a specialization the probe acts through the caller's handle,
    # so the operators it computes stay with it; it composes its words
    # itself, so the module's word table stays empty
    handle = laurent()
    assert handle.specialize({}) is handle
    seed = single(handle.module.token(0))
    span_probe(handle, seed, Window(1, 1))
    operators = dict(handle._cache)
    assert operators and not handle.module._words
    span_probe(handle, seed, Window(2, 2))
    assert all(handle._cache[key] is op for key, op in operators.items())
    assert len(handle._cache) > len(operators)


def test_probe_specialization_disables_cross_check():
    handle = laurent()
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 3, 4),
                     {"a": Fraction(1, 3), "b": Fraction(1, 3)})
    assert rep.full
    assert rep.specialization == {"a": "1/3", "b": "1/3"}
    assert rep.cross_check_rank is None


def test_probe_rank_is_twist_invariant():
    seed = single(LaurentModule("a").token(0))
    plain = span_probe(laurent(), seed, Window(2, 3, 4))
    twisted = span_probe(laurent(sigma=True), seed, Window(2, 3, 4))
    assert plain.rank == twisted.rank


def test_probe_rejects_zero_seed():
    with pytest.raises(ValueError):
        span_probe(laurent(), ModuleVector.zero(), Window(2, 3))
    # a seed supported only on the killed token specializes to zero
    handle = laurent(0, 0, quotient=True)
    with pytest.raises(ValueError):
        span_probe(laurent(0, 0), single(handle.module.token(0)).scale(0),
                   Window(2, 3))


def test_reach_report_json_shape():
    handle = laurent(0, 0)
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 3))
    data = rep.to_json()
    assert data["schema"] == "1" and data["kind"] == "span-probe"
    assert data["seed"] == "t^0"
    assert data["window"] == {"genBound": 2, "tokenBound": 3, "wordLength": 1}
    assert set(data) == {"schema", "kind", "seed", "window", "rank", "ambient",
                         "full", "missing", "projectedTerms", "specialization",
                         "crossCheckRank", "notes"}


# ----------------------------------------------------------------------
# counting mode: the closure after full rank only counts projected terms

def _reference_closure(handle, seed, window):
    """The closure loop without counting mode: every image built and inserted."""
    tokens = handle.tokens(window.token_bound)
    allowed = set(tokens)
    span = analysis._RowSpan(tokens)
    gens = analysis._window_generators(handle.sector, window.gen_bound)

    def project(vec):
        kept = {tok: c for tok, c in vec.items() if tok in allowed}
        return ModuleVector(kept), len(vec) - len(kept)

    start, projected = project(handle.reduce(seed))
    frontier = [start] if span.insert(span.row(start)) else []
    while frontier and span.rank < len(tokens):
        new_frontier = []
        for vec in frontier:
            for _, gvec in gens:
                image, dropped = project(g_act(handle, gvec, vec))
                projected += dropped
                if not image.is_zero and span.insert(span.row(image)):
                    new_frontier.append(image)
        frontier = new_frontier
    pivots = {tokens[i] for i in span.pivots}
    missing = [render_token(handle.module, tok) for tok in tokens if tok not in pivots]
    return span.rank, missing, projected


def _counting_cases():
    """(handle, seeds, window) covering the acceptance point and every twist."""
    point = [GModuleHandle(LaurentModule(THIRD), THIRD),
             GModuleHandle(OmegaModule(2), THIRD),
             GModuleHandle(FractionModule((THIRD, THIRD), (0, 1)), THIRD),
             GModuleHandle(DegreeModule(2), THIRD)]
    lau = LaurentModule(0)
    omega = GModuleHandle(OmegaModule(2), HALF)
    return [(h, h.tokens(2), Window(2, 2, 2)) for h in point] + [
        (GModuleHandle(LaurentModule(1), 0, quotient=True), [lau.token(0)], Window(2, 3)),
        (laurent(THIRD, THIRD, sector=1), [lau.token(0)], Window(2, 3)),
        (laurent(THIRD, THIRD, sigma=True), [lau.token(1, bar=True)], Window(2, 3)),
        (laurent(), [lau.token(0)], Window(2, 3)),
        # the b = 1/2 gap never fills its window
        (omega, [omega.module.token(0)], Window(2, 4)),
    ]


def _counting_mismatches():
    """Cases whose probe differs from the reference closure in rank, missing
    tokens, projected terms or (for a symbolic probe) cross-check rank."""
    out = []
    for handle, seeds, window in _counting_cases():
        for tok in seeds:
            rep = span_probe(handle, single(tok), window)
            if (rep.rank, rep.missing, rep.projected) != \
                    _reference_closure(handle, single(tok), window):
                out.append((handle.describe(), str(tok)))
            if handle.parameters():
                text = rep.notes[0].removeprefix("cross-checked at ")
                draw = {name: Fraction(value) for name, value in
                        (pair.split("=") for pair in text.split(", "))}
                point = handle.specialize(draw)
                if rep.cross_check_rank != \
                        _reference_closure(point, single(tok), window)[0]:
                    out.append((handle.describe(), str(tok), "crossCheckRank"))
    return out


def test_counting_mode_matches_the_full_closure(monkeypatch):
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    assert _counting_mismatches() == []


def test_counting_mode_without_its_count_is_caught(monkeypatch):
    # the negative control: a counting mode that drops the out-of-window
    # terms changes projectedTerms, and the comparison above must see it
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    monkeypatch.setattr(analysis._ActionTable, "count", lambda table, vec, gens: 0)
    assert _counting_mismatches()


def test_counting_mode_skips_elimination_after_full_rank(monkeypatch):
    # an image is built ("act") only while the span is short of full rank;
    # the rest of the level is counted ("count"), once per vector
    applications, spans = [], []
    real_act, real_count = analysis._ActionTable.act, analysis._ActionTable.count
    real_init = analysis._RowSpan.__init__
    monkeypatch.setattr(analysis._ActionTable, "act", lambda table, g, vec: (
        applications.append(("act", spans[-1].rank)) or real_act(table, g, vec)))
    monkeypatch.setattr(analysis._ActionTable, "count", lambda table, vec, gens: (
        applications.append(("count", spans[-1].rank)) or real_count(table, vec, gens)))
    monkeypatch.setattr(analysis._RowSpan, "__init__",
                        lambda self, tokens: spans.append(self) or real_init(self, tokens))
    handle = GModuleHandle(LaurentModule(THIRD), THIRD)
    rep = span_probe(handle, single(handle.module.token(2)), Window(2, 2, 2))
    assert rep.full and rep.projected > 0
    assert max(rank for mode, rank in applications if mode == "act") < rep.ambient
    counting = [rank for mode, rank in applications if mode == "count"]
    assert counting and set(counting) == {rep.ambient}


def test_a_cross_check_draw_stops_at_full_rank(monkeypatch):
    # a draw keeps only its rank, so it counts no projected term: every
    # count comes from the symbolic closure, whose table is not exact
    monkeypatch.delenv("SUPERMOD_SEED", raising=False)
    exact = []
    real_count = analysis._ActionTable.count
    monkeypatch.setattr(analysis._ActionTable, "count", lambda table, vec, gens: (
        exact.append(table.exact) or real_count(table, vec, gens)))
    handle = laurent()
    rep = span_probe(handle, single(handle.module.token(0)), Window(2, 3, 4))
    assert rep.full and rep.cross_check_rank == rep.ambient
    assert exact and not any(exact)


def test_action_table_rescales_its_sums_on_a_new_denominator():
    # the words of this module lie over different denominators, so an image
    # sums them over their lcm, rescaling the sum so far; each image must be
    # the superize_act image, split at the window, up to one common nonzero
    # factor
    module = FractionModule(("1/3", "1/2"), (0, HALF))
    for b in (THIRD, 0, HALF):
        handle = GModuleHandle(module, b)
        tokens = handle.tokens(1)
        gens = algebra_generators(0, 1, include_central=False)
        table = analysis._ActionTable(handle, tokens, gens, True)
        for gen in gens:
            for first, second in zip(range(len(tokens)), range(1, len(tokens))):
                vec = {first: 1, second: 2}
                escaped, into = table.act(gen, vec)
                got = {tokens[col]: c for col, c in into.items()}
                want = handle.reduce(superize_act(module, handle.operator(gen), ModuleVector(
                    {tokens[col]: scalar(c) for col, c in vec.items()})))
                assert escaped == sum(t not in tokens for t in want._terms)
                inside = {t: c.as_fraction() for t, c in want.items() if t in tokens}
                assert set(got) == set(inside)
                if got:
                    ratio = Fraction(next(iter(got.values()))) / inside[next(iter(got))]
                    assert all(x == ratio * inside[t] for t, x in got.items()), (b, gen, vec)
        # the words read lie over more than one denominator
        assert len({d for d, _ in table.values()}) > 1


def _table_token(table, n):
    """The token a table numbers n."""
    u = table.twins[n >> 1]
    return u.barred() if n & 1 else u


def _table_mismatches(handle, table, pairs):
    """Words, images and counts of a table that differ from the module's
    word table and g_act's Scalar images: each word over its
    denominator (a key ~n holding the terms of word n with neither twin in
    the window), each (generator, token number) image of ``pairs`` over its
    denominator and the operator's (1 for a Scalar table, whose operators
    are not cleared), and the count of its terms outside the window."""
    out, window = [], {_table_token(table, n) for n in table.column}

    def value(x, den):
        return Fraction(x, den) if table.exact else x * scalar(den) ** -1

    for (k, l, n), (den, terms) in list(table.items()):
        want = handle.module.word(k, l, table.twins[max(n, ~n) >> 1])._terms
        if n < 0:
            want = {t: c for t, c in want.items() if not {t, t.barred()} & window}
        if {_table_token(table, m): value(x, den) for m, x in terms.items()} != want:
            out.append(("word", k, l, n))
    for gen, n in pairs:
        den, terms = table.image(table.ops[gen], [(n, 1)])
        terms.pop(table.gone, None)
        scale = analysis._cleared(handle.operator(gen)._terms, table.exact)[1]
        got = {_table_token(table, m): value(x, den * scale) for m, x in terms.items() if x}
        want = g_act(handle, LieVector.basis(gen, handle.sector),
                     single(_table_token(table, n)))._terms
        if got != want:
            out.append(("image", render_generator(gen), n))
        if table.count({table.column[n]: 1}, [gen]) != len(set(want) - window):
            out.append(("count", render_generator(gen), n))
    return out


def test_action_table_entries_are_the_module_words(monkeypatch):
    # every word a table composes is DModule.word, and every image it sums
    # (its barred entries re-barred, the killed token dropped) is g_act's
    # Scalar image: in ints over a denominator at a rational point,
    # for every family in both sectors, the twists, and fraction poles away
    # from 0; and as Scalars on symbolic handles, as module_axiom_check
    # composes them before kronecker_table clears them
    handles = [handle for handle, *_ in _point_cases()]
    handles.append(GModuleHandle(FractionModule((THIRD, HALF, 2), (0, HALF, -2)), THIRD, sector=1))
    dens = set()
    for handle in handles:
        tokens = handle.tokens(2)
        gens = algebra_generators(handle.sector, 2, include_central=False)
        table = analysis._ActionTable(handle, tokens, gens, True)
        pairs = [(gen, n) for gen in gens for n in table.cols]
        assert _table_mismatches(handle, table, pairs) == [], handle.describe()
        assert len(table) > 2 * len(tokens) and min(n for *_, n in table) < 0
        dens.update(d for d, _ in table.values())
    # the words lie over denominators their steps composed
    assert 3 in dens and max(dens) > 3

    tables, planned = [], []
    real_init, real_kronecker = analysis._ActionTable.__init__, analysis.kronecker_table
    monkeypatch.setattr(analysis._ActionTable, "__init__", lambda table, *args: (
        tables.append(table) or real_init(table, *args)))
    monkeypatch.setattr(analysis, "kronecker_table", lambda *args: planned.append(
        _table_mismatches(handle, tables[-1], [
            (gen, n) for gen in tables[-1].ops for n in tables[-1].cols])) or real_kronecker(*args))
    for name in AXIOM_HANDLES:
        handle = AXIOM_HANDLES[name]()
        assert module_axiom_check(handle, Window(1, 1)).passed
        assert not tables[-1].exact
    assert planned == [[]] * len(AXIOM_HANDLES)


def test_a_probe_reads_only_the_columns_its_vectors_hold(monkeypatch):
    # laziness: this probe fills its window in its first level, so every
    # image it sums, counting mode included, is of a generator on its seed,
    # and every word of more than one step it composes is on the seed,
    # where an eager table would build those of all six window tokens
    tables, reads = [], []
    real_init, real_image = analysis._ActionTable.__init__, analysis._ActionTable.image
    monkeypatch.setattr(analysis._ActionTable, "__init__", lambda table, *args: (
        tables.append(table) or real_init(table, *args)))
    monkeypatch.setattr(analysis._ActionTable, "image", lambda table, op, vec, *args: (
        reads.extend((gen, n) for gen in table.ops if table.ops[gen] is op for n, _ in vec)
        or real_image(table, op, vec, *args)))
    handle = GModuleHandle(LaurentModule(THIRD), THIRD)
    seed = handle.module.token(0)
    rep = span_probe(handle, single(seed), Window(1, 1, 1))
    assert rep.full and rep.ambient == 6
    [table] = tables
    gens = algebra_generators(0, 1, include_central=False)
    assert sorted(reads) == sorted((gen, table.num(seed)) for gen in gens)
    assert {max(n, ~n) for k, l, n in table if abs(k) + l > 1} == {table.num(seed)}


# ----------------------------------------------------------------------
# exactness: the integer closure at a point against its Scalar form

def _point_cases():
    """(handle, seeds, windows) at rational points: every family in both
    sectors, the sigma, pi and quotient twists, single tokens of both
    parities and multi-term seeds with rational coefficients."""
    fraction = FractionModule((THIRD, THIRD), (0, 1))
    handles = [GModuleHandle(module, THIRD, sector=sector)
               for module in (LaurentModule(THIRD), OmegaModule(2), fraction,
                              DegreeModule(2))
               for sector in (0, 1)]
    handles += [GModuleHandle(LaurentModule(THIRD), THIRD, sigma=True),
                GModuleHandle(OmegaModule(2), THIRD, pi=True, sigma=True),
                GModuleHandle(fraction, THIRD, sector=1, sigma=True, pi=True),
                GModuleHandle(LaurentModule(1), 0, quotient=True)]
    windows = [Window(1, 1, 1), Window(1, 2, 2), Window(2, 2, 2)]
    cases = []
    for handle in handles:
        first, *_, last = handle.tokens(1)
        seeds = [single(first), single(last),
                 single(first, Fraction(2, 3)) + single(last, Fraction(-5, 7))]
        if handle.module is fraction:
            seeds.append(parse_vector(fraction, "t^-1~ + (t-1)^-1"))
        cases.append((handle, seeds, windows))
    # the b = 1/2 gap: rank 9 of 10
    omega = GModuleHandle(OmegaModule(2), HALF)
    cases.append((omega, [single(omega.module.token(0))], [Window(2, 4, 4)]))
    return cases


def test_integer_closure_reports_what_the_scalar_closure_reports(monkeypatch):
    real_close = analysis._close
    forms = set()

    def scalar_form(handle, seed, window, exact, counting=True):
        assert exact and counting  # every case is a probe at a rational point
        # the number types the exact closure's pivots hold
        forms.update(type(v) for p, rest in real_close(handle, seed, window, True)[0]
                     .pivots.values() for v in (p, *rest.values()))
        return real_close(handle, seed, window, False)

    reports = []
    for handle, seeds, windows in _point_cases():
        for seed in seeds:
            for window in windows:
                exact = span_probe(handle, seed, window).to_json()
                with monkeypatch.context() as patch:
                    patch.setattr(analysis, "_close", scalar_form)
                    assert span_probe(handle, seed, window).to_json() == exact, \
                        (handle.describe(), render_vector(handle.module, seed), window)
                reports.append(exact)
    assert forms == {int}
    # the cases hold a gap, and most of them project terms
    assert any(not rep["full"] for rep in reports)
    assert sum(rep["projectedTerms"] > 0 for rep in reports) > len(reports) // 2


def _fraction_echelon(rows):
    """Gaussian elimination over Fractions: {lead column: row with a unit
    lead}, and whether each row grew the rank."""
    pivots, grew = {}, []
    for row in rows:
        grew.append(bool(_fraction_reduce(pivots, row)))
        if grew[-1]:
            rest = _fraction_reduce(pivots, row)
            lead = min(rest)
            pivots[lead] = {c: v / rest[lead] for c, v in rest.items()}
    return pivots, grew


def _fraction_reduce(pivots, row):
    rest = {c: Fraction(v) for c, v in row.items() if v}
    while rest and min(rest) in pivots:
        factor = rest[min(rest)]
        for c, v in pivots[min(rest)].items():
            rest[c] = rest.get(c, 0) - factor * v
            if not rest[c]:
                del rest[c]
    return rest


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_fraction_free_span_matches_fraction_elimination(data):
    n = data.draw(st.integers(1, 6))
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda row: {c: v for c, v in enumerate(row) if v})
    rows = data.draw(st.lists(vectors.filter(bool), min_size=1, max_size=6))
    pivots, want = _fraction_echelon(rows)
    # the same rows as ints, and as parameter-free Scalars over a drawn
    # denominator per row, which changes no span
    dens = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    as_scalars = [{c: scalar(Fraction(v, k)) for c, v in row.items()}
                  for row, k in zip(rows, dens)]
    weights = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows),
                                 max_size=len(rows)))
    combo = {}
    for w, row in zip(weights, rows):
        for c, v in row.items():
            combo[c] = combo.get(c, 0) + w * v
    probes = [{c: v for c, v in combo.items() if v}, *data.draw(st.lists(vectors, max_size=3))]
    for form, held in ((int, rows), (Scalar, as_scalars)):
        span = analysis._RowSpan(list(range(n)))
        grew = [span.insert(row) for row in held]
        assert grew == want, form
        assert span.rank == len(pivots) and set(span.pivots) == set(pivots)
        for p, rest in span.pivots.values():
            assert all(isinstance(v, form) for v in rest.values())
            if form is int:  # int rows are stored primitive
                assert isinstance(p, int) and gcd(p, *rest.values()) == 1
            else:  # a Scalar pivot is scaled to a unit lead
                assert p == 1
        vecs = [probe if form is int else {c: scalar(v) for c, v in probe.items()}
                for probe in probes]
        for probe, vec in zip(probes, vecs):
            assert span.contains(vec) == (not _fraction_reduce(pivots, probe)), (form, probe)
        assert span.contains(vecs[0])


# ----------------------------------------------------------------------
# submodule checks

def test_submodule_b_half_invariant_part_closes():
    handle = laurent(0, HALF)
    mod = handle.module
    sub = [single(mod.token(n)) for n in range(-4, 5)] + \
          [single(mod.token(n, bar=True)) for n in range(-4, 5) if n != 0]
    rep = submodule_check(handle, sub, Window(2, 4))
    assert rep.passed and rep.checked == 340
    assert rep.details["subspaceRank"] == 17


def test_submodule_single_token_not_invariant_at_generic_b():
    handle = laurent()
    rep = submodule_check(handle, [single(handle.module.token(0))], Window(2, 4))
    assert not rep.passed
    assert sorted(rep.violations[0]) == ["escapes", "generator", "vector"]


def test_submodule_whole_window_always_closes():
    handle = GModuleHandle(FractionModule(("a0", "a1"), (0, 1)), "b")
    sub = [single(tok) for tok in handle.tokens(3)]
    assert submodule_check(handle, sub, Window(2, 3)).passed


def test_submodule_rejects_degenerate_subspaces():
    handle = laurent()
    with pytest.raises(ValueError):
        submodule_check(handle, [], Window(2, 3))
    with pytest.raises(ValueError):
        submodule_check(handle, [ModuleVector.zero()], Window(2, 3))
    # every generator projects to zero in the window: nothing would be checked
    outside = [single(handle.module.token(5)), single(handle.module.token(-4, bar=True))]
    with pytest.raises(ValueError, match="outside the token window"):
        submodule_check(handle, outside, Window(2, 3))


# ----------------------------------------------------------------------
# isomorphism witnesses

def test_phi_witness_intertwines_and_preserves_parity():
    rep = iso_witness_check(*phi_witness(Fraction(1, 3), 4), Window(2, 4))
    assert rep.passed, rep.violations
    assert rep.details["parityPreserving"] is True
    assert rep.details["domainSize"] == 18 and rep.checked == 360


def test_psi_witness_passes_but_flips_parity():
    rep = iso_witness_check(*psi_witness(4), Window(2, 4))
    assert rep.passed, rep.violations
    assert rep.details["parityPreserving"] is False
    assert rep.notes and "parity" in rep.notes[0]


def test_identity_witness_passes():
    handle = GModuleHandle(OmegaModule(2), "b")
    rep = iso_witness_check(*identity_witness(handle, 3), Window(2, 3))
    assert rep.passed and rep.kind == "iso-witness"


def test_witness_reports_uncovered_tokens():
    source, target, mapping = phi_witness(Fraction(1, 3), 4)
    far = source.module.token(5, bar=True)
    assert far in mapping
    del mapping[far]
    rep = iso_witness_check(source, target, mapping, Window(2, 4))
    assert not rep.passed
    assert any(v.get("undefinedOn") == "t^5~" for v in rep.violations)


def test_witness_detects_scaled_rule():
    source, target, mapping = phi_witness(Fraction(1, 3), 4)
    tok = source.module.token(0)
    mapping[tok] = mapping[tok].scale(2)
    rep = iso_witness_check(source, target, mapping, Window(2, 4))
    assert not rep.passed
    assert any("difference" in v for v in rep.violations)


def test_witness_requires_injectivity():
    handle = laurent()
    collapse = single(handle.module.token(0))
    mapping = {tok: collapse for tok in handle.tokens(4)}
    rep = iso_witness_check(handle, handle, mapping, Window(1, 2))
    assert not rep.passed
    assert any("injectivity" in v for v in rep.violations)


# ----------------------------------------------------------------------
# the module-axiom suite on a decorated handle

def test_module_axioms_hold_on_the_quotient():
    handle = laurent(0, 0, quotient=True)
    rep = module_axiom_check(handle, Window(2, 2))
    assert rep.passed and rep.checked == 2079
    assert rep.details["tags"] == ["quotient"]
    assert rep.details["sector"] == 0


def _axiom_check_through_g_act(handle, window):
    """The module-axiom suite composed from g_act calls, one vector per side.

    The reference that module_axiom_check's integer certificate must
    match, checked case and violation alike.
    """
    sector = handle.sector
    gens = algebra_generators(sector, window.gen_bound, include_central=True)
    report = VerificationReport(
        "module-axiom", {"window": window.to_json(), "sector": sector,
                         "tags": list(handle.tags)})
    for i, x in enumerate(gens):
        xv = LieVector.basis(x, sector)
        for y in gens[i:]:
            yv = LieVector.basis(y, sector)
            sign = (-1) ** (parity(x.kind) * parity(y.kind))
            for tok in handle.tokens(window.token_bound):
                v = single(tok)
                lhs = g_act(handle, bracket(xv, yv), v)
                rhs = g_act(handle, xv, g_act(handle, yv, v)) \
                    - g_act(handle, yv, g_act(handle, xv, v)).scale(sign)
                report.checked += 1
                if lhs != rhs:
                    report.violations.append({
                        "pair": [render_generator(x), render_generator(y)],
                        "token": render_token(handle.module, tok),
                        "difference": render_vector(handle.module, lhs - rhs),
                    })
    return report


def _perturb(handle):
    """Double L[1]'s operator in the handle's table: every image of L[1] is
    summed from it, by the integer certificate and by g_act alike."""
    gen = Generator("L", 2)
    handle._cache[gen] = handle.operator(gen).scale(2)


AXIOM_HANDLES = {
    "laurent": lambda: laurent(),
    "laurent-half": lambda: laurent(sector=1),
    "laurent-sigma": lambda: laurent(sigma=True),
    "laurent-pi": lambda: laurent(pi=True),
    "laurent-quotient": lambda: laurent(0, 0, quotient=True),
    "omega": lambda: GModuleHandle(OmegaModule("l"), "b"),
    "omega-half": lambda: GModuleHandle(OmegaModule("l"), "b", sector=1),
    "fraction": lambda: GModuleHandle(FractionModule(("a0", "a1"), (0, 1)), "b"),
    "degree": lambda: GModuleHandle(DegreeModule(2), "b"),
    # a non-monomial denominator, negative exponents with a b that is not
    # affine, a non-monomial lambda, a name shared by alpha and b
    "laurent-inverse": lambda: laurent("1/(a+1)"),
    "laurent-negative-power": lambda: laurent("a^-3", "b^2"),
    "omega-shifted": lambda: GModuleHandle(OmegaModule("l+1"), "b"),
    "laurent-shared-name": lambda: laurent("b"),
    "fraction-half-sigma-pi": lambda: GModuleHandle(
        FractionModule(("a0", "a1"), (0, 1)), "b", sector=1, sigma=True, pi=True),
}


#: (handle, generator bound): at gen bound 2 the images reach tokens beyond
#: the window, numbered past its own, and read both twins of a word there
AXIOM_CASES = [(name, 1) for name in AXIOM_HANDLES] + [
    (name, 2) for name in ("fraction", "degree", "fraction-half-sigma-pi")]


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("name, gen_bound", AXIOM_CASES,
                         ids=[name + "-gens-2" * (b == 2) for name, b in AXIOM_CASES])
def test_module_axioms_match_the_g_act_composition(name, gen_bound, perturbed):
    handle = AXIOM_HANDLES[name]()
    if perturbed:
        _perturb(handle)
    window = Window(gen_bound, 1)
    got = module_axiom_check(handle, window).to_json()
    assert got == _axiom_check_through_g_act(handle, window).to_json()
    assert got["passed"] is not perturbed


@pytest.mark.parametrize("name", list(AXIOM_HANDLES))
def test_module_axiom_products_cover_every_image_read(name, monkeypatch):
    # the Kronecker height's products factor bounds sum |v| in
    # l Delta^2 (x.(y.tok) -+ y.(x.tok)): each step sums one product, scaled
    # by l, per term of an image the suite reads, so it is at least 2 l s
    seen, real = [], analysis.kronecker_table
    monkeypatch.setattr(analysis, "kronecker_table",
                        lambda *args: seen.append(args[3]) or real(*args))
    handle, window = AXIOM_HANDLES[name](), Window(1, 1)
    assert module_axiom_check(handle, window).passed
    gens = algebra_generators(handle.sector, window.gen_bound, include_central=True)
    ell = max(c.denominator for i, x in enumerate(gens) for y in gens[i:]
              for g, c in _basis_bracket(x, y) if g.kind != "C")
    acting = [LieVector.basis(g, handle.sector) for g in gens if g.kind != "C"]
    images = [g_act(handle, x, single(tok))
              for x in acting for tok in handle.tokens(window.token_bound)]
    reached = {tok for image in images for tok in image._terms}
    images += [g_act(handle, x, single(tok)) for x in acting for tok in reached]
    s = max(len(image._terms) for image in images)
    assert len(seen) == 1 and seen[0] >= 2 * ell * s


def test_module_axioms_fail_on_a_perturbed_image():
    # negative control: one doubled operator must fail the suite, and
    # each violation must name the same difference lhs - rhs as composing
    # g_act by hand
    handle = laurent()
    window = Window(1, 1)
    assert module_axiom_check(handle, window).passed
    _perturb(handle)
    rep = module_axiom_check(handle, window)
    assert not rep.passed and rep.violations
    assert all(v["difference"] != "0" for v in rep.violations)
    assert rep.violations == _axiom_check_through_g_act(handle, window).violations


SYMBOLIC_SPECS = {
    "laurent": '{"family":"laurent","alpha":"a"}',
    "omega": '{"family":"omega","lambda":"l"}',
    "fraction": '{"family":"fraction","alphas":["a0","a1"],"betas":["0","1"]}',
    "degree": '{"family":"degree","n":2}',
}


@pytest.mark.parametrize("sigma", [False, True], ids=["plain", "sigma"])
@pytest.mark.parametrize("sector", ["0", "1/2"])
@pytest.mark.parametrize("family", list(SYMBOLIC_SPECS))
def test_a_passing_check_module_builds_no_scalar_image(family, sector, sigma,
                                                        monkeypatch, capsys):
    # the certificate reads operators and words at its Kronecker point;
    # Scalar images are built only to render a failing case
    calls = []
    real_act = functors.superize_act
    monkeypatch.setattr(functors, "superize_act",
                        lambda *args: calls.append("superize_act") or real_act(*args))
    argv = ["check-module", "--module", SYMBOLIC_SPECS[family], "--b", "b",
            "--sector", sector, "--window", "1,1"] + ["--sigma"] * sigma
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["checked"] > 0
    assert calls == []
    # the spy does see the Scalar images g_act builds
    handle = laurent()
    g_act(handle, LieVector.basis(Generator("L", 2), 0), single(handle.module.token(0)))
    assert calls == ["superize_act"]

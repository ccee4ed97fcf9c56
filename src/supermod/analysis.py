"""Finite-window verification of the constructed modules.

Everything here is exact and desk-scale: modules are truncated to a token
window, generator applications that leave the window are projected away
(and counted), and ranks come from exact elimination over the rational
or rational-function coefficients.  A full-rank probe is therefore
*evidence* for irreducibility, never proof; a rank gap, on the other hand,
is an honest certificate that the seed fails to generate within the window.

Both exact checks read the action g -> rho_M(sigma_b(g)) from one table
(:class:`_ActionTable`).  At a rational point a probe reads it in
integers, in window columns: each one-step image of a token (t, t^-1, D)
is cleared once to an integer vector over a denominator, words are
composed from them, vectors are held primitive, and elimination is
fraction-free.  Scaling a vector by a
nonzero rational changes neither its support nor whether it lies in a
span, and the lead columns of an echelon basis depend only on the span, so
rank, missing tokens and projected terms are those of the rational
closure.  With parameters left the same closure and span class run over
Scalars; each cross-check draw reruns it in ints, up to full rank.

The module-axiom suite runs in ints too, exactly in every parameter: at one
Kronecker point an integer polynomial within its bounds is zero exactly
when its value is (:func:`module_axiom_check`).

The operator identities checked here are the two enveloping-algebra
tricks that drive the degeneration analysis:

    T_{k,d} = (1/4d^2) (L_{-d} G+_{k+d} + L_d G+_{k-d} - 2 L_0 G+_k)
    Q_{m,d} = (2/d^2)  (L_{-d} L_{m+d} + L_d L_{m-d} - 2 L_0 L_m)

On every constructed module, (1/(b(1-2b))) T_{k,d} v = the barred copy of
t^k v for unbarred v, provided the normalizer b(1-2b) is invertible; and
at b = 0, Q_{m,d} w-bar = the barred copy of t^m w.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .dmodules import BasisToken, LaurentModule, ModuleVector, render_token, render_vector
from .functors import GModuleHandle, g_act, land
from .liealg import (Generator, LieVector, VerificationReport, _basis_bracket,
                     algebra_generators, bracket, parity, render_generator)
from .scalars import ONE, ScalarError, SingularSpecializationError, kronecker_table, scalar

__all__ = [
    "Window",
    "ReachReport",
    "SingularNormalizerError",
    "t_operator_check",
    "q_operator_check",
    "span_probe",
    "submodule_check",
    "iso_witness_check",
    "module_axiom_check",
    "phi_witness",
    "psi_witness",
    "identity_witness",
    "probe_seed",
]


class SingularNormalizerError(ScalarError, ZeroDivisionError):
    """The normalizer b(1-2b) vanished, so the T-identity cannot be scaled."""


@dataclass(frozen=True)
class Window:
    """Truncation bounds: generator indices, token indices, word length."""

    gen_bound: int
    token_bound: int
    word_length: int = 1

    def __post_init__(self):
        if min(self.gen_bound, self.token_bound, self.word_length) < 1:
            raise ValueError("window bounds must all be >= 1")

    def to_json(self) -> dict:
        return {"genBound": self.gen_bound, "tokenBound": self.token_bound,
                "wordLength": self.word_length}


@dataclass
class ReachReport:
    """What a seed generates inside a window, measured exactly."""

    seed: str
    window: Window
    rank: int
    ambient: int
    missing: list[str]
    specialization: dict[str, str] | str
    projected: int
    cross_check_rank: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def full(self) -> bool:
        return self.rank == self.ambient

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "kind": "span-probe",
            "seed": self.seed,
            "window": self.window.to_json(),
            "rank": self.rank,
            "ambient": self.ambient,
            "full": self.full,
            "missing": self.missing,
            "projectedTerms": self.projected,
            "specialization": self.specialization,
            "crossCheckRank": self.cross_check_rank,
            "notes": self.notes,
        }


#: seeded draws a cross-check makes before a pole at every draw propagates
_CROSS_CHECK_DRAWS = 10


def probe_seed() -> int:
    """The seed for randomized cross-checks (env SUPERMOD_SEED, default 0)."""
    text = os.environ.get("SUPERMOD_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SUPERMOD_SEED must be an integer, got {text!r}") from None


# ----------------------------------------------------------------------
# exact elimination over the coefficient field

class _RowSpan:
    """A row-reduced span of rows over a fixed, ordered token list.

    A row is a {column: value} dict, its values all ints or all Scalars,
    column i standing for ``tokens[i]``; :meth:`row` reads a token vector
    as one.  The keys of ``pivots`` are the lead columns of an
    echelon basis, which depend only on the span, not on the order or scale
    of the vectors.  A pivot is stored as its lead entry p and the rest,
    negated; a row with lead entry a is reduced as row * p + rest * a, which
    clears the lead and keeps the span.  An int pivot is stored primitive
    and gcd(a, p) is divided out first, so integer rows are eliminated
    fraction-free and every entry stays an int.  A Scalar pivot is scaled to
    p = 1 once, so its reductions only multiply and add.
    """

    def __init__(self, tokens: list[BasisToken]):
        self.index = {tok: i for i, tok in enumerate(tokens)}
        self.pivots: dict[int, tuple] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def row(self, vec: ModuleVector) -> dict:
        return {self.index[tok]: coeff for tok, coeff in vec._terms.items()}

    def _reduce(self, row: dict) -> dict:
        pivots, row = self.pivots, dict(row)
        while row:
            pivot = pivots.get(lead := min(row))
            if pivot is None:
                break
            p, rest = pivot
            a = row.pop(lead)
            if p != 1:
                g = gcd(a, p)
                a, p = a // g, p // g
                if p != 1:
                    row = {col: v * p for col, v in row.items()}
            for col, v in rest.items():
                v = row.get(col, 0) + a * v
                if v:
                    row[col] = v
                else:
                    del row[col]
        return row

    def insert(self, row: dict) -> bool:
        """Add a row to the span; True when the rank grew."""
        row = self._reduce(row)
        if not row:
            return False
        lead = min(row)
        if isinstance(row[lead], int):
            row = _primitive(row)
            p, scale = row.pop(lead), -1
        else:
            p, scale = 1, -(row.pop(lead) ** -1)
        self.pivots[lead] = p, {col: v * scale for col, v in row.items()}
        return True

    def contains(self, row: dict) -> bool:
        return not self._reduce(row)


def _project(vec: ModuleVector, allowed: set[BasisToken]) -> tuple[ModuleVector, int]:
    """Drop tokens outside the window, returning the dropped-term count."""
    kept = {tok: coeff for tok, coeff in vec._terms.items() if tok in allowed}
    if len(kept) == len(vec):
        return vec, 0
    return vec._like(kept), len(vec) - len(kept)


def _window_generators(sector: int, bound: int) -> list[tuple[Generator, LieVector]]:
    gens = algebra_generators(sector, bound, include_central=False)
    return [(g, LieVector.basis(g, sector)) for g in gens]


# ----------------------------------------------------------------------
# the T and Q operator identities

def _casimir_sum(handle: GModuleHandle, kind: str, k: int, d: int,
                 v: ModuleVector) -> ModuleVector:
    """L_{-d} g_{k+d} v + L_d g_{k-d} v - 2 L_0 g_k v, g the generators of a kind."""

    def word(m: int, n: int) -> ModuleVector:
        inner = g_act(handle, LieVector.basis(Generator(kind, 2 * n), 0), v)
        return g_act(handle, LieVector.basis(Generator("L", 2 * m), 0), inner)

    return word(-d, k + d) + word(d, k - d) - word(0, k).scale(2)


def _identity_report(handle: GModuleHandle, kind: str, index: str, k: int,
                     d: int, lhs: ModuleVector, u: ModuleVector,
                     details: dict) -> VerificationReport:
    """One case: lhs against the reduced barred copy of t^k u, u unbarred."""
    rhs = handle.reduce(
        handle.module.act_t(k, u).map_tokens(lambda tok: tok.barred()))
    report = VerificationReport(kind, details)
    report.checked += 1
    if lhs != rhs:
        report.violations.append({index: k, "d": d, "difference": str(lhs - rhs)})
    return report


def t_operator_check(handle: GModuleHandle, k: int, d: int,
                     v: ModuleVector) -> VerificationReport:
    """Check (1/(b(1-2b))) T_{k,d} v = theta t^k v for unbarred v."""
    if d == 0:
        raise ValueError("d must be nonzero")
    if handle.sector != 0:
        raise ValueError("the T identity lives in sector 0")
    if v.is_zero or any(tok.bar for tok, _ in v.items()):
        raise ValueError("v must be nonzero with unbarred support")
    normalizer = handle.b * (1 - 2 * handle.b)
    if normalizer.is_zero:
        raise SingularNormalizerError(
            f"b(1-2b) = 0 at b = {handle.b.render()}; the T identity degenerates")
    lhs = _casimir_sum(handle, "G+", k, d, v).scale(
        scalar(Fraction(1, 4 * d * d)) / normalizer)
    return _identity_report(handle, "t-operator", "k", k, d, lhs, v,
                            {"k": k, "d": d, "b": handle.b.render()})


def q_operator_check(handle: GModuleHandle, m: int, d: int,
                     wbar: ModuleVector) -> VerificationReport:
    """Check Q_{m,d} w-bar = the barred copy of t^m w, at b = 0."""
    if d == 0:
        raise ValueError("d must be nonzero")
    if handle.sector != 0:
        raise ValueError("the Q identity lives in sector 0")
    if handle.b != scalar(0):
        raise ValueError(f"the Q identity needs b = 0, got b = {handle.b.render()}")
    if wbar.is_zero or any(not tok.bar for tok, _ in wbar.items()):
        raise ValueError("the argument must be nonzero with barred support")
    lhs = _casimir_sum(handle, "L", m, d, wbar).scale(Fraction(2, d * d))
    w = wbar.map_tokens(lambda tok: tok.unbarred())
    return _identity_report(handle, "q-operator", "m", m, d, lhs, w, {"m": m, "d": d})


# ----------------------------------------------------------------------
# span probes

def _cleared(terms: dict, exact: bool) -> tuple[dict, int]:
    """Rational coefficients over one denominator: ({key: int}, den) when
    ``exact``, and the terms as they are, over 1, otherwise."""
    if not exact:
        return terms, 1
    ratios = {key: c.as_integer_ratio() for key, c in terms.items()}
    den = lcm(*(r for _, r in ratios.values()))
    return {key: p * (den // r) for key, (p, r) in ratios.items()}, den


def _primitive(vec: dict) -> dict:
    g = gcd(*vec.values())
    return {tok: c // g for tok, c in vec.items()} if g > 1 else vec


class _ActionTable(dict):
    """A handle's action on numbered tokens, built once per check, filled lazily.

    Tokens are numbered as met, the window ``tokens`` first: the n-th
    unbarred token is 2n, its barred twin 2n + 1; ``cols[i]`` numbers
    ``tokens[i]`` and ``column`` inverts it.  ``ops[g]`` is generator g's
    operator (:meth:`GModuleHandle.operator`), planned (:meth:`plan`).
    ``table[k, l, n]`` is t^k D^l on the unbarred token numbered n, as
    (den, {number: coefficient}), composed on first read from the module's
    one-step images (t, t^-1, D: :meth:`DModule.act_t`, :meth:`DModule.act_D`),
    each cleared once: ints over den when ``exact``, else Scalars over 1;
    ``table[k, l, ~n]`` is that word's part outside the window.  A probe
    reads images in window columns (:meth:`act`, :meth:`count`); the
    module-axiom suite at a Kronecker point.
    """

    def __init__(self, handle: GModuleHandle, tokens: list[BasisToken],
                 gens: list[Generator], exact: bool):
        self.module, self.exact, self.number, self.twins = handle.module, exact, {}, []
        self.cols = [self.num(tok) for tok in tokens]
        self.column = {n: i for i, n in enumerate(self.cols)}
        self.gone = handle.killed_token and self.num(handle.killed_token)
        # the bar bit each Clifford unit lands an unbarred and a barred token on
        self.lands = [[(t := land(c, tok)) and t.bar for c in range(4)]
                      for tok in (self.twins[0], self.twins[0].barred())]
        self.ops = {g: self.plan(_cleared(handle.operator(g)._terms, exact)[0]) for g in gens}

    def num(self, tok: BasisToken) -> int:
        """The number of tok: 2n for the n-th unbarred token, + 1 if barred."""
        u = tok.unbarred()
        if u not in self.number:
            self.number[u] = 2 * len(self.twins)
            self.twins.append(u)
        return self.number[u] + tok.bar

    def __missing__(self, key: tuple) -> tuple:
        k, l, n = key
        if n < 0:  # word (k, l, ~n) cut to its terms outside the window
            den, terms = self[k, l, ~n]
            word = den, {m: x for m, x in terms.items() if m + 1 not in self.column}
        elif abs(k) + l > 1:  # t^(+-1) or D after a shorter word
            step = (1 if k > 0 else -1, 0) if k else (0, 1)
            den, terms = self[k - step[0], l - step[1], n]
            d, terms = self.image([[(1 if self.exact else ONE, *step, 0)]], terms.items())
            word = den * d, {t: y for t, y in terms.items() if y}
        else:  # the token itself or one step, from the module
            vec, module = ModuleVector.single(self.twins[n >> 1]), self.module
            image = module.act_t(k, vec) if k else module.act_D(vec) if l else vec
            terms, den = _cleared(image._terms, self.exact)
            word = den, {self.num(t): x for t, x in terms.items()}
        self[key] = word
        return word

    def plan(self, op: dict) -> list:
        """An operator {(k, l, c): q} on an unbarred and on a barred token:
        (q, k, l, bar bit) for each word whose Clifford unit c lands it
        (:func:`land`).  No action reads the bar flag, so on a token the word
        t^k D^l is read on its unbarred twin and the bar bit added."""
        return [[(q, k, l, lands[c]) for (k, l, c), q in op.items() if lands[c] is not None]
                for lands in self.lands]

    def image(self, plan: list, vec, outside: bool = False) -> tuple:
        """A planned operator on sum x * token n over vec's (n, x), as
        (den, {number: value}), zeros and the killed token kept; only its
        terms outside the window when ``outside``."""
        den, out = 1, {}
        for n, x in vec:
            m = ~(n & -2) if outside else n & -2
            for q, k, l, bar in plan[n & 1]:
                d, terms = self[k, l, m]
                if not terms:
                    continue
                if d != den:
                    if den % d:  # a new denominator: rescale the sum so far
                        e = lcm(den, d)
                        out = {t: y * (e // den) for t, y in out.items()}
                        den = e
                    q *= den // d
                q *= x
                for t, y in terms.items():
                    t += bar
                    y *= q
                    out[t] = y if (old := out.get(t)) is None else old + y
        return den, out

    def act(self, g: Generator, vec: dict) -> tuple[int, dict]:
        """g on vec, a {column: value} row, scaled by one nonzero constant:
        the number of terms it sends out of the window, and its row inside."""
        cols, column = self.cols, self.column
        image = self.image(self.ops[g], [(cols[col], x) for col, x in vec.items()])[1]
        image.pop(self.gone, None)
        row = {column[n]: x for n, x in image.items() if x and n in column}
        return sum(map(bool, image.values())) - len(row), row

    def count(self, vec: dict, gens: list[Generator]) -> int:
        """The number of terms gens send vec out of the window (counting
        mode), summed from the words' terms outside it only."""
        vec = [(self.cols[col], x) for col, x in vec.items()]
        return sum(sum(map(bool, self.image(self.ops[g], vec, True)[1].values())) for g in gens)


def _close(handle: GModuleHandle, seed: ModuleVector, window: Window, exact: bool,
           counting: bool = True) -> tuple[_RowSpan, list[BasisToken], int]:
    """The probe's closure: its span, the window tokens, the projected terms.

    ``exact`` runs it in ints (every coefficient must be rational): each
    vector is held primitive, which changes neither its support nor its
    membership in a span, so every result is that of the Scalar form.
    Without ``counting`` it stops at full rank, projected terms part-counted.
    """
    tokens = handle.tokens(window.token_bound)
    start, projected = _project(seed, set(tokens))
    if start.is_zero:
        raise ValueError("the seed lies outside the token window")
    span = _RowSpan(tokens)
    held = _primitive if exact else (lambda vec: vec)
    gens = algebra_generators(handle.sector, window.gen_bound, include_central=False)
    table = _ActionTable(handle, tokens, gens, exact)
    frontier = [held(_cleared(span.row(start), exact)[0])]
    span.insert(frontier[0])
    full, pivots = len(tokens), span.pivots
    while frontier and len(pivots) < full:
        new_frontier = []
        for vec in frontier:
            for i, g in enumerate(gens):
                if len(pivots) == full:  # counting mode, for the rest of the level
                    if not counting:
                        return span, tokens, projected
                    projected += table.count(vec, gens[i:])
                    break
                escaped, image = table.act(g, vec)
                projected += escaped
                if image and span.insert(image):
                    new_frontier.append(held(image))
        frontier = new_frontier
    return span, tokens, projected


def _closure_at(handle: GModuleHandle, seed: ModuleVector, window: Window,
                assignments: dict, counting: bool = True) -> tuple:
    """The probe's closure at the requested point or a cross-check draw:
    handle and seed specialized (kept when nothing is assigned), the seed
    reduced, then :func:`_close`: (handle, seed, span, tokens, projected)."""
    handle = handle.specialize(assignments)
    if assignments:
        seed = ModuleVector({t: c.specialize(assignments) for t, c in seed._terms.items()})
    seed = handle.reduce(seed)
    if seed.is_zero:
        raise ValueError("the seed must be nonzero (after any specialization)")
    return handle, seed, *_close(handle, seed, window, not handle.parameters(), counting)


def span_probe(handle: GModuleHandle, seed: ModuleVector, window: Window,
               specialization: dict | None = None) -> ReachReport:
    """Close a seed under window generator applications and measure rank.

    The closure repeats until the span stabilizes inside the token window
    (or fills it); the window's word length is echoed in the report as the
    requested depth.  Once the span fills the window, the rest of that
    level runs in counting mode: it only counts the terms that leave the
    window (``projectedTerms``), from the out-of-window parts of the words
    it applies, and eliminates nothing.  ``specialization`` is a parameter
    assignment applied first (None keeps every parameter symbolic).  At a
    rational point the closure runs in integers (:func:`_close`).  When
    parameters remain, the symbolic rank is cross-checked by the same
    closure at seeded random rationals, and the rank recorded; a draw on a
    pole of the module is redrawn, up to ``_CROSS_CHECK_DRAWS`` draws in
    all.  A seed with no term inside the token window is a ValueError.
    """
    assignments = dict(specialization or {})
    handle, seed, span, tokens, projected = _closure_at(handle, seed, window, assignments)
    missing = [render_token(handle.module, tok)
               for i, tok in enumerate(tokens) if i not in span.pivots]
    spec_used: dict[str, str] | str = (
        {name: str(Fraction(val)) for name, val in sorted(assignments.items())}
        if assignments else "symbolic")
    report = ReachReport(
        seed=render_vector(handle.module, seed), window=window, rank=span.rank,
        ambient=len(tokens), missing=missing, specialization=spec_used,
        projected=projected)
    remaining = handle.parameters()
    if remaining:  # a draw fixes every parameter, so the cross-check stops there
        rng = random.Random(probe_seed())
        for attempt in range(1, _CROSS_CHECK_DRAWS + 1):
            draw = {name: Fraction(rng.randint(1, 30), 31) for name in remaining}
            try:
                report.cross_check_rank = _closure_at(handle, seed, window, draw, False)[2].rank
                break
            except SingularSpecializationError:
                if attempt == _CROSS_CHECK_DRAWS:
                    raise
        report.notes.append(
            "cross-checked at " + ", ".join(
                f"{n}={v}" for n, v in sorted(draw.items())))
        if report.cross_check_rank > report.rank:
            report.notes.append(
                "cross-check exceeded the symbolic rank; elimination bug")
    return report


# ----------------------------------------------------------------------
# submodule and isomorphism-witness checks

def submodule_check(handle: GModuleHandle, subspace: list[ModuleVector],
                    window: Window) -> VerificationReport:
    """Is the span of the given vectors invariant inside the window?

    Images are projected to the token window before the membership test,
    matching the probe semantics: closure is asserted modulo truncation.
    """
    if not subspace:
        raise ValueError("the subspace needs at least one generator")
    tokens = handle.tokens(window.token_bound)
    allowed = set(tokens)
    span = _RowSpan(tokens)
    for vec in subspace:
        if vec.is_zero:
            raise ValueError("subspace generators must be nonzero")
        span.insert(span.row(_project(vec, allowed)[0]))
    if not span.rank:
        raise ValueError("every subspace generator lies outside the token "
                         "window, so there is nothing to check")
    gens = _window_generators(handle.sector, window.gen_bound)
    report = VerificationReport(
        "submodule", {"window": window.to_json(), "subspaceRank": span.rank})
    for vec in subspace:
        for g, gvec in gens:
            image, _ = _project(g_act(handle, gvec, vec), allowed)
            report.checked += 1
            if not span.contains(span.row(image)):
                report.violations.append({
                    "generator": render_generator(g),
                    "vector": render_vector(handle.module, vec),
                    "escapes": render_vector(handle.module, image),
                })
    return report


def iso_witness_check(source: GModuleHandle, target: GModuleHandle,
                      mapping: dict[BasisToken, ModuleVector],
                      window: Window) -> VerificationReport:
    """Does a token-correspondence rule intertwine the two actions?

    The rule must cover every token the source action reaches from the
    window tokens of its domain; uncovered tokens are reported as
    violations, never guessed.  The rule is also required to be injective
    on the window (its images must be linearly independent).
    """

    def image(vec: ModuleVector) -> tuple[ModuleVector | None, BasisToken | None]:
        out = ModuleVector.zero()
        for tok, coeff in vec.items():
            piece = mapping.get(tok)
            if piece is None:
                return None, tok
            out.add_scaled(piece, coeff)
        return out, None

    window_tokens = set(source.tokens(window.token_bound))
    domain = [tok for tok in mapping if tok in window_tokens]
    gens = _window_generators(source.sector, window.gen_bound)
    report = VerificationReport(
        "iso-witness", {"window": window.to_json(), "domainSize": len(domain)})
    parity_ok = True
    for tok in sorted(domain):
        v = ModuleVector.single(tok)
        mapped, _ = image(v)
        for img_tok, _ in mapped.items():
            if target.token_parity(img_tok) != source.token_parity(tok):
                parity_ok = False
        for g, gvec in gens:
            report.checked += 1
            lhs, missing_tok = image(g_act(source, gvec, v))
            if lhs is None:
                report.violations.append({
                    "generator": render_generator(g),
                    "token": render_token(source.module, tok),
                    "undefinedOn": render_token(source.module, missing_tok),
                })
                continue
            rhs = g_act(target, gvec, mapped)
            if lhs != rhs:
                report.violations.append({
                    "generator": render_generator(g),
                    "token": render_token(source.module, tok),
                    "difference": render_vector(target.module, lhs - rhs),
                })
    image_tokens = sorted({tok for src in domain for tok, _ in mapping[src].items()})
    img_span = _RowSpan(image_tokens)
    injective = all(img_span.insert(img_span.row(mapping[tok])) for tok in sorted(domain))
    if not injective:
        report.violations.append({"injectivity": "images are linearly dependent"})
    report.details["parityPreserving"] = parity_ok
    if not parity_ok:
        report.notes.append(
            "the rule flips parity; source and target match only as "
            "ungraded modules")
    return report


# ----------------------------------------------------------------------
# witness constructors for the degenerate-b comparisons

def _laurent_witness(alpha, token_bound: int, quotient: bool):
    """The shared shape of the two degeneration witnesses.

    Source: the invariant part of the b = 1/2 module (unbarred tokens, and
    the barred tokens that D reaches).  Target: the sigma-twist of the b=0
    module, parity-flipped -- or its quotient by the killed token when
    ``quotient`` (which forces integer alpha and drops the unreachable
    barred index).  Rule: t^n -> bar(t^n) and bar(t^n) -> t^n / (alpha+n).
    """
    alpha = scalar(alpha)
    source = GModuleHandle(LaurentModule(alpha), scalar(Fraction(1, 2)))
    target = GModuleHandle(LaurentModule(alpha), 0, pi=not quotient,
                           sigma=True, quotient=quotient)
    mapping: dict[BasisToken, ModuleVector] = {}
    for n in range(-2 * token_bound, 2 * token_bound + 1):
        mod = source.module
        mapping[mod.token(n)] = ModuleVector.single(mod.token(n, bar=True))
        weight = alpha + n
        if not weight.is_zero:
            mapping[mod.token(n, bar=True)] = ModuleVector.single(
                mod.token(n), weight ** -1)
    return source, target, mapping


def phi_witness(alpha, token_bound: int):
    """Source, target and rule for the b = 1/2 comparison at generic alpha."""
    return _laurent_witness(alpha, token_bound, quotient=False)


def psi_witness(token_bound: int):
    """Source, target and rule for the integer-weight (alpha = 0) comparison."""
    return _laurent_witness(0, token_bound, quotient=True)


def identity_witness(handle: GModuleHandle, token_bound: int):
    mapping = {tok: ModuleVector.single(tok) for tok in handle.tokens(2 * token_bound)}
    return handle, handle, mapping


# ----------------------------------------------------------------------
# the module-axiom suite

def module_axiom_check(handle: GModuleHandle, window: Window) -> VerificationReport:
    """g_act([x,y]) = g_act(x) g_act(y) -+ g_act(y) g_act(x), exhaustively.

    All homogeneous generator pairs with indices inside the window act on
    every window token (C acts as zero); nothing is projected, so the
    identities are exact in all module parameters and b.  Each image the
    suite reads is summed by an :class:`_ActionTable` as a list of (token
    number, int) pairs, the killed token dropped, from two tables: the
    operator coefficients and the (unbarred) words they read, composed as
    Scalars, then cleared and evaluated at one Kronecker point
    (:func:`kronecker_table`), over one common denominator Delta.  Each
    identity's numerator
    N = l Delta^2 (x.(y.tok) -+ y.(x.tok) - [x,y].tok), l the lcm of the
    bracket's denominators, is an integer polynomial in the entries with
    coefficients at most H = 2 S l M^2 + |l [x,y]|_1 |Delta|_1 M (M the
    bound on an entry's l1 norm from its factors, S the largest sum of the
    support sizes of the words an image reads), so at that point it is zero
    exactly when its value, a sum of int products, is: a certificate, not a
    sample.  On x = y the two products cancel when x is even and are summed
    once, as 2 l x.(x.tok), when it is odd.  A failing case renders its
    difference from the Scalar images (:func:`g_act`).
    """
    sector = handle.sector
    gens = algebra_generators(sector, window.gen_bound, include_central=True)
    acting = [g for g in gens if g.kind != "C"]
    tokens = handle.tokens(window.token_bound)
    # each pair's bracket over one denominator l, as l and {g: l*c}, and
    # the largest l and l1 norm of l [x,y] over all pairs
    pairs, top_ell, linear = [], 1, 0
    for i, x in enumerate(gens):
        for y in gens[i:]:
            terms, ell = _cleared({g: c for g, c in _basis_bracket(x, y) if g.kind != "C"}, True)
            pairs.append((x, y, ell, terms))
            top_ell = max(top_ell, ell)
            linear = max(linear, sum(map(abs, terms.values())))
    table = _ActionTable(handle, tokens, list(dict.fromkeys(
        acting + [g for *_, terms in pairs for g in terms])), False)
    # every image read: each generator on the window tokens, the acting ones
    # on every token those reach; the sum of its words' supports bounds its
    # support, so x.(y.tok) and y.(x.tok) each sum at most S products, S the
    # largest such sum
    plans, cols, gone = table.ops, table.cols, table.gone
    reached = {m + bar for g in acting for n in cols for _, k, l, bar in plans[g][n & 1]
               for m in table[k, l, n & -2][1]}
    reads = [(g, n) for g in plans for n in cols]
    reads += [(g, n) for g in acting for n in reached.difference(cols, [gone])]
    words, bound = {}, 0
    for g, n in reads:
        size, m = 0, n & -2
        for _, k, l, _ in plans[g][n & 1]:
            size += len(words.setdefault((k, l, m), table[k, l, m][1]))
        bound = max(bound, size)
    at_ops, at_words, delta = kronecker_table(
        {g: handle.operator(g)._terms for g in plans}, words, handle.parameters(),
        2 * bound * top_ell, linear)
    # the operators and their words at the point, so images are summed in ints
    table.update((key, (1, terms)) for key, terms in at_words.items())
    plans = {g: table.plan(row) for g, row in at_ops.items()}
    images = {g: {} for g in plans}
    for g, n in reads:
        image = table.image(plans[g], ((n, 1),))[1]
        image.pop(gone, None)
        images[g][n] = list(image.items())
    report = VerificationReport(
        "module-axiom", {"window": window.to_json(), "sector": sector,
                         "tags": list(handle.tags)})
    for x, y, ell, terms in pairs:
        sign = (-1) ** (parity(x.kind) * parity(y.kind))
        # (first, then, s): add s * then.(first.tok); a product of two
        # entries is over Delta^2 and an entry over Delta, so the bracket
        # terms are scaled by Delta
        if "C" in (x.kind, y.kind) or (x == y and sign > 0):
            steps = ()
        elif x == y:
            steps = (images[x], images[x], 2 * ell),
        else:
            steps = (images[y], images[x], ell), (images[x], images[y], -sign * ell)
        terms = [(images[g], c * delta) for g, c in terms.items()]
        for n, tok in zip(cols, tokens):
            acc: dict = {}
            for first, then, s in steps:
                for t, c in first[n]:
                    c *= s
                    for u, v in then[t]:
                        acc[u] = acc.get(u, 0) + c * v
            for rows, c in terms:
                for u, v in rows[n]:
                    acc[u] = acc.get(u, 0) - c * v
            if any(acc.values()):
                xv, yv = LieVector.basis(x, sector), LieVector.basis(y, sector)
                v = ModuleVector.single(tok)
                difference = g_act(handle, bracket(xv, yv), v) - (
                    g_act(handle, xv, g_act(handle, yv, v))
                    - g_act(handle, yv, g_act(handle, xv, v)).scale(sign))
                report.violations.append({
                    "pair": [render_generator(x), render_generator(y)],
                    "token": render_token(handle.module, tok),
                    "difference": render_vector(handle.module, difference),
                })
        report.checked += len(tokens)
    return report

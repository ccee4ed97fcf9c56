"""Structure maps between the algebras, and homomorphism verification.

Four maps are implemented:

``delta``
    The spectral shift identifying the two sectors.  From sector 1/2 to
    sector 0 it sends L_m -> L_m + H_m/2 + delta_{m,0} C/24,
    H_m -> H_m + delta_{m,0} C/6, G+-_p -> G+-_{p +- 1/2}, C -> C; the
    inverse direction flips the signs of the H_m/2 and C/6 corrections and
    the index shifts.

``varpi``
    The realization of the centerless sector-0 algebra inside the Weyl
    superalgebra:  L_m -> -t^m (D + (m/2) theta dtheta),  H_m -> t^m theta
    dtheta,  G+_m -> -2 t^m theta D,  G-_m -> t^m dtheta,  C -> 0.

``sigma-b``
    The b-deformed realization on the extended algebra (centerless algebra
    semidirect the Laurent superfunctions, which act by multiplication):
    sigma_b agrees with varpi up to multiplication operators,
    sigma_b(L_m) = varpi(L_m) - m b t^m,  sigma_b(H_m) = varpi(H_m) - 2b t^m,
    sigma_b(G+_m) = varpi(G+_m) - 4bm t^m theta,  sigma_b(G-_m) = varpi(G-_m),
    and sigma_b is the identity on the multiplication operators themselves.

``sigma-aut``
    The order-2 automorphism fixing every L_m:  H -> -H,  G+ -> -2 G-,
    G- -> -G+/2,  C -> C.

:func:`hom_check` verifies each map against the supercommutator on every
generator pair in an index window and returns a
:class:`~supermod.liealg.VerificationReport` (defined in ``liealg`` and
importable from here).  The four bracket-compatibility checks share one
loop, :func:`_bracket_pairs`, which counts each pair on the report and
records each failing pair as a violation; each check hands it f([x, y])
as a function of the two basis elements.  For sigma-b that covers every
pair of the extended algebra: generator/generator, generator/function in
both orders and function/function.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import (
    Generator,
    LieVector,
    VerificationReport,
    algebra_generators,
    bracket,
    render_sector,
)
from .scalars import Scalar
from .weyl import CF_DTHETA, CF_N, CF_ONE, CF_THETA, SDElement, SuperLaurent

__all__ = [
    "apply_delta",
    "delta_terms",
    "apply_varpi",
    "apply_sigma_b",
    "apply_sigma_aut",
    "hom_check",
    "HOM_CHECK_KINDS",
]


# ----------------------------------------------------------------------
# delta: the spectral shift between sectors

_C = Generator("C", 0)


def apply_delta(x: LieVector) -> LieVector:
    """Apply the spectral shift to a sector-1/2 vector, or its inverse to a
    sector-0 one."""
    sign = 1 if x.sector == 1 else -1
    out = LieVector(1 - x.sector)
    for gen, c in x.items():
        for image, factor in delta_terms(gen, sign):
            out.add_term(image, c * factor)
    return out


def delta_terms(gen: Generator, sign: int) -> list[tuple[Generator, Fraction]]:
    """The shift of one generator, as (generator, factor) pairs.

    ``sign`` is 1 from sector 1/2 to sector 0 and -1 the other way.
    """
    kind, idx2 = gen
    if kind in ("G+", "G-"):
        shift = sign if kind == "G+" else -sign
        return [(Generator(kind, idx2 + shift), Fraction(1))]
    out = [(gen, Fraction(1))]
    if kind == "L":
        out.append((Generator("H", idx2), Fraction(sign, 2)))
    if kind != "C" and idx2 == 0:
        out.append((_C, Fraction(1, 24) if kind == "L" else Fraction(sign, 6)))
    return out


# ----------------------------------------------------------------------
# varpi and sigma_b: realizations by differential operators


def apply_varpi(x: LieVector) -> SDElement:
    """The Weyl-superalgebra realization of the centerless sector-0 algebra."""
    if x.sector != 0:
        raise ValueError("varpi is defined on sector 0; shift sectors first")
    out = SDElement()
    for gen, c in x.items():
        m = gen.index2 // 2
        if gen.kind == "L":
            out.add_term((m, 1, CF_ONE), -c)
            if m:
                out.add_term((m, 0, CF_N), c * Fraction(-m, 2))
        elif gen.kind == "H":
            out.add_term((m, 0, CF_N), c)
        elif gen.kind == "G+":
            out.add_term((m, 1, CF_THETA), c * (-2))
        elif gen.kind == "G-":
            out.add_term((m, 0, CF_DTHETA), c)
        # C maps to zero: the realization factors through the quotient
    return out


def apply_sigma_b(x: LieVector | SuperLaurent, b: Scalar) -> SDElement:
    """The b-deformed realization on the extended algebra.

    Accepts either a Lie vector (sector 0) or a Laurent superfunction, the
    latter going to the corresponding multiplication operator.
    """
    if isinstance(x, SuperLaurent):
        out = SDElement()
        for (n, th), c in x.items():
            out.add_term((n, 0, CF_THETA if th else CF_ONE), c)
        return out
    out = apply_varpi(x)
    for gen, c in x.items():
        m = gen.index2 // 2
        if gen.kind == "L" and m:
            out.add_term((m, 0, CF_ONE), c * b * (-m))
        elif gen.kind == "H":
            out.add_term((m, 0, CF_ONE), c * b * (-2))
        elif gen.kind == "G+" and m:
            out.add_term((m, 0, CF_THETA), c * b * (-4 * m))
    return out


def apply_sigma_aut(x: LieVector) -> LieVector:
    """The order-2 automorphism fixing L: H -> -H, G+ -> -2G-, G- -> -G+/2."""
    out = LieVector(x.sector)
    for gen, c in x.items():
        if gen.kind == "H":
            out.add_term(Generator("H", gen.index2), -c)
        elif gen.kind == "G+":
            out.add_term(Generator("G-", gen.index2), c * (-2))
        elif gen.kind == "G-":
            out.add_term(Generator("G+", gen.index2), c * Fraction(-1, 2))
        else:
            out.add_term(gen, c)
    return out


# ----------------------------------------------------------------------
# homomorphism checks


def hom_check(which: str, window: int, b: Scalar | None = None) -> VerificationReport:
    """Verify one of the structure maps on all generator pairs in a window.

    For "delta" the bracket compatibility is checked from sector 1/2 into
    sector 0; "delta-roundtrip" checks both composites of the shift and its
    inverse against the identity; "varpi" and "sigma-b" compare Lie brackets
    with Weyl-superalgebra supercommutators (for "sigma-b" the pairs range
    over the extended algebra, so multiplication operators are covered);
    "sigma-aut" checks bracket compatibility and the order-2 property in
    both sectors.  ``b`` defaults to the symbolic parameter b.
    """
    if which not in _CHECKS:
        raise ValueError(f"unknown map {which!r}; expected one of {HOM_CHECK_KINDS}")
    return _CHECKS[which](window, b)


def _bracket_pairs(report: VerificationReport, xs: dict, ys: dict,
                   rhs, op) -> None:
    """Check op(f(x), f(y)) == rhs(x, y) for every x in xs, y in ys.

    ``xs`` and ``ys`` map each basis element, a generator's basis vector or
    a monomial t^k theta^eps, to its image under f, and ``rhs(x, y)`` is
    f([x, y]); each pair is one case, each mismatch one violation.
    """
    for x, fx in xs.items():
        for y, fy in ys.items():
            report.checked += 1
            lhs = op(fx, fy)
            want = rhs(x, y)
            if lhs != want:
                report.violations.append(
                    {"x": str(x), "y": str(y), "lhs": str(lhs), "rhs": str(want)})


def _round_trip(report: VerificationReport, sector: int, x: LieVector,
                back: LieVector, key: str) -> None:
    """One case: ``back``, x mapped there and back, must be x again."""
    report.checked += 1
    if back != x:
        report.violations.append(
            {"sector": render_sector(sector), "generator": str(x), key: back.render()})


def _basis(sector: int, window: int) -> list[LieVector]:
    return [LieVector.basis(g, sector) for g in algebra_generators(sector, window)]


def _check_delta(window: int) -> VerificationReport:
    report = VerificationReport(
        "hom-delta", {"window": window, "from": "1/2", "to": "0"})
    images = {x: apply_delta(x) for x in _basis(1, window)}
    _bracket_pairs(report, images, images,
                   lambda x, y: apply_delta(bracket(x, y)), bracket)
    return report


def _check_delta_roundtrip(window: int) -> VerificationReport:
    report = VerificationReport("hom-delta-roundtrip", {"window": window})
    for sector in (1, 0):
        for x in _basis(sector, window):
            _round_trip(report, sector, x, apply_delta(apply_delta(x)), "roundtrip")
    return report


def _check_varpi(window: int) -> VerificationReport:
    report = VerificationReport("hom-varpi", {"window": window, "sector": "0"})
    images = {x: apply_varpi(x) for x in _basis(0, window)}
    # C realizes as zero, and supercommutator vanishes on a zero argument
    _bracket_pairs(report, images, images,
                   lambda x, y: apply_varpi(bracket(x, y)), SDElement.supercommutator)
    return report


def _check_sigma_b(window: int, b: Scalar) -> VerificationReport:
    report = VerificationReport(
        "hom-sigma-b", {"window": window, "sector": "0", "b": str(b)})
    fns = [SuperLaurent.monomial(k, th)
           for k in range(-window, window + 1) for th in (0, 1)]
    images = {x: apply_sigma_b(x, b) for x in _basis(0, window) + fns}

    def rhs(x, y) -> SDElement:
        if isinstance(x, SuperLaurent):
            if isinstance(y, SuperLaurent):
                return SDElement()  # Laurent superfunctions supercommute
            # [f, x] = -(-1)^{|f||x|} x.f
            return rhs(y, x).scale(1 if x.parity() and y.parity() else -1)
        # C realizes as zero; [x, f] = x.f is the semidirect-product bracket
        z = bracket(x, y) if isinstance(y, LieVector) else apply_varpi(x).apply(y)
        return apply_sigma_b(z, b)

    _bracket_pairs(report, images, images, rhs, SDElement.supercommutator)
    return report


def _check_sigma_aut(window: int) -> VerificationReport:
    report = VerificationReport(
        "hom-sigma-aut", {"window": window, "sectors": ["0", "1/2"]})
    for sector in (0, 1):
        images = {x: apply_sigma_aut(x) for x in _basis(sector, window)}
        for x, fx in images.items():
            _round_trip(report, sector, x, apply_sigma_aut(fx), "value")
            _bracket_pairs(report, {x: fx}, images,
                           lambda u, v: apply_sigma_aut(bracket(u, v)), bracket)
    return report


#: each map's checker, by the name ``hom_check`` takes
_CHECKS = {
    "delta": lambda window, b: _check_delta(window),
    "delta-roundtrip": lambda window, b: _check_delta_roundtrip(window),
    "varpi": lambda window, b: _check_varpi(window),
    "sigma-b": lambda window, b: _check_sigma_b(
        window, Scalar.parameter("b") if b is None else b),
    "sigma-aut": lambda window, b: _check_sigma_aut(window),
}
HOM_CHECK_KINDS = tuple(_CHECKS)

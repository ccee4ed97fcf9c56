"""The N=2 superconformal algebras, their two sectors, and the N=1 subalgebra.

Generators are L_m, H_m (m an integer), G+_p, G-_p, and the central C.  The
odd indices p run over the integers in sector 0 and over half-integers in
sector 1/2.  All indices are stored doubled (``index2 = 2 * index``) so they
stay integers in both sectors; a sector is stored as 0 or 1, meaning the odd
indices are congruent to it mod 2 after doubling.

The nonzero brackets (L, H even; G+, G- odd; [.,.] the supercommutator):

    [L_m, L_n]   = (m - n) L_{m+n} + delta_{m+n,0} (m^3 - m)/12 C
    [L_m, H_n]   = -n H_{m+n}
    [H_m, H_n]   = (m/3) delta_{m+n,0} C
    [L_m, G+-_p] = (m/2 - p) G+-_{m+p}
    [H_m, G+-_p] = +- G+-_{m+p}
    [G-_p, G+_q] = 2 L_{p+q} - (p - q) H_{p+q} + delta_{p+q,0} (4p^2-1)/12 C

The N=1 subalgebra is generated by the L_m together with
G_p = -(G+_p / 2 + G-_p); see :func:`n1_embed`.

:class:`VerificationReport` lives here, the lowest module that checks
anything; every exact check in the package returns one.  A check builds it
once from its kind and details, adds one to ``report.checked`` per case
and appends each failure to ``report.violations``; ``passed`` is derived
from the violations, so it cannot disagree with them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .scalars import LinComb, Scalar, render_linear, scalar

__all__ = [
    "Generator",
    "LieVector",
    "parse_generator",
    "render_generator",
    "parse_sector",
    "render_sector",
    "algebra_generators",
    "parity",
    "bracket",
    "jacobi_check",
    "n1_embed",
    "VerificationReport",
]

KINDS = ("L", "H", "G+", "G-", "C")
_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}
_ODD_KINDS = frozenset({"G+", "G-"})


@dataclass
class VerificationReport:
    """Outcome of an exhaustive identity check over a finite window."""

    kind: str
    details: dict = field(default_factory=dict)
    checked: int = 0
    violations: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    #: maximum number of violations listed in JSON output
    MAX_LISTED = 25

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "kind": self.kind,
            "passed": self.passed,
            "checked": self.checked,
            "violationCount": len(self.violations),
            "violations": self.violations[: self.MAX_LISTED],
            "details": self.details,
            "notes": self.notes,
        }


class Generator(NamedTuple):
    kind: str
    index2: int  # doubled index; "G+[3/2]" has index2 == 3


def parity(kind: str) -> int:
    return 1 if kind in _ODD_KINDS else 0


def sector_of(gen: Generator) -> int | None:
    """The sector a generator pins down: 0/1 for G+-, None for L, H, C."""
    if gen.kind in _ODD_KINDS:
        return gen.index2 % 2
    return None


_GEN_RE = re.compile(r"(?P<kind>L|H|G[+-])\[(?P<idx>-?\d+(?:/\d+)?)\]\Z")


def parse_generator(text: str) -> Generator:
    """Parse "L[2]", "H[-1]", "G+[3/2]", "G-[0]", or "C"."""
    text = text.strip()
    if text == "C":
        return Generator("C", 0)
    m = _GEN_RE.match(text)
    if m is None:
        raise ValueError(f"not a generator: {text!r}")
    try:
        index2 = Fraction(m.group("idx")) * 2
    except ZeroDivisionError:
        raise ValueError(f"index {m.group('idx')} has a zero denominator in {text!r}") from None
    if index2.denominator != 1:
        raise ValueError(f"index {m.group('idx')} is not a half-integer in {text!r}")
    kind = m.group("kind")
    index2 = int(index2)
    if kind in ("L", "H") and index2 % 2:
        raise ValueError(f"{kind} takes integer indices: {text!r}")
    return Generator(kind, index2)


def render_generator(gen: Generator) -> str:
    if gen.kind == "C":
        return "C"
    if gen.index2 % 2 == 0:
        return f"{gen.kind}[{gen.index2 // 2}]"
    return f"{gen.kind}[{gen.index2}/2]"


def parse_sector(text: str) -> int:
    text = text.strip()
    if text in ("0", "0/2"):
        return 0
    if text == "1/2":
        return 1
    raise ValueError(f"sector must be 0 or 1/2, got {text!r}")


def render_sector(sector: int) -> str:
    return "0" if sector == 0 else "1/2"


def _check_sector(gen: Generator, sector: int) -> None:
    if sector not in (0, 1):
        raise ValueError(f"sector must be 0 or 1, got {sector!r}")
    pinned = sector_of(gen)
    if pinned is not None and pinned != sector:
        raise ValueError(
            f"generator {render_generator(gen)} does not live in sector "
            f"{render_sector(sector)}")


class LieVector(LinComb):
    """A finite Scalar-linear combination of generators in a fixed sector."""

    __slots__ = ("sector",)

    def __init__(self, sector: int,
                 terms: dict[Generator, Scalar] | None = None):
        for gen in terms or ():
            _check_sector(gen, sector)
        super().__init__(terms)
        self.sector = sector

    def _like(self, terms: dict) -> "LieVector":
        out = super()._like(terms)
        out.sector = self.sector
        return out

    @staticmethod
    def basis(gen: Generator, sector: int,
              coeff: Scalar | int | Fraction = 1) -> "LieVector":
        return LieVector(sector, {gen: scalar(coeff)})

    def parity(self) -> int | None:
        """0 (even), 1 (odd), or None for mixed/zero vectors."""
        parities = {parity(g.kind) for g in self._terms}
        return parities.pop() if len(parities) == 1 else None

    def _require_same_sector(self, other: "LieVector") -> None:
        if self.sector != other.sector:
            raise ValueError(
                f"sector mismatch: {render_sector(self.sector)} vs "
                f"{render_sector(other.sector)}")

    def __add__(self, other: "LieVector") -> "LieVector":
        self._require_same_sector(other)
        return super().__add__(other)

    def __eq__(self, other: object) -> bool:
        if (isinstance(other, LieVector) and self.sector != other.sector
                and not (self.is_zero and other.is_zero)):
            return False
        return super().__eq__(other)

    __hash__ = LinComb.__hash__

    def render(self) -> str:
        order = sorted(self._terms, key=lambda g: (_KIND_ORDER[g.kind], g.index2))
        return render_linear((self._terms[g], render_generator(g)) for g in order)

    def __repr__(self) -> str:
        return f"LieVector({render_sector(self.sector)!r}, {self.render()!r})"


# ----------------------------------------------------------------------
# the bracket

_C = Generator("C", 0)


def _basis_bracket(x: Generator, y: Generator) -> list[tuple[Generator, Fraction]]:
    """[x, y] as (generator, rational coefficient) pairs, doubled indices."""
    kx, m2 = x
    ky, n2 = y
    if kx == "C" or ky == "C":
        return []
    s2 = m2 + n2
    if kx == "L" and ky == "L":
        out = [(Generator("L", s2), Fraction(m2 - n2, 2))]
        if s2 == 0:
            m = Fraction(m2, 2)
            out.append((_C, (m ** 3 - m) / 12))
        return [(g, c) for g, c in out if c]
    if kx == "L" and ky == "H":
        return [(Generator("H", s2), Fraction(-n2, 2))] if n2 else []
    if kx == "H" and ky == "L":
        return [(Generator("H", s2), Fraction(m2, 2))] if m2 else []
    if kx == "H" and ky == "H":
        return [(_C, Fraction(m2, 6))] if s2 == 0 and m2 else []
    if kx == "L" and ky in _ODD_KINDS:
        c = Fraction(m2 - 2 * n2, 4)
        return [(Generator(ky, s2), c)] if c else []
    if kx in _ODD_KINDS and ky == "L":
        c = Fraction(-(n2 - 2 * m2), 4)
        return [(Generator(kx, s2), c)] if c else []
    if kx == "H" and ky in _ODD_KINDS:
        sign = 1 if ky == "G+" else -1
        return [(Generator(ky, s2), Fraction(sign))]
    if kx in _ODD_KINDS and ky == "H":
        # [G+-_p, H_m] = -+ G+-_{p+m} (odd/even commutator is antisymmetric)
        sign = -1 if kx == "G+" else 1
        return [(Generator(kx, s2), Fraction(sign))]
    if kx == "G+" and ky == "G+":
        return []
    if kx == "G-" and ky == "G-":
        return []
    # G-/G+ pairs; [G-_p, G+_q] = 2L - (p - q)H + delta (4p^2-1)/12 C,
    # and [G+_q, G-_p] is the same element (odd-odd brackets are symmetric).
    p2 = m2 if kx == "G-" else n2
    q2 = n2 if kx == "G-" else m2
    out = [(Generator("L", s2), Fraction(2)),
           (Generator("H", s2), Fraction(-(p2 - q2), 2))]
    if s2 == 0:
        out.append((_C, Fraction(p2 * p2 - 1, 12)))
    return [(g, c) for g, c in out if c]


def bracket(x: LieVector, y: LieVector) -> LieVector:
    """The supercommutator, bilinear over the scalars."""
    x._require_same_sector(y)
    out = LieVector(x.sector)
    for gx, cx in x.items():
        for gy, cy in y.items():
            cxy = cx * cy
            for g, f in _basis_bracket(gx, gy):
                out.add_term(g, cxy * f)
    return out


def algebra_generators(sector: int, bound: int,
                       include_central: bool = True) -> list[Generator]:
    """All generators with |index| <= bound in the given sector."""
    gens = []
    for m2 in range(-2 * bound, 2 * bound + 1, 2):
        gens.append(Generator("L", m2))
    for m2 in range(-2 * bound, 2 * bound + 1, 2):
        gens.append(Generator("H", m2))
    odd_indices = [p2 for p2 in range(-2 * bound, 2 * bound + 1)
                   if p2 % 2 == sector % 2]
    for kind in ("G+", "G-"):
        for p2 in odd_indices:
            gens.append(Generator(kind, p2))
    if include_central:
        gens.append(_C)
    return gens


def jacobi_check(sector: int, window: int) -> VerificationReport:
    """Graded Jacobi identity over all generator triples with |index| <= window.

    The identity checked is
    (-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0.
    """
    gens = algebra_generators(sector, window)
    report = VerificationReport(
        "jacobi", {"sector": render_sector(sector), "window": window})

    # Work on plain Generator -> Fraction dicts: the structure constants are
    # rational and the triple loop is large enough that Scalar wrapping costs.
    def nested(x: Generator, y: Generator, z: Generator, sign: int,
               acc: dict[Generator, Fraction]) -> None:
        for g, c in _basis_bracket(y, z):
            for h, d in _basis_bracket(x, g):
                acc[h] = acc.get(h, 0) + sign * c * d

    for x in gens:
        px = parity(x.kind)
        for y in gens:
            py = parity(y.kind)
            for z in gens:
                report.checked += 1
                if x.kind == "C" or y.kind == "C" or z.kind == "C":
                    continue  # central: every bracket vanishes
                pz = parity(z.kind)
                acc: dict[Generator, Fraction] = {}
                nested(x, y, z, _sign(px * pz), acc)
                nested(y, z, x, _sign(py * px), acc)
                nested(z, x, y, _sign(pz * py), acc)
                if any(acc.values()):
                    value = LieVector(sector, {
                        g: scalar(c) for g, c in acc.items()})
                    report.violations.append({
                        "x": render_generator(x),
                        "y": render_generator(y),
                        "z": render_generator(z),
                        "value": value.render(),
                    })
    return report


def _sign(p: int) -> int:
    return -1 if p % 2 else 1


def n1_embed(kind: str, index2: int, sector: int) -> LieVector:
    """The N=1 generators inside the N=2 algebra.

    L_m maps to itself and the supercurrent is G_p = -(G+_p/2 + G-_p); with
    this normalization [G_p, G_q] = 2 L_{p+q} + delta_{p+q,0} (4p^2-1)/12 C.
    """
    if kind == "L":
        if index2 % 2:
            raise ValueError("L takes integer indices")
        return LieVector.basis(Generator("L", index2), sector)
    if kind == "G":
        if index2 % 2 != sector % 2:
            raise ValueError(
                f"G[{index2}/2] does not live in sector {render_sector(sector)}")
        return LieVector(sector, {
            Generator("G+", index2): scalar(Fraction(-1, 2)),
            Generator("G-", index2): scalar(-1),
        })
    raise ValueError(f"the N=1 subalgebra has kinds L and G, not {kind!r}")

"""Turning catalog modules into superconformal-algebra modules.

The pipeline has three stages.  ``superize_act`` doubles a catalog module
(every token gains a barred copy) and lets a Weyl-superalgebra element act:
the t/D part of a word acts the same on both copies, theta sets the bar
flag, dtheta clears it.  The t^k D^l image of each token comes from the
module's own word table (:meth:`DModule.word`), so it is computed once per
module object and shared by every handle built on it; the exact checks
compose their own from the one-step actions.  ``GModuleHandle``
then pulls the superconformal action through sigma_b: a generator g acts
on v as the operator sigma_b(g) applied to v (:meth:`GModuleHandle.operator`);
each handle computes the operator of each generator once and keeps it, in
one ring: the handle widens b and its module to one parameter tuple
(:meth:`DModule.widen`).  Handles carry three independent twists on top
of the plain action:

``pi``
    the parity flip; token parities are read through
    :meth:`GModuleHandle.token_parity` and the action itself is untouched.

``sigma``
    the twist by the order-2 automorphism:  g * v = sigma(g) v.

``quotient``
    for Laurent modules with integer alpha and b = 0, the quotient by the
    one-dimensional submodule spanned by the unbarred token t^{-alpha};
    inputs and outputs are reduced modulo that token.

Sector-1/2 handles route every generator through the inverse spectral
shift first (L_m -> L_m - H_m/2, H_m -> H_m, G+-_p -> G+-_{p -+ 1/2}, with
central corrections that act as zero anyway) and then act as sector 0.

The N=1 restriction acts through the embedding (:func:`s_act`, on any
handle, eps = sector/2); :func:`s_act_check` compares it with the closed
forms

    L_m . v = -t^m (D + (m - 2 eps) b + ((m + 2 eps)/2) theta dtheta) v
    G_p . v =  t^(p-eps) (theta D + 2 (p-eps) b theta - t^(2 eps) dtheta) v

on a window, so the closed forms stay pinned to the construction they
summarize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .dmodules import BasisToken, DModule, LaurentModule, ModuleVector
from .liealg import Generator, LieVector, VerificationReport, n1_embed
from .morphisms import apply_sigma_aut, apply_sigma_b, delta_terms
from .scalars import Scalar, scalar
from .weyl import CF_DTHETA, CF_N, CF_ONE, CF_THETA, SDElement

__all__ = [
    "GModuleHandle",
    "superize_act",
    "g_act",
    "s_act",
    "s_act_check",
]

def land(c: int, tok: BasisToken) -> BasisToken | None:
    """The token a Clifford unit sends tok to, None where it kills tok.

    theta bars an unbarred token, dtheta unbars a barred one, theta*dtheta
    keeps a barred token; each kills the other parity, and 1 keeps both.
    """
    if c == CF_ONE:
        return tok
    if tok.bar:
        return tok.unbarred() if c == CF_DTHETA else tok if c == CF_N else None
    return tok.barred() if c == CF_THETA else None


def superize_act(spec: DModule, x: SDElement, v: ModuleVector) -> ModuleVector:
    """Act by a Weyl-superalgebra element on the doubled module.

    Each normal-ordered word t^k D^l c acts as:  the Clifford unit c moves
    the bar flag (:func:`land`), then t^k D^l acts through the module's
    word table, which computes each (k, l, token) image once.
    """
    out = ModuleVector.zero()
    for (k, l, c), coeff in x._terms.items():
        for tok, tok_coeff in v._terms.items():
            landed = land(c, tok)
            if landed is not None:
                out.add_scaled(spec.word(k, l, landed), coeff * tok_coeff)
    return out


@dataclass(frozen=True)
class GModuleHandle:
    """An immutable description of a constructed superconformal module."""

    module: DModule
    b: Scalar
    sector: int = 0
    pi: bool = False
    sigma: bool = False
    quotient: bool = False
    #: gen -> operator, filled on first use
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    #: the sorted names of the module's parameters and b: the handle's ring
    _names: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "b", scalar(self.b))
        if self.sector not in (0, 1):
            raise ValueError(f"sector must be 0 or 1 (for 1/2), got {self.sector}")
        if self.quotient:
            if not isinstance(self.module, LaurentModule):
                raise ValueError("the quotient twist needs a Laurent module")
            alpha = self.module.alpha
            if not (alpha.is_rational and alpha.as_fraction().denominator == 1):
                raise ValueError("the quotient twist needs an integer alpha")
            if self.b != scalar(0):
                raise ValueError("the quotient twist is only a module at b = 0")
        # one ring for b, the module's parameters and so every image
        names = tuple(sorted(set(self.module.parameters) | set(self.b.parameters)))
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "b", self.b.over(names))
        self.module.widen(names)

    @property
    def tags(self) -> tuple[str, ...]:
        out = tuple(name for name, on in
                    (("pi", self.pi), ("sigma", self.sigma),
                     ("quotient", self.quotient)) if on)
        return out or ("plain",)

    @property
    def killed_token(self) -> BasisToken | None:
        if not self.quotient:
            return None
        alpha = int(self.module.alpha.as_fraction())
        return self.module.token(-alpha)

    def reduce(self, v: ModuleVector) -> ModuleVector:
        """Project modulo the killed token (identity off the quotient)."""
        killed = self.killed_token
        if killed is None or v.coefficient(killed).is_zero:
            return v
        return v - ModuleVector.single(killed, v.coefficient(killed))

    def tokens(self, bound: int) -> list[BasisToken]:
        """Window tokens of both parities, killed token excluded."""
        base = self.module.tokens(bound)
        killed = self.killed_token
        out = [tok for tok in base if tok != killed]
        out += [tok.barred() for tok in base]
        return out

    def token_parity(self, tok: BasisToken) -> int:
        return (1 if tok.bar else 0) ^ (1 if self.pi else 0)

    def parameters(self) -> tuple[str, ...]:
        return self._names

    def operator(self, gen: Generator) -> SDElement:
        """The Weyl-superalgebra element gen acts as, computed once per handle:
        sigma_b of gen's sigma twist, pulled back along the inverse spectral
        shift in sector 1/2.  Callers must not modify it."""
        op = self._cache.get(gen)
        if op is None:
            x = LieVector.basis(gen, self.sector)
            if self.sigma:
                x = apply_sigma_aut(x)
            if self.sector:
                shifted = LieVector(0)
                for g, c in x.items():
                    for target, factor in delta_terms(g, -1):
                        shifted.add_term(target, c * factor)
                x = shifted
            op = self._cache[gen] = apply_sigma_b(x, self.b)
        return op

    def specialize(self, assignments: dict) -> "GModuleHandle":
        """The handle at a parameter point; itself, with its tables, when empty."""
        if not assignments:
            return self
        return GModuleHandle(self.module.specialize(assignments),
                             self.b.specialize(assignments), self.sector,
                             self.pi, self.sigma, self.quotient)

    def describe(self) -> dict:
        return {
            "module": self.module.to_json(),
            "b": self.b.render(),
            "sector": "1/2" if self.sector else "0",
            "tags": list(self.tags),
        }


def g_act(handle: GModuleHandle, g: LieVector, v: ModuleVector) -> ModuleVector:
    """Act by a superconformal vector on a constructed module.

    Each generator's operator acts on the reduced vector, and the sum is
    reduced; the central element's operator is zero.  Raises ValueError
    when the vector's sector does not match the handle's.
    """
    if g.sector != handle.sector:
        raise ValueError(
            f"vector lives in sector {g.sector} but the handle is sector "
            f"{handle.sector}")
    v, out = handle.reduce(v), ModuleVector.zero()
    for gen, coeff in g.items():
        out.add_scaled(superize_act(handle.module, handle.operator(gen), v), coeff)
    return handle.reduce(out)


# ----------------------------------------------------------------------
# the N=1 restriction (eps = sector/2)

def _closed_form(kind: str, index2: int, epsilon2: int, b: Scalar) -> SDElement:
    """The printed closed form of the restricted action, as an operator."""
    if kind == "L":
        m = index2 // 2
        return (SDElement.word(m, 1, CF_ONE, -1)
                + SDElement.word(m, 0, CF_ONE, -(b * (m - epsilon2)))
                + SDElement.word(m, 0, CF_N, Fraction(-(m + epsilon2), 2)))
    shift = (index2 - epsilon2) // 2
    return (SDElement.word(shift, 1, CF_THETA, 1)
            + SDElement.word(shift, 0, CF_THETA, b * (2 * shift))
            + SDElement.word(shift + epsilon2, 0, CF_DTHETA, -1))


def s_act(handle: GModuleHandle, kind: str, index2: int,
          v: ModuleVector) -> ModuleVector:
    """Act by a restricted generator L_m or G_p (index2 = doubled index)
    through the N=1 embedding."""
    return g_act(handle, n1_embed(kind, index2, handle.sector), v)


def s_act_check(handle: GModuleHandle, gen_bound: int,
                token_bound: int) -> VerificationReport:
    """Compare the embedded route with the printed closed form on every
    window generator and token."""
    eps2 = handle.sector
    report = VerificationReport(
        "n1-restriction",
        {"epsilon": "1/2" if eps2 else "0",
         "genBound": gen_bound, "tokenBound": token_bound})
    indices = [("L", 2 * m) for m in range(-gen_bound, gen_bound + 1)]
    indices += [("G", idx2) for idx2 in range(-2 * gen_bound, 2 * gen_bound + 1)
                if idx2 % 2 == eps2]
    for tok in handle.tokens(token_bound):
        v = ModuleVector.single(tok)
        for kind, index2 in indices:
            printed = _closed_form(kind, index2, eps2, handle.b)
            report.checked += 1
            if s_act(handle, kind, index2, v) != superize_act(handle.module, printed, v):
                gen = f"{kind}[{Fraction(index2, 2)}]"
                report.violations.append({
                    "generator": gen,
                    "token": str(tok),
                    "note": f"{gen}: embedding and closed form disagree",
                })
    return report

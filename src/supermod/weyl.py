"""The Weyl superalgebra of differential operators on the super-line.

Elements are finite sums of normal-ordered words  t^k * D^l * c  where
k is any integer, l >= 0, D = t*d/dt is the Euler operator, and c is one
of the four Clifford units

    1,   theta*dtheta,   theta,   dtheta

acting on the odd variable theta (dtheta = d/dtheta).  The even part of a
word is the t/D factor; the unit 1 and theta*dtheta are even, theta and
dtheta are odd.

Multiplication normal-orders via  D^l t^m = t^m (D + m)^l  and the Clifford
relations  dtheta*theta = 1 - theta*dtheta,  theta^2 = dtheta^2 = 0.  The
defining representation on Laurent superfunctions  f = sum c_n t^n theta^eps
is :meth:`SDElement.apply`; it is faithful, which the tests use to cross-check
the normal-ordering arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import LinComb, Scalar, render_linear, scalar

__all__ = [
    "CF_ONE",
    "CF_N",
    "CF_THETA",
    "CF_DTHETA",
    "SDElement",
    "SuperLaurent",
]

# Clifford units, in the fixed basis order used for normal forms.
CF_ONE, CF_N, CF_THETA, CF_DTHETA = range(4)

_CF_PARITY = (0, 0, 1, 1)
_CF_TEXT = ("", "theta*dtheta", "theta", "dtheta")

# Products c1*c2 as tuples of (sign, unit); composition is "c2 acts first"
# when the word is applied to a function, i.e. plain operator composition.
_CF_MUL: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (CF_ONE, CF_ONE): ((1, CF_ONE),),
    (CF_ONE, CF_N): ((1, CF_N),),
    (CF_ONE, CF_THETA): ((1, CF_THETA),),
    (CF_ONE, CF_DTHETA): ((1, CF_DTHETA),),
    (CF_N, CF_ONE): ((1, CF_N),),
    (CF_N, CF_N): ((1, CF_N),),
    (CF_N, CF_THETA): ((1, CF_THETA),),
    (CF_N, CF_DTHETA): (),
    (CF_THETA, CF_ONE): ((1, CF_THETA),),
    (CF_THETA, CF_N): (),
    (CF_THETA, CF_THETA): (),
    (CF_THETA, CF_DTHETA): ((1, CF_N),),
    (CF_DTHETA, CF_ONE): ((1, CF_DTHETA),),
    (CF_DTHETA, CF_N): ((1, CF_DTHETA),),
    (CF_DTHETA, CF_THETA): ((1, CF_ONE), (-1, CF_N)),
    (CF_DTHETA, CF_DTHETA): (),
}


Word = tuple[int, int, int]  # (t-power, D-power, clifford unit)


class SDElement(LinComb):
    """A finite sum of normal-ordered words t^k D^l c with Scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def word(k: int, l: int, c: int = CF_ONE, coeff: Scalar | int | Fraction = 1,
             ) -> "SDElement":
        if l < 0:
            raise ValueError("D-power must be nonnegative")
        if c not in (CF_ONE, CF_N, CF_THETA, CF_DTHETA):
            raise ValueError(f"unknown Clifford unit {c!r}")
        return SDElement({(k, l, c): scalar(coeff)})

    @staticmethod
    def one() -> "SDElement":
        return SDElement.word(0, 0)

    # ------------------------------------------------------------------
    # multiplication

    def __mul__(self, other):
        if isinstance(other, SDElement):
            return self._mul_sd(other)
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def _mul_sd(self, other: "SDElement") -> "SDElement":
        # (t^k1 D^l1 c1)(t^k2 D^l2 c2): push D^l1 through t^k2 binomially,
        # multiply the Clifford units; the t/D factor is even so no sign.
        out = SDElement()
        for (k1, l1, c1), ca in self._terms.items():
            for (k2, l2, c2), cb in other._terms.items():
                cf = _CF_MUL[(c1, c2)]
                if not cf:
                    continue
                coeff = ca * cb
                for j in range(l1 + 1):
                    factor = math.comb(l1, j) * k2 ** (l1 - j)
                    if factor == 0:
                        continue
                    value = coeff * factor
                    for sign, unit in cf:
                        out.add_term((k1 + k2, j + l2, unit),
                                     value if sign > 0 else -value)
        return out

    # ------------------------------------------------------------------
    # super structure

    def parity(self) -> int | None:
        """0 (even), 1 (odd), or None for mixed/zero elements."""
        parities = {_CF_PARITY[c] for (_, _, c) in self._terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def supercommutator(self, other: "SDElement") -> "SDElement":
        """[x, y] = x y - (-1)^{|x||y|} y x for homogeneous x, y."""
        if self.is_zero or other.is_zero:
            return SDElement()
        px, py = self.parity(), other.parity()
        if px is None or py is None:
            raise ValueError("supercommutator requires homogeneous arguments")
        if px and py:
            return self._mul_sd(other) + other._mul_sd(self)
        return self._mul_sd(other) - other._mul_sd(self)

    # ------------------------------------------------------------------
    # the defining action on Laurent superfunctions

    def apply(self, f: "SuperLaurent") -> "SuperLaurent":
        out = SuperLaurent()
        for (k, l, c), coeff in self._terms.items():
            for (n, th), fc in f._terms.items():
                if c == CF_N:
                    if not th:
                        continue
                    new_th = 1
                elif c == CF_THETA:
                    if th:
                        continue
                    new_th = 1
                elif c == CF_DTHETA:
                    if not th:
                        continue
                    new_th = 0
                else:
                    new_th = th
                factor = n ** l
                if factor == 0:
                    continue
                out.add_term((n + k, new_th), coeff * fc * factor)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        return render_linear(
            (self._terms[w], _word_text(w)) for w in sorted(self._terms))

    def __repr__(self) -> str:
        return f"SDElement({self.render()!r})"


def _word_text(word: Word) -> str:
    k, l, c = word
    parts = []
    if k:
        parts.append(f"t^{k}" if k != 1 else "t")
    if l:
        parts.append(f"D^{l}" if l != 1 else "D")
    if c != CF_ONE:
        parts.append(_CF_TEXT[c])
    return "*".join(parts) if parts else "1"


class SuperLaurent(LinComb):
    """An element of C[t, t^-1, theta]: sum of c_{n,eps} t^n theta^eps."""

    __slots__ = ()

    @staticmethod
    def monomial(n: int, theta: int = 0, coeff: Scalar | int | Fraction = 1,
                 ) -> "SuperLaurent":
        if theta not in (0, 1):
            raise ValueError("theta exponent must be 0 or 1")
        return SuperLaurent({(n, theta): scalar(coeff)})

    def parity(self) -> int | None:
        parities = {th for (_, th) in self._terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def render(self) -> str:
        return render_linear(
            (self._terms[(n, th)], _word_text((n, 0, CF_THETA if th else CF_ONE)))
            for n, th in sorted(self._terms))

    def __repr__(self) -> str:
        return f"SuperLaurent({self.render()!r})"

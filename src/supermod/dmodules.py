"""Concrete modules over differential operators on the punctured line.

Four families, each carrying an exact action of every power t^m (m in Z)
and of the Euler operator D = t*d/dt behind one interface:

``LaurentModule(alpha)``
    Laurent polynomials with a shifted grading: the tokens are the powers
    t^n (n in Z) and D*t^n = (alpha + n) t^n.

``OmegaModule(lam)``
    The polynomial ring in D itself: tokens D^n (n >= 0), with
    D * D^n = D^{n+1} and t^m * D^n = lam^m (D - m)^n expanded in the
    D-power basis.  lam must be invertible, i.e. not literally zero.

``FractionModule(alphas, betas)``
    The ring of rational functions regular away from the poles beta_j, in
    the partial-fraction basis { t^i (i >= 0), (t - beta_j)^{-k} (k >= 1) }.
    d/dt acts covariantly:  d/dt . f = f' + f * sum_j alphas[j]/(t - beta_j).
    The poles are distinct rationals with beta_0 = 0, so t^{-1} is the
    basis token (t - beta_0)^{-1} and t stays invertible.

``DegreeModule(n)``
    The span of t^i d^m (i in Z, 0 <= m < n) where d = d/dt, subject to
    d^n = t:  d . (t^i d^{n-1}) = i t^{i-1} d^{n-1} + t^{i+1}.

Vectors are finite Scalar-linear combinations of family tokens.  Every
token carries a ``bar`` flag; the actions here never look at it, so the
same arithmetic serves the doubled modules built later by the superize
functor (which is where the flag starts to matter).

A family's token text lives in its class, next to its actions: the regex
``token_re`` and the methods ``render`` and ``parse`` for one unbarred
token.  ``render_token``, ``parse_token`` and ``parse_vector`` are the
family-agnostic entry points; they add the ``~`` bar suffix and reject a
token of another family.

Each module object keeps a word table, ``DModule.word(k, l, tok)`` =
t^k D^l applied to one token: D^l tok is built from D^(l-1) tok, so every
D-chain runs once per module and token, and the superize functor reads
every word it applies from there.  The table lives and dies with the
module; ``specialize`` returns a new module, which starts with an empty one,
and ``widen``, which re-expresses the parameters in a wider ring, empties it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .scalars import ONE, LinComb, Scalar, ScalarParseError, render_linear, scalar

__all__ = [
    "FAMILIES",
    "BasisToken",
    "ModuleVector",
    "DModule",
    "LaurentModule",
    "OmegaModule",
    "FractionModule",
    "DegreeModule",
    "spec_from_json",
    "parse_token",
    "render_token",
    "parse_vector",
    "render_vector",
]

FAMILIES = ("laurent", "omega", "fraction", "degree")


#: the tuple constructor NamedTuple's own __new__ calls; barring is hot
_new_token = tuple.__new__


class BasisToken(NamedTuple):
    """One basis vector of a family, with its superize bar flag.

    The index fields are overloaded per family:

    ========  ====  =======================================================
    family    kind  meaning of (i, k)
    ========  ====  =======================================================
    laurent   0     the power t^i
    omega     0     the power D^i, i >= 0
    fraction  0     the power t^i, i >= 0                     (k unused, 0)
    fraction  1     the negative power (t - beta_i)^{-k}, k >= 1
    degree    0     the word t^i d^k, 0 <= k < n
    ========  ====  =======================================================

    The field order makes the natural tuple order a deterministic global
    token order (unbarred before barred), which the elimination code in
    the analysis module relies on.
    """

    family: str
    bar: bool
    kind: int
    i: int
    k: int

    def barred(self) -> "BasisToken":
        return _new_token(BasisToken, (self[0], True, self[2], self[3], self[4]))

    def unbarred(self) -> "BasisToken":
        return _new_token(BasisToken, (self[0], False, self[2], self[3], self[4]))


def _check_family(tokens) -> None:
    """Raise ValueError unless all the tokens belong to one family."""
    families = list(dict.fromkeys(tok.family for tok in tokens))
    if len(families) > 1:
        raise ValueError(
            f"mixed families in one vector: {families[0]!r} and {families[1]!r}")


class ModuleVector(LinComb):
    """A finite Scalar-linear combination of basis tokens of one family."""

    __slots__ = ()

    def __init__(self, terms: dict[BasisToken, Scalar] | None = None):
        _check_family(terms or ())
        super().__init__(terms)

    @classmethod
    def zero(cls) -> "ModuleVector":
        out = object.__new__(cls)
        out._terms = {}
        return out

    @staticmethod
    def single(token: BasisToken,
               coeff: Scalar | int | Fraction = ONE) -> "ModuleVector":
        coeff = scalar(coeff)
        out = ModuleVector.zero()
        if not coeff.is_zero:
            out._terms[token] = coeff
        return out

    def items(self) -> Iterator[tuple[BasisToken, Scalar]]:
        """The terms in global token order; internal loops read ``_terms``."""
        return iter(sorted(self._terms.items()))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if isinstance(other, ModuleVector):
            # each side is single-family already, so one token of each decides
            _check_family([next(iter(v._terms)) for v in (self, other) if v._terms])
        return super().__add__(other)

    def map_tokens(self, fn) -> "ModuleVector":
        """Rebuild the vector with fn applied to every token (e.g. barring)."""
        out = ModuleVector.zero()
        for tok, coeff in self._terms.items():
            out.add_term(fn(tok), coeff)
        return out

    def __str__(self) -> str:
        return f"ModuleVector({len(self._terms)} terms)"

    __repr__ = __str__


class DModule:
    """Shared linear plumbing; families fill in the token-level actions."""

    family = ""
    #: one unbarred token's text, as a regex whose named groups ``parse`` reads
    token_re = ""
    #: (k, l, token) -> t^k D^l applied to the token, filled by ``word``
    _words: dict | None = None
    #: the parameter Scalars, and the tuple ``widen`` last put them over
    _params: tuple = ()
    _ring: tuple[str, ...] = ()

    def _t_token(self, m: int, tok: BasisToken) -> ModuleVector:
        raise NotImplementedError

    def _d_token(self, tok: BasisToken) -> ModuleVector:
        raise NotImplementedError

    def act_t(self, m: int, vec: ModuleVector) -> ModuleVector:
        """Multiply by t^m, any integer m."""
        out = ModuleVector.zero()
        for tok, coeff in vec._terms.items():
            out.add_scaled(self._t_token(m, tok), coeff)
        return out

    def act_D(self, vec: ModuleVector) -> ModuleVector:
        """Apply the Euler operator D = t*d/dt."""
        out = ModuleVector.zero()
        for tok, coeff in vec._terms.items():
            out.add_scaled(self._d_token(tok), coeff)
        return out

    def widen(self, names: tuple[str, ...]) -> None:
        """Re-express the parameters over QQ[names + the current ring], in
        place: values, ``==`` and ``to_json`` stay, the word table goes."""
        names = tuple(sorted(set(self._ring).union(names)))
        if self._params and names != self._ring:
            self._params = tuple(a.over(names) for a in self._params)
            self._ring, self._words = names, None

    def word(self, k: int, l: int, tok: BasisToken) -> ModuleVector:
        """t^k D^l applied to one token, computed once per module.

        D^l tok extends D^(l-1) tok, so each D-chain runs once per token;
        no action reads the bar flag, so a barred token re-bars its twin's
        entry.  The table lives on this object: a specialized module is a
        new object and starts empty.  Callers must not modify the result.
        """
        table = self._words
        if table is None:
            table = self._words = {}
        image = table.get((k, l, tok))
        if image is None:
            if tok.bar:
                twin = self.word(k, l, tok.unbarred())
                image = twin._like({t.barred(): c for t, c in twin._terms.items()})
            elif k:
                image = self.act_t(k, self.word(0, l, tok))
            elif l:
                image = self.act_D(self.word(0, l - 1, tok))
            else:
                image = ModuleVector.single(tok)
            table[k, l, tok] = image
        return image

    def tokens(self, bound: int) -> list[BasisToken]:
        """All unbarred tokens inside the window bound, in global order."""
        raise NotImplementedError

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(sorted({n for a in self._params for n in a.parameters}))

    def specialize(self, assignments: dict) -> "DModule":
        return self

    def render(self, tok: BasisToken) -> str:
        """The text of one token, without the bar suffix."""
        raise NotImplementedError

    def parse(self, match: re.Match, bar: bool) -> BasisToken:
        """The token a ``token_re`` match names, barred when ``bar``."""
        return self.token(int(match["i"]), bar)

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        # exact: to_json prints each parameter in its canonical form
        return type(other) is type(self) and self.to_json() == other.to_json()

    def __repr__(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _shift(m: int, vec: ModuleVector) -> ModuleVector:
    """t^m on a family whose t^m only shifts the index i (laurent, degree)."""
    return vec._like({_new_token(BasisToken, (t[0], t[1], t[2], t[3] + m, t[4])): c
                      for t, c in vec._terms.items()})


# ----------------------------------------------------------------------
# Laurent polynomials with shifted D-eigenvalues

class LaurentModule(DModule):
    """Tokens t^n (n in Z); t^m shifts the index, D*t^n = (alpha+n) t^n."""

    family = "laurent"
    token_re = r"t\^(?P<i>-?\d+)"
    alpha = property(lambda self: self._params[0])

    def __init__(self, alpha: Scalar | int | Fraction | str = 0):
        self._params = (scalar(alpha),)

    def token(self, n: int, bar: bool = False) -> BasisToken:
        return BasisToken("laurent", bar, 0, n, 0)

    def act_t(self, m: int, vec: ModuleVector) -> ModuleVector:
        return _shift(m, vec)

    def _d_token(self, tok: BasisToken) -> ModuleVector:
        return ModuleVector.single(tok, self.alpha + tok.i)

    def tokens(self, bound: int) -> list[BasisToken]:
        return [self.token(n) for n in range(-bound, bound + 1)]

    def specialize(self, assignments: dict) -> "LaurentModule":
        return LaurentModule(self.alpha.specialize(assignments))

    def render(self, tok: BasisToken) -> str:
        return f"t^{tok.i}"

    def to_json(self) -> dict:
        return {"family": "laurent", "alpha": self.alpha.render()}


# ----------------------------------------------------------------------
# The polynomial ring in D, with t acting by shift-and-rescale

class OmegaModule(DModule):
    """Tokens D^n (n >= 0); t^m * D^n = lam^m (D - m)^n, D * D^n = D^{n+1}."""

    family = "omega"
    token_re = r"D\^(?P<i>\d+)"
    lam = property(lambda self: self._params[0])

    def __init__(self, lam: Scalar | int | Fraction | str):
        self._params = (scalar(lam),)
        if self.lam.is_zero:
            raise ValueError("omega parameter must be invertible (nonzero)")

    def token(self, n: int, bar: bool = False) -> BasisToken:
        if n < 0:
            raise ValueError(f"D-power must be >= 0, got {n}")
        return BasisToken("omega", bar, 0, n, 0)

    def _t_token(self, m: int, tok: BasisToken) -> ModuleVector:
        # lam^m (D - m)^n expanded binomially in the D-power basis.
        lam_m = self.lam ** m
        n = tok.i
        terms: dict[BasisToken, Scalar] = {}
        for j in range(n + 1):
            coeff = lam_m * (comb(n, j) * (-m) ** (n - j))
            terms[tok._replace(i=j)] = coeff
        return ModuleVector(terms)

    def _d_token(self, tok: BasisToken) -> ModuleVector:
        return ModuleVector.single(tok._replace(i=tok.i + 1))

    def tokens(self, bound: int) -> list[BasisToken]:
        return [self.token(n) for n in range(bound + 1)]

    def specialize(self, assignments: dict) -> "OmegaModule":
        return OmegaModule(self.lam.specialize(assignments))

    def render(self, tok: BasisToken) -> str:
        return f"D^{tok.i}"

    def to_json(self) -> dict:
        return {"family": "omega", "lambda": self.lam.render()}


# ----------------------------------------------------------------------
# Rational functions with prescribed poles, in the partial-fraction basis

def _pole(value: Fraction | int | str) -> Fraction:
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"the pole {value} has a zero denominator") from None


class FractionModule(DModule):
    """Tokens t^i (i >= 0) and (t - beta_j)^{-k} (k >= 1), distinct rational
    poles with beta_0 = 0; d/dt acts covariantly with residues alphas[j].
    """

    family = "fraction"
    token_re = (r"t\^(?P<i>\d+)|t\^-(?P<k0>\d+)"
                r"|\(t(?P<sign>[+-])(?P<beta>\d+(?:/\d+)?)\)\^-(?P<k>\d+)")
    alphas = property(lambda self: self._params)

    def __init__(self,
                 alphas: Iterable[Scalar | int | Fraction | str],
                 betas: Iterable[Fraction | int | str]):
        self._params = tuple(scalar(a) for a in alphas)
        self.betas = tuple(map(_pole, betas))
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas and betas must have equal length")
        if not self.betas or self.betas[0] != 0:
            raise ValueError("the first pole must be 0 (it makes t invertible)")
        if len(set(self.betas)) != len(self.betas):
            poles = ", ".join(map(str, self.betas))
            raise ValueError(f"poles must be distinct, got {poles}")
        self._steps: dict[tuple[BasisToken, int | None], ModuleVector] = {}

    def pow_token(self, i: int, bar: bool = False) -> BasisToken:
        if i < 0:
            raise ValueError("use pole_token for negative powers of t")
        return BasisToken("fraction", bar, 0, i, 0)

    def pole_token(self, j: int, k: int, bar: bool = False) -> BasisToken:
        if not 0 <= j < len(self.betas):
            raise ValueError(f"pole index {j} out of range")
        if k < 1:
            raise ValueError(f"pole order must be >= 1, got {k}")
        return BasisToken("fraction", bar, 1, j, k)

    # -- basis products ------------------------------------------------

    def _times_t(self, tok: BasisToken) -> ModuleVector:
        if tok.kind == 0:
            return ModuleVector.single(tok._replace(i=tok.i + 1))
        # t * (t-b)^{-k} = (t-b)^{-(k-1)} + b (t-b)^{-k}
        beta = self.betas[tok.i]
        drop = (ModuleVector.single(tok._replace(kind=0, i=0, k=0))
                if tok.k == 1 else ModuleVector.single(tok._replace(k=tok.k - 1)))
        if beta == 0:
            return drop
        return drop + ModuleVector.single(tok, beta)

    def _step(self, tok: BasisToken, j: int | None) -> ModuleVector:
        """tok times t (j None) or (t - beta_j)^{-1}, computed once per module:
        the poles are rational, so no parameter enters a product."""
        image = self._steps.get((tok, j))
        if image is None:
            image = self._steps[tok, j] = (
                self._times_t(tok) if j is None else self._times_inv(tok, j))
        return image

    def _times_inv(self, tok: BasisToken, j: int) -> ModuleVector:
        """Multiply one token by (t - beta_j)^{-1}, re-expanded in the basis."""
        beta = self.betas[j]
        if tok.kind == 0:
            # t^i / (t-b) = sum_{r<i} b^{i-1-r} t^r + b^i (t-b)^{-1}
            i = tok.i
            if i == 0:
                return ModuleVector.single(tok._replace(kind=1, i=j, k=1))
            terms: dict[BasisToken, Scalar] = {}
            for r in range(i):
                c = beta ** (i - 1 - r)
                if c:
                    terms[tok._replace(i=r)] = scalar(c)
            tail = beta ** i
            if tail:
                terms[tok._replace(kind=1, i=j, k=1)] = scalar(tail)
            return ModuleVector(terms)
        if tok.i == j:
            return ModuleVector.single(tok._replace(k=tok.k + 1))
        # (t-b')^{-k} (t-b)^{-1} = ((t-b')^{-k} - (t-b')^{-(k-1)}(t-b)^{-1})/(b'-b)
        c = scalar(Fraction(1, 1) / (self.betas[tok.i] - beta))
        head = ModuleVector.single(tok, c)
        if tok.k == 1:
            return head - ModuleVector.single(tok._replace(i=j), c)
        return head - self._step(tok._replace(k=tok.k - 1), j).scale(c)

    def _ddt(self, vec: ModuleVector) -> ModuleVector:
        """The covariant derivative  f -> f' + f sum_j alphas[j]/(t-beta_j)."""
        out = ModuleVector.zero()
        for tok, coeff in vec._terms.items():
            if tok.kind == 0:
                if tok.i:
                    out.add_term(tok._replace(i=tok.i - 1), coeff * tok.i)
            else:
                out.add_term(tok._replace(k=tok.k + 1), coeff * (-tok.k))
            for j, alpha in enumerate(self.alphas):
                out.add_scaled(self._step(tok, j), coeff * alpha)
        return out

    # -- the uniform interface ------------------------------------------

    def act_t(self, m: int, vec: ModuleVector) -> ModuleVector:
        j = None if m >= 0 else 0
        for _ in range(abs(m)):
            out = ModuleVector.zero()
            for tok, coeff in vec._terms.items():
                out.add_scaled(self._step(tok, j), coeff)
            vec = out
        return vec

    def act_D(self, vec: ModuleVector) -> ModuleVector:
        return self.act_t(1, self._ddt(vec))

    def tokens(self, bound: int) -> list[BasisToken]:
        out = [self.pow_token(i) for i in range(bound + 1)]
        for j in range(len(self.betas)):
            out.extend(self.pole_token(j, k) for k in range(1, bound + 1))
        return sorted(out)

    def specialize(self, assignments: dict) -> "FractionModule":
        return FractionModule(
            [a.specialize(assignments) for a in self.alphas], self.betas)

    def render(self, tok: BasisToken) -> str:
        if tok.kind == 0:
            return f"t^{tok.i}"
        beta = self.betas[tok.i]
        if beta == 0:
            return f"t^-{tok.k}"
        return f"(t-{beta})^-{tok.k}" if beta > 0 else f"(t+{-beta})^-{tok.k}"

    def parse(self, match: re.Match, bar: bool) -> BasisToken:
        if match["i"] is not None:
            return self.pow_token(int(match["i"]), bar)
        if match["k0"] is not None:
            return self.pole_token(0, int(match["k0"]), bar)
        beta = _pole(match["beta"])
        if match["sign"] == "+":
            beta = -beta
        if beta not in self.betas:
            raise ScalarParseError(f"{match.string!r} names a pole this module lacks")
        return self.pole_token(self.betas.index(beta), int(match["k"]), bar)

    def to_json(self) -> dict:
        return {
            "family": "fraction",
            "alphas": [a.render() for a in self.alphas],
            "betas": [str(b) for b in self.betas],
        }


# ----------------------------------------------------------------------
# The degree-n family: d^n collapses to multiplication by t

class DegreeModule(DModule):
    """Tokens t^i d^m (i in Z, 0 <= m < n) with d = d/dt and d^n = t."""

    family = "degree"
    token_re = r"t\^(?P<i>-?\d+)\*d\^(?P<m>\d+)"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"degree must be >= 1, got {n}")
        self.n = n

    def token(self, i: int, m: int, bar: bool = False) -> BasisToken:
        if not 0 <= m < self.n:
            raise ValueError(f"d-power must lie in [0, {self.n - 1}], got {m}")
        return BasisToken("degree", bar, 0, i, m)

    def act_t(self, m: int, vec: ModuleVector) -> ModuleVector:
        return _shift(m, vec)

    def _ddt(self, vec: ModuleVector) -> ModuleVector:
        out = ModuleVector.zero()
        for tok, coeff in vec._terms.items():
            if tok.i:
                out.add_term(tok._replace(i=tok.i - 1), coeff * tok.i)
            if tok.k + 1 < self.n:
                out.add_term(tok._replace(k=tok.k + 1), coeff)
            else:
                out.add_term(tok._replace(i=tok.i + 1, k=0), coeff)
        return out

    def _d_token(self, tok: BasisToken) -> ModuleVector:
        return self.act_t(1, self._ddt(ModuleVector.single(tok)))

    def tokens(self, bound: int) -> list[BasisToken]:
        return [self.token(i, m)
                for i in range(-bound, bound + 1) for m in range(self.n)]

    def render(self, tok: BasisToken) -> str:
        return f"t^{tok.i}*d^{tok.k}"

    def parse(self, match: re.Match, bar: bool) -> BasisToken:
        return self.token(int(match["i"]), int(match["m"]), bar)

    def to_json(self) -> dict:
        return {"family": "degree", "n": self.n}


# ----------------------------------------------------------------------
# Serialization and text forms

def spec_from_json(data: dict | str) -> DModule:
    """Build a module from its JSON description (dict or JSON text)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValueError(f"module spec is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("module spec must be a JSON object")
    family = data.get("family")
    if not isinstance(family, str) or family not in _SPECS:
        raise ValueError(f"unknown module family: {family!r}")
    cls, *fields = _SPECS[family]
    extra = sorted(set(data) - {"family", *fields})
    if extra:
        raise ValueError(f"module spec fields unknown to the {family} family: {extra}")
    return cls(*(_spec_field(data, name, family == "fraction") for name in fields))


def _degree_module(n: int | str) -> DegreeModule:
    try:
        n = int(n)
    except ValueError:
        raise ValueError(f"module spec field 'n' must be an integer, "
                         f"got {json.dumps(n)}") from None
    return DegreeModule(n)


#: each family's class and its own spec fields, as its to_json writes them
_SPECS = {"laurent": (LaurentModule, "alpha"), "omega": (OmegaModule, "lambda"),
          "fraction": (FractionModule, "alphas", "betas"),
          "degree": (_degree_module, "n")}


def _spec_field(data: dict, name: str, listed: bool = False):
    """A spec field: a string or an int, or a JSON list of those when ``listed``."""
    if name not in data:
        raise ValueError(f"module spec is missing the {name!r} field")
    value = data[name]
    if listed != isinstance(value, list) or any(
            type(x) not in (str, int) for x in (value if listed else [value])):
        kind = "a list of strings or integers" if listed else "a string or an integer"
        raise ValueError(f"module spec field {name!r} must be {kind}, "
                         f"got {json.dumps(value)}")
    return value


def render_token(spec: DModule, tok: BasisToken) -> str:
    if tok.family != spec.family:
        raise ValueError(f"token family {tok.family!r} does not match {spec.family!r}")
    return spec.render(tok) + ("~" if tok.bar else "")


def parse_token(spec: DModule, text: str) -> BasisToken:
    """Parse one token in the family of ``spec`` (bar suffix ``~`` allowed)."""
    match = re.fullmatch(rf"\s*(?:{spec.token_re})(?P<bar>~)?\s*", text)
    if match is None:
        raise ScalarParseError(f"not a {spec.family} token: {text!r}")
    return spec.parse(match, match["bar"] is not None)


def render_vector(spec: DModule, vec: ModuleVector) -> str:
    return render_linear(
        [(coeff, render_token(spec, tok)) for tok, coeff in vec.items()])


def _split_terms(text: str) -> Iterator[tuple[int, str]]:
    """Yield (sign, term) splitting on top-level ' + ' / ' - ' separators."""
    depth = 0
    sign, start = 1, 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch == " " and text[pos:pos + 3] in (" + ", " - "):
            yield sign, text[start:pos]
            sign = 1 if text[pos + 1] == "+" else -1
            start = pos + 3
            pos += 2
        pos += 1
    yield sign, text[start:]


def parse_vector(spec: DModule, text: str) -> ModuleVector:
    """Parse a linear combination of tokens, e.g. ``"t^0 - (a + 1)*t^2~"``."""
    text = text.strip()
    if text in ("", "0"):
        return ModuleVector.zero()
    lead = 1
    if text.startswith("-"):
        lead, text = -1, text[1:].lstrip()
    term_re = re.compile(rf"(?:(?P<coef>.+)\*)?(?P<tok>(?:{spec.token_re})~?)")
    out = ModuleVector.zero()
    for sign, term in _split_terms(text):
        match = term_re.fullmatch(term.strip())
        if match is None:
            raise ScalarParseError(f"not a {spec.family} vector term: {term!r}")
        coeff = scalar(lead * sign)
        if match.group("coef") is not None:
            coeff = coeff * Scalar.parse(match.group("coef"))
        out.add_term(parse_token(spec, match.group("tok")), coeff)
        lead = 1
    return out

"""Exact scalar arithmetic over rational-function fields QQ(p1, ..., pk).

Every coefficient in this package is a :class:`Scalar`: a quotient num/den
of multivariate polynomials with integer coefficients in a finite set of
named parameters (``alpha``, ``b``, ``lambda_``, ...).  Any rational
content sits in ``den``, so the coefficient arithmetic of a symbolic
value is plain integer arithmetic: the axiom suite's operands are almost
all integer polynomials over unit denominators, and arithmetic over QQ
spends its time on a gcd per coefficient operation.

A symbolic value's num and den are plain dicts {exponent tuple: int} over
its sorted parameter tuple, and sums, products, negation and powers run in
a small sparse kernel of module functions (``_padd``, ``_pmul``, ...): the
checks' operands have a few terms each, and on those a dict loop costs
less than a sympy ring's per-call checks.  A parameter-free value, such as
every coefficient of a check at a rational point like ``b = 1/3``, is held
as two Python ints p/r, coprime with r > 0, and computed on in plain int
arithmetic.  A rational p/r meets a symbolic num/den by scaling
(``_pscale(num, p)`` over ``_pscale(den, r)``), two monomial denominators
(constants among them) meet at their lcm, and a product with a factor of
one or zero returns without arithmetic.  A symbolic value that cancels to
a rational, such as ``a/a``, stays in polynomial form but is equal to,
hashes like and prints like the parameter-free value.

Only ``+``, ``*``, negation, ``**`` and ``is_zero`` are written out: the
checks spend their scalar time there.  Subtraction is ``x + -y``,
division ``x * y ** -1`` after a zero check, and equality
``(x - y).is_zero``; these run in parsing and in the catalog's
comparisons, not in a check's inner loop.

:func:`kronecker_table` clears and evaluates two tables of factors at one
Kronecker point, where identities among sums of their products are tested
in ints, exactly.

Two symbolic values over different parameter tuples meet in the union
ring (``_unify``).  A module handle fixes one tuple and re-expresses b and
its module's parameters over it (``Scalar.over``), so a check lifts only
where values enter: parsing and specialization.

The representation is lazy.  Sums and products keep an unreduced num/den
pair, and the gcd cancellation needed for a canonical form runs only where
canonical data is actually required: hashing, printing and specialization.
Where num or den is a monomial (a constant among them) the content gcd
times the common monomial factor cancels; only the gcd of two
non-monomial polynomials goes to sympy, which is imported then
(``_get_ring``) and never for a parameter-free value.  The canonical
form is the reduced fraction with coprime integer content across
numerator and denominator and a positive leading coefficient of the
denominator (lex order over the sorted parameter list).  Two equal scalars
always print identically, and every printed scalar re-parses to an equal
value.

Parameter names are identifiers; the four operator identifiers ``t``, ``D``,
``theta``, ``dtheta`` are reserved and rejected, because vector and token
text (``t^0 - (a + 1)*t^2~``) mixes coefficient names with the ``t`` and ``D``
of its tokens.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Mapping, Union

__all__ = [
    "Scalar",
    "ScalarError",
    "ScalarDivisionError",
    "SingularSpecializationError",
    "ScalarParseError",
    "scalar",
    "ZERO",
    "ONE",
    "RESERVED_NAMES",
]

ScalarLike = Union["Scalar", int, Fraction, str]

#: operator identifiers; vector and token text uses t and D next to
#: coefficient names, so no parameter may take them
RESERVED_NAMES = frozenset({"t", "D", "theta", "dtheta"})

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class ScalarError(Exception):
    """Base class for scalar-arithmetic failures."""


class ScalarDivisionError(ScalarError, ZeroDivisionError):
    """Division by an identically zero scalar."""


class SingularSpecializationError(ScalarError, ZeroDivisionError):
    """A specialization landed on a zero of a denominator."""


class ScalarParseError(ScalarError, ValueError):
    """Text that does not match the scalar grammar."""


# ----------------------------------------------------------------------
# the sparse polynomial kernel
#
# A polynomial of ZZ[p1, ..., pk] is a dict {exponent tuple: int} with no
# zero coefficient stored; the zero polynomial is {}.  No kernel function
# mutates its arguments: a Scalar shares its dicts with the values built
# from it.

# One exponent-tuple sum per arity, unrolled as sympy's MonomialOps builds
# it: a generic tuple(map(...)) doubles the time of a symbolic probe.
_MONOMIAL_MUL: dict[int, object] = {}


def _monomial_mul(arity: int):
    try:
        return _MONOMIAL_MUL[arity]
    except KeyError:
        body = "".join(f"a[{i}] + b[{i}], " for i in range(arity))
        add = _MONOMIAL_MUL[arity] = eval(f"lambda a, b: ({body})")
        return add


def _padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for mon, coeff in b.items():
        coeff += out.get(mon, 0)
        if coeff:
            out[mon] = coeff
        else:
            del out[mon]
    return out


def _pmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    add = _monomial_mul(len(next(iter(a))))
    if len(b) == 1:
        # a shift by one monomial cannot merge terms
        [(mb, cb)] = b.items()
        return {add(ma, mb): ca * cb for ma, ca in a.items()}
    out: dict = {}
    get = out.get
    for mb, cb in b.items():
        for ma, ca in a.items():
            mon = add(ma, mb)
            out[mon] = get(mon, 0) + ca * cb
    return {mon: coeff for mon, coeff in out.items() if coeff}


def _pneg(a: dict) -> dict:
    return {mon: -coeff for mon, coeff in a.items()}


def _pscale(a: dict, k: int) -> dict:
    """``a`` times a nonzero int (sympy's ``mul_ground``)."""
    return {mon: coeff * k for mon, coeff in a.items()}


def _ppow(a: dict, k: int) -> dict:
    """``a ** k`` for k >= 1: one term directly, else square-and-multiply."""
    if len(a) == 1:
        [(mon, coeff)] = a.items()
        return {tuple(e * k for e in mon): coeff ** k}
    out = None
    while True:
        if k & 1:
            out = a if out is None else _pmul(out, a)
        k >>= 1
        if not k:
            return out
        a = _pmul(a, a)


def _terms(a: dict) -> list:
    """The (monomial, coefficient) pairs in descending lex order, as
    sympy's ``terms()`` lists them: rendering and hashing read this."""
    return sorted(a.items(), reverse=True)


def _lc(a: dict) -> int:
    """The leading coefficient in lex order; 0 for the zero polynomial."""
    return a[max(a)] if a else 0


def _ground(a: dict):
    """The integer a constant polynomial equals, else None."""
    if len(a) == 1:
        for mon, coeff in a.items():
            return None if any(mon) else coeff
    return None


def _lift(poly: dict, old_names: tuple[str, ...], new_names: tuple[str, ...]) -> dict:
    """Re-express ``poly`` from ZZ[old_names] in ZZ[new_names]; names that
    ``new_names`` lacks must not occur in it."""
    if old_names == new_names:
        return poly
    pos = [old_names.index(n) if n in old_names else None for n in new_names]
    return {tuple(0 if i is None else mon[i] for i in pos): coeff
            for mon, coeff in poly.items()}


def _substitute(poly: dict, i: int, p: int, q: int, e: int) -> dict:
    """q^e times ``poly`` with its i-th parameter set to p/q, e at least
    its degree there: an integer polynomial with exponent i zero."""
    out: dict = {}
    for mon, coeff in poly.items():
        k = mon[i]
        mon = (*mon[:i], 0, *mon[i + 1:])
        out[mon] = out.get(mon, 0) + coeff * p ** k * q ** (e - k)
    return {mon: coeff for mon, coeff in out.items() if coeff}


# One sympy ring per sorted parameter tuple, for the polynomial gcd of
# ``_canonical``, the one job the kernel leaves to sympy.
_RING_CACHE: dict[tuple[str, ...], object] = {}


def _get_ring(names: tuple[str, ...]):
    try:
        return _RING_CACHE[names]
    except KeyError:
        pass
    # the only sympy import: a value with a constant side never needs it
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring

    # sympy returns (ring, *gens)
    rng = _RING_CACHE[names] = ring(",".join(names), ZZ, lex)[0]
    return rng


def _cancel(num: dict, den: dict, names: tuple[str, ...]) -> tuple[dict, dict]:
    """num/den over ZZ[names] divided by their gcd, with coprime integer
    content and a positive leading coefficient of the denominator."""
    if len(num) == 1 or len(den) == 1:
        # a monomial side: the gcd is the content gcd times x^e, e the
        # least exponents of both sides
        low = tuple(map(min, zip(*num, *den)))
        if any(low):
            num, den = ({tuple(e - f for e, f in zip(mon, low)): coeff
                         for mon, coeff in side.items()} for side in (num, den))
    elif _ground(num) is None and _ground(den) is None:
        rng = _get_ring(names)
        _, num, den = rng.from_dict(num).cofactors(rng.from_dict(den))
        num = {mon: int(coeff) for mon, coeff in num.items()}
        den = {mon: int(coeff) for mon, coeff in den.items()}
    # the content gcd cancels the rest, all of the gcd where a side is constant
    content = math.gcd(*num.values(), *den.values())
    if _lc(den) < 0:
        content = -content
    if content != 1:
        num = {mon: coeff // content for mon, coeff in num.items()}
        den = {mon: coeff // content for mon, coeff in den.items()}
    return num, den


# ----------------------------------------------------------------------
# Kronecker certificates
#
# Sending each parameter x_i to 2^(B*S_i), S_1 = 1 and S_(i+1) = S_i*D_i,
# is injective on integer polynomials with coefficients below 2^(B-1) in
# absolute value and degree below D_i in each x_i: distinct monomials land
# on distinct powers of 2^B (mixed radix D_1, D_2, ...), and balanced
# base-2^B digits are unique.  So one int tests such a polynomial for zero,
# exactly; nothing is sampled.


def _denominator_parts(den: dict) -> tuple[int, tuple, frozenset]:
    """den = c * x^e * P, P primitive with no monomial factor and a positive
    leading coefficient: (c, e, P's terms), P = 1 for a monomial."""
    low = tuple(map(min, zip(*den)))
    c = math.gcd(*den.values())
    if _lc(den) < 0:
        c = -c
    return c, low, frozenset(
        (tuple(e - f for e, f in zip(mon, low)), coeff // c) for mon, coeff in den.items())


def _pexquo(a: dict, b: dict) -> dict | None:
    """a / b when b divides a over ZZ, else None, by long division in lex
    order: a multiple of b has b's leading term dividing its own.  The
    remainder is one working copy of a, reduced in place, and its
    monomials wait on a heap, largest first: each step only adds terms
    below the one it clears."""
    from heapq import heapify, heappop, heappush  # on first use, not with the package

    mb = max(b)
    cb, out = b[mb], {}
    rest = [(mon, coeff) for mon, coeff in b.items() if mon != mb]
    add = _monomial_mul(len(mb))
    a = dict(a)
    heap = [tuple(-e for e in mon) for mon in a]
    heapify(heap)
    while heap:
        ma = tuple(-e for e in heappop(heap))
        ca = a.pop(ma, 0)
        if not ca:  # cancelled, or already cleared from an earlier entry
            continue
        mon = tuple(x - y for x, y in zip(ma, mb))
        if min(mon, default=0) < 0 or ca % cb:
            return None
        q = out[mon] = ca // cb
        for m, coeff in rest:
            m = add(mon, m)
            old = a.get(m)
            if old is None:
                a[m] = -q * coeff
                heappush(heap, tuple(-e for e in m))
            elif old == q * coeff:
                del a[m]
            else:
                a[m] = old - q * coeff
    return out


def _clear(table: dict, names: tuple[str, ...]) -> tuple[dict, list, dict, dict]:
    """A table {key: {key2: Scalar}} over ``names``, cleared over its Delta.

    Returns {key: {key2: i}}, i indexing the distinct Scalars read (rationals
    by value) in a list of (n, parts of d) for each coefficient n/d, then
    {parts of d: Delta/d} and Delta.  Each coefficient is read raw, so no
    gcd runs.  Delta is the lcm of the denominators' monomial parts c*x^e
    times their primitive parts, largest first, each skipped where it
    divides the product of those taken (an exact division, not a gcd).
    """
    zero = (0,) * len(names)
    seen: dict = {}  # -r or id(d) -> (d, its parts), d kept so its id stays
    index: dict = {}  # (p, r) or id(c) -> i; the table keeps each c, so its id stays
    factors, rows = [], {}
    for key, terms in table.items():
        row = rows[key] = {}
        for key2, c in terms.items():
            ident = id(c) if c._p is None else (c._p, c._r)
            if (i := index.get(ident)) is not None:
                row[key2] = i
                continue
            row[key2] = index[ident] = len(factors)
            if c._p is None:
                c = c.over(names)
                num, den, tag = c._n, c._d, id(c._d)
            else:
                num, den, tag = {zero: c._p} if c._p else {}, {zero: c._r}, -c._r
            hit = seen.get(tag)
            if hit is None:
                hit = seen[tag] = den, _denominator_parts(den)
            factors.append((num, hit[1]))
    dens = {parts for _, parts in seen.values()}
    scale = math.lcm(*(c for c, _, _ in dens))
    top = tuple(map(max, zip(zero, *(e for _, e, _ in dens))))
    prims = {P: dict(P) for _, _, P in dens}
    product = {zero: 1}
    for P in sorted(prims.values(), key=lambda P: (-max(map(sum, P)), sorted(P.items()))):
        if _pexquo(product, P) is None:
            product = _pmul(product, P)
    quotients = {(c, e, P): _pmul(_pexquo(product, prims[P]),
                                  {tuple(t - f for t, f in zip(top, e)): scale // c})
                 for c, e, P in dens}
    return rows, factors, quotients, _pmul(product, {top: scale})


def kronecker_table(ops: dict, words: dict, names: tuple[str, ...], products: int,
                    linear: int) -> tuple[dict, dict, int]:
    """Two tables {key: {key2: Scalar}} over ``names``, cleared and evaluated.

    The identities are among entries e = sum q*w, each a sum over the
    coefficients q of one ``ops`` row, each taken at most once, of q times a
    coefficient w of some ``words`` row.  Each table is cleared over its own
    Delta (:func:`_clear`), so Q = q*Delta_o and W = w*Delta_w are integer
    polynomials, and so is each entry times Delta = Delta_o*Delta_w.  Q, W
    and Delta are evaluated at a Kronecker point where every identity

        sum v * e * e'  -  Delta * sum u * e''  =  0,

    v, u ints with sum |v| <= ``products`` and sum |u| <= ``linear``, holds
    exactly when its value does.  The bounds come from the factors, where
    a factor n*(Delta/d) has l1 norm at most |n|_1 |Delta/d|_1 and degree at
    most that of n plus that of Delta/d.  An entry's l1 norm is at most
    sum |Q|_1 |W|_1 over its terms, so at most M = (the largest l1 norm of
    an ops row) * (the largest l1 norm of a words row), and its degree in
    x_i at most d_i = (the largest deg_i Q) + (the largest deg_i W).  B is
    taken from the identity's coefficient bound
    H = products*M^2 + linear*|Delta|_1*M, and
    D_i = max(2 d_i, deg_i Delta + d_i) + 1.  Returns the two tables at that
    point, {key: {key2: int}}, and the value of Delta.
    """
    zero = (0,) * len(names)
    *ops, delta_o = _clear(ops, names)
    *words, delta_w = _clear(words, names)
    delta = _pmul(delta_o, delta_w)

    def l1(poly: dict) -> int:
        return sum(map(abs, poly.values()))

    def degree(polys) -> tuple:
        return tuple(map(max, zip(zero, *(mon for poly in polys for mon in poly))))

    def bounds(rows: dict, factors: list, quotients: dict) -> tuple[int, list]:
        """The largest l1 norm of a row and the largest degrees of a factor."""
        norms = {parts: l1(q) for parts, q in quotients.items()}
        norms = [l1(n) * norms[parts] for n, parts in factors]
        return (max((sum(norms[i] for i in row.values()) for row in rows.values()), default=0),
                [a + b for a, b in zip(degree(n for n, _ in factors),
                                       degree(quotients.values()))])

    (norm_o, deg_o), (norm_w, deg_w) = bounds(*ops), bounds(*words)
    norm = norm_o * norm_w
    height = products * norm * norm + linear * l1(delta) * norm
    shifts, stride = [], height.bit_length() + 1
    for do, dw, dd in zip(deg_o, deg_w, degree([delta])):
        shifts.append(stride)
        stride *= max(2 * (do + dw), dd + do + dw) + 1

    def value(poly: dict) -> int:
        return sum(coeff << sum(a * s for a, s in zip(mon, shifts))
                   for mon, coeff in poly.items())

    def evaluate(rows: dict, factors: list, quotients: dict) -> dict:
        at = {parts: value(q) for parts, q in quotients.items()}
        values = [value(n) * at[parts] for n, parts in factors]
        return {key: {key2: values[i] for key2, i in row.items()} for key, row in rows.items()}

    return evaluate(*ops), evaluate(*words), value(delta)


def _rational(p: int, r: int = 1) -> "Scalar":
    """The parameter-free Scalar p/r, for coprime ints p and r > 0."""
    out = object.__new__(Scalar)
    out._names = ()
    out._p = p
    out._r = r
    out._n = out._d = out._canon = None
    return out


class Scalar:
    """An element of QQ(p1, ..., pk), with lazy fraction normalization.

    A parameter-free value has ``_names == ()`` and its numerator and
    positive denominator, coprime ints, in ``_p`` and ``_r``; any other
    value has ``_p`` and ``_r`` None and the integer polynomials
    ``_n``/``_d``, kernel dicts over the sorted parameter tuple ``_names``.
    """

    __slots__ = ("_names", "_p", "_r", "_n", "_d", "_canon")

    def __init__(self, names: tuple[str, ...], num, den):
        # Internal constructor of the polynomial form, den nonzero; use
        # scalar()/Scalar.parameter()/Scalar.parse().
        self._names = names
        self._p = self._r = None
        self._n = num
        self._d = den
        self._canon = None

    # the pair as attributes, as perfbench's layer tracer reads it; a
    # rational reads as constant polynomials, built without a ring
    _num = property(lambda self: self._n if self._p is None
                    else {(): self._p} if self._p else {})
    _den = property(lambda self: self._d if self._p is None else {(): self._r})

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def parameter(name: str) -> "Scalar":
        if not _NAME_RE.match(name):
            raise ScalarParseError(f"not a valid parameter name: {name!r}")
        if name in RESERVED_NAMES:
            raise ScalarParseError(
                f"{name!r} is a reserved operator identifier and cannot name a parameter"
            )
        return Scalar((name,), {(1,): 1}, {(0,): 1})

    @staticmethod
    def parse(text: str) -> "Scalar":
        return _ScalarParser(text).run()

    def over(self, names: tuple[str, ...]) -> "Scalar":
        """The same value over QQ[names], a sorted tuple of its parameters
        and more; a parameter-free value, which meets any ring, as is."""
        if self._p is not None or self._names == names:
            return self
        old, num, den = self._names, self._n, self._d
        if not set(old) <= set(names):
            old, num, den = self._canonical()
            if not set(old) <= set(names):
                raise ScalarError(f"{self} depends on parameters outside {names}")
        out = Scalar(names, _lift(num, old, names), _lift(den, old, names))
        out._canon = self._canon
        return out

    def _unify(self, other: "Scalar"):
        if self._names != other._names:
            names = tuple(sorted(set(self._names) | set(other._names)))
            self, other = self.over(names), other.over(names)
        return self._names, self._n, self._d, other._n, other._d

    # ------------------------------------------------------------------
    # arithmetic
    #
    # Only the operators the checks run hot are written out.  One pass of
    # the axiom suite makes about 2.3k products, 200 sums, 140 negations,
    # 76 powers and no -, / or ==, all of them building its operators and
    # word tables (its images and identities run in ints,
    # :func:`kronecker_table`); a
    # probe pass makes about 6.5k products, 650 sums, 360 negations and
    # 90 powers and divisions, before its closure runs in ints.  Each hot
    # operator settles the parameter-free cases first.  Two rationals p/r
    # and q/s meet in int arithmetic: over unit denominators a sum or
    # product is one int operation, a sum reduces through gcd(r, s) and a
    # product cross-reduces by gcd(p, s) and gcd(q, r), so every result is
    # coprime without a full gcd.  A rational p/r meets an integer
    # polynomial pair num/den by scaling with p and r, over the other
    # operand's names; only two polynomial operands are unified, two
    # monomial denominators meet at their lcm, and a constant denominator
    # is scaled by, never multiplied as, a polynomial.  -, / and ==
    # (parsing and the catalog's comparisons) are derived from them.

    def __add__(self, other: ScalarLike) -> "Scalar":
        if other.__class__ is not Scalar:
            other = scalar(other)
        if self._p is None:
            if other._p is None:
                names, na, da, nb, db = self._unify(other)
                if da == db:
                    return Scalar(names, _padd(na, nb), da)
                if len(da) != 1 or len(db) != 1:
                    if len(da) > 1 < len(db):
                        # where one divides the other, meet at the larger
                        for big, nbig, small, nsmall in ((db, nb, da, na), (da, na, db, nb)):
                            q = _pexquo(big, small)
                            if q is not None:
                                return Scalar(names, _padd(_pmul(nsmall, q), nbig), big)
                    return Scalar(names, _padd(_pmul(na, db), _pmul(nb, da)),
                                  _pmul(da, db))
                # two monomial denominators meet at their lcm
                [(ea, ca)], [(eb, cb)] = da.items(), db.items()
                lcm = math.lcm(ca, cb)
                top = tuple(map(max, ea, eb))
                num = _padd(_pmul(na, {tuple(t - e for t, e in zip(top, ea)): lcm // ca}),
                            _pmul(nb, {tuple(t - e for t, e in zip(top, eb)): lcm // cb}))
                return Scalar(names, num, {top: lcm})
            self, other = other, self
        p, r = self._p, self._r
        if not p:
            return other
        q = other._p
        if q is not None:
            s = other._r
            if r == 1 == s:
                return _rational(p + q)
            g = math.gcd(r, s)
            if g == 1:
                return _rational(p * s + q * r, r * s)
            r, s = r // g, s // g
            num = p * s + q * r
            h = math.gcd(num, g)
            return _rational(num // h, r * s * (g // h))
        num, den = other._n, other._d
        if r != 1:
            num, den = _pscale(num, r), _pscale(den, r)
        return Scalar(other._names, _padd(num, _pscale(other._d, p)), den)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + -scalar(other)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return scalar(other) + -self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if other.__class__ is not Scalar:
            other = scalar(other)
        if self._p is None:
            if other._p is None:
                names, na, da, nb, db = self._unify(other)
                # most symbolic factors are polynomials: skip the unit
                # product, and scale by a constant rather than multiply
                ca, cb = _ground(da), _ground(db)
                den = (db if ca == 1 else da if cb == 1
                       else _pscale(db, ca) if ca is not None
                       else _pscale(da, cb) if cb is not None else _pmul(da, db))
                return Scalar(names, _pmul(na, nb), den)
            self, other = other, self
        p, r = self._p, self._r
        if p == r:
            return other
        if not p:
            return ZERO
        q = other._p
        if q is None:
            den = other._d
            if r != 1:
                den = _pscale(den, r)
            return Scalar(other._names, _pscale(other._n, p), den)
        s = other._r
        if q == s:
            return self
        if r == 1 == s:
            return _rational(p * q)
        g, h = math.gcd(p, s), math.gcd(q, r)
        return _rational((p // g) * (q // h), (r // h) * (s // g))

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        other = scalar(other)
        if other.is_zero:
            raise ScalarDivisionError("division by zero scalar")
        return self * other ** -1

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return scalar(other) / self

    def __neg__(self) -> "Scalar":
        if self._p is not None:
            return _rational(-self._p, self._r)
        return Scalar(self._names, _pneg(self._n), self._d)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("scalar exponents must be integers")
        if exponent == 0:
            return ONE
        if exponent < 0 and self.is_zero:
            raise ScalarDivisionError("zero scalar raised to a negative power")
        p = self._p
        if p is not None:
            r = self._r
            if exponent < 0:
                p, r, exponent = r, p, -exponent
                if r < 0:
                    p, r = -p, -r
            return _rational(p ** exponent, r ** exponent)
        num, den = self._n, self._d
        if exponent < 0:
            num, den, exponent = den, num, -exponent
        return Scalar(self._names, _ppow(num, exponent), _ppow(den, exponent))

    # ------------------------------------------------------------------
    # predicates and comparisons

    @property
    def is_zero(self) -> bool:
        p = self._p
        return not self._n if p is None else not p

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self) -> int:
        # parameter-free values hash like the int/Fraction they equal
        if self._p is None:
            names, num, den = self._canonical()
            if names:
                return hash((names, tuple(_terms(num)), tuple(_terms(den))))
        return hash(self.as_fraction())

    # ------------------------------------------------------------------
    # canonical form

    def _canonical(self):
        """Reduced, content-normalized (names, num, den) with shrunk names."""
        if self._canon is not None:
            return self._canon
        names = self._names
        if not self._n:
            self._canon = ((), {}, {(): 1})
            return self._canon
        num, den = _cancel(self._n, self._d, names)
        used = set()
        for mon in (*num, *den):
            used.update(i for i, e in enumerate(mon) if e)
        if len(used) < len(names):
            kept = tuple(names[i] for i in sorted(used))
            num = _lift(num, names, kept)
            den = _lift(den, names, kept)
            names = kept
        self._canon = (names, num, den)
        return self._canon

    @property
    def parameters(self) -> tuple[str, ...]:
        """Sorted names of the parameters this value actually depends on."""
        if self._p is not None:
            return ()
        return self._canonical()[0]

    @property
    def is_rational(self) -> bool:
        return not self.parameters

    def as_fraction(self) -> Fraction:
        if self._p is not None:
            return Fraction(self._p, self._r)
        names, num, den = self._canonical()
        if names:
            raise ScalarError(f"scalar {self} is not a rational number")
        return Fraction(_lc(num), _lc(den))

    def as_integer_ratio(self) -> tuple[int, int]:
        """The coprime ints (p, r), r > 0, of a rational value p/r."""
        if self._p is not None:
            return self._p, self._r
        value = self.as_fraction()
        return value.numerator, value.denominator

    # ------------------------------------------------------------------
    # specialization

    def specialize(self, assignments: Mapping[str, int | Fraction | str]) -> "Scalar":
        """Substitute rational values for a subset of the parameters.

        Names in ``assignments`` that this scalar does not depend on are
        ignored, so one assignment map can be applied across a whole vector
        of coefficients.  The substitution runs in ints, from the canonical
        form: for each assigned x = p/q, num and den are both multiplied by
        q^e, e the largest power of x in either, so a term c x^k becomes
        c p^k q^(e-k).  Raises :class:`SingularSpecializationError` when
        the (reduced) denominator vanishes at the assignment.  A value left
        with no parameters comes back in the parameter-free form.
        """
        if self._p is not None:
            return self
        names, num, den = self._canonical()
        if not names:
            # canonical: coprime integer content, positive denominator
            return _rational(_lc(num), _lc(den))
        assign = {name: Fraction(value) for name, value in assignments.items()
                  if name in names}
        if not assign:
            return self
        for name, value in assign.items():
            i = names.index(name)
            e = max((mon[i] for mon in (*num, *den)), default=0)
            num, den = (_substitute(part, i, *value.as_integer_ratio(), e)
                        for part in (num, den))
        if not den:
            point = ", ".join(f"{n}={assign[n]}" for n in names if n in assign)
            raise SingularSpecializationError(
                f"denominator of {self} vanishes under {point}")
        kept = tuple(n for n in names if n not in assign)
        num, den = _lift(num, names, kept), _lift(den, names, kept)
        if not kept:
            return scalar(Fraction(num.get((), 0), den[()]))
        return Scalar(kept, num, den)

    # ------------------------------------------------------------------
    # printing

    def render(self) -> str:
        p = self._p
        if p is not None:
            return str(p) if self._r == 1 else f"{p}/{self._r}"
        names, num, den = self._canonical()
        if not num:
            return "0"
        num_text = _poly_text(num, names)
        if _ground(den) == 1:
            return num_text
        den_text = _poly_text(den, names)
        if len(num) > 1 and not num_text.startswith("-("):
            num_text = f"({num_text})"
        # a canonical denominator has a positive leading coefficient and
        # integer coefficients: it needs parentheses exactly when it is a
        # sum (a space) or carries a coefficient or a product (a '*')
        if " " in den_text or "*" in den_text:
            den_text = f"({den_text})"
        return f"{num_text}/{den_text}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Scalar({self.render()!r})"


# ----------------------------------------------------------------------
# rendering helpers


def _monomial_text(mon: tuple[int, ...], names: tuple[str, ...]) -> str:
    parts = []
    for name, exp in zip(names, mon):
        if exp == 1:
            parts.append(name)
        elif exp:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def _term_text(c: int, mon: tuple[int, ...], names: tuple[str, ...]) -> str:
    mono = _monomial_text(mon, names)
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def _poly_text(poly, names: tuple[str, ...]) -> str:
    terms = _terms(poly)
    if all(coeff < 0 for _, coeff in terms):
        body = _poly_text(_pneg(poly), names)
        if len(terms) > 1:
            return f"-({body})"
        return f"-{body}"
    pieces = [_term_text(terms[0][1], terms[0][0], names)]
    for mon, coeff in terms[1:]:
        if coeff < 0:
            pieces.append(" - " + _term_text(-coeff, mon, names))
        else:
            pieces.append(" + " + _term_text(coeff, mon, names))
    return "".join(pieces)


# ----------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))")


class _ScalarParser:
    """Recursive-descent parser of the scalar grammar.

    expr   := term  (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | '+' factor | power
    power  := atom ('^' ['-'] INT)?
    atom   := INT | NAME | '(' expr ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0

    def _tokenize(self, text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ScalarParseError(
                        f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
                break
            tokens.append(m.group(m.lastgroup))
            pos = m.end()
        return tokens

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ScalarParseError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def run(self) -> Scalar:
        value = self.expr()
        if self.peek() is not None:
            raise ScalarParseError(
                f"trailing input {' '.join(self.tokens[self.pos:])!r} in {self.text!r}")
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Scalar:
        value = self.factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.factor()
            else:
                divisor = self.factor()
                if divisor.is_zero:
                    raise ScalarDivisionError(f"division by zero in {self.text!r}")
                value = value / divisor
        return value

    def factor(self) -> Scalar:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise ScalarParseError(f"expected integer exponent in {self.text!r}")
        return base ** (sign * int(tok))

    def atom(self) -> Scalar:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.peek() != ")":
                raise ScalarParseError(f"missing ')' in {self.text!r}")
            self.take()
            return value
        if tok.isdigit():
            return _rational(int(tok))
        if _NAME_RE.match(tok):
            return Scalar.parameter(tok)
        raise ScalarParseError(f"unexpected token {tok!r} in {self.text!r}")


def scalar(value: ScalarLike) -> Scalar:
    """Coerce an int, Fraction, str (scalar grammar), or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return _rational(int(value))
    if isinstance(value, Fraction):
        return _rational(value.numerator, value.denominator)
    if isinstance(value, str):
        return Scalar.parse(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")


ZERO = scalar(0)
ONE = scalar(1)


def render_linear(pairs: Iterator[tuple["Scalar", str]] | list) -> str:
    """Render a linear combination of basis words with Scalar coefficients.

    ``pairs`` yields (coefficient, word-text); the word-text "1" stands for
    the empty word.  Every :class:`LinComb` subclass renders through it, so
    that linear combinations print consistently.
    """
    pieces = []
    for coeff, text in pairs:
        s = coeff.render()
        if text == "1":
            pieces.append(s if " " not in s else f"({s})")
        elif s == "1":
            pieces.append(text)
        elif s == "-1":
            pieces.append(f"-{text}")
        elif " " in s:
            pieces.append(f"({s})*{text}")
        else:
            pieces.append(f"{s}*{text}")
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


class LinComb:
    """A finite Scalar-linear combination of hashable keys.

    The shared core of the package's sparse containers (Weyl words, Laurent
    superfunctions, Lie vectors, module vectors): ``_terms`` maps each key
    to a nonzero coefficient, and every operation keeps zero coefficients
    out of it.  Subclasses validate keys where they are built from outside
    and add rendering and domain operations; ``add_term`` and
    ``add_scaled`` accumulate in place and trust their keys.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        self._terms = {k: c for k, c in (terms or {}).items() if not c.is_zero}

    def _like(self, terms: dict):
        """A combination of the same kind as self over already-clean terms."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    def items(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key) -> Scalar:
        return self._terms.get(key, ZERO)

    def add_term(self, key, coeff: Scalar):
        """Add coeff * key in place, dropping the key if it cancels; returns self."""
        terms = self._terms
        old = terms.get(key)
        if old is not None:
            coeff = old + coeff
        if coeff.is_zero:
            terms.pop(key, None)
        else:
            terms[key] = coeff
        return self

    def add_scaled(self, other: "LinComb", factor: ScalarLike = ONE):
        """Add factor * other in place; returns self."""
        factor = scalar(factor)
        if factor.is_zero:
            return self
        terms = self._terms
        for key, coeff in other._terms.items():
            coeff = coeff * factor
            old = terms.get(key)
            if old is None:
                terms[key] = coeff
                continue
            coeff = old + coeff
            if coeff.is_zero:
                del terms[key]
            else:
                terms[key] = coeff
        return self

    def __add__(self, other: "LinComb"):
        if type(other) is not type(self):
            return NotImplemented
        return self._like(dict(self._terms)).add_scaled(other)

    def __sub__(self, other: "LinComb"):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def scale(self, factor: ScalarLike):
        factor = scalar(factor)
        if factor.is_zero:
            return self._like({})
        return self._like({k: c * factor for k, c in self._terms.items()})

    __rmul__ = __mul__ = scale

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        theirs = other._terms
        return (self._terms.keys() == theirs.keys()
                and all(c == theirs[k] for k, c in self._terms.items()))

    def __hash__(self) -> int:
        return hash(frozenset((k, hash(c)) for k, c in self._terms.items()))

    def __str__(self) -> str:
        return self.render()

"""Verdict records and the comparison kernel behind every checker.

Quantities are exact (int or Fraction), enclosures (closed rational
intervals guaranteed to contain a real value), or RationalPowers
coef * base**(p/q), which power_of returns for an exact base and a
non-integral rational exponent.  Every decision reduces to integer
comparisons: two exact values directly, an exact value against a
RationalPower by raising both sides to the power q, anything else by
interval endpoints.  A claim the endpoints neither prove nor refute is
reported as inconclusive, never rounded to a boolean.

ln and exp come from the decimal module, whose ln and exp are correctly
rounded (half-even) at any precision.  Each endpoint has its own pass: x's
numerator is divided by its denominator rounding toward the endpoint's side
(floor for the lower endpoint, ceiling for the upper), ln or exp is taken,
and an inexact result is moved one unit in its last place outward.  ln and
exp are increasing, so each endpoint is a bound, and ln 1 and exp 0 stay
exact points.

The error bound.  A pass to `bits` works to p digits, so one unit in the
last place is at most u = 10**(1 - p) <= 2**-(bits + 16), relatively.  The
quotient is off by at most one unit, and the result by at most one and a
half more.  For ln x, x = n/d, the quotient's unit moves ln x by about u,
so ln adds to prec the bits b of d/|n - d|, as |ln x| > 2**-(b + 1), and
each endpoint is off by at most 3.5 * 2**-(prec + 16), relatively.  exp x is
2**k exp(r), with k = x // ln 2 and r = x - k ln 2 in [0, 1): exp r works to
prec + 1 bits and ln 2 to prec + 2 + log2 |x|, so each endpoint is off by at
most 1.25 + 1.5 units of 2**-(prec + 16).  When d/|n - d| has more bits
than both prec and 200, ln x comes from at most three terms of the series of
ln(1 + t), t = (n - d)/d, worked in integers to prec + 24 bits beyond the
leading bit of t, with no decimal at all: t rounded to the working bits,
each term rounded, and the dropped tail cost at most one unit each, five at
most, so each endpoint is off by at most 2**-(prec + 20), relatively.  So
every enclosure is at most 2**-(prec + 13) wide, relatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Decimal, Inexact
from decimal import Context as DecimalContext
from fractions import Fraction
from typing import Any, Mapping

TRUE = "true"
FALSE = "false"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

_STATUSES = (TRUE, FALSE, INCONCLUSIVE, HYPOTHESIS_NOT_MET)

_PREC = 200  # bits of relative precision every enclosure keeps

_DECIMAL_30 = DecimalContext(prec=30)

_WIDE = 16  # operands past _WIDE times the working bits (+ 64) are rounded by shifts


class Enclosure:
    """A closed rational interval certified to contain a real number.

    Arithmetic is outward-exact: +, -, *, / combine endpoint fractions, so
    no rounding happens after the transcendental evaluation that produced
    the enclosure.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo is not hi and lo > hi:  # a point is not compared with itself
            raise ValueError(f"empty enclosure [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"Enclosure({self.lo}, {self.hi})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enclosure):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __add__(self, other):
        o = _as_enclosure(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_enclosure(other))

    def __rsub__(self, other):
        return _as_enclosure(other) + (-self)

    def __mul__(self, other):
        o = _as_enclosure(other)
        corners = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Enclosure(min(corners), max(corners))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_enclosure(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("divisor enclosure contains zero")
        inv = Enclosure(1 / o.hi, 1 / o.lo)
        return self * inv

    def __rtruediv__(self, other):
        return _as_enclosure(other) / self


def _as_enclosure(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return Enclosure(f, f)
    raise TypeError(f"cannot treat {type(x).__name__} as a number")


def _bound(fn: str, x: Fraction, up: bool, bits: int) -> Fraction:
    """A lower (or, when up is true, upper) bound on fn(x), fn "ln" or "exp",
    to p digits with 10**(1 - p) <= 2**-(bits + 16), as 1234/4096 > log10 2.

    An operand of more than _WIDE * (bits + 64) bits would cost a quadratic
    conversion to Decimal, so x is first rounded toward the bound's side by
    integer shifts: for exp (x - k ln 2 in [0, 1) here) to w = bits + 24 bits
    after the point, for ln to y * 2**e with y in [1/2, 2) to w bits after
    the point, and ln x = ln y + e ln 2, with ln 2 to the bits of e more.
    Either way the endpoint stays within 2**-(bits + 17) of fn(x), relatively
    for exp and absolutely for ln, inside the bound in the module docstring.
    """
    n, d = x.numerator, x.denominator
    if max(n.bit_length(), d.bit_length()) > _WIDE * (bits + 64):
        w = bits + 24
        e = n.bit_length() - d.bit_length() if fn == "ln" else 0
        y, r = divmod(n << w - e, d) if w >= e else divmod(n, d << e - w)
        if up and r:
            y += 1
        if fn == "exp":
            return _bound(fn, Fraction(y, 1 << w), up, bits)
        ln2 = _ln(Fraction(2), (e > 0) == up, bits + 4 + e.bit_length())
        return _bound(fn, Fraction(y, 1 << w), up, bits + 4) + e * ln2
    rounding = ROUND_CEILING if up else ROUND_FLOOR
    ctx = DecimalContext(2 + (bits + 16) * 1234 // 4096, rounding, MIN_EMIN, MAX_EMAX)
    arg = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
    ctx.clear_flags()  # the quotient is rounded toward the bound already
    y = getattr(ctx, fn)(arg)
    if ctx.flags[Inexact]:
        y = ctx.next_plus(y) if up else ctx.next_minus(y)
    return Fraction(*y.as_integer_ratio())


def _ln(q: Fraction, up: bool, prec: int = _PREC) -> Fraction:
    """A lower (or, when up is true, upper) bound on ln q, q = n/d > 0.

    Next to 1, ln q is as small as q - 1, so the bits of d/|n - d| are added;
    once they outnumber both prec and _PREC, the series of ln(1 + t) bounds
    it instead (_ln_near_one), as decimal would work to all of those bits.
    """
    n, d = q.numerator, q.denominator
    near_one = (d // abs(n - d)).bit_length() if n != d else 0
    if near_one > max(prec, _PREC):
        return _ln_near_one(n - d, d, up, prec)
    return _bound("ln", q, up, prec + near_one)


def _ln_near_one(u: int, d: int, up: bool, prec: int) -> Fraction:
    """A lower (or, when up is true, upper) bound on ln(1 + t), t = u/d with
    0 < |t| < 2**-200, from partial sums of t - t**2/2 + t**3/3 - ...

    In units of 2**-s, with |t| * 2**s about 2**w: t is rounded toward the
    bound's side to x = m / 2**s, which bounds ln(1 + t) on that side as ln
    is increasing, and each term x**j / j, j >= 2, is rounded to that side
    too.  k terms are taken, with |x|**(k + 1) < 2**-s.  For x > 0 the
    series alternates with falling terms, so a sum of an odd number of them
    is an upper bound and of an even number a lower one.  For x < 0 every
    term is negative, so the sum is an upper bound, and less one unit a
    lower one: the geometric bound on the tail,
    |x|**(k + 1) / ((k + 1)(1 - |x|)), is below one unit, as k >= 1 and
    |x| < 1/2.
    """
    w = max(prec, 0) + 24
    s = d.bit_length() - abs(u).bit_length() + w
    m, r = divmod(u << s, d)
    if up and r:
        m += 1
    k = -(-s // (s - abs(m).bit_length())) - 1
    if m > 0 and k % 2 != up:
        k += 1
    total = 0
    for j in range(1, k + 1):
        term, den = -((-m) ** j), j << (j - 1) * s  # the j-th term is term / den units
        total += -(-term // den) if up else term // den
    if m < 0 and not up:
        total -= 1
    return Fraction(total, 1 << s)


def _exp(x: Fraction, up: bool, prec: int = _PREC) -> Fraction:
    """A lower (or, when up is true, upper) bound on exp x = 2**k exp(x - k ln 2).

    k = x // ln 2 keeps the decimal result in [1, 2], not a power of 10 the
    size of exp x.  ln 2 is bounded on the side that moves x - k ln 2 toward
    the bound, to the bits of |x| more, as k multiplies its error.
    """
    n, d = x.numerator, x.denominator
    ln2 = _ln(Fraction(2), (n >= 0) != up, prec + 2 + (abs(n) // d).bit_length())
    k = x // ln2
    return _bound("exp", x - k * ln2, up, prec + 1) * Fraction(2) ** k


def log_of(x) -> Enclosure:
    """Enclosure of the natural log of a positive exact value or enclosure."""
    e = _as_enclosure(x)
    if e.lo <= 0:
        raise ValueError("log needs a strictly positive argument")
    return Enclosure(_ln(e.lo, False), _ln(e.hi, True))


def exp_of(x) -> Enclosure:
    """Enclosure of exp of an exact value or enclosure."""
    e = _as_enclosure(x)
    return Enclosure(_exp(e.lo, False), _exp(e.hi, True))


def _exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def power_of(base, exponent) -> Enclosure:
    """base**exponent for a positive base, as an Enclosure.

    An integral int or Fraction exponent on an exact base gives the exact
    point, and on an enclosure with lo > 0 the endpoint powers; a
    non-integral rational one on an exact base gives the exact
    RationalPower, which compare decides by integer powers; any other goes
    through exp(exponent * log(base)).  A bool raises TypeError, and a base
    that is not positive under a non-integral exponent, or an enclosure
    reaching 0 or below, raises ValueError.
    """
    if _exact(base) and _exact(exponent):
        if exponent.denominator == 1:
            v = Fraction(base) ** int(exponent)
            return Enclosure(v, v)
        if base <= 0:
            raise ValueError("log needs a strictly positive argument")
        return RationalPower(1, base, exponent)
    if isinstance(base, Enclosure) and _exact(exponent) and exponent.denominator == 1:
        n = int(exponent)
        if base.lo > 0:
            return Enclosure(*sorted((base.lo**n, base.hi**n)))
    return exp_of(log_of(base) * _as_enclosure(exponent))


class RationalPower(Enclosure):
    """coef * base**exp, exact: coef and base positive ints or Fractions, exp a
    non-integral Fraction.

    A product with a positive exact scalar stays exact, its coef scaled.  Any
    other use reads it as an Enclosure: lo and hi are unset slots until the
    first read builds exp_of(log_of(base) * exp) * coef, once.
    """

    __slots__ = ("coef", "base", "exp")

    def __init__(self, coef, base, exp: Fraction) -> None:
        self.coef, self.base, self.exp = coef, base, exp

    def __getattr__(self, name: str):  # called for unset slots and unknown names only
        if name not in ("lo", "hi"):
            raise AttributeError(name)
        e = exp_of(log_of(self.base) * _as_enclosure(self.exp)) * self.coef
        self.lo, self.hi = e.lo, e.hi
        return getattr(self, name)

    def __repr__(self) -> str:
        return f"RationalPower({self.coef}, {self.base}, {self.exp})"

    def __mul__(self, other):
        if _exact(other) and other > 0:
            return RationalPower(self.coef * other, self.base, self.exp)
        return super().__mul__(other)

    __rmul__ = __mul__

    def _sign_below(self, x) -> int | None:
        """The sign of x - self for an exact x, or None past _EXACT_BITS.

        With x / coef = rn / rd and exp = p/q, x - self has the sign of
        rn**q - rd**q * base**p; for p < 0 both sides are multiplied by
        base**-p, and base's denominator is cleared, leaving ints.
        """
        if x <= 0:
            return -1
        c, b = self.coef, self.base
        rn, rd = x.numerator * c.denominator, x.denominator * c.numerator
        p, q = self.exp.numerator, self.exp.denominator
        u, w = (b.denominator, b.numerator) if p > 0 else (b.numerator, b.denominator)
        a = abs(p)
        if q * max(rn, rd).bit_length() + a * max(u, w).bit_length() > _EXACT_BITS:
            return None
        left, right = rn**q * u**a, rd**q * w**a
        return (left > right) - (left < right)


_EXACT_BITS = 1 << 18  # above this size of the integer powers, compare encloses

# the signs of lhs - rhs at which each relation holds
_HOLDS_AT = {"<": {-1}, "<=": {-1, 0}, ">": {1}, ">=": {0, 1}, "==": {0}}


def _exact_sign(lhs, rhs) -> int | None:
    """The sign of lhs - rhs when both are exact, or one is exact and the
    other a RationalPower within _EXACT_BITS; else None."""
    if _exact(lhs):
        if _exact(rhs):
            return (lhs > rhs) - (lhs < rhs)
        if isinstance(rhs, RationalPower):
            return rhs._sign_below(lhs)
    elif isinstance(lhs, RationalPower) and _exact(rhs):
        s = lhs._sign_below(rhs)
        return None if s is None else -s
    return None


def compare(lhs, rhs, relation: str) -> str:
    """Decide lhs <relation> rhs, honestly; the one source of a verdict status.

    The status comes from the signs lhs - rhs can take: true if the relation
    holds at each of them, false if at none, else inconclusive, so a status
    other than inconclusive is a proof.  Two exact values, or an exact value
    and a RationalPower whose integer powers stay within _EXACT_BITS, have
    one sign.  Otherwise both sides become enclosures (an exact value is a
    point interval), and l - r can be negative iff l.lo < r.hi, zero iff the
    intervals meet, and positive iff l.hi > r.lo.  So l < r is true iff
    l.hi < r.lo and false iff l.lo >= r.hi, l <= r is true iff l.hi <= r.lo
    and false iff l.lo > r.hi, and l == r is true only when both sides are
    one and the same point.  An unknown relation raises ValueError before
    any conversion, and a bool, float, None or str raises TypeError.
    """
    if relation not in _HOLDS_AT:
        raise ValueError(f"unknown relation {relation!r}")
    holds = _HOLDS_AT[relation]
    sign = _exact_sign(lhs, rhs)
    if sign is not None:
        return TRUE if sign in holds else FALSE
    l, r = _as_enclosure(lhs), _as_enclosure(rhs)
    can = ((-1, l.lo < r.hi), (0, l.lo <= r.hi and r.lo <= l.hi), (1, l.hi > r.lo))
    signs = {s for s, possible in can if possible}
    return TRUE if signs <= holds else FALSE if signs.isdisjoint(holds) else INCONCLUSIVE


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked claim.

    holds is one of "true", "false", "inconclusive", "hypothesis-not-met";
    hypothesis_met is False exactly for the last.  lhs and rhs are
    the compared quantities (exact values or enclosures); witness carries
    whatever supporting data the checker chose to expose.
    """

    name: str
    lhs: Any
    rhs: Any
    holds: str
    witness: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.holds not in _STATUSES:
            raise ValueError(f"bad holds value {self.holds!r}")

    @property
    def hypothesis_met(self) -> bool:
        return self.holds != HYPOTHESIS_NOT_MET


def verdict_from_compare(
    name: str,
    lhs,
    rhs,
    relation: str,
    witness: Mapping[str, Any] | None = None,
) -> Verdict:
    return Verdict(
        name=name,
        lhs=lhs,
        rhs=rhs,
        holds=compare(lhs, rhs, relation),
        witness=dict(witness or {}),
    )


def unmet(name: str, lhs, rhs, witness: Mapping[str, Any] | None = None) -> Verdict:
    return Verdict(
        name=name,
        lhs=lhs,
        rhs=rhs,
        holds=HYPOTHESIS_NOT_MET,
        witness=dict(witness or {}),
    )


def format_fraction_30(x: Fraction) -> str:
    return str(_DECIMAL_30.divide(Decimal(x.numerator), Decimal(x.denominator)))


def format_value(x) -> str:
    """Human-readable form: exact values verbatim, enclosures as ~midpoint."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, Enclosure):
        return "~" + format_fraction_30(x.mid)
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "(" + " ".join(format_value(v) for v in x) + ")"
    if x is None:
        return "-"
    return str(x)


def value_to_json(x):
    """JSON-friendly form keeping rationals exact (numerator/denominator strings)."""
    if isinstance(x, bool):
        return {"kind": "bool", "value": x}
    if isinstance(x, int):
        return {"kind": "int", "value": str(x)}
    if isinstance(x, Fraction):
        return {"kind": "rat", "num": str(x.numerator), "den": str(x.denominator)}
    if isinstance(x, Enclosure):
        return {"kind": "real", "approx": format_fraction_30(x.mid)}
    if isinstance(x, str):
        return {"kind": "str", "value": x}
    if isinstance(x, tuple):
        return {"kind": "seq", "items": [value_to_json(v) for v in x]}
    if x is None:
        return {"kind": "none"}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def verdict_to_json(v: Verdict) -> dict:
    return {
        "name": v.name,
        "hypothesis_met": v.hypothesis_met,
        "holds": v.holds,
        "lhs": value_to_json(v.lhs),
        "rhs": value_to_json(v.rhs),
        "witness": {k: value_to_json(v.witness[k]) for k in sorted(v.witness)},
    }


def format_verdict_line(v: Verdict) -> str:
    parts = [v.name, v.holds, format_value(v.lhs), format_value(v.rhs)]
    for k in sorted(v.witness):
        parts.append(f"{k}={format_value(v.witness[k])}")
    return " ".join(parts)

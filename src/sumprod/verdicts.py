"""Verdict records and the comparison kernel behind every checker.

Quantities are either exact (int or Fraction) or enclosures: closed rational
intervals guaranteed to contain a real value.  Enclosures come out of a
private 200-bit interval-arithmetic context with endpoints converted back to
exact fractions, so every decision this module makes reduces to integer
comparisons of interval endpoints.  A claim the endpoints neither prove nor
refute is reported as inconclusive, never rounded to a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Context as DecimalContext
from decimal import Decimal
from fractions import Fraction
from typing import Any, Mapping

from mpmath.ctx_iv import MPIntervalContext

TRUE = "true"
FALSE = "false"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

_STATUSES = (TRUE, FALSE, INCONCLUSIVE, HYPOTHESIS_NOT_MET)

_iv = MPIntervalContext()
_iv.prec = 200

_DECIMAL_30 = DecimalContext(prec=30)


class Enclosure:
    """A closed rational interval certified to contain a real number.

    Arithmetic is outward-exact: +, -, *, / combine endpoint fractions, so
    no rounding happens after the transcendental evaluation that produced
    the enclosure.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
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


def _endpoint_fraction(data: tuple) -> Fraction:
    sign, man, exp, _bc = data
    if man == 0 and exp != 0:
        raise ValueError("non-finite interval endpoint")
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


def _from_iv(value) -> Enclosure:
    a, b = value._mpi_
    return Enclosure(_endpoint_fraction(a), _endpoint_fraction(b))


def _iv_hull(e: Enclosure):
    """The 200-bit interval hull of e's endpoints, each rounded outward."""
    lo, hi = (_iv.mpf(f.numerator) / _iv.mpf(f.denominator) for f in (e.lo, e.hi))
    return _iv.mpf((lo, hi))


def log_of(x) -> Enclosure:
    """Enclosure of the natural log of a positive exact value or enclosure."""
    e = _as_enclosure(x)
    if e.lo <= 0:
        raise ValueError("log needs a strictly positive argument")
    return _from_iv(_iv.log(_iv_hull(e)))


def exp_of(x) -> Enclosure:
    return _from_iv(_iv.exp(_iv_hull(_as_enclosure(x))))


def power_of(base, exponent) -> Enclosure:
    """Enclosure of base**exponent for positive base.

    Integer exponents on exact bases stay exact; everything else goes
    through exp(exponent * log(base)).
    """
    if isinstance(base, (int, Fraction)) and not isinstance(base, bool):
        if isinstance(exponent, int) and not isinstance(exponent, bool):
            v = Fraction(base) ** exponent
            return Enclosure(v, v)
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            v = Fraction(base) ** int(exponent)
            return Enclosure(v, v)
    return exp_of(log_of(base) * _as_enclosure(exponent))


_RELATIONS = ("<", "<=", ">", ">=", "==")


def compare(lhs, rhs, relation: str) -> str:
    """Decide lhs <relation> rhs, honestly; the one source of a verdict status.

    Both sides become enclosures (an exact value is a point interval), and
    one rule on their endpoints decides, with > and >= read as < and <= with
    the sides swapped: l < r is true iff l.hi < r.lo and false iff
    l.lo >= r.hi; l <= r is true iff l.hi <= r.lo and false iff l.lo > r.hi;
    l == r is true iff both sides are the same point and false iff the
    intervals are disjoint.  Anything else is inconclusive, so a status other
    than that is a proof.  An unknown relation raises ValueError before any
    conversion, and a bool, float, None or str raises TypeError.
    """
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    l, r = _as_enclosure(lhs), _as_enclosure(rhs)
    if relation in (">", ">="):
        l, r = r, l
    if relation == "==":
        if l.lo == l.hi == r.lo == r.hi:
            return TRUE
        return FALSE if l.hi < r.lo or r.hi < l.lo else INCONCLUSIVE
    if relation in ("<", ">"):
        proved, refuted = l.hi < r.lo, l.lo >= r.hi
    else:
        proved, refuted = l.hi <= r.lo, l.lo > r.hi
    return TRUE if proved else FALSE if refuted else INCONCLUSIVE


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

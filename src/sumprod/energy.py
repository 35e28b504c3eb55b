"""Representation counts and additive energy, exact and by quadrature.

The h-fold representation count of n is the number of ordered h-tuples from
a set summing to n; the energy is the sum of its squares.  Both are computed
exactly by one integer convolution, exactset._convolve: packed into one big
int and read back slot by slot in C, zero slots included, or kept as a dict;
the squares are summed by map over the counts as they come, with no Python
frame per count.  A floating-point quadrature identity, exact for
trigonometric polynomials up to rounding, gives an independent approximate
check, and the p-adic layer decompositions serve the norm inequalities.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import fsum, lcm
from operator import mul

from .exactset import FinSet, _convolve, _require_fold, _require_positive_integers
from .limits import check_size
from .arith import _valuation, is_prime
from .verdicts import Verdict, power_of, verdict_from_compare


def fold_constant(h: int) -> int:
    """The per-dimension energy growth constant 2h^2 - h."""
    _require_fold(h)
    return 2 * h * h - h


@dataclass(frozen=True)
class RepCounts:
    """Representation counts of h-fold sums from base: value -> count."""

    base: FinSet
    h: int
    counts: tuple[tuple[Fraction, int], ...]

    def as_dict(self) -> dict[Fraction, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def energy(self) -> int:
        return sum(c * c for _, c in self.counts)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative rational weights, one per element of an ascending set."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if self.weights and not any(w > 0 for w in self.weights):
            raise ValueError("at least one weight must be positive")

    @classmethod
    def ones(cls, n: int) -> "WeightVector":
        return cls(tuple(Fraction(1) for _ in range(n)))

    def __len__(self) -> int:
        return len(self.weights)


def _require_weights(a: FinSet, d: WeightVector) -> None:
    if len(d) != a.size:
        raise ValueError(f"{len(d)} weights for a set of size {a.size}")


def rep_counts(a: FinSet, h: int) -> RepCounts:
    """Exact h-fold representation counts by polynomial self-convolution."""
    _require_fold(h)
    exponents, conv = _convolve([dict.fromkeys(a._ints, 1)] * h, "representation counts")
    terms = sorted(compress(zip(exponents, conv), conv))
    counts = tuple((Fraction(v, a._scale), c) for v, c in terms)
    return RepCounts(base=a, h=h, counts=counts)


def energy(a: FinSet, h: int) -> int:
    """h-fold additive energy: the sum of squared convolution coefficients."""
    _require_fold(h)
    _, counts = _convolve([dict.fromkeys(a._ints, 1)] * h, "energy convolution")
    return sum(map(mul, counts, counts))


def weighted_energy(a: FinSet, d: WeightVector, h: int) -> Fraction:
    """Energy with elementwise weights: sum over n of (weighted count)^2."""
    _require_fold(h)
    _require_weights(a, d)
    den = lcm(*(w.denominator for w in d.weights))
    scaled = {v: w.numerator * (den // w.denominator) for v, w in zip(a._ints, d.weights) if w}
    _, counts = _convolve([scaled] * h, "weighted energy")
    return Fraction(sum(map(mul, counts, counts)), den ** (2 * h))


def quadrature_energy(a: FinSet, h: int, d: WeightVector | None = None) -> float:
    """Energy as a trigonometric mean, in floating point.

    Averages |sum_j d_j e(a_j x)|^(2h) over 2h*max(a)+1 equally spaced
    points; that node count makes the average exact for the underlying
    degree-h*max(a) trigonometric polynomial, so the only error is float
    roundoff.  Needs positive integer elements; the node count is checked
    against the size cap before any node is built.
    """
    _require_fold(h)
    _require_positive_integers(a, "quadrature energy")
    if a.size == 0:
        return 0.0
    if d is None:
        d = WeightVector.ones(a.size)
    _require_weights(a, d)
    values = a._ints
    weights = [float(w) for w in d.weights]
    m = 2 * h * max(values) + 1
    check_size(m, "quadrature nodes")
    roots = [cmath.exp(2j * cmath.pi * t / m) for t in range(m)]
    terms = []
    for j in range(m):
        z = sum(w * roots[(v * j) % m] for v, w in zip(values, weights))
        mag2 = z.real * z.real + z.imag * z.imag
        terms.append(mag2**h)
    return fsum(terms) / m


@dataclass(frozen=True)
class LayerDecomposition:
    """Partition of a set by the vector of p-adic valuations."""

    primes: tuple[int, ...]
    layers: tuple[tuple[tuple[int, ...], FinSet], ...]

    def as_dict(self) -> dict[tuple[int, ...], FinSet]:
        return dict(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def layer_partition(a: FinSet, primes: tuple[int, ...] | list[int]) -> LayerDecomposition:
    """Split a positive-integer set by valuation vectors at the given primes."""
    _require_positive_integers(a, "layer partition")
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    buckets: dict[tuple[int, ...], list[int]] = {}
    for n in a._ints:
        key = tuple(_valuation(n, p)[0] for p in primes)
        buckets.setdefault(key, []).append(n)
    layers = tuple(
        (key, FinSet(vals)) for key, vals in sorted(buckets.items())
    )
    return LayerDecomposition(primes=primes, layers=layers)


def layer_inequality_check(
    a: FinSet, primes: tuple[int, ...] | list[int], h: int
) -> Verdict:
    """Check E_h(a)^(1/h) <= c_h^t * sum over layers of E_h(layer)^(1/h).

    c_h = fold_constant(h) and t is the number of primes.  Roots are enclosed
    at 200-bit precision; when their endpoints neither prove nor refute the
    claim, the verdict is 'inconclusive'.
    """
    c_h = fold_constant(h)
    decomp = layer_partition(a, primes)
    t = len(decomp.primes)
    e_total = energy(a, h)
    layer_data = tuple(
        (key, energy(part, h)) for key, part in decomp.layers
    )
    lhs = power_of(e_total, Fraction(1, h))
    root_sum = sum(power_of(e, Fraction(1, h)) for _, e in layer_data)
    rhs = power_of(c_h, t) * root_sum
    witness = {
        "h": h,
        "c_h": c_h,
        "layer_count": len(layer_data),
        "energy": e_total,
        "layers": tuple((key, e) for key, e in layer_data),
    }
    return verdict_from_compare("energy.layer_bound", lhs, rhs, "<=", witness)


def tail_monotonicity_check(a: FinSet, p: int, j: int, h: int) -> Verdict:
    """Check E_h(a) >= E_h of the subset divisible by p^j.  Exact."""
    if j < 0:
        raise ValueError(f"valuation threshold must be >= 0, got {j}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _require_positive_integers(a, "tail monotonicity check")
    q = p**j
    tail = FinSet(e for e in a if int(e) % q == 0)
    lhs = energy(a, h)
    rhs = energy(tail, h)
    witness = {"p": p, "j": j, "h": h, "tail_size": tail.size}
    return verdict_from_compare(
        "energy.tail_monotonicity", lhs, rhs, ">=", witness
    )

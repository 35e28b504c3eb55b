"""Literal brute-force references used to cross-check the package.

Every function here is the most direct computation of its quantity,
deliberately sharing no code with the library: closures enumerate all
2^k subsets, energies enumerate all |A|^h tuples, and the dimension
oracle leans on sympy's factorint and Matrix.rank instead of the
package's factorizer and eliminator.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, product
from math import prod


def o_combine(a, b, op):
    if op == "sum":
        return {x + y for x in a for y in b}
    return {x * y for x in a for y in b}


def o_iterate(a, h, op):
    out = set()
    for tup in product(list(a), repeat=h):
        if op == "sum":
            out.add(sum(tup))
        else:
            v = Fraction(1)
            for t in tup:
                v *= t
            out.add(v)
    return out


def o_simple(a, op):
    elems = list(a)
    out = set()
    for r in range(len(elems) + 1):
        for sub in combinations(elems, r):
            if op == "sum":
                out.add(sum(sub, Fraction(0)))
            else:
                v = Fraction(1)
                for t in sub:
                    v *= t
                out.add(v)
    return out


def o_box(a, h):
    elems = list(a)
    out = set()
    for coeffs in product(range(h + 1), repeat=len(elems)):
        out.add(sum((c * e for c, e in zip(coeffs, elems)), Fraction(0)))
    return out


def o_sumdiff(n, h, l):
    plus = o_iterate(n, h, "sum") if h else {Fraction(0)}
    minus = o_iterate(n, l, "sum") if l else {Fraction(0)}
    return {p - m for p in plus for m in minus}


def o_restricted(sorted_elems, pairs, op):
    if op == "sum":
        return {sorted_elems[i] + sorted_elems[j] for i, j in pairs}
    return {sorted_elems[i] * sorted_elems[j] for i, j in pairs}


def o_rep_counts(a, h):
    return Counter(sum(tup) for tup in product(list(a), repeat=h))


def o_energy(a, h):
    return sum(c * c for c in o_rep_counts(a, h).values())


def o_weighted_energy(a, weights_by_elem, h):
    acc = defaultdict(Fraction)
    for tup in product(list(a), repeat=h):
        w = Fraction(1)
        for t in tup:
            w *= weights_by_elem[t]
        acc[sum(tup)] += w
    return sum((v * v for v in acc.values()), Fraction(0))


def o_beta(a):
    count = 0
    for n1, n2, n3, n4 in product(list(a), repeat=4):
        if n1 - n2 + n3 - n4 == 0:
            count += 1
    return count


def _o_exponent_differences(a):
    """Sorted primes, and each later element's exponent row minus the first's."""
    import sympy

    elems = sorted(Fraction(e) for e in a)
    vecs = []
    primes = set()
    for e in elems:
        fn = sympy.factorint(e.numerator)
        fd = sympy.factorint(e.denominator)
        primes |= set(fn) | set(fd)
        vecs.append((fn, fd))
    primes = sorted(primes)
    rows = [
        [fn.get(p, 0) - fd.get(p, 0) for p in primes] for fn, fd in vecs
    ]
    diffs = [
        [r[i] - rows[0][i] for i in range(len(primes))] for r in rows[1:]
    ]
    return primes, diffs


def o_mult_dim(a):
    import sympy

    _, diffs = _o_exponent_differences(a)
    if not diffs:
        return 0
    return sympy.Matrix(diffs).rank()


def o_mult_basis(a):
    """The differences, in ascending element order, that raise the sympy rank
    of the differences kept before them."""
    import sympy

    _, diffs = _o_exponent_differences(a)
    kept = []
    for d in diffs:
        if sympy.Matrix(kept + [d]).rank() > len(kept):
            kept.append(d)
    return [tuple(d) for d in kept]


def o_contains(base, ratios, lengths, elems):
    """Per element, the lexicographically first exponent tuple hitting it, or
    None; every tuple of the grid is evaluated."""
    first = {}
    for tup in product(*(range(j) for j in lengths)):
        v = Fraction(base)
        for r, j in zip(ratios, tup):
            v *= Fraction(r) ** j
        first.setdefault(v, tup)
    return [first.get(Fraction(e)) for e in elems]


def o_f(a):
    elems = [int(e) for e in a]
    sums = {x + y for x in elems for y in elems}
    prods = {x * y for x in elems for y in elems}
    return len(sums | prods)


def o_g(a):
    return len(o_simple(a, "sum")) + len(o_simple(a, "product"))


def o_search(obj, k, n):
    """Plain loop over all C(n,k) subsets; returns (min, sorted certificates)."""
    best = None
    certs = []
    for tup in combinations(range(1, n + 1), k):
        v = obj(tup)
        if best is None or v < best:
            best, certs = v, [tup]
        elif v == best:
            certs.append(tup)
    return best, sorted(certs)


def o_f_lower(prefix, missing):
    """f(prefix) plus 2 per element still missing."""
    return o_f(prefix) + 2 * missing


def o_g_lower(prefix, missing):
    """g(prefix) plus, per element still missing, the subset sums and the
    subset products of the prefix that are at most its maximum, plus
    missing*(missing - 1); both sets are enumerated subset by subset.

    An element y added above the maximum adds at least one new sum per
    subset sum below y (sums pair up as s <-> total - s) and one new product
    per subset product below y.  The i-th element added also lies above the
    i - 1 added before it, each a subset sum and a subset product, so the
    i-th adds 2(i - 1) more, and the missing elements add missing*(missing - 1)
    in all."""
    subs = [s for r in range(len(prefix) + 1) for s in combinations(prefix, r)]
    sums = {sum(s) for s in subs}
    prods = {prod(s) for s in subs}
    m = max(prefix)
    per_element = sum(v <= m for v in sums) + sum(v <= m for v in prods)
    return len(sums) + len(prods) + missing * per_element + missing * (missing - 1)


def o_explore_first(obj, lower, k, n, first, leaf_cap):
    """Depth-first walk over the k-subsets of 1..n with smallest element
    `first`, in lexicographic order, evaluating obj on whole tuples.  The
    bound starts at obj((1, ..., k)) and drops to the best leaf so far.  A
    prefix shorter than k is not extended when lower(prefix, elements still
    missing) strictly exceeds the bound, and a leaf above the bound is counted
    but not recorded; the walk stops, truncated, at a leaf beyond leaf_cap
    leaves.  Returns (best or None when no leaf was recorded, sorted
    certificates, leaves evaluated, truncated)."""
    best = obj(tuple(range(1, k + 1)))
    certs = []
    leaves = 0
    stack = [(first,)]
    truncated = False
    while stack:
        prefix = stack.pop()
        if len(prefix) < k:
            if lower(prefix, k - len(prefix)) <= best:
                stack.extend(prefix + (x,) for x in range(n, prefix[-1], -1))
            continue
        if leaf_cap is not None and leaves == leaf_cap:
            truncated = True
            break
        leaves += 1
        v = obj(prefix)
        if v < best:
            best, certs = v, [prefix]
        elif v == best:
            certs.append(prefix)
    return (best if certs else None), sorted(certs), leaves, truncated


def subsets(universe, max_size, min_size=1):
    items = list(universe)
    for r in range(min_size, max_size + 1):
        yield from combinations(items, r)

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


def o_mult_projection(a):
    """sympy's rref pivot columns of the difference matrix, as indices into
    the sorted primes."""
    import sympy

    _, diffs = _o_exponent_differences(a)
    if not diffs:
        return ()
    return tuple(sympy.Matrix(diffs).rref()[1])


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


def o_progression(base, ratios, lengths):
    """Every base * r_1^e_1 * ... * r_s^e_s with 0 <= e_i < lengths[i]."""
    return {
        Fraction(base) * prod(Fraction(r) ** e for r, e in zip(ratios, tup))
        for tup in product(*(range(j) for j in lengths))
    }


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


def o_search_walk(obj, lower, k, n, budget):
    """Depth-first walk over the k-subsets of 1..n in lexicographic order,
    evaluating obj on whole tuples, with one incumbent for the whole search:
    obj((1, ..., k)), dropping to the best leaf so far.  Every child that can
    still be completed (its i-th element at most n - k + i) is one node.
    Before each, the walk stops if `budget` nodes were scored; a prefix
    shorter than k is scored by lower(prefix, elements still missing) and not
    extended when that strictly exceeds the incumbent, and a leaf is scored
    by obj and recorded when at or below it.  Returns (best or None when no
    leaf was recorded, sorted certificates, nodes, complete, the largest
    smallest element whose subtree was finished or None)."""
    best = obj(tuple(range(1, k + 1)))
    certs = []
    nodes = 0
    stack = [(x,) for x in range(n - k + 1, 0, -1)]
    while stack:
        child = stack.pop()
        if nodes == budget:
            return (best if certs else None), sorted(certs), nodes, False, child[0] - 1 or None
        nodes += 1
        missing = k - len(child)
        if missing:
            if lower(child, missing) <= best:
                stack.extend(child + (x,) for x in range(n - missing + 1, child[-1], -1))
            continue
        v = obj(child)
        if v < best:
            best, certs = v, [child]
        elif v == best:
            certs.append(child)
    return (best if certs else None), sorted(certs), nodes, True, n - k + 1


def subsets(universe, max_size, min_size=1):
    items = list(universe)
    for r in range(min_size, max_size + 1):
        yield from combinations(items, r)

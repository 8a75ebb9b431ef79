"""Reference computations the benchmark checks mubar against.

Nothing here imports mubar or copies its algorithms:

- the Rokhlin invariant comes from Brieskorn's lattice-point formula for
  the signature of the Milnor fiber, not from a plumbing;
- Seifert data are checked through the exact Euler number and the
  congruence that defines each b_i, not recomputed;
- the dual-form value v^T M^-1 v comes from a rational solve, not from
  determinants of bordered matrices;
- surgery hits are enumerated through that dual-form value, not through
  determinants and Smith forms;
- blow-down reductions are replayed on plain lists.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb


# Star-shaped plumbings of the n = 1 family members, center first and arms
# in order (single vertex, three-vertex arm, chain), the vertex order the
# library documents for family_plumbing.  Ids follow the same pattern.
FAMILY1_ARMS = {
    "A": ([-2], [-4, -2, -3], [-5]),
    "B": ([-3], [-3, -2, -4], [-4]),
}


def family_params(tag, n):
    """(p, q, r) of member n: Sigma(2,4n+1,12n+5) or Sigma(3,3n+1,12n+5)."""
    if tag == "A":
        return (2, 4 * n + 1, 12 * n + 5)
    return (3, 3 * n + 1, 12 * n + 5)


def milnor_signature(p, q, r):
    """Signature of the Milnor fiber of x^p + y^q + z^r (Brieskorn).

    Over the lattice points 0 < i < p, 0 < j < q, 0 < k < r, let
    s = i/p + j/q + k/r.  A point counts +1 when s mod 2 lies in (0, 1)
    and -1 when it lies in (1, 2); s is never an integer for pairwise
    coprime p, q, r.  For fixed (i, j) the k with floor(s) = 0, 1, 2 form
    three runs, so the count takes O(pq) integer steps.
    """
    pq = p * q
    d = pq * r
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            t = i * q * r + j * p * r  # s = (t + k pq) / d
            # k in [1, r-1] with t + k pq < x, for x = d and 2d
            below1 = min(r - 1, max(0, (d - t) // pq))
            below2 = min(r - 1, max(0, (2 * d - t) // pq))
            n0 = below1
            n1 = below2 - below1
            n2 = (r - 1) - below2
            total += n0 - n1 + n2
    return total


def brieskorn_rokhlin(p, q, r):
    """Rokhlin invariant of Sigma(p, q, r) as (sigma(F) / 8) mod 2."""
    sigma = milnor_signature(p, q, r)
    if sigma % 8:
        raise ValueError("Milnor-fiber signature %d is not divisible by 8" % sigma)
    return (sigma // 8) % 2


def seifert_problems(p, q, r, e0, pairs):
    """Reasons the Seifert data (e0, pairs) are wrong for Sigma(p, q, r)."""
    out = []
    pqr = p * q * r
    if [a for a, _ in pairs] != [p, q, r]:
        out.append("cone orders %r are not (%d, %d, %d)" % (pairs, p, q, r))
        return out
    for a, b in pairs:
        if not 0 < b < a:
            out.append("pair (%d, %d) is not normalized" % (a, b))
        if (b * (pqr // a) + 1) % a:
            out.append("b * pqr / a != -1 mod a for (%d, %d)" % (a, b))
    euler = Fraction(e0) + sum(Fraction(b, a) for a, b in pairs)
    if euler != Fraction(-1, pqr):
        out.append("Euler number %s is not -1/%d" % (euler, pqr))
    return out


def star_matrix(center, arms):
    """Intersection matrix of a star plumbing, center first, arms in order."""
    weights = [center]
    edges = []
    for arm in arms:
        prev = 0
        for w in arm:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    n = len(weights)
    rows = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        rows[i][i] = w
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return rows


def star_json(center, arms):
    """Plumbing JSON of a star, with ids c and a<arm>_<pos>."""
    vertices = [{"id": "c", "weight": center}]
    edges = []
    for ai, arm in enumerate(arms, start=1):
        prev = "c"
        for vi, w in enumerate(arm, start=1):
            vid = "a%d_%d" % (ai, vi)
            vertices.append({"id": vid, "weight": w})
            edges.append([prev, vid])
            prev = vid
    return {"vertices": vertices, "edges": edges}


def rational_solve(rows, v):
    """x with M x = v, by Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, v)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def dual_value(rows, v):
    """v^T M^-1 v.  det [[M, v], [v^T, -1]] = det M * (-1 - v^T M^-1 v)."""
    x = rational_solve(rows, v)
    return sum(Fraction(b) * y for b, y in zip(v, x))


def inverse(rows):
    """M^-1 over the rationals, column by column."""
    n = len(rows)
    cols = [rational_solve(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def bordered(rows, v, corner):
    """[[M, v], [v^T, corner]] as lists."""
    out = [list(row) + [x] for row, x in zip(rows, v)]
    out.append(list(v) + [corner])
    return out


def plain_reduction(rows):
    """Blow down the lowest-index +-1-framed component until none is left.

    Returns the terminal matrix and, per blow-down, the original index
    of the component removed and the matrix left after it.
    """
    rows = [list(r) for r in rows]
    alive = list(range(len(rows)))
    steps = []
    while True:
        j = next((i for i in range(len(rows)) if rows[i][i] in (1, -1)), None)
        if j is None:
            return rows, steps
        eps = rows[j][j]
        keep = [i for i in range(len(rows)) if i != j]
        rows = [
            [rows[i][k] - eps * rows[i][j] * rows[j][k] for k in keep]
            for i in keep
        ]
        steps.append((alive.pop(j), rows))


def box_size(n, max_link, max_support):
    """Vectors in the surgery search box: sum_s C(n, s) (2L)^s, s <= min(S, n)."""
    return sum(
        comb(n, s) * (2 * max_link) ** s for s in range(min(max_support, n) + 1)
    )


def box_vectors(n, max_link, max_support):
    nonzero = [x for x in range(-max_link, max_link + 1) if x]
    for size in range(min(max_support, n) + 1):
        for positions in combinations(range(n), size):
            for values in product(nonzero, repeat=size):
                vec = [0] * n
                for pos, val in zip(positions, values):
                    vec[pos] = val
                yield tuple(vec)


def enumerate_hits(rows, max_link, max_support):
    """Surgery hits in the box, by the dual form of a unimodular M.

    A -1-framed curve with linking vector v gives a bordered matrix
    congruent to M (+) <-1 - v^T M^-1 v>, so it presents a homology
    S^1 x S^2 exactly when v^T M^-1 v = -1; a hit also needs the plain
    reduction to end at the single 0-framed component.
    """
    # integral when M is unimodular, which keeps the loop in int arithmetic
    inv = [
        [int(x) if x.denominator == 1 else x for x in row] for row in inverse(rows)
    ]
    n = len(rows)
    hits = []
    for v in box_vectors(n, max_link, max_support):
        support = [i for i in range(n) if v[i]]
        q = sum(v[i] * v[j] * inv[i][j] for i in support for j in support)
        if q != -1:
            continue
        terminal, _ = plain_reduction(bordered(rows, v, -1))
        if terminal == [[0]]:
            hits.append(v)
    return sorted(hits)


def in_box(v, max_link, max_support):
    return (
        all(-max_link <= x <= max_link for x in v)
        and sum(1 for x in v if x) <= max_support
    )


def unlink_step(rows, b, t):
    """Blow up with sign +1 along e_b + e_t; the new component comes last."""
    n = len(rows)
    v = [0] * n
    v[b] = v[t] = 1
    out = [[rows[i][k] - v[i] * v[k] for k in range(n)] + [v[i]] for i in range(n)]
    out.append(v + [-1])
    return out

"""Seifert invariants of Brieskorn spheres and their canonical plumbings.

Sigma(p, q, r) is the Seifert fibered homology sphere over S^2 with
three exceptional fibers.  Its normalized invariants (e0; (a_i, b_i))
satisfy 0 < b_i < a_i and

    e0 * (p q r) + b_1 q r + b_2 p r + b_3 p q = -1,

so the orbifold Euler number is e = e0 + sum b_i / a_i = -1 / (p q r).
The canonical negative-definite plumbing is star-shaped: the center
carries e0 and arm i carries -c_1, ..., -c_k for the negative
continued fraction a_i / b_i = [c_1, ..., c_k].

plumbings_isomorphic compares two plumbing trees by the canonical-label
tree isomorphism of Aho, Hopcroft and Ullman: leaf peeling finds the
centers, and one children-first pass over the vertex indices interns
(weight, sorted child labels) as integers.  It costs O(n log n) and
uses no recursion, so trees of any depth are compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Tuple

from ._record import FrozenRecord
from .plumbing import PlumbingGraph, _bfs_tree, star


class SeifertData(FrozenRecord):
    """Normalized Seifert invariants (e0; (a_1, b_1), ..., (a_k, b_k))."""

    __slots__ = ("e0", "cone_pairs")
    e0: int
    cone_pairs: Tuple[Tuple[int, int], ...]

    def __init__(self, e0: int, cone_pairs: Iterable[Tuple[int, int]]):
        cone_pairs = tuple((int(a), int(b)) for a, b in cone_pairs)
        for a, b in cone_pairs:
            if a <= 1:
                raise ValueError("cone order must be >= 2, got %d" % a)
            if not 0 < b < a:
                raise ValueError(
                    "pair (%d, %d) is not normalized: need 0 < b < a" % (a, b)
                )
            if gcd(a, b) != 1:
                raise ValueError("pair (%d, %d) is not coprime" % (a, b))
        self._init(e0, cone_pairs)

    def _euler_numerator(self) -> Tuple[int, int]:
        """(e * A, A) with A the product of the cone orders a_i; e * A is an integer."""
        prod = 1
        for a, _ in self.cone_pairs:
            prod *= a
        total = self.e0 * prod
        for a, b in self.cone_pairs:
            total += b * (prod // a)
        return total, prod

    @property
    def euler_number(self) -> Fraction:
        return Fraction(*self._euler_numerator())


def brieskorn_seifert(p: int, q: int, r: int) -> SeifertData:
    """Normalized Seifert invariants of Sigma(p, q, r).

    Requires p, q, r >= 2 pairwise coprime.  Each b_i is the unique
    residue with b_i * (pqr / a_i) = -1 mod a_i, and e0 makes the
    Euler number exactly -1 / (p q r).
    """
    for x in (p, q, r):
        if not isinstance(x, int) or x < 2:
            raise ValueError("multiplicities must be integers >= 2")
    if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
        raise ValueError(
            "multiplicities (%d, %d, %d) must be pairwise coprime" % (p, q, r)
        )
    pqr = p * q * r
    pairs = []
    rhs = -1
    for a in (p, q, r):
        other = pqr // a
        b = (-pow(other, -1, a)) % a
        pairs.append((a, b))
        rhs -= b * other
    e0, rem = divmod(rhs, pqr)
    if rem:
        raise ValueError("internal error: e0 is not integral")
    return SeifertData(e0, tuple(pairs))


def neg_continued_fraction(a: int, b: int) -> List[int]:
    """Coefficients [c_1, ..., c_k] with a/b = c_1 - 1/(c_2 - ...), c_i >= 2.

    Requires a > b > 0 coprime; expansion by repeated ceiling division.
    """
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError("arguments must be integers")
    if not a > b > 0:
        raise ValueError("need a > b > 0, got (%d, %d)" % (a, b))
    if gcd(a, b) != 1:
        raise ValueError("(%d, %d) must be coprime" % (a, b))
    coeffs = []
    while b:
        c = -(-a // b)
        coeffs.append(c)
        a, b = b, c * b - a
    return coeffs


def eval_neg_continued_fraction(coeffs) -> Fraction:
    """Value of [c_1, ..., c_k] = c_1 - 1/(c_2 - 1/(... - 1/c_k))."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    num, den = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        num, den = c * num - den, num
    return Fraction(num, den)


def canonical_plumbing(s: SeifertData) -> PlumbingGraph:
    """Canonical negative-definite star-shaped plumbing of s.

    Center weight e0, one arm per cone pair with weights -c_1, ...,
    -c_k from the continued fraction of a_i / b_i, -c_1 adjacent to
    the center.  Requires Euler number e < 0.
    """
    if s._euler_numerator()[0] >= 0:
        raise ValueError(
            "canonical plumbing needs Euler number < 0, got %s" % s.euler_number
        )
    arms = [
        [-c for c in neg_continued_fraction(a, b)] for a, b in s.cone_pairs
    ]
    return star(s.e0, arms)


def _arms_from(g: PlumbingGraph, ci: int) -> Optional[List[List[int]]]:
    """Arm vertex indices read outward from center index ci, or None."""
    weights = g.weights
    adj = g.adjacency
    if weights[ci] > -1:
        return None
    arms = []
    for first in adj[ci]:
        arm = []
        prev, cur = ci, first
        while True:
            nbs = adj[cur]
            if cur == ci or len(nbs) > 2 or weights[cur] > -2:
                return None
            arm.append(cur)
            nxt = None
            for u in nbs:
                if u != prev:
                    nxt = u
                    break
            if nxt is None:
                break
            prev, cur = cur, nxt
        arms.append(arm)
    return arms


def plumbing_to_seifert(g: PlumbingGraph) -> SeifertData:
    """Read normalized Seifert invariants off a star-shaped plumbing.

    The center is the unique vertex of degree >= 3 when one exists;
    on paths the first vertex (in input order) admitting a valid star
    reading is used, so this inverts canonical_plumbing exactly.
    Requires center weight <= -1 and all arm weights <= -2.
    """
    if len(g.edges) != g.n_vertices - 1:
        raise ValueError("not star-shaped: graph has a cycle")
    adj = g.adjacency
    weights = g.weights
    high = [i for i in range(g.n_vertices) if len(adj[i]) >= 3]
    if len(high) > 1:
        raise ValueError("not star-shaped: more than one branch vertex")
    candidates = high if high else range(g.n_vertices)
    for ci in candidates:
        arms = _arms_from(g, ci)
        if arms is None:
            continue
        pairs = []
        for arm in arms:
            # integer backward recurrence for the continued fraction value
            num, den = -weights[arm[-1]], 1
            for i in range(len(arm) - 2, -1, -1):
                num, den = -weights[arm[i]] * num - den, num
            pairs.append((num, den))
        return SeifertData(weights[ci], tuple(pairs))
    raise ValueError(
        "no star reading: need center weight <= -1 and arm weights <= -2"
    )


def _tree_centers(adj) -> List[int]:
    """The one or two middle vertex indices, by iterated leaf removal."""
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def _root_label(adj, weights, root: int, table: dict) -> int:
    """Integer label of the tree rooted at root, interned in table.

    Children come before their parent (reverse BFS order), and each
    vertex gets the label of (weight, sorted child labels).  Two rooted
    trees labelled through one table get the same label exactly when
    they are isomorphic as weighted rooted trees.
    """
    order, parent = _bfs_tree(adj, root)
    kids: List[List[int]] = [[] for _ in adj]
    for v in reversed(order):
        k = kids[v]
        k.sort()
        label = table.setdefault((weights[v], tuple(k)), len(table))
        pv = parent[v]
        if pv >= 0:
            kids[pv].append(label)
    return label


def plumbings_isomorphic(g1: PlumbingGraph, g2: PlumbingGraph) -> bool:
    """Weight-preserving graph isomorphism of plumbing trees.

    The canonical-label tree isomorphism of Aho, Hopcroft and Ullman
    (The Design and Analysis of Computer Algorithms, 1974, 3.2) on
    vertex indices: g1 is rooted at one of its centers and labelled
    children first, then each center of g2 is tried with the same
    label table.  Every isomorphism maps centers to centers, so the
    trees are isomorphic exactly when some root label of g2 equals that
    of g1.  O(n log n) for the sorts, iterative, so tree depth is not
    bounded by the recursion limit.  Inputs must be trees (every
    star-shaped plumbing is one).
    """
    for g in (g1, g2):
        if len(g.edges) != g.n_vertices - 1:
            raise ValueError("isomorphism test expects trees")
    if g1.n_vertices != g2.n_vertices:
        return False
    if sorted(g1.weights) != sorted(g2.weights):
        return False
    table: dict = {}
    adj1 = g1.adjacency
    target = _root_label(adj1, g1.weights, _tree_centers(adj1)[0], table)
    adj2, w2 = g2.adjacency, g2.weights
    return any(
        _root_label(adj2, w2, c, table) == target for c in _tree_centers(adj2)
    )

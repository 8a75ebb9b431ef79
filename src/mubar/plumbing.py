"""Plumbing graphs and the invariants of their intersection forms.

A plumbing graph is a connected weighted graph; its intersection
matrix has the weights on the diagonal and a 1 for every edge.  The
boundary of the plumbed 4-manifold is an integral homology sphere
exactly when the determinant is +-1.

Conventions.  The Wu class w is the unique mod-2 solution of
M w = diag(M), returned as its {0,1} lift in the vertex basis, and
wu_square is the integer w^T M w of that lift.  mu_bar is
signature(M) - wu_square; some authors use the opposite sign, which
flips nothing mod 16 here because all values of interest are 0 or 8.
rokhlin is (mu_bar / 8) mod 2 and is only defined for homology-sphere
plumbings with 8 | mu_bar.

report computes every invariant, and mu_bar, rokhlin, wu_class,
wu_square and is_homology_sphere read it.  It takes one of two paths,
picked by the shape of the graph.  A tree (n - 1 edges; graphs are
connected) takes one leaf-elimination pass over the adjacency lists,
in integers and mod 2, with no matrix: O(n) steps (Neumann's plumbing
calculus).  A graph with a cycle builds its intersection matrix and
runs one dense elimination (lattice._eliminate) and one mod-2 Wu solve
(_wu).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._record import FrozenRecord
from .lattice import Mod2Failure, SymmetricIntMatrix, _eliminate, solve_mod2


class WuUndefined(ValueError):
    """The mod-2 Wu system has no unique solution (determinant is even)."""


class MuBarNotDivisible(ValueError):
    """mu_bar is not divisible by 8, so the Rokhlin invariant is undefined."""


class PlumbingGraph:
    """Connected weighted graph with string vertex ids.

    Vertices keep their construction order; that order fixes the basis
    of the intersection matrix.  Self-loops and repeated edges are
    rejected, and the graph must be connected.
    """

    __slots__ = ("_ids", "_weights", "_index", "_edges", "_adj")

    def __init__(
        self,
        vertices: Iterable[Tuple[str, int]],
        edges: Iterable[Tuple[str, str]] = (),
    ):
        ids: List[str] = []
        weights: List[int] = []
        index: Dict[str, int] = {}
        for vid, w in vertices:
            if type(vid) is not str:
                vid = str(vid)
            if not isinstance(w, int):
                raise ValueError("weight of %r must be an integer" % vid)
            if vid in index:
                raise ValueError("duplicate vertex id %r" % vid)
            index[vid] = len(ids)
            ids.append(vid)
            weights.append(w)
        if not ids:
            raise ValueError("plumbing graph needs at least one vertex")
        n = len(ids)
        adj: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        edge_list: List[Tuple[str, str]] = []
        get = index.get
        for u, v in edges:
            iu = get(u)
            if iu is None:
                u = str(u)
                iu = get(u)
            iv = get(v)
            if iv is None:
                v = str(v)
                iv = get(v)
            if iu is None or iv is None:
                raise ValueError("edge (%r, %r) uses an unknown vertex" % (u, v))
            if iu == iv:
                raise ValueError("self-loop at %r is not allowed" % u)
            key = (iu, iv) if iu < iv else (iv, iu)
            if key in seen:
                raise ValueError("repeated edge (%r, %r)" % (u, v))
            seen.add(key)
            edge_list.append((u, v))
            adj[iu].append(iv)
            adj[iv].append(iu)
        if n > 1:
            reached = bytearray(n)
            reached[0] = 1
            count = 1
            stack = [0]
            while stack:
                for nb in adj[stack.pop()]:
                    if not reached[nb]:
                        reached[nb] = 1
                        count += 1
                        stack.append(nb)
            if count != n:
                raise ValueError("plumbing graph must be connected")
        self._ids = tuple(ids)
        self._weights = tuple(weights)
        self._index = index
        self._edges = tuple(edge_list)
        self._adj = tuple(tuple(a) for a in adj)

    @classmethod
    def _from_parts(cls, ids, weights, index, edges, adj) -> "PlumbingGraph":
        """Trusted constructor for internally built, known-valid graphs.

        Takes the tuples it stores as they are; adj is a tuple of tuples.
        """
        g = object.__new__(cls)
        g._ids = ids
        g._weights = weights
        g._index = index
        g._edges = edges
        g._adj = adj
        return g

    @property
    def vertex_ids(self) -> Tuple[str, ...]:
        return self._ids

    @property
    def weights(self) -> Tuple[int, ...]:
        return self._weights

    @property
    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._ids)

    def index_of(self, vid: str) -> int:
        return self._index[vid]

    def weight(self, vid: str) -> int:
        return self._weights[self._index[vid]]

    def neighbors(self, vid: str) -> Tuple[str, ...]:
        ids = self._ids
        return tuple(ids[i] for i in self._adj[self._index[vid]])

    def degree(self, vid: str) -> int:
        return len(self._adj[self._index[vid]])

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Neighbor indices per vertex, in vertex order."""
        return self._adj

    @property
    def is_tree(self) -> bool:
        """True when the graph has no cycle (it is connected by construction)."""
        return len(self._edges) == len(self._ids) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlumbingGraph):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._weights == other._weights
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._ids, self._weights, self._edges))

    def __repr__(self) -> str:
        return "PlumbingGraph(%r, %r)" % (
            list(zip(self._ids, self._weights)),
            list(self._edges),
        )


def star(center_weight: int, arms: Sequence[Sequence[int]]) -> PlumbingGraph:
    """Star-shaped plumbing: a center and one path per arm.

    Arm weights are listed from the vertex adjacent to the center
    outward.  Vertex order is center first, then each arm in turn;
    ids are "c" for the center and "a<arm>_<pos>" along the arms.
    """
    if not isinstance(center_weight, int):
        raise ValueError("center weight must be an integer")
    ids = ["c"]
    weights = [center_weight]
    edges: List[Tuple[str, str]] = []
    adj: List[Tuple[int, ...]] = [()]
    center_adj: List[int] = []
    for ai, arm in enumerate(arms, start=1):
        fmt = "a%d_%%d" % ai
        first = len(ids)
        prev, prev_id = 0, "c"
        for vi, w in enumerate(arm, start=1):
            if not isinstance(w, int):
                raise ValueError("arm weights must be integers")
            cur = len(ids)
            vid = fmt % vi
            ids.append(vid)
            weights.append(w)
            edges.append((prev_id, vid))
            adj.append((prev, cur + 1))
            prev, prev_id = cur, vid
        if len(ids) > first:
            center_adj.append(first)
            adj[-1] = adj[-1][:1]  # the outer end of the arm is a leaf
    adj[0] = tuple(center_adj)
    index = dict(zip(ids, range(len(ids))))
    return PlumbingGraph._from_parts(
        tuple(ids), tuple(weights), index, tuple(edges), tuple(adj)
    )


def intersection_matrix(g: PlumbingGraph) -> SymmetricIntMatrix:
    """Weights on the diagonal, 1 for each edge, in vertex order.

    The graph was checked when it was built (integer weights, no
    self-loops, no repeated edges), so the rows are symmetric and
    integral by construction and are not validated again.
    """
    n = g.n_vertices
    rows = []
    for i, (w, nbrs) in enumerate(zip(g.weights, g.adjacency)):
        row = [0] * n
        for j in nbrs:
            row[j] = 1
        row[i] = w
        rows.append(tuple(row))
    return SymmetricIntMatrix._trusted(tuple(rows))


def is_homology_sphere(g: PlumbingGraph) -> bool:
    """True when the boundary is an integral homology sphere (|det| = 1)."""
    return abs(report(g).det) == 1


def _with_wu(g: PlumbingGraph) -> "InvariantReport":
    """report(g); WuUndefined when the determinant is even."""
    rep = report(g)
    if rep.wu is None:
        raise WuUndefined("Wu class undefined: determinant %d is even" % rep.det)
    return rep


def wu_class(g: PlumbingGraph) -> Tuple[int, ...]:
    """The {0,1} lift of the Wu class: M w = diag(M) mod 2.

    Raises WuUndefined when the mod-2 system is singular (even
    determinant), in which case no unique Wu class exists.
    """
    return _with_wu(g).wu


def wu_square(g: PlumbingGraph) -> int:
    """Integer self-intersection w^T M w of the {0,1} Wu lift."""
    return _with_wu(g).wu_square


def mu_bar(g: PlumbingGraph) -> int:
    """signature(M) - wu_square(G); see the module docstring on sign."""
    return _with_wu(g).mu_bar


def rokhlin(g: PlumbingGraph) -> int:
    """(mu_bar / 8) mod 2 for a homology-sphere plumbing.

    Raises ValueError when |det| != 1 and MuBarNotDivisible when
    8 does not divide mu_bar (either signals an input or convention
    problem, not a value of the invariant).
    """
    rep = report(g)
    if abs(rep.det) != 1:
        raise ValueError("Rokhlin invariant needs |det| = 1")
    if rep.rokhlin is None:
        raise MuBarNotDivisible("mu_bar = %d is not divisible by 8" % rep.mu_bar)
    return rep.rokhlin


class InvariantReport(FrozenRecord):
    """Everything the intersection form knows about one plumbing.

    det and inertia are always present.  wu, wu_square and mu_bar are
    None when the determinant is even; rokhlin is None unless the graph
    is a homology-sphere plumbing with 8 | mu_bar.
    """

    __slots__ = ("det", "inertia", "wu", "wu_square", "mu_bar", "rokhlin")
    det: int
    inertia: Tuple[int, int, int]
    wu: Optional[Tuple[int, ...]]
    wu_square: Optional[int]
    mu_bar: Optional[int]
    rokhlin: Optional[int]

    def __init__(
        self,
        det: int,
        inertia: Tuple[int, int, int],
        wu: Optional[Tuple[int, ...]],
        wu_square: Optional[int],
        mu_bar: Optional[int],
        rokhlin: Optional[int],
    ):
        if mu_bar is not None:
            n_plus, _, n_minus = inertia
            if mu_bar != (n_plus - n_minus) - wu_square:
                raise ValueError("mu_bar must equal signature - wu_square")
        if rokhlin is not None:
            if mu_bar is None or mu_bar % 8:
                raise ValueError("rokhlin present but mu_bar not divisible by 8")
            if rokhlin != (mu_bar // 8) % 2:
                raise ValueError("rokhlin must equal (mu_bar / 8) mod 2")
        self._init(det, inertia, wu, wu_square, mu_bar, rokhlin)

    def to_json_dict(self) -> dict:
        out: dict = {"det": self.det, "inertia": list(self.inertia)}
        if self.wu is not None:
            out["wu"] = list(self.wu)
        if self.wu_square is not None:
            out["wu_square"] = self.wu_square
        if self.mu_bar is not None:
            out["mu_bar"] = self.mu_bar
        if self.rokhlin is not None:
            out["rokhlin"] = self.rokhlin
        return out


def _wu(m: SymmetricIntMatrix):
    """The {0,1} Wu lift of m and its square w^T M w, or the Mod2Failure.

    The lift solves M w = diag(M) mod 2; the solve fails exactly when
    det M is even.  Only report's dense path uses it.
    """
    w = solve_mod2(m, m.diagonal())
    if isinstance(w, Mod2Failure):
        return w
    rows = m.rows
    on = [i for i, wi in enumerate(w) if wi]
    return tuple(w), sum(rows[i][j] for i in on for j in on)


def _bfs_tree(adj, root: int):
    """BFS order of a tree from root, and each vertex's parent (-1 at root).

    Every parent comes before its children in the order.
    """
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        pv = parent[v]
        for c in adj[v]:
            if c != pv:
                parent[c] = v
                order.append(c)
    return order, parent


def _tree_invariants(g: PlumbingGraph):
    """(det, inertia, Wu lift or None, its square or None) of a tree.

    One children-first pass from the leaves to vertex 0, then one pass
    back for the Wu lift; see report for the rules.  O(n) steps.
    """
    weights = g.weights
    n = len(weights)
    order, parent = _bfs_tree(g.adjacency, 0)
    # rational part: e_v = P_v / Q_v = w_v - S_v / Q_v over attached children
    big_q = [1] * n
    big_s = [0] * n
    zero_child = [-1] * n  # the first child with P = 0
    n_zero_children = [0] * n
    det = 1
    n_plus = n_zero = n_minus = 0
    # mod-2 part: effective diagonal and right-hand side, forcing child
    odd = [w & 1 for w in weights]
    rhs = odd[:]
    forcer = [-1] * n
    singular_mod2 = False
    for v in reversed(order):
        u = parent[v]
        q = big_q[v]
        z = zero_child[v]
        if z >= 0:  # {z, v} is a hyperbolic summand over Z
            n_plus += 1
            n_minus += 1
            extra = n_zero_children[v] - 1
            if extra:
                n_zero += extra
                det = 0
            else:
                det *= -q * big_q[z]
        else:
            p = weights[v] * q - big_s[v]
            if not p:
                if u < 0:
                    n_zero += 1
                    det = 0
                else:
                    if zero_child[u] < 0:
                        zero_child[u] = v
                    n_zero_children[u] += 1
            else:
                if (p < 0) == (q < 0):
                    n_plus += 1
                else:
                    n_minus += 1
                if u < 0:
                    det *= p
                else:
                    big_s[u] = big_s[u] * p + big_q[u] * q
                    big_q[u] *= p
        if u < 0:
            if forcer[v] < 0 and not odd[v]:
                singular_mod2 = True
        elif forcer[v] >= 0:  # x_v is fixed: a constant in u's equation
            rhs[u] ^= rhs[forcer[v]]
        elif odd[v]:  # x_v = rhs_v + x_u
            odd[u] ^= 1
            rhs[u] ^= rhs[v]
        elif forcer[u] >= 0:  # a second child forcing x_u
            singular_mod2 = True
        else:  # x_u = rhs_v, and u's equation fixes x_v
            forcer[u] = v
    if singular_mod2:
        return det, (n_plus, n_zero, n_minus), None, None
    x = [0] * n
    square = 0
    for v in order:
        u = parent[v]
        f = forcer[v]
        if f >= 0:
            xv = x[v] = rhs[f]
            xf = rhs[v] ^ (odd[v] & xv)
            if u >= 0:
                xf ^= x[u]
            x[f] = xf
        elif u < 0:
            x[v] = rhs[v]
        elif odd[v]:
            x[v] = rhs[v] ^ x[u]
        # else v is its parent's forcing child, set above
        if x[v]:
            square += weights[v]
            if u >= 0 and x[u]:
                square += 2
    return det, (n_plus, n_zero, n_minus), tuple(x), square


def report(g: PlumbingGraph) -> InvariantReport:
    """Every invariant of the intersection form M of g in one computation.

    On a tree, rooted at vertex 0, each vertex v is reached after its
    children and all of it is in integers:

    - leaf fold: v carries e_v = P_v / Q_v, where Q_v is the product of
      P_c over its attached children c and P_v = w_v Q_v - S_v.  A child
      with P_c != 0 pivots (the sign of P_c Q_c counts one to n_plus or
      n_minus) and folds into its parent u by S_u <- S_u P_c + Q_u Q_c,
      Q_u <- Q_u P_c, which is the congruence w_u -> w_u - 1 / e_c.
    - hyperbolic split: a child c with P_c = 0 is not folded.  At its
      parent u, {c, u} span [[0, 1], [1, *]], which is unimodular and
      splits off over Z (inertia (1, 0, 1)); the subtrees under u and
      under c become separate summands, so det gains -Q_u Q_c, and u
      drops out of its parent's sum.  Each further zero child of u is
      in the radical (n_zero + 1, det = 0), as is a zero pivot at the
      root.
    - mod-2 forcing: solving M x = diag M mod 2, a child c with an odd
      effective diagonal gives x_c = b_c + x_u, absorbed into u's
      diagonal and right-hand side; one with an even diagonal forces
      x_u = b_c, and u's own equation then fixes x_c.  Two forcing
      children of one vertex, or an even unforced root, mean det is
      even and there is no unique lift.  Back-substitution runs from
      the root, and w^T M w is the weight sum over the support plus
      twice its edges.

    A graph with a cycle builds M and runs one dense elimination and
    one mod-2 solve.
    """
    if g.is_tree:
        det, inertia, lift, square = _tree_invariants(g)
    else:
        m = intersection_matrix(g)
        det, inertia = _eliminate(m)
        wu = _wu(m)
        lift, square = (None, None) if isinstance(wu, Mod2Failure) else wu
    mb = rk = None
    if lift is not None:
        mb = (inertia[0] - inertia[2]) - square
        if abs(det) == 1 and mb % 8 == 0:
            rk = (mb // 8) % 2
    return InvariantReport(det, inertia, lift, square, mb, rk)


def to_json_dict(g: PlumbingGraph) -> dict:
    return {
        "vertices": [
            {"id": vid, "weight": w} for vid, w in zip(g.vertex_ids, g.weights)
        ],
        "edges": [[u, v] for u, v in g.edges],
    }


def from_json_dict(data: dict) -> PlumbingGraph:
    if not isinstance(data, dict):
        raise ValueError("plumbing JSON must be an object")
    try:
        vertices = [(v["id"], v["weight"]) for v in data["vertices"]]
        edges = [(e[0], e[1]) for e in data["edges"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError("malformed plumbing JSON: %s" % exc) from None
    # JSON true/false would pass as ints and other ids would be coerced
    # by str(), so both are refused here
    for vid, w in vertices:
        if type(vid) is not str:
            raise ValueError("vertex id %r must be a string" % (vid,))
        if type(w) is not int:
            raise ValueError("weight of %r must be an integer, got %r" % (vid, w))
    for edge in edges:
        for vid in edge:
            if type(vid) is not str:
                raise ValueError("edge endpoint %r must be a string id" % (vid,))
    return PlumbingGraph(vertices, edges)


def to_dot(g: PlumbingGraph) -> str:
    """Graphviz source; vertices are labelled with their weights."""
    lines = ["graph plumbing {"]
    for vid, w in zip(g.vertex_ids, g.weights):
        lines.append('  "%s" [label="%d"];' % (vid, w))
    for u, v in g.edges:
        lines.append('  "%s" -- "%s";' % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"

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

report computes every invariant from one matrix, one elimination and
one Wu solve (_wu); mu_bar and rokhlin read it.  wu_class and wu_square
call _wu alone, and is_homology_sphere calls determinant alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .lattice import (
    Mod2Failure,
    SymmetricIntMatrix,
    _eliminate,
    determinant,
    solve_mod2,
)


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

    __slots__ = ("_ids", "_weights", "_index", "_edges", "_adj", "_adj_ids")

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
        self._adj_ids = None

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
        g._adj_ids = None
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
        if self._adj_ids is None:
            ids = self._ids
            self._adj_ids = tuple(
                tuple(ids[i] for i in a) for a in self._adj
            )
        return self._adj_ids[self._index[vid]]

    def degree(self, vid: str) -> int:
        return len(self._adj[self._index[vid]])

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """Neighbor indices per vertex, in vertex order."""
        return self._adj

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
    return abs(determinant(intersection_matrix(g))) == 1


def _wu(m: SymmetricIntMatrix):
    """The {0,1} Wu lift of m and its square w^T M w, or the Mod2Failure.

    The lift solves M w = diag(M) mod 2; the solve fails exactly when
    det M is even.
    """
    w = solve_mod2(m, m.diagonal())
    if isinstance(w, Mod2Failure):
        return w
    rows = m.rows
    on = [i for i, wi in enumerate(w) if wi]
    return tuple(w), sum(rows[i][j] for i in on for j in on)


def _defined_wu(g: PlumbingGraph):
    """_wu of the intersection matrix; WuUndefined when det is even."""
    wu = _wu(intersection_matrix(g))
    if isinstance(wu, Mod2Failure):
        raise WuUndefined(
            "Wu class undefined: mod-2 intersection form is singular (%s)"
            % wu.value
        )
    return wu


def wu_class(g: PlumbingGraph) -> Tuple[int, ...]:
    """The {0,1} lift of the Wu class: M w = diag(M) mod 2.

    Raises WuUndefined when the mod-2 system is singular (even
    determinant), in which case no unique Wu class exists.
    """
    return _defined_wu(g)[0]


def wu_square(g: PlumbingGraph) -> int:
    """Integer self-intersection w^T M w of the {0,1} Wu lift."""
    return _defined_wu(g)[1]


def mu_bar(g: PlumbingGraph) -> int:
    """signature(M) - wu_square(G); see the module docstring on sign."""
    rep = report(g)
    if rep.mu_bar is None:
        raise WuUndefined("Wu class undefined: determinant %d is even" % rep.det)
    return rep.mu_bar


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


@dataclass(frozen=True)
class InvariantReport:
    """Everything the intersection form knows about one plumbing.

    det and inertia are always present.  wu, wu_square and mu_bar are
    None when the determinant is even; rokhlin is None unless the graph
    is a homology-sphere plumbing with 8 | mu_bar.
    """

    det: int
    inertia: Tuple[int, int, int]
    wu: Optional[Tuple[int, ...]]
    wu_square: Optional[int]
    mu_bar: Optional[int]
    rokhlin: Optional[int]

    def __post_init__(self):
        if self.mu_bar is not None:
            n_plus, _, n_minus = self.inertia
            if self.mu_bar != (n_plus - n_minus) - self.wu_square:
                raise ValueError("mu_bar must equal signature - wu_square")
        if self.rokhlin is not None:
            if self.mu_bar is None or self.mu_bar % 8:
                raise ValueError("rokhlin present but mu_bar not divisible by 8")
            if self.rokhlin != (self.mu_bar // 8) % 2:
                raise ValueError("rokhlin must equal (mu_bar / 8) mod 2")

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


def report(g: PlumbingGraph) -> InvariantReport:
    """Every invariant from one matrix, one elimination and one Wu solve."""
    m = intersection_matrix(g)
    det, (n_plus, n_zero, n_minus) = _eliminate(m)
    wu = _wu(m)
    lift = square = mb = rk = None
    if not isinstance(wu, Mod2Failure):
        lift, square = wu
        mb = (n_plus - n_minus) - square
        if abs(det) == 1 and mb % 8 == 0:
            rk = (mb // 8) % 2
    return InvariantReport(det, (n_plus, n_zero, n_minus), lift, square, mb, rk)


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

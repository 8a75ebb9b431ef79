"""Homology-level Kirby calculus on framed-link linking matrices.

A surgery diagram is tracked only through its symmetric linking matrix
(framings on the diagonal) plus a gray/black tag per component: gray
components form the plumbing part, black ones are auxiliary surgery
curves.  Blow-ups and blow-downs act on the matrix exactly as the
geometric moves act on homology, so determinants, inertia and Smith
invariant factors transform on the nose; nothing here sees crossings,
so all statements are about the homology of the presented manifold.

Blowing down a component j with framing eps in {+1, -1} deletes it and
sets m[i][k] -= eps * m[i][j] * m[j][k] (the k = i case subtracts
eps * m[i][j]^2 from the framing).  Blowing up along an integer vector
v with sign s appends a component framed -s linking v and twists the
rest by m[i][k] -= s * v[i] * v[k]; the result is congruent to the
block sum with <-s>, and the two moves are mutually inverse.

A surgery-search hit is a -1-framed curve whose diagram greedy
blow-downs take to [[0]].  Each blow-down is an integral congruence
M = M' (+) <+-1>, so a hit has determinant 0 and cokernel Z, the
homology of S^1 x S^2, with no Smith form computed.

FramedLinkMatrix(...) and from_json_dict validate their input.  The
moves, augmented and family_step build their results from a diagram
that is already valid, through FramedLinkMatrix._trusted, and check only
what they add: a new component id must be free, a border must be
integers of the right length.  Blow-downs act on row tuples, and rows
that do not link the blown-down component are copied unchanged.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ._record import FrozenRecord, Record
from .lattice import SymmetricIntMatrix, determinant
from .plumbing import PlumbingGraph, intersection_matrix

Rows = Tuple[Tuple[int, ...], ...]

GRAY = "gray"
BLACK = "black"


class FramingNotUnit(ValueError):
    """blow_down needs framing +1 or -1."""


class NotLinked(ValueError):
    """The move needs a geometric linking that is not there."""


class AmbiguousTarget(ValueError):
    """Several components qualify; the caller must name the target."""


class IterationCap(RuntimeError):
    """reduce exceeded its step cap."""


class Component(FrozenRecord):
    __slots__ = ("id", "tag")
    id: str
    tag: str

    def __init__(self, id: str, tag: str):
        if tag not in (GRAY, BLACK):
            raise ValueError("tag must be 'gray' or 'black', got %r" % (tag,))
        self._init(id, tag)


class FramedLinkMatrix:
    """Tagged components plus their symmetric linking matrix.

    The empty diagram (no components) is legal; it is where a full
    reduction of a unit form terminates.
    """

    __slots__ = ("_components", "_matrix")

    def __init__(
        self,
        components: Iterable[Union[Component, Tuple[str, str]]],
        matrix: Union[SymmetricIntMatrix, Iterable[Sequence[int]]],
    ):
        comps = tuple(
            c if isinstance(c, Component) else Component(str(c[0]), c[1])
            for c in components
        )
        if not isinstance(matrix, SymmetricIntMatrix):
            matrix = SymmetricIntMatrix(matrix)
        if matrix.dim != len(comps):
            raise ValueError("matrix dimension must match component count")
        if len({c.id for c in comps}) != len(comps):
            raise ValueError("component ids must be unique")
        self._components = comps
        self._matrix = matrix

    @classmethod
    def _trusted(
        cls, components: Tuple[Component, ...], matrix: SymmetricIntMatrix
    ) -> "FramedLinkMatrix":
        """Wrap components and a matrix of matching size with unique ids.

        Nothing is checked: callers derive both from a valid diagram.
        """
        link = cls.__new__(cls)
        link._components = components
        link._matrix = matrix
        return link

    @property
    def components(self) -> Tuple[Component, ...]:
        return self._components

    @property
    def matrix(self) -> SymmetricIntMatrix:
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self._components)

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(c.id for c in self._components)

    def index_of(self, key: Union[int, str]) -> int:
        if isinstance(key, int):
            if not 0 <= key < self.dim:
                raise ValueError("component index %d out of range" % key)
            return key
        for i, c in enumerate(self._components):
            if c.id == key:
                return i
        raise ValueError("no component with id %r" % (key,))

    def framing(self, key: Union[int, str]) -> int:
        i = self.index_of(key)
        return self._matrix[i, i]

    def linking(self, a: Union[int, str], b: Union[int, str]) -> int:
        return self._matrix[self.index_of(a), self.index_of(b)]

    @classmethod
    def from_plumbing(cls, g: PlumbingGraph, tag: str = GRAY) -> "FramedLinkMatrix":
        comps = [Component(vid, tag) for vid in g.vertex_ids]
        return cls(comps, intersection_matrix(g))

    def augmented(
        self,
        links: Sequence[int],
        framing: int,
        new_id: Optional[str] = None,
        tag: str = BLACK,
    ) -> "FramedLinkMatrix":
        """Adjoin one component with the given links and framing.

        This is plain matrix bordering (no twist); it models drawing a
        new curve into the diagram, not a Kirby move.
        """
        return FramedLinkMatrix._trusted(
            self._components + (self._new_component(new_id, tag),),
            self._matrix.bordered(links, framing),
        )

    def _new_component(self, new_id: Optional[str], tag: str) -> Component:
        """The component a move adds: new_id, which must be free, or a fresh id."""
        used = {c.id for c in self._components}
        if new_id:
            if new_id in used:
                raise ValueError("component ids must be unique")
            return Component(new_id, tag)
        k = len(used)
        while "k%d" % k in used:
            k += 1
        return Component("k%d" % k, tag)

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"id": c.id, "tag": c.tag} for c in self._components
            ],
            "matrix": self._matrix.to_lists(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FramedLinkMatrix":
        if not isinstance(data, dict):
            raise ValueError("framed link JSON must be an object")
        try:
            comps = [(c["id"], c["tag"]) for c in data["components"]]
            matrix = data["matrix"]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed framed link JSON: %s" % exc) from None
        for cid, _ in comps:
            if type(cid) is not str:
                raise ValueError("component id %r must be a string" % (cid,))
        if type(matrix) is not list or any(type(row) is not list for row in matrix):
            raise ValueError("matrix must be a list of rows")
        for row in matrix:
            for x in row:
                if type(x) is not int:
                    raise ValueError("matrix entries must be integers, got %r" % (x,))
        return cls(comps, matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FramedLinkMatrix):
            return NotImplemented
        return self._components == other._components and self._matrix == other._matrix

    def __repr__(self) -> str:
        return "FramedLinkMatrix(%r, %r)" % (
            [(c.id, c.tag) for c in self._components],
            self._matrix.to_lists(),
        )


def _blow_down_rows(rows: Rows, j: int) -> Rows:
    """The rows after blowing down component j, whose framing is +-1.

    m[i][k] -= eps * m[i][j] * m[j][k]; a row with m[i][j] = 0 keeps
    its entries and only loses column j.
    """
    eps = rows[j][j]
    pivot = rows[j]
    out = []
    for i, row in enumerate(rows):
        if i == j:
            continue
        c = eps * row[j]
        if c:
            row = tuple(x - c * y for x, y in zip(row, pivot))
        out.append(row[:j] + row[j + 1 :])
    return tuple(out)


def blow_down(link: FramedLinkMatrix, j: Union[int, str]) -> FramedLinkMatrix:
    """Delete a +-1-framed component, twisting everything it links."""
    j = link.index_of(j)
    eps = link.framing(j)
    if eps not in (1, -1):
        raise FramingNotUnit(
            "component %r has framing %d, need +1 or -1"
            % (link.components[j].id, eps)
        )
    comps = link.components
    return FramedLinkMatrix._trusted(
        comps[:j] + comps[j + 1 :],
        SymmetricIntMatrix._trusted(_blow_down_rows(link.matrix.rows, j)),
    )


def blow_up(
    link: FramedLinkMatrix,
    links: Sequence[int],
    sign: int,
    new_id: Optional[str] = None,
    tag: str = BLACK,
) -> FramedLinkMatrix:
    """Adjoin a (-sign)-framed component along the vector links.

    The result is congruent to link (+) <-sign>; blowing the new
    component back down recovers the input bit for bit.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if len(links) != link.dim:
        raise ValueError("linking vector length must equal dim")
    v = tuple(links)
    if not all(isinstance(x, int) for x in v):
        raise ValueError("links must be integers, got %r" % (v,))
    new = link._new_component(new_id, tag)
    rows = tuple(
        (tuple(x - sign * vi * vk for x, vk in zip(row, v)) if vi else row)
        + (vi,)
        for row, vi in zip(link.matrix.rows, v)
    ) + (v + (-sign,),)
    return FramedLinkMatrix._trusted(
        link.components + (new,), SymmetricIntMatrix._trusted(rows)
    )


def unlink_blowup(
    link: FramedLinkMatrix,
    i: Union[int, str],
    j: Union[int, str],
    new_id: Optional[str] = None,
    tag: str = BLACK,
) -> FramedLinkMatrix:
    """Blow up with sign +1 along e_i + e_j, splitting one geometric
    linking between components i and j.

    Requires linking(i, j) >= 1.  Framings of i and j drop by 1, their
    mutual linking drops by 1, and the new -1-framed component links
    each of them once.
    """
    i = link.index_of(i)
    j = link.index_of(j)
    if i == j:
        raise ValueError("need two distinct components")
    if link.linking(i, j) < 1:
        raise NotLinked(
            "components %r and %r have linking %d, need >= 1"
            % (link.components[i].id, link.components[j].id, link.linking(i, j))
        )
    v = [0] * link.dim
    v[i] = 1
    v[j] = 1
    return blow_up(link, v, +1, new_id=new_id, tag=tag)


def reduce_with_trace(
    link: FramedLinkMatrix, max_steps: Optional[int] = None
) -> Tuple[FramedLinkMatrix, List[dict]]:
    """Greedily blow down +-1-framed components, recording each move.

    The lowest-index unit-framed component goes first, so the result
    is deterministic.  Each trace entry holds the move name, the
    component id and the matrix after the move.  max_steps defaults to
    10 * dim, which a blow-down-only reduction can never reach since
    every step deletes a component.
    """
    cap = 10 * link.dim if max_steps is None else max_steps
    comps, rows = link.components, link.matrix.rows
    steps: List[dict] = []
    while True:
        j = next(
            (i for i, row in enumerate(rows) if row[i] in (1, -1)), None
        )
        if j is None:
            break
        if len(steps) >= cap:
            raise IterationCap(
                "reduction did not terminate within %d steps" % cap
            )
        cid = comps[j].id
        rows = _blow_down_rows(rows, j)
        comps = comps[:j] + comps[j + 1 :]
        steps.append(
            {
                "move": "blow_down",
                "component": cid,
                "matrix_after": [list(row) for row in rows],
            }
        )
    return (
        FramedLinkMatrix._trusted(comps, SymmetricIntMatrix._trusted(rows)),
        steps,
    )


def reduce(
    link: FramedLinkMatrix, max_steps: Optional[int] = None
) -> FramedLinkMatrix:
    """Terminal diagram of the greedy blow-down reduction."""
    return reduce_with_trace(link, max_steps)[0]


def gray_plumbing(link: FramedLinkMatrix) -> PlumbingGraph:
    """The plumbing graph spanned by the gray components.

    Off-diagonal gray linkings must be 0 or +-1; a +-1 becomes an
    edge (on a tree, edge signs are orientation choices, so the sign
    is dropped).  Raises ValueError when the gray part is not a
    connected plumbing pattern.
    """
    comps = link.components
    rows = link.matrix.rows
    idx = [i for i, c in enumerate(comps) if c.tag == GRAY]
    vertices = [(comps[i].id, rows[i][i]) for i in idx]
    edges = []
    for a, b in combinations(idx, 2):
        l = rows[a][b]
        if l == 0:
            continue
        if abs(l) != 1:
            raise ValueError(
                "gray linking %d between %r and %r is not a plumbing edge"
                % (l, comps[a].id, comps[b].id)
            )
        edges.append((comps[a].id, comps[b].id))
    return PlumbingGraph(vertices, edges)


class SearchHit(Record):
    """One surgery-curve candidate: its linking vector (in vertex
    order) and the trace of the reduction that reached [[0]]."""

    __slots__ = ("vector", "trace")
    _hidden = ("trace",)
    vector: Tuple[int, ...]
    trace: List[dict]

    def __init__(self, vector: Tuple[int, ...], trace: List[dict]):
        self._init(vector, trace)


def surgery_search(
    g: PlumbingGraph, max_link: int, max_support: int
) -> List[SearchHit]:
    """All -1-framed curve candidates presenting a homology S^1 x S^2.

    Enumerates integer linking vectors with entries in
    [-max_link, max_link] and at most max_support nonzero entries, and
    keeps those whose greedy reduction ends at [[0]]; the blow-downs
    are integral congruences, so a hit has determinant 0 and cokernel
    Z.  One determinant per vector rejects the rest before reducing.
    Candidates are homology-level only; hits are returned in
    lexicographic vector order.
    """
    if max_link < 1:
        raise ValueError("max_link must be >= 1")
    if max_support < 1:
        raise ValueError("max_support must be >= 1")
    base = FramedLinkMatrix.from_plumbing(g)
    n = base.dim
    # every candidate diagram is base bordered by a box vector and framed
    # -1; the box holds only integers, so the border skips bordered's check
    comps = base.components + (base._new_component(None, BLACK),)
    base_rows = base.matrix.rows
    nonzero = [v for v in range(-max_link, max_link + 1) if v]
    hits: List[SearchHit] = []
    for size in range(0, min(max_support, n) + 1):
        for positions in combinations(range(n), size):
            for values in product(nonzero, repeat=size):
                vec = [0] * n
                for pos, val in zip(positions, values):
                    vec[pos] = val
                vec = tuple(vec)
                aug = SymmetricIntMatrix._trusted(
                    tuple(row + (x,) for row, x in zip(base_rows, vec))
                    + (vec + (-1,),)
                )
                if determinant(aug) != 0:
                    continue
                terminal, trace = reduce_with_trace(
                    FramedLinkMatrix._trusted(comps, aug)
                )
                if terminal.dim == 1 and terminal.framing(0) == 0:
                    hits.append(SearchHit(vec, trace))
    hits.sort(key=lambda h: h.vector)
    return hits


def family_step(
    link: FramedLinkMatrix, target: Union[int, str, None] = None
) -> FramedLinkMatrix:
    """One iteration step: unlink the black curve from a gray component.

    The diagram must carry exactly one black component, framed -1.
    With target=None the target is the unique gray -2-framed component
    the black curve links exactly once (NotLinked when none,
    AmbiguousTarget when several); an explicit target may be any gray
    component the black curve links.  After the unlinking blow-up the
    old black curve is retagged gray and the new -1-framed curve
    becomes the black one, so the gray part gains one vertex.
    """
    blacks = [i for i, c in enumerate(link.components) if c.tag == BLACK]
    if len(blacks) != 1:
        raise ValueError(
            "need exactly one black component, found %d" % len(blacks)
        )
    b = blacks[0]
    if link.framing(b) != -1:
        raise ValueError(
            "black component %r must be framed -1, has %d"
            % (link.components[b].id, link.framing(b))
        )
    if target is None:
        cands = [
            i
            for i, c in enumerate(link.components)
            if c.tag == GRAY
            and link.framing(i) == -2
            and link.linking(b, i) == 1
        ]
        if not cands:
            raise NotLinked(
                "no gray -2-framed component linked once by the black curve"
            )
        if len(cands) > 1:
            raise AmbiguousTarget(
                "components %s all qualify; the caller must name the target"
                % ", ".join(repr(link.components[i].id) for i in cands)
            )
        t = cands[0]
    else:
        t = link.index_of(target)
        if link.components[t].tag != GRAY:
            raise ValueError("target %r is not gray" % (link.components[t].id,))
    out = unlink_blowup(link, b, t, tag=BLACK)
    comps = out.components
    return FramedLinkMatrix._trusted(
        comps[:b] + (Component(comps[b].id, GRAY),) + comps[b + 1 :],
        out.matrix,
    )

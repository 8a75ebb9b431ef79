"""Exact linear algebra for small symmetric integer matrices.

Everything here is exact.  Determinant and inertia come from one
fraction-free (Bareiss) symmetric elimination on the upper triangle,
whose zero pivots are met by integral congruences.  Its rows are scaled
lazily: a row keeps the pivot D_s of the step at which it was last
updated, its entries after k pivots are stored * D_k / D_s (an exact
division, since they are minors), and it catches up only when a pivot
links it, when it becomes the pivot row, or before a zero-pivot
congruence.  Mod-2 systems are solved by Gaussian elimination over
GF(2), and Smith normal form uses integer row and column operations.
Intermediate values use Python's arbitrary-precision integers
throughout; nothing rounds and nothing overflows.

The 0x0 matrix is a legal value: its determinant is 1 (empty product)
and its inertia is (0, 0, 0).

Input is checked once, at the public boundary: SymmetricIntMatrix(rows)
checks that the rows are square, integer and symmetric.  A matrix the
library derives from checked parts (a block sum, a bordering, a deleted
index, a blow-down in kirby, the intersection matrix of a checked
plumbing graph) is wrapped with SymmetricIntMatrix._trusted, which skips
those checks.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, List, Sequence, Tuple


class SymmetricIntMatrix:
    """Immutable symmetric matrix with integer entries.

    The constructor validates its rows; derived matrices come from
    _trusted and are not validated again.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if not isinstance(x, int):
                    raise ValueError("entries must be integers, got %r" % (x,))
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(
                        "matrix is not symmetric at (%d, %d)" % (i, j)
                    )
        self._rows = rows

    @classmethod
    def _trusted(cls, rows: Tuple[Tuple[int, ...], ...]) -> "SymmetricIntMatrix":
        """Wrap a tuple of row tuples known to be square, integer and symmetric.

        Nothing is checked or copied: callers build rows from matrices
        that are already valid.
        """
        m = cls.__new__(cls)
        m._rows = rows
        return m

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, key: Tuple[int, int]) -> int:
        i, j = key
        return self._rows[i][j]

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self._rows[i][i] for i in range(self.dim))

    def to_lists(self) -> List[List[int]]:
        return [list(row) for row in self._rows]

    def block_sum(self, other: "SymmetricIntMatrix") -> "SymmetricIntMatrix":
        """Block-diagonal sum self (+) other."""
        left, right = (0,) * self.dim, (0,) * other.dim
        return SymmetricIntMatrix._trusted(
            tuple(row + right for row in self._rows)
            + tuple(left + row for row in other._rows)
        )

    def bordered(self, border: Sequence[int], corner: int) -> "SymmetricIntMatrix":
        """Append one row and column: border entries off-diagonal, corner last."""
        border = tuple(border)
        if len(border) != self.dim:
            raise ValueError("border length must equal dim")
        last = border + (corner,)
        for x in last:
            if not isinstance(x, int):
                raise ValueError("entries must be integers, got %r" % (x,))
        return SymmetricIntMatrix._trusted(
            tuple(row + (b,) for row, b in zip(self._rows, border)) + (last,)
        )

    def without_index(self, j: int) -> "SymmetricIntMatrix":
        """Delete row and column j."""
        keep = [i for i in range(self.dim) if i != j]
        return SymmetricIntMatrix._trusted(
            tuple(tuple(self._rows[i][k] for k in keep) for i in keep)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricIntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return "SymmetricIntMatrix(%r)" % (self.to_lists(),)


class Mod2Failure(Enum):
    """Why solve_mod2 returned no vector."""

    NO_SOLUTION = "no solution"
    NON_UNIQUE = "non-unique"


def _pivot_first(tri: List[List[int]]):
    """A congruent active block whose first diagonal entry is nonzero.

    A nonzero diagonal entry is swapped to the front.  When the whole
    diagonal is zero but a_ij is not, the unimodular change e_i -> e_i + e_j
    puts 2 a_ij on the diagonal first.  Returns None for the zero block.
    The block comes and goes as upper-triangle rows, tri[i][j - i] = a_ij.
    """
    n = len(tri)
    full = [[0] * n for _ in range(n)]
    for i, row in enumerate(tri):
        for j, x in enumerate(row, i):
            full[i][j] = full[j][i] = x
    t = next((i for i in range(1, n) if full[i][i]), None)
    if t is None:
        off = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if full[i][j]),
            None,
        )
        if off is None:
            return None
        t, j = off
        full[t] = [x + y for x, y in zip(full[t], full[j])]
        for row in full:
            row[t] += row[j]
    order = list(range(n))
    order[0], order[t] = t, 0
    return [[full[i][j] for j in order[k:]] for k, i in enumerate(order)]


def _eliminate(m: SymmetricIntMatrix) -> Tuple[int, Tuple[int, int, int]]:
    """(determinant, inertia) from one fraction-free symmetric elimination.

    Bareiss elimination on the upper triangle: the active block after k
    pivots holds the (k+1)-minors bordering the leading k x k block, so
    every division by the previous pivot is exact.  Zero pivots are
    handled by the unimodular congruences of _pivot_first, which keep
    the determinant and the inertia.  The pivots D_1, ..., D_r are then
    nonzero leading minors of a form congruent to M over the integers,
    and an all-zero active block is the radical: det is D_n when r = n
    and 0 otherwise, n_zero is n - r, and n_minus is the number of sign
    changes in 1, D_1, ..., D_r (Jacobi).

    Rows are scaled lazily.  Pivot k only rescales a row it does not
    link by D_k / D_{k-1}, and such factors telescope, so each row is
    stored with scale[i], the pivot D_s of the step s at which it was
    last brought up to date: after k pivots its entries are stored
    entry * D_k / scale[i], and that division is exact because the
    result is a minor.  A row catches up when a pivot links it, when it
    becomes the pivot row, and, for the whole active block, before
    _pivot_first rearranges it.  Rows a pivot does not link cost
    nothing, so a tree in vertex order takes O(n^2) steps, not O(n^3).
    """
    tri = [list(row[i:]) for i, row in enumerate(m.rows)]
    n = len(tri)
    scale = [1] * n
    prev = 1
    rank = n_minus = 0
    for k in range(n):
        top = tri[k]
        d = scale[k]
        if d != prev:
            top = tri[k] = [x * prev // d for x in top]
        p = top[0]
        if not p:
            for i in range(k + 1, n):
                d = scale[i]
                if d != prev:
                    tri[i] = [x * prev // d for x in tri[i]]
                    scale[i] = prev
            active = _pivot_first(tri[k:])
            if active is None:
                break
            tri[k:] = active
            top = tri[k]
            p = top[0]
        rank += 1
        if (p < 0) != (prev < 0):
            n_minus += 1
        for off in range(1, n - k):
            c = top[off]
            if c:
                row = tri[k + off]
                d = scale[k + off]
                if d == prev:
                    for j in range(len(row)):
                        row[j] = (row[j] * p - c * top[off + j]) // prev
                else:  # catch up and eliminate in one pass
                    for j in range(len(row)):
                        row[j] = (row[j] * prev // d * p - c * top[off + j]) // prev
                scale[k + off] = p
        prev = p
    det = prev if rank == n else 0
    return det, (rank - n_minus, n - rank, n_minus)


def determinant(m: SymmetricIntMatrix) -> int:
    """Exact determinant; see _eliminate."""
    return _eliminate(m)[0]


def inertia(m: SymmetricIntMatrix) -> Tuple[int, int, int]:
    """Inertia triple (n_plus, n_zero, n_minus), exactly; see _eliminate."""
    return _eliminate(m)[1]


def signature(m: SymmetricIntMatrix) -> int:
    """n_plus - n_minus."""
    n_plus, _, n_minus = inertia(m)
    return n_plus - n_minus


def solve_mod2(a: SymmetricIntMatrix, b: Sequence[int]):
    """Solve A x = b over GF(2).

    Returns the unique solution as a list of 0/1 ints, or a
    Mod2Failure member: NO_SOLUTION when the reduction is inconsistent,
    NON_UNIQUE when the mod-2 kernel is nontrivial.  Input entries are
    reduced mod 2.
    """
    n = a.dim
    if len(b) != n:
        raise ValueError("right-hand side length must equal dim")
    # rows packed as bitmasks, bit n holding the rhs; only odd entries set a bit
    rows = []
    for row, bv in zip(a.rows, b):
        mask = (bv & 1) << n
        for j, x in enumerate(row):
            if x & 1:
                mask |= 1 << j
        rows.append(mask)
    pivot_cols = []
    r = 0
    for c in range(n):
        bit = 1 << c
        piv = next((i for i in range(r, n) if rows[i] & bit), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    rhs_bit = 1 << n
    for i in range(r, n):
        if rows[i] & rhs_bit:
            return Mod2Failure.NO_SOLUTION
    if len(pivot_cols) < n:
        return Mod2Failure.NON_UNIQUE
    x = [0] * n
    for i, c in enumerate(pivot_cols):
        x[c] = 1 if rows[i] & rhs_bit else 0
    return x


def _min_nonzero(a: List[List[int]], t: int, n: int):
    best = None
    best_abs = None
    for i in range(t, n):
        for j in range(t, n):
            v = a[i][j]
            if v:
                av = -v if v < 0 else v
                if best_abs is None or av < best_abs:
                    best = (i, j)
                    best_abs = av
    return best


def smith_invariant_factors(m: SymmetricIntMatrix) -> Tuple[int, ...]:
    """Diagonal of the Smith normal form, as nonnegative invariant factors.

    Returns a tuple of length dim with d_1 | d_2 | ... and trailing
    zeros; the cokernel Z^n / A Z^n is the direct sum of Z/d_i (with
    Z/0 = Z).
    """
    n = m.dim
    a = m.to_lists()
    factors: List[int] = []
    t = 0
    while t < n:
        if _min_nonzero(a, t, n) is None:
            break
        while True:
            bi, bj = _min_nonzero(a, t, n)
            a[t], a[bi] = a[bi], a[t]
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        trow = a[t]
                        a[i] = [x - q * y for x, y in zip(a[i], trow)]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                factors.append(p)
                t += 1
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    factors += [0] * (n - len(factors))
    return tuple(factors)

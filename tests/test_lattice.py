from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar import (
    Mod2Failure,
    SymmetricIntMatrix,
    determinant,
    inertia,
    signature,
    smith_invariant_factors,
    solve_mod2,
)
from oracles import cofactor_determinant, numpy_inertia, sympy_invariant_factors

# E8 as a plumbing form: -2 chain of 7 with one -2 leaf on the fifth vertex
E8_ROWS = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 1],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 0],
    [0, 0, 0, 0, 1, 0, 0, -2],
]

# intersection form of the n = 1 member of the first family:
# center -1, arms [-2], [-4, -2, -3], [-5]
FAMILY_A1_ROWS = [
    [-1, 1, 1, 0, 0, 1],
    [1, -2, 0, 0, 0, 0],
    [1, 0, -4, 1, 0, 0],
    [0, 0, 1, -2, 1, 0],
    [0, 0, 0, 1, -3, 0],
    [1, 0, 0, 0, 0, -5],
]


@st.composite
def symmetric_rows(draw, max_dim=5, bound=9, min_dim=0):
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    vals = st.integers(min_value=-bound, max_value=bound)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(vals)
            rows[i][j] = v
            rows[j][i] = v
    return rows


def test_matrix_validation():
    with pytest.raises(ValueError):
        SymmetricIntMatrix([[1, 2]])
    with pytest.raises(ValueError):
        SymmetricIntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        SymmetricIntMatrix([[1.0]])
    m = SymmetricIntMatrix([[2, -1], [-1, 2]])
    assert m.dim == 2
    assert m[0, 1] == -1
    assert m.diagonal() == (2, 2)


def test_border_checks_what_it_adds():
    a = SymmetricIntMatrix([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        a.bordered([1], 0)
    with pytest.raises(ValueError):
        a.bordered([1, 2, 3], 0)
    with pytest.raises(ValueError):
        a.bordered([1, 1.0], 0)
    with pytest.raises(ValueError):
        a.bordered([1, "1"], 0)
    with pytest.raises(ValueError):
        a.bordered([1, 1], Fraction(1))
    with pytest.raises(ValueError):
        a.bordered([1, 1], None)
    # a bordered matrix equals the same rows through the checked constructor
    assert a.bordered((0, -3), 5) == SymmetricIntMatrix(
        [[2, 1, 0], [1, 2, -3], [0, -3, 5]]
    )


def test_matrix_block_sum_and_border():
    a = SymmetricIntMatrix([[2]])
    b = SymmetricIntMatrix([[-1]])
    assert a.block_sum(b).to_lists() == [[2, 0], [0, -1]]
    assert a.bordered([3], -1).to_lists() == [[2, 3], [3, -1]]
    assert a.bordered([3], -1).without_index(1) == a


def test_determinant_examples():
    assert determinant(SymmetricIntMatrix([])) == 1
    assert determinant(SymmetricIntMatrix([[-1]])) == -1
    assert determinant(SymmetricIntMatrix([[0, 1], [1, -1]])) == -1
    assert determinant(SymmetricIntMatrix(E8_ROWS)) == 1
    assert determinant(SymmetricIntMatrix([[2, 4], [4, 8]])) == 0
    assert determinant(SymmetricIntMatrix(FAMILY_A1_ROWS)) == 1


def test_determinant_big_entries_stay_exact():
    big = 10**30
    rows = [[big, 1, 0], [1, -big, big], [0, big, 3]]
    m = SymmetricIntMatrix(rows)
    assert determinant(m) == cofactor_determinant(rows)


@given(symmetric_rows(max_dim=6))
def test_determinant_matches_cofactor_oracle(rows):
    assert determinant(SymmetricIntMatrix(rows)) == cofactor_determinant(rows)


def test_inertia_examples():
    assert inertia(SymmetricIntMatrix([])) == (0, 0, 0)
    assert inertia(SymmetricIntMatrix([[1, 0], [0, 1]])) == (2, 0, 0)
    assert inertia(SymmetricIntMatrix([[0, 0], [0, 0]])) == (0, 2, 0)
    # zero diagonal forces the hyperbolic branch
    assert inertia(SymmetricIntMatrix([[0, 1], [1, 0]])) == (1, 0, 1)
    assert inertia(SymmetricIntMatrix([[0, 1], [1, -1]])) == (1, 0, 1)
    assert inertia(SymmetricIntMatrix(E8_ROWS)) == (0, 0, 8)
    assert inertia(SymmetricIntMatrix(FAMILY_A1_ROWS)) == (0, 0, 6)
    assert signature(SymmetricIntMatrix(FAMILY_A1_ROWS)) == -6


def test_inertia_singular_blocks():
    rows = [
        [0, 0, 1],
        [0, 0, 0],
        [1, 0, 0],
    ]
    assert inertia(SymmetricIntMatrix(rows)) == (1, 1, 1)


@given(symmetric_rows(max_dim=5, bound=5))
def test_inertia_matches_numpy_eigenvalues(rows):
    assert inertia(SymmetricIntMatrix(rows)) == numpy_inertia(rows)


@given(symmetric_rows(max_dim=6))
def test_inertia_consistency(rows):
    m = SymmetricIntMatrix(rows)
    n_plus, n_zero, n_minus = inertia(m)
    assert n_plus + n_zero + n_minus == m.dim
    assert (n_zero > 0) == (determinant(m) == 0)
    stacked = inertia(m.block_sum(SymmetricIntMatrix([[-1]])))
    assert stacked == (n_plus, n_zero, n_minus + 1)


@st.composite
def low_rank_gram_rows(draw, max_dim=6, max_rank=3, bound=2):
    """Sum of at most max_rank terms +-v v^T: singular whenever rank < dim."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=min(max_rank, n)))):
        v = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        s = draw(st.sampled_from((1, -1)))
        for i in range(n):
            for j in range(n):
                rows[i][j] += s * v[i] * v[j]
    return rows


@st.composite
def zero_diagonal_rows(draw, max_dim=5, bound=3):
    """Symmetric, zero diagonal, sparse off the diagonal."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    vals = st.one_of(st.just(0), st.integers(min_value=-bound, max_value=bound))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(vals)
    return rows


@given(st.one_of(low_rank_gram_rows(), zero_diagonal_rows()))
def test_zero_pivot_forms_match_oracles(rows):
    m = SymmetricIntMatrix(rows)
    assert determinant(m) == cofactor_determinant(rows)
    assert inertia(m) == numpy_inertia(rows)


@pytest.mark.parametrize(
    "rows, det, expected",
    [
        # zero diagonal from the start: e_0 -> e_0 + e_1 gives pivot 2
        ([[0, 1, 0], [1, 0, 2], [0, 2, 0]], 0, (1, 1, 1)),
        # zero active diagonal after the first pivot
        ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1, (2, 0, 1)),
        # zero pivot with a nonzero diagonal entry further on: a swap
        ([[0, 1, 0], [1, 0, 0], [0, 0, -3]], 3, (1, 0, 2)),
        ([[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 5], [0, 0, 5, 0]], 100, (2, 0, 2)),
        # hyperbolic pair plus a radical line
        ([[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], 0, (1, 2, 1)),
    ],
)
def test_zero_pivot_examples(rows, det, expected):
    m = SymmetricIntMatrix(rows)
    assert determinant(m) == det == cofactor_determinant(rows)
    assert inertia(m) == expected == numpy_inertia(rows)


@st.composite
def tree_rows(draw, max_dim=7, bound=4, min_dim=1):
    """A weighted tree whose vertices come after their parents, as in a
    plumbing's vertex order; weights may be 0, so later pivots can vanish."""
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(min_value=-bound, max_value=bound))
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        rows[i][parent] = rows[parent][i] = 1
    return rows


@st.composite
def bordered_tree_rows(draw, max_dim=6, max_link=2, max_support=4):
    """A tree bordered by a box vector and framed -1, as in surgery_search."""
    rows = draw(tree_rows(max_dim=max_dim))
    n = len(rows)
    vec = [0] * n
    for pos in draw(st.sets(st.integers(0, n - 1), max_size=max_support)):
        vec[pos] = draw(st.sampled_from([v for v in range(-max_link, max_link + 1) if v]))
    return [row + [v] for row, v in zip(rows, vec)] + [vec + [-1]]


@st.composite
def late_zero_rows(draw, max_dim=7, bound=3):
    """A sparse form whose first pivot is not 1 and that has a zero later
    on its diagonal, so a row no pivot has touched meets a zero pivot."""
    n = draw(st.integers(min_value=3, max_value=max_dim))
    vals = st.one_of(st.just(0), st.just(0), st.integers(-bound, bound))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(vals)
    rows[0][0] = draw(st.sampled_from([-3, -2, -1, 2, 3]))
    zero = draw(st.integers(min_value=1, max_value=n - 2))
    rows[zero][zero] = 0
    return rows


@given(st.one_of(tree_rows(), bordered_tree_rows(), late_zero_rows()))
def test_sparse_forms_match_oracles(rows):
    """Sparse forms leave rows unlinked by pivots, which _eliminate scales lazily."""
    m = SymmetricIntMatrix(rows)
    assert determinant(m) == cofactor_determinant(rows)
    assert inertia(m) == numpy_inertia(rows)


def test_stale_rows_catch_up_before_a_zero_pivot():
    """<-1> (+) H (+) <1>, H the hyperbolic plane.

    The pivot -1 links no row, so rows 1 to 3 stay stored at scale 1
    while their entries have changed sign.  Row 1 then gives a zero
    pivot; row 3 must catch up before the congruence reads its -1, or
    the elimination sees <-1> (+) H (+) <-1>.
    """
    rows = [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    m = SymmetricIntMatrix(rows)
    assert determinant(m) == 1 == cofactor_determinant(rows)
    assert inertia(m) == (2, 0, 2) == numpy_inertia(rows)


def test_solve_mod2_examples():
    m = SymmetricIntMatrix([[1]])
    assert solve_mod2(m, [1]) == [1]
    zero = SymmetricIntMatrix([[0, 0], [0, 0]])
    assert solve_mod2(zero, [1, 0]) is Mod2Failure.NO_SOLUTION
    assert solve_mod2(zero, [0, 0]) is Mod2Failure.NON_UNIQUE
    with pytest.raises(ValueError):
        solve_mod2(m, [1, 0])


def test_solve_mod2_wu_system():
    m = SymmetricIntMatrix(
        [
            [-1, 1, 1, 1],
            [1, -2, 0, 0],
            [1, 0, -3, 0],
            [1, 0, 0, -7],
        ]
    )
    assert solve_mod2(m, list(m.diagonal())) == [0, 1, 1, 1]


@given(symmetric_rows(max_dim=6, bound=9), st.data())
def test_solve_mod2_solution_satisfies_system(rows, data):
    n = len(rows)
    m = SymmetricIntMatrix(rows)
    b = data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)
    )
    w = solve_mod2(m, b)
    if isinstance(w, Mod2Failure):
        return
    for i in range(n):
        lhs = sum(rows[i][j] * w[j] for j in range(n))
        assert lhs % 2 == b[i] % 2
    assert all(x in (0, 1) for x in w)


def test_smith_examples():
    assert smith_invariant_factors(SymmetricIntMatrix([])) == ()
    assert smith_invariant_factors(SymmetricIntMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert smith_invariant_factors(SymmetricIntMatrix([[0, 1], [1, -1]])) == (1, 1)
    assert smith_invariant_factors(SymmetricIntMatrix([[2, 4], [4, 8]])) == (2, 0)
    assert smith_invariant_factors(SymmetricIntMatrix([[0]])) == (0,)


@settings(deadline=None)
@given(symmetric_rows(max_dim=5))
def test_smith_matches_sympy(rows):
    m = SymmetricIntMatrix(rows)
    assert smith_invariant_factors(m) == sympy_invariant_factors(rows)


@given(symmetric_rows(max_dim=6))
def test_smith_divisibility_chain_and_determinant(rows):
    m = SymmetricIntMatrix(rows)
    factors = smith_invariant_factors(m)
    nonzero = [f for f in factors if f]
    assert list(factors) == nonzero + [0] * (len(factors) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    det = determinant(m)
    if det != 0:
        prod = 1
        for f in nonzero:
            prod *= f
        assert prod == abs(det)
        assert len(nonzero) == m.dim

"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they validate: determinants by
recursive cofactor expansion, Smith forms via sympy, inertia via numpy
eigenvalues, and a from-scratch restatement of the blow-down twist for
the exhaustive search oracle.  The Rokhlin invariant of a Brieskorn
sphere comes from the benchmark's reference, Brieskorn's Milnor-fiber
signature, which never imports mubar.
"""

from __future__ import annotations

import importlib.util
from itertools import product
from pathlib import Path


def bench_reference():
    """bench/reference.py, loaded by path (bench is not a package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cofactor_determinant(rows):
    """Determinant by first-row cofactor expansion (exact, exponential)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        x = rows[0][j]
        if x:
            minor = [
                [row[k] for k in range(n) if k != j] for row in rows[1:]
            ]
            term = x * cofactor_determinant(minor)
            total += term if j % 2 == 0 else -term
    return total


def naive_unit_reduction_with_trace(rows):
    """Greedy lowest-index blow-down of +-1 diagonal entries on lists.

    Returns the terminal rows and, per blow-down, the input index of the
    deleted component with the rows after the move.
    """
    rows = [list(r) for r in rows]
    labels = list(range(len(rows)))
    trace = []
    while True:
        n = len(rows)
        j = next((i for i in range(n) if rows[i][i] in (1, -1)), None)
        if j is None:
            return rows, trace
        eps = rows[j][j]
        keep = [i for i in range(n) if i != j]
        rows = [
            [rows[i][k] - eps * rows[i][j] * rows[j][k] for k in keep]
            for i in keep
        ]
        trace.append((labels.pop(j), [list(r) for r in rows]))


def naive_unit_reduction(rows):
    """Terminal rows of naive_unit_reduction_with_trace."""
    return naive_unit_reduction_with_trace(rows)[0]


def sympy_invariant_factors(rows):
    """Smith normal form diagonal via sympy, zeros last, nonnegative."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    n = len(rows)
    if n == 0:
        return ()
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    return tuple(abs(int(snf[i, i])) for i in range(n))


def numpy_inertia(rows, tol=1e-7):
    """Inertia from floating eigenvalues.

    Only safe for small dimensions and entries: the smallest nonzero
    eigenvalue of an integer symmetric matrix with dim <= 5 and
    entries <= 5 is far above the tolerance.
    """
    import numpy as np

    n = len(rows)
    if n == 0:
        return (0, 0, 0)
    eigs = np.linalg.eigvalsh(np.array(rows, dtype=float))
    n_plus = int((eigs > tol).sum())
    n_minus = int((eigs < -tol).sum())
    return (n_plus, n - n_plus - n_minus, n_minus)


def brute_force_search_vectors(weight_rows, max_link):
    """Exhaustive search over the full cube, no support bound.

    A vector is a hit when the bordered matrix (new diagonal entry -1)
    has determinant 0, cokernel Z (one zero invariant factor, all
    others 1) and a greedy unit reduction ending at [[0]].
    """
    n = len(weight_rows)
    hits = []
    for vec in product(range(-max_link, max_link + 1), repeat=n):
        aug = [list(row) + [v] for row, v in zip(weight_rows, vec)]
        aug.append(list(vec) + [-1])
        if cofactor_determinant(aug) != 0:
            continue
        factors = sympy_invariant_factors(aug)
        if sorted(factors) != [0] + [1] * n:
            continue
        if naive_unit_reduction(aug) == [[0]]:
            hits.append(tuple(vec))
    return sorted(hits)

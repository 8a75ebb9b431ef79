from __future__ import annotations

import collections
import json
import random

import pytest

from mubar import (
    FamilyId,
    InvariantReport,
    MuBarNotDivisible,
    PlumbingGraph,
    WuUndefined,
    brieskorn_seifert,
    canonical_plumbing,
    family_plumbing,
    intersection_matrix,
    is_homology_sphere,
    mu_bar,
    report,
    rokhlin,
    star,
    wu_class,
    wu_square,
)
from mubar import plumbing as plumbing_mod
from mubar.lattice import Mod2Failure, SymmetricIntMatrix
from oracles import bench_reference, cofactor_determinant


def sigma_2_3_7():
    return star(-1, [[-2], [-3], [-7]])


def sigma_2_3_19():
    return star(-1, [[-2], [-3], [-7, -2, -2]])


def e8_graph():
    return star(-2, [[-2], [-2, -2], [-2, -2, -2, -2]])


def test_graph_validation():
    with pytest.raises(ValueError):
        PlumbingGraph([])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -1), ("a", -2)])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -1)], [("a", "b")])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -1)], [("a", "a")])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -1), ("b", -2)], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", -1), ("b", -2)])
    with pytest.raises(ValueError):
        PlumbingGraph([("a", 1.5)])


def test_graph_accessors():
    g = sigma_2_3_7()
    assert g.n_vertices == 4
    assert g.vertex_ids == ("c", "a1_1", "a2_1", "a3_1")
    assert g.weights == (-1, -2, -3, -7)
    assert g.weight("a3_1") == -7
    assert g.neighbors("c") == ("a1_1", "a2_1", "a3_1")
    assert g.degree("c") == 3
    assert g.degree("a1_1") == 1
    assert g.adjacency[0] == (1, 2, 3)


def test_intersection_matrix_single_vertex():
    g = PlumbingGraph([("v", -1)])
    assert intersection_matrix(g).to_lists() == [[-1]]


def test_intersection_matrix_star():
    g = star(-1, [[-2], [-4, -2, -3], [-5]])
    assert intersection_matrix(g).to_lists() == [
        [-1, 1, 1, 0, 0, 1],
        [1, -2, 0, 0, 0, 0],
        [1, 0, -4, 1, 0, 0],
        [0, 0, 1, -2, 1, 0],
        [0, 0, 0, 1, -3, 0],
        [1, 0, 0, 0, 0, -5],
    ]


def test_is_homology_sphere():
    assert is_homology_sphere(sigma_2_3_7())
    assert is_homology_sphere(e8_graph())
    assert not is_homology_sphere(PlumbingGraph([("v", -2)]))
    assert not is_homology_sphere(PlumbingGraph([("v", 0)]))


def test_wu_class_examples():
    assert wu_class(PlumbingGraph([("v", -1)])) == (1,)
    assert wu_class(sigma_2_3_7()) == (0, 1, 1, 1)
    # all weights even with odd determinant: Wu class is zero
    assert wu_class(e8_graph()) == (0,) * 8


def test_wu_class_undefined_for_even_determinant():
    with pytest.raises(WuUndefined):
        wu_class(PlumbingGraph([("v", -2)]))


def test_wu_square_and_mu_bar():
    assert wu_square(PlumbingGraph([("v", -1)])) == -1
    assert mu_bar(PlumbingGraph([("v", -1)])) == 0
    assert wu_square(sigma_2_3_7()) == -12
    assert mu_bar(sigma_2_3_7()) == 8
    assert wu_square(sigma_2_3_19()) == -14
    assert mu_bar(sigma_2_3_19()) == 8
    assert mu_bar(e8_graph()) == -8


def test_rokhlin_values():
    assert rokhlin(PlumbingGraph([("v", -1)])) == 0
    assert rokhlin(sigma_2_3_7()) == 1
    assert rokhlin(sigma_2_3_19()) == 1
    assert rokhlin(e8_graph()) == 1


def test_rokhlin_requires_homology_sphere():
    with pytest.raises(ValueError):
        rokhlin(PlumbingGraph([("v", -2)]))


def test_rokhlin_reordering_invariance():
    g = sigma_2_3_19()
    vertices = list(zip(g.vertex_ids, g.weights))
    edges = list(g.edges)
    reordered = PlumbingGraph(list(reversed(vertices)), edges)
    assert rokhlin(reordered) == rokhlin(g)
    assert is_homology_sphere(reordered)
    # arm order permutation
    permuted = star(-1, [[-7, -2, -2], [-3], [-2]])
    assert rokhlin(permuted) == rokhlin(g)


def test_report_full_values():
    rep = report(sigma_2_3_7())
    assert rep == InvariantReport(
        det=1,
        inertia=(0, 0, 4),
        wu=(0, 1, 1, 1),
        wu_square=-12,
        mu_bar=8,
        rokhlin=1,
    )
    assert rep.det == cofactor_determinant(
        intersection_matrix(sigma_2_3_7()).to_lists()
    )


def test_report_path_selection(monkeypatch):
    """Trees take the leaf-elimination pass; a cycle takes one dense pass."""
    from mubar import lattice

    def unexpected(*args):
        raise AssertionError("a tree must not reach the dense kernels")

    for name in ("_eliminate", "solve_mod2", "intersection_matrix"):
        monkeypatch.setattr(plumbing_mod, name, unexpected)
    g = sigma_2_3_19()
    rep = report(g)
    assert (rep.det, rep.inertia) == (1, (0, 0, 6))
    assert mu_bar(g) == 8
    assert rokhlin(g) == 1
    assert wu_class(g) == rep.wu
    assert wu_square(g) == rep.wu_square
    assert is_homology_sphere(g)

    calls = []

    def counted(kernel):
        def run(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return run

    monkeypatch.setattr(plumbing_mod, "_eliminate", counted(lattice._eliminate))
    monkeypatch.setattr(plumbing_mod, "solve_mod2", counted(lattice.solve_mod2))
    monkeypatch.setattr(plumbing_mod, "intersection_matrix", intersection_matrix)
    triangle = PlumbingGraph(
        [("a", -2), ("b", -2), ("c", -3)], [("a", "b"), ("b", "c"), ("c", "a")]
    )
    rep = report(triangle)
    assert sorted(calls) == ["_eliminate", "solve_mod2"]
    assert rep.det == -3 == cofactor_determinant(
        intersection_matrix(triangle).to_lists()
    )
    assert (rep.wu, rep.wu_square) == ((1, 1, 1), -1)


def _random_tree(rng, n, weights):
    """A tree on n vertices with shuffled vertex order, edge order and ends."""
    ids = ["v%d" % i for i in range(n)]
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    order = ids[:]
    rng.shuffle(order)
    return PlumbingGraph([(v, rng.choice(weights)) for v in order], edges)


def _zero_children(g, dense_det):
    """Per vertex, its children (tree rooted at vertex 0) that pivot to 0.

    A child c pivots to 0 in leaf elimination when the subtree under c
    has determinant 0 while every subtree strictly below c does not.
    Subtree determinants come from the dense kernel.
    """
    adj = g.adjacency
    parent = {0: None}
    order = [0]
    for v in order:
        for c in adj[v]:
            if c not in parent:
                parent[c] = v
                order.append(c)
    below = {v: [v] for v in order}
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
    rows = intersection_matrix(g).rows
    sub_det = {
        v: dense_det(SymmetricIntMatrix([[rows[i][j] for j in vs] for i in vs]))
        for v, vs in below.items()
    }
    zeros = {v: 0 for v in order}
    for c in order[1:]:
        if sub_det[c] == 0 and all(sub_det[d] for d in below[c][1:]):
            zeros[parent[c]] += 1
    return zeros, sub_det


def test_tree_pass_matches_dense_kernels():
    """report on trees against lattice._eliminate and _wu on the matrix."""
    from mubar import lattice

    rng = random.Random(20261022)
    regimes = (
        [0, 0, 0, -1, 1, -2, 2],
        [0, -1, -2, -3, -4, 1, 2, 3],
        [-2, -2, -3, -1, -5, 0],
    )
    seen = collections.Counter()
    for _ in range(1500):
        g = _random_tree(rng, rng.randint(1, 11), rng.choice(regimes))
        m = intersection_matrix(g)
        det, inertia = lattice._eliminate(m)
        wu = plumbing_mod._wu(m)
        lift, square = (None, None) if isinstance(wu, Mod2Failure) else wu
        rep = report(g)
        assert (rep.det, rep.inertia, rep.wu, rep.wu_square) == (
            det, inertia, lift, square,
        ), g
        zeros, sub_det = _zero_children(g, lambda a: lattice._eliminate(a)[0])
        most = max(zeros.values())
        seen["one zero child"] += most == 1
        seen["several zero children"] += most >= 2
        seen["zero root"] += det == 0 and all(
            d for v, d in sub_det.items() if v
        )
        seen["even det"] += det % 2 == 0
        seen["odd det"] += det % 2 == 1
        seen["positive weight"] += max(g.weights) > 0
        seen["root is a leaf"] += len(g.adjacency[0]) == 1
    for case in (
        "one zero child", "several zero children", "zero root", "even det",
        "odd det", "positive weight", "root is a leaf",
    ):
        assert seen[case] > 0, case


def test_report_on_even_determinant():
    rep = report(PlumbingGraph([("v", -2)]))
    assert rep.det == -2
    assert rep.inertia == (0, 0, 1)
    assert rep.wu is None
    assert rep.wu_square is None
    assert rep.mu_bar is None
    assert rep.rokhlin is None
    data = rep.to_json_dict()
    assert set(data) == {"det", "inertia"}


def test_report_family_b_first_member():
    rep = report(star(-1, [[-3], [-3, -2, -4], [-4]]))
    assert rep.inertia == (0, 0, 6)
    assert rep.mu_bar == 8
    assert rep.rokhlin == 1


def test_report_odd_det_not_sphere():
    # det is odd with |det| > 1: wu chain defined, rokhlin omitted
    g = PlumbingGraph([("v", -3)])
    rep = report(g)
    assert rep.det == -3
    assert rep.wu == (1,)
    assert rep.wu_square == -3
    assert rep.mu_bar == 2
    assert rep.rokhlin is None


def test_invariant_report_validation():
    with pytest.raises(ValueError):
        InvariantReport(
            det=1, inertia=(0, 0, 4), wu=(0,), wu_square=-12, mu_bar=5,
            rokhlin=None,
        )
    with pytest.raises(ValueError):
        InvariantReport(
            det=1, inertia=(0, 0, 4), wu=(0,), wu_square=-12, mu_bar=8,
            rokhlin=0,
        )
    assert isinstance(MuBarNotDivisible("x"), ValueError)


def test_json_round_trip():
    g = sigma_2_3_19()
    data = plumbing_mod.to_json_dict(g)
    text = json.dumps(data)
    back = plumbing_mod.from_json_dict(json.loads(text))
    assert back == g
    with pytest.raises(ValueError):
        plumbing_mod.from_json_dict({"vertices": []})
    with pytest.raises(ValueError):
        plumbing_mod.from_json_dict([1, 2])


def test_dot_output():
    g = star(-1, [[-2]])
    dot = plumbing_mod.to_dot(g)
    assert dot.startswith("graph plumbing {")
    assert '"c" [label="-1"];' in dot
    assert '"a1_1" [label="-2"];' in dot
    assert '"c" -- "a1_1";' in dot
    assert dot.endswith("}\n")


@pytest.mark.parametrize(
    "tag, n",
    [(tag, n) for tag in "AB" for n in (100, 200, 400)] + [("Sigma(2,3,2999)", None)],
)
def test_large_plumbings_match_brieskorn(tag, n):
    """Sizes far past the benchmark's trees: unimodular, negative definite,
    and the Rokhlin invariant of Brieskorn's Milnor-fiber signature."""
    ref = bench_reference()
    if n is None:
        pqr = (2, 3, 2999)
        g = canonical_plumbing(brieskorn_seifert(*pqr))
    else:
        pqr = ref.family_params(tag, n)
        g = family_plumbing(FamilyId(tag, n))
    rep = report(g)
    assert abs(rep.det) == 1
    assert rep.inertia == (0, 0, g.n_vertices)
    assert rokhlin(g) == rep.rokhlin == ref.brieskorn_rokhlin(*pqr)

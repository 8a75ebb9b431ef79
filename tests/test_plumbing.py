from __future__ import annotations

import json

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


def test_report_runs_one_elimination(monkeypatch):
    from mubar import lattice

    calls = []

    def counted(m):
        calls.append(m.dim)
        return lattice._eliminate(m)

    def unexpected(m):
        raise AssertionError("no second elimination may run")

    monkeypatch.setattr(plumbing_mod, "_eliminate", counted)
    monkeypatch.setattr(plumbing_mod, "determinant", unexpected)
    rep = report(sigma_2_3_19())
    assert calls == [6]
    assert (rep.det, rep.inertia) == (1, (0, 0, 6))
    # mu_bar and rokhlin read report; the Wu class needs no elimination
    assert mu_bar(sigma_2_3_19()) == 8
    assert calls == [6, 6]
    assert rokhlin(sigma_2_3_19()) == 1
    assert calls == [6, 6, 6]
    assert wu_class(sigma_2_3_19()) == rep.wu
    assert wu_square(sigma_2_3_19()) == rep.wu_square
    assert calls == [6, 6, 6]


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

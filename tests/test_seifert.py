from __future__ import annotations

import collections
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar import (
    PlumbingGraph,
    SeifertData,
    brieskorn_seifert,
    canonical_plumbing,
    eval_neg_continued_fraction,
    is_homology_sphere,
    neg_continued_fraction,
    plumbing_to_seifert,
    plumbings_isomorphic,
    report,
    rokhlin,
    star,
)
from oracles import bench_reference, brute_force_isomorphic


def test_seifert_data_validation():
    with pytest.raises(ValueError):
        SeifertData(-1, ((1, 1),))
    with pytest.raises(ValueError):
        SeifertData(-1, ((2, 2),))
    with pytest.raises(ValueError):
        SeifertData(-1, ((4, 2),))
    with pytest.raises(ValueError):
        SeifertData(-1, ((2, 0),))
    s = SeifertData(-1, ((2, 1), (3, 1), (7, 1)))
    assert s.euler_number == Fraction(-1, 42)


def test_brieskorn_seifert_examples():
    # beta values frozen by hand: beta = -(pqr/a)^(-1) mod a
    assert brieskorn_seifert(2, 3, 7) == SeifertData(-1, ((2, 1), (3, 1), (7, 1)))
    assert brieskorn_seifert(2, 3, 19) == SeifertData(-1, ((2, 1), (3, 1), (19, 3)))
    assert brieskorn_seifert(2, 5, 17) == SeifertData(-1, ((2, 1), (5, 1), (17, 5)))
    assert brieskorn_seifert(3, 4, 17) == SeifertData(-1, ((3, 1), (4, 1), (17, 7)))
    assert brieskorn_seifert(2, 9, 29) == SeifertData(-1, ((2, 1), (9, 2), (29, 8)))


def test_brieskorn_seifert_euler_number():
    for p, q, r in [(2, 3, 7), (2, 5, 17), (3, 4, 17), (5, 7, 9)]:
        assert brieskorn_seifert(p, q, r).euler_number == Fraction(-1, p * q * r)


def test_brieskorn_seifert_errors():
    with pytest.raises(ValueError):
        brieskorn_seifert(2, 4, 7)
    with pytest.raises(ValueError):
        brieskorn_seifert(1, 3, 7)
    with pytest.raises(ValueError):
        brieskorn_seifert(3, 3, 5)


def test_neg_continued_fraction_examples():
    assert neg_continued_fraction(2, 1) == [2]
    assert neg_continued_fraction(7, 1) == [7]
    assert neg_continued_fraction(3, 2) == [2, 2]
    assert neg_continued_fraction(17, 5) == [4, 2, 3]
    assert neg_continued_fraction(17, 8) == [3, 2, 2, 2, 2, 2, 2, 2]
    assert neg_continued_fraction(29, 8) == [4, 3, 3]
    assert neg_continued_fraction(19, 3) == [7, 2, 2]


def test_neg_continued_fraction_errors():
    with pytest.raises(ValueError):
        neg_continued_fraction(5, 5)
    with pytest.raises(ValueError):
        neg_continued_fraction(5, 0)
    with pytest.raises(ValueError):
        neg_continued_fraction(4, 2)
    with pytest.raises(ValueError):
        neg_continued_fraction(3, 5)


def test_eval_neg_continued_fraction():
    assert eval_neg_continued_fraction([4, 2, 3]) == Fraction(17, 5)
    assert eval_neg_continued_fraction([2]) == Fraction(2)
    with pytest.raises(ValueError):
        eval_neg_continued_fraction([])


@settings(max_examples=300)
@given(st.integers(2, 10_000), st.integers(1, 9_999))
def test_ncf_round_trip(a, b):
    b = b % a
    if b == 0 or math.gcd(a, b) != 1:
        return
    coeffs = neg_continued_fraction(a, b)
    assert all(c >= 2 for c in coeffs)
    assert eval_neg_continued_fraction(coeffs) == Fraction(a, b)


def test_canonical_plumbing_sigma_2_3_7():
    g = canonical_plumbing(brieskorn_seifert(2, 3, 7))
    assert g.weights == (-1, -2, -3, -7)
    assert g.degree("c") == 3
    assert report(g).rokhlin == 1


def test_canonical_plumbing_sigma_2_3_19():
    g = canonical_plumbing(brieskorn_seifert(2, 3, 19))
    # 19/3 = [7,2,2] so the third arm is a chain of length 3
    assert g.weights == (-1, -2, -3, -7, -2, -2)
    assert is_homology_sphere(g)


def test_canonical_plumbing_requires_negative_euler_number():
    with pytest.raises(ValueError):
        canonical_plumbing(SeifertData(0, ((2, 1),)))
    with pytest.raises(ValueError):
        canonical_plumbing(SeifertData(1, ()))


def test_canonical_plumbing_no_cone_points():
    g = canonical_plumbing(SeifertData(-2, ()))
    assert g.n_vertices == 1
    assert g.weights == (-2,)


def test_plumbing_to_seifert_examples():
    assert plumbing_to_seifert(star(-2, [[-2]])) == SeifertData(-2, ((2, 1),))
    assert plumbing_to_seifert(star(-1, [[-2], [-3], [-7]])) == SeifertData(
        -1, ((2, 1), (3, 1), (7, 1))
    )


def test_plumbing_to_seifert_single_vertex():
    from mubar import PlumbingGraph

    assert plumbing_to_seifert(PlumbingGraph([("v", -3)])) == SeifertData(-3, ())


def test_plumbing_to_seifert_rejects_bad_shapes():
    from mubar import PlumbingGraph

    # two degree-3 vertices: not a star
    g = PlumbingGraph(
        [("a", -2), ("b", -2), ("c", -2), ("d", -2), ("e", -2), ("f", -2)],
        [("a", "b"), ("a", "c"), ("a", "d"), ("d", "e"), ("d", "f")],
    )
    with pytest.raises(ValueError):
        plumbing_to_seifert(g)
    # degree-3 center pins the decomposition; a -1 arm weight is invalid
    with pytest.raises(ValueError):
        plumbing_to_seifert(star(-1, [[-1], [-2], [-2]]))
    # a 2-vertex path is read from whichever end gives valid arms
    assert plumbing_to_seifert(star(-2, [[-1]])) == SeifertData(-1, ((2, 1),))
    # non-tree input
    cyc = PlumbingGraph(
        [("a", -2), ("b", -2), ("c", -2)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    with pytest.raises(ValueError):
        plumbing_to_seifert(cyc)


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 3, 19), (2, 5, 17), (3, 4, 17), (2, 9, 29)])
def test_seifert_plumbing_round_trip(triple):
    s = brieskorn_seifert(*triple)
    assert plumbing_to_seifert(canonical_plumbing(s)) == s


def test_round_trip_random_coprime_triples():
    rng = random.Random(20260817)
    seen = 0
    while seen < 60:
        p = rng.randint(2, 40)
        q = rng.randint(2, 40)
        r = rng.randint(2, 40)
        if math.gcd(p, q) != 1 or math.gcd(p, r) != 1 or math.gcd(q, r) != 1:
            continue
        seen += 1
        s = brieskorn_seifert(p, q, r)
        g = canonical_plumbing(s)
        assert is_homology_sphere(g)
        assert plumbing_to_seifert(g) == s


def test_plumbings_isomorphic_arm_permutation():
    g = star(-1, [[-2], [-3], [-7]])
    h = star(-1, [[-7], [-2], [-3]])
    assert plumbings_isomorphic(g, h)


def test_plumbings_isomorphic_detects_difference():
    g = star(-1, [[-2], [-3], [-7]])
    assert not plumbings_isomorphic(g, star(-1, [[-2], [-3], [-8]]))
    assert not plumbings_isomorphic(g, star(-2, [[-2], [-3], [-7]]))
    assert not plumbings_isomorphic(g, star(-1, [[-2], [-3]]))
    # same weight multiset, different tree shape
    a = star(-2, [[-2, -2], [-2], [-2]])
    b = star(-2, [[-2], [-2], [-2], [-2]])
    assert sorted(a.weights) == sorted(b.weights)
    assert not plumbings_isomorphic(a, b)


def test_plumbings_isomorphic_relabeled_path():
    from mubar import PlumbingGraph

    g = PlumbingGraph(
        [("x", -2), ("y", -3), ("z", -2)], [("x", "y"), ("y", "z")]
    )
    h = PlumbingGraph(
        [("p", -2), ("q", -2), ("r", -3)], [("q", "r"), ("r", "p")]
    )
    assert plumbings_isomorphic(g, h)


def test_plumbings_isomorphic_rejects_non_tree():
    from mubar import PlumbingGraph

    cyc = PlumbingGraph(
        [("a", -2), ("b", -2), ("c", -2)],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    with pytest.raises(ValueError):
        plumbings_isomorphic(cyc, cyc)


def _index_edges(g):
    return [(g.index_of(u), g.index_of(v)) for u, v in g.edges]


def _shuffled_copy(rng, g):
    """g under new ids, with vertices, edges and edge ends in random order."""
    new = {v: "u%d" % i for i, v in enumerate(rng.sample(g.vertex_ids, g.n_vertices))}
    vertices = [(new[v], w) for v, w in zip(g.vertex_ids, g.weights)]
    rng.shuffle(vertices)
    edges = [
        (new[a], new[b]) if rng.random() < 0.5 else (new[b], new[a])
        for a, b in g.edges
    ]
    rng.shuffle(edges)
    return PlumbingGraph(vertices, edges)


def _random_tree(rng, weights):
    """A random tree shape carrying the given weights in vertex order."""
    ids = [str(i) for i in range(len(weights))]
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))]
    return PlumbingGraph(zip(ids, weights), edges)


def _diameter(g):
    """Edges on a longest path: BFS to a farthest vertex, then from it."""
    adj = g.adjacency
    far = 0
    for _ in range(2):
        dist = {far: 0}
        queue = [far]
        for v in queue:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        far = max(dist, key=dist.get)
    return dist[far]


def test_plumbings_isomorphic_matches_brute_force():
    """plumbings_isomorphic against trying every weight-preserving vertex
    bijection, on random trees of up to 7 vertices: shuffled relabelled
    copies, and trees with the same weights on another random shape."""
    rng = random.Random(20261022)
    seen = collections.Counter()
    for _ in range(3000):
        n = rng.randint(1, 7)
        g = _random_tree(rng, [rng.choice((-1, -2, -2, -3)) for _ in range(n)])
        if rng.random() < 0.5:
            h = _shuffled_copy(rng, g)
        else:
            weights = list(g.weights)
            rng.shuffle(weights)
            h = _shuffled_copy(rng, _random_tree(rng, weights))
        expected = brute_force_isomorphic(
            g.weights, _index_edges(g), h.weights, _index_edges(h)
        )
        assert plumbings_isomorphic(g, h) is expected, (g, h)
        assert plumbings_isomorphic(h, g) is expected, (h, g)
        degrees = sorted(len(a) for a in g.adjacency)
        look_alike = degrees == sorted(len(a) for a in h.adjacency)
        centers = "two centers" if _diameter(g) % 2 else "one center"
        seen[centers, "isomorphic" if expected else "not isomorphic"] += 1
        seen["same weights and degrees, not isomorphic"] += (
            look_alike and not expected
        )
    for centers in ("one center", "two centers"):
        for kind in ("isomorphic", "not isomorphic"):
            assert seen[centers, kind] > 100, (centers, kind)
    assert seen["same weights and degrees, not isomorphic"] > 100


def test_plumbings_isomorphic_on_a_deep_tree():
    """Sigma(2, 3, 60001) has a 10,000-vertex arm; its canonical plumbing
    against a relabelled copy with shuffled vertex and edge order."""
    g = canonical_plumbing(brieskorn_seifert(2, 3, 60001))
    assert g.n_vertices > 10000
    h = _shuffled_copy(random.Random(60001), g)
    assert plumbings_isomorphic(g, h)
    assert plumbings_isomorphic(h, g)


def test_family_matrix_matches_canonical_sigma_2_5_17():
    g = star(-1, [[-2], [-4, -2, -3], [-5]])
    assert plumbings_isomorphic(g, canonical_plumbing(brieskorn_seifert(2, 5, 17)))


def test_rokhlin_matches_milnor_fiber_signature():
    """rokhlin of every Sigma(p, q, r) with r < 40 against Brieskorn's
    sigma(F) / 8 mod 2, a formula that shares no code with plumbings."""
    brieskorn_rokhlin = bench_reference().brieskorn_rokhlin
    triples = [
        (p, q, r)
        for p in range(2, 40)
        for q in range(p + 1, 40)
        for r in range(q + 1, 40)
        if math.gcd(p, q) == math.gcd(p, r) == math.gcd(q, r) == 1
    ]
    assert len(triples) == 2431
    for p, q, r in triples:
        g = canonical_plumbing(brieskorn_seifert(p, q, r))
        assert rokhlin(g) == brieskorn_rokhlin(p, q, r), (p, q, r)
        rep = report(g)
        # van der Blij: a unimodular form has mu_bar = 0 mod 8
        if abs(rep.det) == 1:
            assert rep.mu_bar % 8 == 0, (p, q, r)

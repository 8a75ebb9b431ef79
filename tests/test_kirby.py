from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar import (
    AmbiguousTarget,
    Component,
    FamilyId,
    FramedLinkMatrix,
    FramingNotUnit,
    IterationCap,
    NotLinked,
    blow_down,
    blow_up,
    determinant,
    family_plumbing,
    family_step,
    gray_plumbing,
    inertia,
    plumbings_isomorphic,
    reduce,
    reduce_with_trace,
    smith_invariant_factors,
    star,
    surgery_search,
    unlink_blowup,
)
from mubar.kirby import BLACK, GRAY
from mubar.lattice import SymmetricIntMatrix
from oracles import brute_force_search_vectors, naive_unit_reduction_with_trace


def link_from_rows(rows, tag=GRAY):
    comps = [("v%d" % i, tag) for i in range(len(rows))]
    return FramedLinkMatrix(comps, rows)


def sigma_2_3_7_link():
    return FramedLinkMatrix.from_plumbing(star(-1, [[-2], [-3], [-7]]))


def test_component_and_link_validation():
    with pytest.raises(ValueError):
        Component("a", "red")
    with pytest.raises(ValueError):
        FramedLinkMatrix([("a", GRAY), ("a", GRAY)], [[-1, 0], [0, -1]])
    with pytest.raises(ValueError):
        FramedLinkMatrix([("a", GRAY)], [[-1, 0], [0, -1]])
    # the public constructor still checks the rows it is given
    with pytest.raises(ValueError):
        FramedLinkMatrix([("a", GRAY), ("b", GRAY)], [[-1, 1], [0, -1]])
    with pytest.raises(ValueError):
        FramedLinkMatrix([("a", GRAY), ("b", GRAY)], [[-1, 1.0], [1.0, -1]])
    with pytest.raises(ValueError):
        FramedLinkMatrix([("a", GRAY)], [["-1"]])
    # a blow-up refuses what bordered refuses, instead of truncating it
    single = FramedLinkMatrix([("a", GRAY)], [[-2]])
    with pytest.raises(ValueError):
        blow_up(single, [0.7], 1)
    with pytest.raises(ValueError):
        blow_up(single, ["1"], 1)
    empty = FramedLinkMatrix([], [])
    assert empty.matrix.dim == 0


def test_link_accessors():
    L = sigma_2_3_7_link()
    assert L.framing("c") == -1
    assert L.framing(3) == -7
    assert L.linking("c", "a2_1") == 1
    assert L.linking("a1_1", "a2_1") == 0
    assert L.index_of("a3_1") == 3
    with pytest.raises(ValueError):
        L.index_of("nope")
    with pytest.raises(ValueError):
        L.index_of(9)


def test_blow_down_example():
    L = sigma_2_3_7_link()
    out = blow_down(L, "c")
    assert [c.id for c in out.components] == ["a1_1", "a2_1", "a3_1"]
    assert out.matrix.to_lists() == [[-1, 1, 1], [1, -2, 1], [1, 1, -6]]
    # same call by index
    assert blow_down(L, 0) == out


def test_blow_down_plus_one():
    L = link_from_rows([[1, 2], [2, -3]])
    out = blow_down(L, 0)
    # +1 framed component: new[k][l] = m[k][l] - m[k][j]*m[j][l]
    assert out.matrix.to_lists() == [[-7]]


def test_blow_down_requires_unit_framing():
    L = link_from_rows([[-2, 1], [1, -1]])
    with pytest.raises(FramingNotUnit):
        blow_down(L, 0)
    blow_down(L, 1)


def test_blow_down_determinant_and_signature():
    L = sigma_2_3_7_link()
    out = blow_down(L, "c")
    # splitting off <-1> divides det by -1 and raises signature by 1
    assert determinant(out.matrix) == -determinant(L.matrix)
    n_plus, n_zero, n_minus = inertia(L.matrix)
    p2, z2, m2 = inertia(out.matrix)
    assert (p2, z2, m2) == (n_plus, n_zero, n_minus - 1)


def test_blow_up_on_empty():
    empty = FramedLinkMatrix([], [])
    out = blow_up(empty, [], 1)
    assert out.matrix.to_lists() == [[-1]]
    out = blow_up(empty, [], -1)
    assert out.matrix.to_lists() == [[1]]


def test_blow_up_fresh_id_and_tag():
    L = sigma_2_3_7_link()
    out = blow_up(L, [0, 0, 0, 0], 1, tag=BLACK)
    assert out.components[-1].tag == BLACK
    assert out.components[-1].id not in [c.id for c in L.components]
    named = blow_up(L, [0, 0, 0, 0], 1, new_id="extra")
    assert named.components[-1].id == "extra"
    with pytest.raises(ValueError):
        blow_up(L, [0, 0, 0, 0], 1, new_id="c")


def test_augmented_checks_what_it_adds():
    L = sigma_2_3_7_link()
    with pytest.raises(ValueError):
        L.augmented([0, 0, 0, 0], -1, new_id="a1_1")
    with pytest.raises(ValueError):
        L.augmented([0, 0, 0], -1)
    with pytest.raises(ValueError):
        L.augmented([0, 0, 0, 0.5], -1)
    with pytest.raises(ValueError):
        L.augmented([0, 0, 0, 0], "-1")
    out = L.augmented([1, 0, 0, 1], -1, new_id="w")
    assert out.ids == L.ids + ("w",)
    assert out.matrix == SymmetricIntMatrix(
        [[-1, 1, 1, 1, 1], [1, -2, 0, 0, 0], [1, 0, -3, 0, 0],
         [1, 0, 0, -7, 1], [1, 0, 0, 1, -1]]
    )


small_rows = st.integers(-3, 3)


@st.composite
def framed_links(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(small_rows)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(small_rows)
    return link_from_rows(rows)


@settings(max_examples=200)
@given(framed_links(), st.data())
def test_blow_up_then_down_is_identity(L, data):
    n = L.matrix.dim
    links = [data.draw(small_rows) for _ in range(n)]
    sign = data.draw(st.sampled_from([1, -1]))
    up = blow_up(L, links, sign, new_id="fresh")
    assert up.framing("fresh") == -sign
    back = blow_down(up, "fresh")
    assert back == L
    assert determinant(up.matrix) == -sign * determinant(L.matrix)


def test_unlink_blowup_exact():
    L = link_from_rows([[-1, 1], [1, -2]])
    out = unlink_blowup(L, "v0", "v1", new_id="w")
    assert out.matrix.to_lists() == [
        [-2, 0, 1],
        [0, -3, 1],
        [1, 1, -1],
    ]
    assert out.components[-1] == Component("w", BLACK)
    # blowing the new curve back down restores the input bit for bit
    assert blow_down(out, "w") == L


def test_unlink_blowup_requires_positive_linking():
    L = link_from_rows([[-1, 0], [0, -2]])
    with pytest.raises(NotLinked):
        unlink_blowup(L, 0, 1)
    neg = link_from_rows([[-1, -1], [-1, -2]])
    with pytest.raises(NotLinked):
        unlink_blowup(neg, 0, 1)


def test_reduce_examples():
    assert reduce(link_from_rows([[-1]])).matrix.dim == 0
    assert reduce(link_from_rows([[1]])).matrix.dim == 0
    out = reduce(link_from_rows([[0]]))
    assert out.matrix.to_lists() == [[0]]
    out = reduce(link_from_rows([[0, 1], [1, -1]]))
    assert out.matrix.dim == 0


def test_reduce_trace_records_moves():
    red, trace = reduce_with_trace(link_from_rows([[0, 1], [1, -1]]))
    assert red.matrix.dim == 0
    assert [t["move"] for t in trace] == ["blow_down", "blow_down"]
    assert trace[0]["component"] == "v1"
    assert trace[0]["matrix_after"] == [[1]]
    assert trace[1]["matrix_after"] == []


@st.composite
def unit_rich_rows(draw, max_dim=7):
    """Symmetric rows whose framings are mostly +-1, so reductions run long."""
    n = draw(st.integers(0, max_dim))
    framings = st.one_of(st.sampled_from([1, -1]), st.integers(-3, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(framings)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    return rows


@settings(max_examples=300)
@given(unit_rich_rows())
def test_reduce_with_trace_matches_list_oracle(rows):
    terminal, trace = reduce_with_trace(link_from_rows(rows))
    want_rows, want_trace = naive_unit_reduction_with_trace(rows)
    assert terminal.matrix.to_lists() == want_rows
    assert [
        (t["move"], t["component"], t["matrix_after"]) for t in trace
    ] == [("blow_down", "v%d" % j, after) for j, after in want_trace]
    deleted = {t["component"] for t in trace}
    assert terminal.ids == tuple(
        "v%d" % i for i in range(len(rows)) if "v%d" % i not in deleted
    )


def test_reduce_full_diagonalization():
    red, trace = reduce_with_trace(sigma_2_3_7_link())
    assert red.matrix.dim == 0
    assert len(trace) == 4


def test_reduce_iteration_cap():
    with pytest.raises(IterationCap):
        reduce(link_from_rows([[-1]]), max_steps=0)


def test_reduce_confluence_on_reordering():
    L = sigma_2_3_7_link()
    comps = list(L.components)
    rows = L.matrix.to_lists()
    n = len(comps)
    perm = list(reversed(range(n)))
    rev = FramedLinkMatrix(
        [comps[p] for p in perm],
        [[rows[p][q] for q in perm] for p in perm],
    )
    assert reduce(rev).matrix.dim == 0


def test_blow_down_preserves_smith_ones():
    L = sigma_2_3_7_link()
    out = blow_down(L, "c")
    before = list(smith_invariant_factors(L.matrix))
    after = list(smith_invariant_factors(out.matrix))
    assert sorted(before) == sorted(after + [1])


def test_gray_plumbing_round_trip():
    g = star(-1, [[-2], [-3], [-7]])
    L = FramedLinkMatrix.from_plumbing(g)
    assert gray_plumbing(L) == g
    # black components are excluded from the gray part
    aug = L.augmented([0, 0, 0, 0], -1, tag=BLACK)
    assert gray_plumbing(aug) == g


def test_gray_plumbing_rejects_large_linking():
    L = link_from_rows([[-2, 2], [2, -2]])
    with pytest.raises(ValueError):
        gray_plumbing(L)


@pytest.mark.parametrize(
    "graph",
    [
        star(-2, [[-2]]),
        star(-1, [[-2], [-3]]),
        star(-3, [[-2], [-2]]),
    ],
)
def test_surgery_search_matches_brute_force(graph):
    from mubar import intersection_matrix

    n = graph.n_vertices
    rows = intersection_matrix(graph).to_lists()
    for max_link in (1, 2):
        hits = surgery_search(graph, max_link=max_link, max_support=n)
        expect = brute_force_search_vectors(rows, max_link)
        assert [h.vector for h in hits] == expect


def test_surgery_search_validates_once_and_tests_every_vector(monkeypatch):
    """One determinant per box vector; no matrix is validated again."""
    import mubar.kirby as kirby_module

    inits = []
    dets = []
    real_init = SymmetricIntMatrix.__init__
    real_det = kirby_module.determinant

    def counting_init(self, rows):
        inits.append(1)
        real_init(self, rows)

    def counting_det(m):
        dets.append(m.dim)
        return real_det(m)

    monkeypatch.setattr(SymmetricIntMatrix, "__init__", counting_init)
    monkeypatch.setattr(kirby_module, "determinant", counting_det)
    hits = surgery_search(family_plumbing(FamilyId("A", 1)), 2, 3)
    # 1 + 6*4 + 15*16 + 20*64 vectors in the (2, 3) box on 6 vertices
    assert len(dets) == 1 + 24 + 240 + 1280
    assert set(dets) == {7}
    assert len(inits) == 0
    assert (0, 0, 0, 1, 0, -1) in [h.vector for h in hits]


def test_surgery_search_support_limit():
    g = star(-1, [[-2], [-3]])
    all_hits = surgery_search(g, max_link=2, max_support=3)
    small = surgery_search(g, max_link=2, max_support=1)
    assert set(h.vector for h in small) <= set(h.vector for h in all_hits)
    for h in small:
        assert sum(1 for x in h.vector if x != 0) <= 1


def test_surgery_search_family_a1_contains_predicted_vector():
    hits = surgery_search(family_plumbing(FamilyId("A", 1)), max_link=1, max_support=2)
    vectors = [h.vector for h in hits]
    assert (0, 0, 0, 1, 0, -1) in vectors
    assert (0, 0, 0, -1, 0, 1) in vectors
    for h in hits:
        assert h.trace[-1]["matrix_after"] == [[0]]


def test_surgery_search_family_b1_contains_predicted_vector():
    hits = surgery_search(family_plumbing(FamilyId("B", 1)), max_link=1, max_support=2)
    assert (0, 0, 0, 1, 0, -1) in [h.vector for h in hits]


def aug_family_a1():
    g = family_plumbing(FamilyId("A", 1))
    L = FramedLinkMatrix.from_plumbing(g)
    return L.augmented([0, 0, 0, 1, 0, -1], -1, new_id="k1", tag=BLACK)


def test_family_step_auto_target():
    aug = aug_family_a1()
    out = family_step(aug)
    tags = {c.id: c.tag for c in out.components}
    assert tags["k1"] == GRAY
    new = out.components[-1]
    assert new.tag == BLACK and new.id not in {c.id for c in aug.components}
    # old black was retagged and twisted down by one
    assert out.framing("k1") == -2
    # default target is the unique -2 framed gray meeting the black curve once
    assert out.framing("a2_2") == -3
    assert out.linking(new.id, "a2_2") == 1
    assert out.linking(new.id, "k1") == 1
    assert out.framing(new.id) == -1
    assert determinant(out.matrix) == -determinant(aug.matrix)


def test_family_step_explicit_target():
    # explicit targets are not restricted to framing -2
    L = FramedLinkMatrix(
        [("a", GRAY), ("k", BLACK)], [[-5, 1], [1, -1]]
    )
    out = family_step(L, target="a")
    assert out.framing("a") == -6
    assert out.framing("k") == -2
    assert out.components[-1].tag == BLACK
    # negative linking does not qualify, matching the unlinking move
    aug = aug_family_a1()
    with pytest.raises(NotLinked):
        family_step(aug, target="a3_1")


def test_family_step_explicit_target_breaks_tie():
    ambiguous = FramedLinkMatrix(
        [("a", GRAY), ("b", GRAY), ("k", BLACK)],
        [[-2, 0, 1], [0, -2, 1], [1, 1, -1]],
    )
    out = family_step(ambiguous, target="b")
    assert out.framing("b") == -3
    assert out.framing("a") == -2


def test_family_step_undo_by_blow_down():
    aug = aug_family_a1()
    out = family_step(aug)
    back = blow_down(out, out.components[-1].id)
    assert back.matrix == aug.matrix


def test_family_step_requires_single_unit_black():
    L = sigma_2_3_7_link()
    with pytest.raises(ValueError):
        family_step(L)
    two_black = FramedLinkMatrix(
        [("a", BLACK), ("b", BLACK)], [[-1, 1], [1, -1]]
    )
    with pytest.raises(ValueError):
        family_step(two_black)
    wrong_framing = FramedLinkMatrix(
        [("a", GRAY), ("b", BLACK)], [[-2, 1], [1, -3]]
    )
    with pytest.raises(ValueError):
        family_step(wrong_framing)


def test_family_step_target_errors():
    # no gray -2 component meets the black curve exactly once
    no_target = FramedLinkMatrix(
        [("a", GRAY), ("b", BLACK)], [[-3, 1], [1, -1]]
    )
    with pytest.raises(NotLinked):
        family_step(no_target)
    # two candidate targets
    ambiguous = FramedLinkMatrix(
        [("a", GRAY), ("b", GRAY), ("k", BLACK)],
        [[-2, 0, 1], [0, -2, 1], [1, 1, -1]],
    )
    with pytest.raises(AmbiguousTarget):
        family_step(ambiguous)
    # explicit target must be gray and linked
    with pytest.raises(ValueError):
        family_step(ambiguous, target="k")
    unlinked = FramedLinkMatrix(
        [("a", GRAY), ("b", GRAY), ("k", BLACK)],
        [[-2, 0, 1], [0, -2, 0], [1, 0, -1]],
    )
    with pytest.raises(NotLinked):
        family_step(unlinked, target="b")


def test_link_json_round_trip():
    L = aug_family_a1()
    data = L.to_json_dict()
    back = FramedLinkMatrix.from_json_dict(data)
    assert back == L
    with pytest.raises(ValueError):
        FramedLinkMatrix.from_json_dict({"components": []})
    with pytest.raises(ValueError):
        FramedLinkMatrix.from_json_dict(
            {"components": [{"id": "a", "tag": "blue"}], "matrix": [[0]]}
        )

from __future__ import annotations

import math

import pytest

from mubar import (
    FamilyId,
    FramedLinkMatrix,
    brieskorn_params,
    brieskorn_seifert,
    canonical_plumbing,
    determinant,
    family_plumbing,
    gray_plumbing,
    is_homology_sphere,
    plumbings_isomorphic,
    reduce,
    report,
    signature,
    verify_family,
    verify_iteration,
)
from mubar.families import _step_once


def test_family_id_validation():
    FamilyId("A", 1)
    FamilyId("B", 7)
    with pytest.raises(ValueError):
        FamilyId("C", 1)
    with pytest.raises(ValueError):
        FamilyId("A", 0)
    with pytest.raises(ValueError):
        FamilyId("A", -3)


def test_brieskorn_params():
    assert brieskorn_params(FamilyId("A", 1)) == (2, 5, 17)
    assert brieskorn_params(FamilyId("A", 3)) == (2, 13, 41)
    assert brieskorn_params(FamilyId("B", 1)) == (3, 4, 17)
    assert brieskorn_params(FamilyId("B", 2)) == (3, 7, 29)


def test_params_pairwise_coprime():
    for tag in ("A", "B"):
        for n in range(1, 12):
            p, q, r = brieskorn_params(FamilyId(tag, n))
            assert math.gcd(p, q) == math.gcd(p, r) == math.gcd(q, r) == 1


def test_family_plumbing_a1_structure():
    g = family_plumbing(FamilyId("A", 1))
    assert list(zip(g.vertex_ids, g.weights)) == [
        ("c", -1),
        ("a1_1", -2),
        ("a2_1", -4),
        ("a2_2", -2),
        ("a2_3", -3),
        ("a3_1", -5),
    ]
    assert g.degree("c") == 3


def test_family_plumbing_b1_structure():
    g = family_plumbing(FamilyId("B", 1))
    assert g.weights == (-1, -3, -3, -2, -4, -4)


def test_family_plumbing_vertex_count():
    # 1 center + 1 + 3 + n arm vertices
    for tag in ("A", "B"):
        for n in (1, 2, 5):
            g = family_plumbing(FamilyId(tag, n))
            assert g.n_vertices == 5 + n
            assert is_homology_sphere(g)


def test_family_plumbing_matches_canonical():
    for tag in ("A", "B"):
        for n in (1, 2, 3, 4):
            f = FamilyId(tag, n)
            canon = canonical_plumbing(brieskorn_seifert(*brieskorn_params(f)))
            assert plumbings_isomorphic(family_plumbing(f), canon)


def test_verify_family_odd_n():
    for tag in ("A", "B"):
        v = verify_family(FamilyId(tag, 1))
        assert v.ok
        names = [c.name for c in v.checks]
        assert names == [
            "matches_seifert_plumbing",
            "inertia",
            "unimodular",
            "wu_square",
            "mu_bar",
            "rokhlin",
        ]
        by_name = {c.name: c for c in v.checks}
        assert by_name["inertia"].actual == (0, 0, 6)
        assert by_name["wu_square"].actual == -14
        assert by_name["mu_bar"].actual == 8
        assert by_name["rokhlin"].actual == 1
        assert v.observed == ()


def test_verify_family_even_n_observed():
    v = verify_family(FamilyId("A", 2))
    assert v.ok
    assert [c.name for c in v.checks] == [
        "matches_seifert_plumbing",
        "inertia",
        "unimodular",
    ]
    assert dict(v.observed) == {"wu_square": -7, "mu_bar": 0, "rokhlin": 0}
    v = verify_family(FamilyId("B", 2))
    assert dict(v.observed) == {"wu_square": -7, "mu_bar": 0, "rokhlin": 0}


def test_verify_family_json_shape():
    data = verify_family(FamilyId("A", 1)).to_json_dict()
    assert data["family"] == "A"
    assert data["n"] == 1
    assert data["params"] == [2, 5, 17]
    assert data["ok"] is True
    assert all(
        set(c) >= {"name", "passed"} for c in data["checks"]
    )


def test_verify_family_range():
    for tag in ("A", "B"):
        for n in range(1, 7):
            assert verify_family(FamilyId(tag, n)).ok


@pytest.mark.parametrize("tag", ["A", "B"])
def test_verify_family_on_a_deep_member(tag):
    """n = 2000: a 2005-vertex plumbing whose chain arm is 2000 long."""
    assert verify_family(FamilyId(tag, 2000)).ok


def test_mu_bar_alternates_with_parity():
    for tag in ("A", "B"):
        for n in range(1, 7):
            rep = report(family_plumbing(FamilyId(tag, n)))
            assert rep.mu_bar == (8 if n % 2 else 0)
            assert rep.rokhlin == (1 if n % 2 else 0)
            assert rep.inertia == (0, 0, 5 + n)


def test_verify_iteration_two_steps():
    it = verify_iteration(FamilyId("A", 1), steps=2)
    assert it.ok
    assert not it.no_candidate
    assert it.survivors == ((0, 0, 0, 1, 0, -1),)
    assert (0, 0, 0, -1, 0, 1) in it.candidates
    assert len(it.step_records) == 2
    first = it.step_records[0]
    assert first["step"] == 1
    assert first["n"] == 2
    assert first["gray_vertices"] == 7
    assert first["gray_isomorphic"] is True
    assert first["det"] == 0
    assert first["signature"] == -7
    assert first["reduces_to_zero_framed"] is True
    assert it.step_records[1]["n"] == 3
    assert it.step_records[1]["signature"] == -8


@pytest.mark.parametrize("tag", ["A", "B"])
def test_step_records_hold_what_the_checks_computed(tag):
    """Every successor's record fields equal independent computations on it."""
    base = FramedLinkMatrix.from_plumbing(family_plumbing(FamilyId(tag, 1)))
    start = base.augmented([0, 0, 0, 1, 0, -1], -1)
    want = family_plumbing(FamilyId(tag, 2))
    sig = signature(start.matrix)
    successors = _step_once(start, want, sig)
    assert successors
    for state, checks in successors:
        assert checks == {
            "gray_isomorphic": plumbings_isomorphic(gray_plumbing(state), want),
            "det": determinant(state.matrix),
            "signature": signature(state.matrix),
            "reduces_to_zero_framed": reduce(state).matrix.to_lists() == [[0]],
        }
    # the signature passed in is the one each successor is held to
    assert _step_once(start, want, sig + 1) == []


def test_verify_iteration_family_b():
    it = verify_iteration(FamilyId("B", 1), steps=2)
    assert it.ok
    assert it.survivors == ((0, 0, 0, 1, 0, -1),)


def test_verify_iteration_no_candidate():
    # support 1 cannot produce a null augmentation on a definite form
    it = verify_iteration(FamilyId("A", 1), steps=1, max_link=1, max_support=1)
    assert it.candidates == ()
    assert it.no_candidate
    assert not it.ok


def test_verify_iteration_argument_errors():
    with pytest.raises(ValueError):
        verify_iteration(FamilyId("A", 2), steps=1)
    with pytest.raises(ValueError):
        verify_iteration(FamilyId("A", 1), steps=0)


def test_verify_iteration_json_shape():
    data = verify_iteration(FamilyId("B", 1), steps=1).to_json_dict()
    assert set(data) == {
        "family",
        "steps",
        "max_link",
        "max_support",
        "candidates",
        "survivors",
        "step_records",
        "no_candidate",
        "ok",
    }
    assert data["family"] == "B"
    assert data["survivors"] == [[0, 0, 0, 1, 0, -1]]

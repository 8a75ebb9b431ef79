"""Tests of the benchmark's own code: reference computations, the tail
percentile rule, the output checks and the tracer.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mubar  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _det(rows):
    """Determinant by elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


@pytest.mark.parametrize("triple, sigma", [
    ((2, 3, 5), -8), ((2, 3, 7), -8), ((2, 3, 11), -16),
])
def test_milnor_signature_known_values(triple, sigma):
    assert ref.milnor_signature(*triple) == sigma
    assert ref.brieskorn_rokhlin(*triple) == (sigma // 8) % 2


def test_brieskorn_formula_gives_rokhlin_one_on_odd_family_members():
    for n in (1, 3, 5, 7):
        for tag in "AB":
            assert ref.brieskorn_rokhlin(*ref.family_params(tag, n)) == 1


def test_seifert_problems_accepts_sigma_237_and_rejects_a_wrong_e0():
    assert ref.seifert_problems(2, 3, 7, -1, [(2, 1), (3, 1), (7, 1)]) == []
    assert ref.seifert_problems(2, 3, 7, -2, [(2, 1), (3, 1), (7, 1)])
    assert ref.seifert_problems(2, 3, 7, -1, [(2, 1), (3, 2), (7, 1)])


def test_dual_form_identity():
    rows = ref.star_matrix(-1, ref.FAMILY1_ARMS["A"])
    for v in [(0, 0, 0, 1, 0, -1), (1, 0, 0, 0, 0, 0), (0, 2, -1, 0, 1, 0)]:
        lhs = _det(ref.bordered(rows, v, -1))
        assert lhs == _det(rows) * (-1 - ref.dual_value(rows, v))


def test_box_size_counts_the_box():
    for n, L, S in [(6, 2, 4), (3, 1, 5), (4, 3, 2)]:
        assert ref.box_size(n, L, S) == len(list(ref.box_vectors(n, L, S)))


def test_plain_reduction_records_every_blow_down():
    terminal, steps = ref.plain_reduction([[0, 1], [1, -1]])
    assert terminal == []
    assert steps == [(1, [[1]]), (0, [])]


def test_enumerated_hits_at_a_small_box_match_the_library():
    for tag in "AB":
        rows = ref.star_matrix(-1, ref.FAMILY1_ARMS[tag])
        g = mubar.family_plumbing(mubar.FamilyId(tag, 1))
        assert rows == mubar.intersection_matrix(g).to_lists()
        want = [h.vector for h in mubar.surgery_search(g, 1, 3)]
        assert ref.enumerate_hits(rows, 1, 3) == want


def test_tail_rule_leaves_ten_samples_per_round_beyond():
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(120) == 100.0 * 110 / 120
    for per_round in (40, 120, 200):
        assert per_round - 1 - run.tail_index(per_round) == 10
    with pytest.raises(ValueError):
        run.tail_index(39)


def test_end_to_end_reads_a_round_of_lower_quartile_latencies():
    fast = [0.001 * (i + 1) for i in range(40)]
    slow = [3 * x for x in fast]
    assert run.lower_quartile([5, 1, 4, 2, 3]) == 2
    # three of five rounds slowed by other tenants still read as fast
    e2e = run.end_to_end(2.5, [slow, fast, slow, fast, slow])
    value = {k: v["value"] for k, v in e2e.items()}
    assert value["setup_s"] == 2.5
    assert value["ops_per_s"] == pytest.approx(40 / sum(fast))
    assert value["op_p50_ms"] == pytest.approx(20.5)
    assert value["op_tail_ms"] == pytest.approx(30.0)


def test_every_round_is_long_enough():
    for cls in workloads.WORKLOADS.values():
        assert cls.per_round >= 40


def _only(workload, key):
    workload.keys = [key]
    (_, thunk), = workload.ops()
    out = thunk()
    assert workload.check(key, out) == []
    return out


def test_family_check_rejects_a_flipped_rokhlin_or_inertia():
    wl = workloads.FamilySweep(0, None)
    out = _only(wl, ("A", 3))
    bad = copy.deepcopy(out)
    for c in bad["checks"]:
        if c["name"] == "rokhlin":
            c["actual"] ^= 1
    assert wl.check(("A", 3), bad)
    bad = copy.deepcopy(out)
    for c in bad["checks"]:
        if c["name"] == "inertia":
            c["actual"] = (0, 0, 7)
    assert wl.check(("A", 3), bad)


def test_census_check_rejects_corrupted_outputs():
    wl = workloads.BrieskornCensus(0, None)
    key = (2, 3, 7)
    out = _only(wl, key)
    for field, corrupt in [
        ("rokhlin", lambda o: o["rokhlin"] ^ 1),
        ("inertia", lambda o: [0, 1, o["vertices"] - 1]),
        ("mu_bar", lambda o: o["mu_bar"] + 1),
        ("det", lambda o: 2),
        ("round_trip", lambda o: {"e0": o["seifert"]["e0"] - 1,
                                  "cone_pairs": o["seifert"]["cone_pairs"]}),
        ("seifert", lambda o: {"e0": -2, "cone_pairs": o["seifert"]["cone_pairs"]}),
    ]:
        bad = copy.deepcopy(out)
        bad[field] = corrupt(out)
        assert wl.check(key, bad), field


@pytest.fixture(scope="module")
def kirby(tmp_path_factory):
    wl = workloads.KirbyReplay(0, tmp_path_factory.mktemp("kirby"))
    return wl, dict(wl.ops())


def _run_first(kirby, pred):
    wl, ops = kirby
    key = min(k for k in ops if pred(k))
    code, text = ops[key]()
    assert wl.check(key, (code, text)) == []
    return wl, key, json.loads(text)


def test_kirby_search_check_rejects_a_changed_hit_entry(kirby):
    wl, key, data = _run_first(kirby, lambda k: k[0] == "search" and k[2] == 2)
    data["hits"][0]["vector"][-1] += 1
    assert wl.check(key, (0, json.dumps(data)))


def test_kirby_iterate_check_rejects_a_signature_off_by_one(kirby):
    wl, key, data = _run_first(kirby, lambda k: k[0] == "iterate")
    data["iteration"]["step_records"][-1]["signature"] += 1
    assert wl.check(key, (0, json.dumps(data)))


def test_kirby_reduce_check_rejects_a_wrong_terminal_or_trace(kirby):
    wl, key, data = _run_first(kirby, lambda k: k[0] == "reduce")
    bad = copy.deepcopy(data)
    bad["matrix"] = [[1]]
    assert wl.check(key, (0, json.dumps(bad)))
    bad = copy.deepcopy(data)
    bad["trace"].pop()
    assert wl.check(key, (0, json.dumps(bad)))
    assert wl.check(key, (1, ""))


def test_tracer_counts_candidates_and_hits_and_uninstalls(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(ref.star_json(-1, ref.FAMILY1_ARMS["A"])))
    originals = (mubar.cli.main, mubar.kirby.determinant, mubar.determinant,
                 mubar.lattice.SymmetricIntMatrix.__init__)
    tracer = tracing.Tracer().install()
    try:
        code, text = workloads._cli(["kirby", "search", str(path), "--max-link", "1",
                                     "--max-support", "3", "--json"])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.per_round(1)
    assert set(metrics) == set(tracing.PER_LAYER)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["kirby.surgery_search.candidates"] == ref.box_size(6, 1, 3)
    assert value["kirby.surgery_search.hits"] == len(json.loads(text)["hits"])
    assert value["cli.main.calls"] == 1
    assert value["cli.main.output_bytes"] == len(text)
    assert value["lattice.determinant.calls"] >= ref.box_size(6, 1, 3)
    assert originals == (mubar.cli.main, mubar.kirby.determinant, mubar.determinant,
                         mubar.lattice.SymmetricIntMatrix.__init__)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(1.0, [[0.1] * 40]))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

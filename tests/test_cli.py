from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import mubar
from mubar import FramedLinkMatrix, cli, star
from mubar.cli import main
from mubar.plumbing import to_json_dict
from oracles import bench_reference


@pytest.fixture
def plumbing_file(tmp_path):
    path = tmp_path / "plumbing.json"
    path.write_text(json.dumps(to_json_dict(star(-1, [[-2], [-3], [-7]]))))
    return str(path)


@pytest.fixture
def link_file(tmp_path):
    path = tmp_path / "link.json"
    link = FramedLinkMatrix([("a", "gray"), ("b", "gray")], [[0, 1], [1, -1]])
    path.write_text(json.dumps(link.to_json_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


REPORT_SCHEMA = {
    "type": "object",
    "required": ["det", "inertia"],
    "properties": {
        "det": {"type": "integer"},
        "inertia": {
            "type": "array",
            "items": {"type": "integer"},
            "minItems": 3,
            "maxItems": 3,
        },
        "wu": {"type": "array", "items": {"type": "integer", "enum": [0, 1]}},
        "wu_square": {"type": "integer"},
        "mu_bar": {"type": "integer"},
        "rokhlin": {"type": "integer", "enum": [0, 1]},
    },
    "additionalProperties": True,
}


def test_brieskorn_human(capsys):
    code, out, err = run(capsys, "brieskorn", "2", "3", "7")
    assert code == 0 and err == ""
    assert "Sigma(2, 3, 7)" in out
    assert "e0 = -1" in out
    assert "rokhlin = 1" in out


def test_brieskorn_invariants_json(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "3", "7", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["det"] == 1
    assert data["mu_bar"] == 8
    assert data["rokhlin"] == 1
    assert data["seifert"]["e0"] == -1
    assert data["seifert"]["cone_pairs"] == [[2, 1], [3, 1], [7, 1]]


def test_brieskorn_plumbing_json(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "5", "17", "--plumbing", "--json")
    assert code == 0
    data = json.loads(out)
    assert {"vertices", "edges"} == set(data)
    weights = sorted(v["weight"] for v in data["vertices"])
    assert weights == [-5, -4, -3, -2, -2, -1]
    assert len(data["edges"]) == len(data["vertices"]) - 1


def test_brieskorn_plumbing_dot(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "3", "7", "--plumbing", "--dot")
    assert code == 0
    assert out.startswith("graph plumbing {")
    assert '"c" -- "a1_1";' in out


def test_brieskorn_deterministic(capsys):
    _, first, _ = run(capsys, "brieskorn", "3", "4", "17", "--json")
    _, second, _ = run(capsys, "brieskorn", "3", "4", "17", "--json")
    assert first == second


def test_brieskorn_rejects_bad_triples(capsys):
    code, _, err = run(capsys, "brieskorn", "2", "4", "6")
    assert code == 2
    assert "coprime" in err


def test_brieskorn_dot_without_plumbing(capsys):
    code, _, err = run(capsys, "brieskorn", "2", "3", "7", "--dot")
    assert code == 2
    assert err != ""


def test_plumbing_invariants_human(capsys, plumbing_file):
    code, out, _ = run(capsys, "plumbing", "invariants", plumbing_file)
    assert code == 0
    assert "det = 1" in out
    assert "mu_bar = 8" in out


def test_plumbing_invariants_json(capsys, plumbing_file):
    code, out, _ = run(capsys, "plumbing", "invariants", plumbing_file, "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["inertia"] == [0, 0, 4]


def test_plumbing_invariants_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "plumbing", "invariants", str(tmp_path / "no.json"))
    assert code == 2
    assert "cannot read" in err


def test_plumbing_invariants_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "plumbing", "invariants", str(path))
    assert code == 2


def test_plumbing_invariants_bad_schema(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [{"id": "a"}], "edges": []}))
    code, _, err = run(capsys, "plumbing", "invariants", str(path))
    assert code == 2


def test_large_tree_runs_without_a_matrix(capsys):
    """Sigma(2, 3, 60001) has 10003 vertices: a tree, so no n x n matrix."""
    code, out, err = run(capsys, "brieskorn", "2", "3", "60001", "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["det"] == -1
    assert data["inertia"] == [0, 0, 10003]
    assert data["rokhlin"] == 0 == bench_reference().brieskorn_rokhlin(2, 3, 60001)


def test_too_many_vertices_with_a_cycle_are_refused(capsys, tmp_path):
    n = cli.MAX_REPORT_VERTICES + 1
    ids = ["v%d" % i for i in range(n)]
    data = {
        "vertices": [{"id": v, "weight": -2} for v in ids],
        "edges": [[u, v] for u, v in zip(ids, ids[1:] + ids[:1])],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "plumbing", "invariants", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "%d vertices" % n in err


def test_family_verify_human(capsys):
    code, out, _ = run(capsys, "family", "verify", "A", "--n-max", "2")
    assert code == 0
    assert "family A n=1" in out
    assert "Sigma(2, 5, 17): ok" in out
    assert "Sigma(2, 9, 29): ok" in out
    assert out.rstrip().endswith("result: ok")


def test_family_verify_json_with_iteration(capsys):
    code, out, _ = run(
        capsys, "family", "verify", "B", "--n-max", "1", "--iterate", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["family"] == "B"
    assert len(data["records"]) == 1
    assert data["iteration"]["survivors"] == [[0, 0, 0, 1, 0, -1]]
    assert len(data["iteration"]["step_records"]) == 2


def test_family_verify_bad_args(capsys):
    code, _, err = run(capsys, "family", "verify", "A", "--n-max", "0")
    assert code == 2
    code, _, _ = run(capsys, "family", "verify", "A", "--n-max", "1", "--iterate", "0")
    assert code == 2


def test_family_verify_refuses_n_max_above_the_cap(capsys, monkeypatch):
    from mubar import families as fam_mod

    def no_work(f):
        raise AssertionError("a refused run must verify no member")

    monkeypatch.setattr(fam_mod, "verify_family", no_work)
    n = cli.MAX_FAMILY_N + 1
    code, out, err = run(capsys, "family", "verify", "B", "--n-max", str(n))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(cli.MAX_FAMILY_N) in err


def test_family_verify_failure_exit_code(capsys, monkeypatch):
    from mubar import families as fam_mod
    from mubar.families import CheckResult, FamilyVerification

    def fake_verify(f):
        return FamilyVerification(
            family=f.tag,
            n=f.n,
            params=(2, 5, 17),
            checks=(
                CheckResult(
                    name="unimodular", passed=False, expected=1, actual=5
                ),
            ),
            observed=(),
        )

    monkeypatch.setattr(fam_mod, "verify_family", fake_verify)
    code, out, _ = run(capsys, "family", "verify", "A", "--n-max", "1")
    assert code == 1
    assert "FAIL" in out


def test_kirby_reduce_human_trace(capsys, link_file):
    code, out, _ = run(capsys, "kirby", "reduce", link_file, "--trace")
    assert code == 0
    assert "terminal diagram: empty" in out
    assert "blow_down" in out


def test_kirby_reduce_json(capsys, link_file):
    code, out, _ = run(capsys, "kirby", "reduce", link_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"components": [], "matrix": []}


def test_kirby_search_human(capsys, plumbing_file):
    code, out, _ = run(
        capsys, "kirby", "search", plumbing_file, "--max-link", "1",
        "--max-support", "4",
    )
    assert code == 0
    assert "found 6 hit(s)" in out
    assert "vector (0, 0, 0, 1)" in out


def test_kirby_search_json(capsys, plumbing_file):
    code, out, _ = run(
        capsys, "kirby", "search", plumbing_file, "--max-link", "1",
        "--max-support", "4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    schema = {
        "type": "object",
        "required": ["vertex_order", "max_link", "max_support", "hits"],
        "properties": {
            "vertex_order": {"type": "array", "items": {"type": "string"}},
            "max_link": {"type": "integer"},
            "max_support": {"type": "integer"},
            "hits": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["vector", "trace"],
                },
            },
        },
    }
    jsonschema.validate(data, schema)
    assert data["vertex_order"] == ["c", "a1_1", "a2_1", "a3_1"]
    assert [0, 0, 0, 1] in [h["vector"] for h in data["hits"]]


def test_kirby_search_requires_bounds(capsys, plumbing_file):
    code, _, err = run(capsys, "kirby", "search", plumbing_file)
    assert code == 2


def test_no_arguments_shows_usage(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def _write(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "data",
    [
        {"components": [{"id": "a", "tag": "gray"}], "matrix": 5},
        {"components": [{"id": "a", "tag": "gray"}], "matrix": [5]},
        {"components": [{"id": "a", "tag": "gray"}], "matrix": [[True]]},
        {"components": [{"id": "a", "tag": "gray"}], "matrix": [[1.0]]},
        {"components": [{"id": 1, "tag": "gray"}], "matrix": [[1]]},
        {"components": [{"id": {"x": 1}, "tag": "gray"}], "matrix": [[1]]},
    ],
)
def test_kirby_reduce_rejects_bad_link_json(capsys, tmp_path, data):
    code, out, err = run(capsys, "kirby", "reduce", _write(tmp_path, data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [{"id": "a", "weight": True}], "edges": []},
        {"vertices": [{"id": "a", "weight": False}], "edges": []},
        {"vertices": [{"id": 1, "weight": -1}], "edges": []},
        {"vertices": [{"id": ["a"], "weight": -1}], "edges": []},
        {
            "vertices": [{"id": "1", "weight": -1}, {"id": "2", "weight": -2}],
            "edges": [[1, 2]],
        },
    ],
)
def test_plumbing_invariants_rejects_bool_weights_and_non_string_ids(
    capsys, tmp_path, data
):
    code, out, err = run(capsys, "plumbing", "invariants", _write(tmp_path, data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_one_parser_serves_every_call(capsys, monkeypatch, plumbing_file, link_file):
    """A bad call, then two valid subcommands, in one process print what
    separate processes print."""
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    calls = [
        ["kirby", "search", plumbing_file, "--max-link", "2"],
        ["kirby", "reduce", link_file, "--trace", "--json"],
        ["brieskorn", "2", "3", "7"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(Path(mubar.__file__).parents[1]))
    for argv, got in zip(calls, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "mubar", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == got

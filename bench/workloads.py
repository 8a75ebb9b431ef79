"""The three benchmark workloads: inputs, operations and output checks.

A workload class is built as Workload(seed, workdir): it makes its
inputs from the seed, writing any input files under workdir.  Then

- `per_round` is the number of operations in one round;
- `ops()` is one round, a list of (key, thunk); every round is the same
  list in the same order, so a run is a whole number of identical rounds;
- `check(key, out)` lists the reasons the thunk's value `out` is wrong,
  by the reference computations in reference.py, which share no code
  with mubar (reference values are cached per input, so checking every
  round costs little);
- `expected_trace(outputs)` gives per-round traced totals that one
  round's outputs fix, for the traced run to match.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import lru_cache
from math import gcd
from pathlib import Path

import mubar
from mubar import cli

import reference as ref


@lru_cache(maxsize=None)
def _rokhlin(p, q, r):
    return ref.brieskorn_rokhlin(p, q, r)


class FamilySweep:
    """verify_family for tags A and B, n = 1..N_MAX, in a seeded order."""

    name = "family_sweep"
    N_MAX = 60
    per_round = 2 * N_MAX

    def __init__(self, seed, workdir):
        self.keys = [(tag, n) for tag in "AB" for n in range(1, self.N_MAX + 1)]
        random.Random(seed).shuffle(self.keys)

    def ops(self):
        def op(tag, n):
            return lambda: mubar.verify_family(mubar.FamilyId(tag, n)).to_json_dict()

        return [(key, op(*key)) for key in self.keys]

    def check(self, key, out):
        tag, n = key
        params = ref.family_params(tag, n)
        problems = []
        if (out["family"], out["n"], tuple(out["params"])) != (tag, n, params):
            problems.append("member is %s n=%s %s" % (out["family"], out["n"], out["params"]))
        if out["ok"] is not True or not all(c["passed"] for c in out["checks"]):
            problems.append("verify_family is not ok")
        actual = {c["name"]: c["actual"] for c in out["checks"]}
        if list(actual.get("inertia", ())) != [0, 0, n + 5]:
            problems.append("inertia %r is not (0, 0, %d)" % (actual.get("inertia"), n + 5))
        rk = actual.get("rokhlin", out["observed"].get("rokhlin"))
        want = _rokhlin(*params)
        if rk != want:
            problems.append("rokhlin %r, Brieskorn's formula gives %d" % (rk, want))
        if n % 2 and want != 1:
            problems.append("Brieskorn's formula gives rokhlin %d on odd n" % want)
        return problems

    def expected_trace(self, outputs):
        return {
            "families.verify_family.calls": len(outputs),
            "plumbing.report.calls": len(outputs),
            "plumbing.report.vertices": sum(n + 5 for (_, n), _ in outputs),
        }


def _canonical_size(p, q, r):
    """Vertices of the canonical plumbing: 1 + the continued-fraction lengths.

    Used only to stratify the census sample by size.
    """
    pqr = p * q * r
    size = 1
    for a in (p, q, r):
        b = (-pow(pqr // a, -1, a)) % a
        while b:
            c = -(-a // b)
            a, b = b, c * b - a
            size += 1
    return size


class BrieskornCensus:
    """The pipeline of `mubar brieskorn p q r --json` on a seeded sample.

    SMALL triples come one from each of SMALL equal-count strata of the
    pairwise-coprime 2 <= p < q < r <= R_MAX whose plumbing has at most
    SMALL_MAX_SIZE vertices, ordered by that size, so every seed sees
    the same size histogram (median 15 to 16 vertices).  LONG triples
    Sigma(2, 3, r) have 14, 17, ..., 71 vertices, one long arm each; the
    seed picks r = 6V - 17 or r = 6V - 43, which give the same size V.
    Sizes are fixed because the cost of `report` grows with the cube of
    the size: a seed that moved them would move every timing metric.
    """

    name = "brieskorn_census"
    R_MAX = 60
    SMALL = 180
    SMALL_MAX_SIZE = 30
    LONG_SIZES = tuple(range(14, 72, 3))
    per_round = SMALL + len(LONG_SIZES)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        pool = sorted(
            (size, p, q, r)
            for p in range(2, self.R_MAX + 1)
            for q in range(p + 1, self.R_MAX + 1)
            if gcd(p, q) == 1
            for r in range(q + 1, self.R_MAX + 1)
            if gcd(p, r) == 1 and gcd(q, r) == 1
            for size in [_canonical_size(p, q, r)]
            if size <= self.SMALL_MAX_SIZE
        )
        cut = [len(pool) * i // self.SMALL for i in range(self.SMALL + 1)]
        triples = [rng.choice(pool[a:b])[1:] for a, b in zip(cut, cut[1:])]
        triples += [(2, 3, rng.choice((6 * v - 17, 6 * v - 43))) for v in self.LONG_SIZES]
        rng.shuffle(triples)
        self.keys = triples

    def ops(self):
        def op(p, q, r):
            def run():
                s = mubar.brieskorn_seifert(p, q, r)
                g = mubar.canonical_plumbing(s)
                out = mubar.report(g).to_json_dict()
                out["seifert"] = {
                    "e0": s.e0,
                    "cone_pairs": [list(pair) for pair in s.cone_pairs],
                }
                back = mubar.plumbing_to_seifert(g)
                out["round_trip"] = {
                    "e0": back.e0,
                    "cone_pairs": [list(pair) for pair in back.cone_pairs],
                }
                out["round_trip_isomorphic"] = mubar.plumbings_isomorphic(
                    g, mubar.canonical_plumbing(back)
                )
                out["vertices"] = g.n_vertices
                return out

            return run

        return [(key, op(*key)) for key in self.keys]

    def check(self, key, out):
        p, q, r = key
        seif = out["seifert"]
        problems = ref.seifert_problems(
            p, q, r, seif["e0"], [tuple(x) for x in seif["cone_pairs"]]
        )
        if out["round_trip"] != seif or out["round_trip_isomorphic"] is not True:
            problems.append("plumbing_to_seifert does not invert canonical_plumbing")
        if abs(out["det"]) != 1:
            problems.append("det %d is not +-1" % out["det"])
        if out["inertia"] != [0, 0, out["vertices"]]:
            problems.append("inertia %r is not negative definite" % (out["inertia"],))
        if out.get("mu_bar", 1) % 8:
            problems.append("mu_bar %r is not 0 mod 8" % (out.get("mu_bar"),))
        want = _rokhlin(p, q, r)
        if out.get("rokhlin") != want:
            problems.append("rokhlin %r, Brieskorn's formula gives %d" % (out.get("rokhlin"), want))
        return problems

    def expected_trace(self, outputs):
        return {
            "plumbing.report.calls": len(outputs),
            "plumbing.report.vertices": sum(out["vertices"] for _, out in outputs),
        }


# The curve that survives the iteration on both n = 1 plumbings, and the
# gray component it unlinks from at every step (the middle of the
# three-vertex arm, whose weight -(n+1) tracks n).
SURVIVOR = (0, 0, 0, 1, 0, -1)
ITERATION_TARGET = 3
SEARCH_BOXES = ((2, 4), (3, 4))
ITERATE_DEFAULT_BOX = (2, 4)  # what `family verify --iterate` searches


@lru_cache(maxsize=None)
def _hits(tag, max_link, max_support):
    rows = ref.star_matrix(-1, ref.FAMILY1_ARMS[tag])
    return tuple(ref.enumerate_hits(rows, max_link, max_support))


@lru_cache(maxsize=None)
def _reduction(rows):
    """The plain reduction of a matrix given as a tuple of tuples."""
    return ref.plain_reduction(rows)


def _frozen(rows):
    return tuple(map(tuple, rows))


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class KirbyReplay:
    """In-process `mubar` CLI calls that replay the Kirby argument.

    Per round, for A and B: `kirby search --json` on the n = 1 plumbing
    at both SEARCH_BOXES; `family verify T --n-max 1 --iterate K --json`
    for each K in ITERATE_STEPS; `kirby reduce --trace --json` on the
    diagram of every hit at (2, 4) and on the diagram after k iteration
    steps for each k in DIAGRAM_STEPS.  The cost of these operations
    spans three orders of magnitude and shifts steeply with K and k, so
    they are fixed and the seed only sets their order: seeded bands of
    width three around them moved op_p50_ms by up to a quarter.
    """

    name = "kirby_replay"
    ITERATE_STEPS = (9, 20, 30, 44)
    # Four short replays per tag join the 14 hit diagrams in a cluster of
    # 22 operations of 2 to 4 ms, so op_p50_ms falls inside a cluster
    # rather than on a steep step between neighbouring latencies.
    DIAGRAM_STEPS = (1, 2, 3, 4, 15, 27, 39)
    # 6 + 8 hits at (2, 4) on A1 and B1
    per_round = 2 * (len(SEARCH_BOXES) + len(ITERATE_STEPS) + len(DIAGRAM_STEPS)) + 14

    def __init__(self, seed, workdir):
        workdir = Path(workdir)
        self.rows = {}
        self.diagrams = {}
        keys = []
        for tag in "AB":
            rows = ref.star_matrix(-1, ref.FAMILY1_ARMS[tag])
            self.rows[tag] = rows
            plumbing = ref.star_json(-1, ref.FAMILY1_ARMS[tag])
            path = workdir / ("%s1.json" % tag)
            path.write_text(json.dumps(plumbing))
            keys += [("search", tag, L, S, str(path)) for L, S in SEARCH_BOXES]
            keys += [("iterate", tag, K) for K in self.ITERATE_STEPS]
            ids = [v["id"] for v in plumbing["vertices"]]
            for i, vec in enumerate(_hits(tag, *ITERATE_DEFAULT_BOX)):
                keys.append(self._diagram(workdir, "%s_hit%d" % (tag, i), ids,
                                          ref.bordered(rows, vec, -1)))
            if SURVIVOR not in _hits(tag, *ITERATE_DEFAULT_BOX):
                raise RuntimeError("the iteration's curve is not a hit on %s1" % tag)
            diagram = ref.bordered(rows, SURVIVOR, -1)
            for k in range(1, max(self.DIAGRAM_STEPS) + 1):
                diagram = ref.unlink_step(diagram, len(diagram) - 1, ITERATION_TARGET)
                if k in self.DIAGRAM_STEPS:
                    keys.append(self._diagram(workdir, "%s_step%d" % (tag, k), ids, diagram))
        random.Random(seed).shuffle(keys)
        if len(keys) != self.per_round:
            raise RuntimeError("a round has %d operations, not %d" % (len(keys), self.per_round))
        self.keys = keys

    def _diagram(self, workdir, name, ids, rows):
        """Write a link JSON: gray plumbing components, the last one black."""
        ids = ids + ["k%d" % i for i in range(len(ids), len(rows))]
        comps = [{"id": cid, "tag": "gray"} for cid in ids]
        comps[-1]["tag"] = "black"
        path = workdir / ("%s.json" % name)
        path.write_text(json.dumps({"components": comps, "matrix": rows}))
        self.diagrams[name] = (ids, rows)
        return ("reduce", name, str(path))

    def ops(self):
        def op(key):
            if key[0] == "search":
                _, _, L, S, path = key
                argv = ["kirby", "search", path, "--max-link", str(L),
                        "--max-support", str(S), "--json"]
            elif key[0] == "iterate":
                argv = ["family", "verify", key[1], "--n-max", "1",
                        "--iterate", str(key[2]), "--json"]
            else:
                argv = ["kirby", "reduce", key[2], "--trace", "--json"]
            return lambda: _cli(argv)

        return [(key, op(key)) for key in self.keys]

    def check(self, key, out):
        code, text = out
        if code != 0:
            return ["exit code %d" % code]
        data = json.loads(text)
        if key[0] == "search":
            return self._check_search(key, data)
        if key[0] == "iterate":
            return self._check_iterate(key, data)
        return self._check_reduce(key, data)

    def _check_search(self, key, data):
        _, tag, L, S, _ = key
        rows = self.rows[tag]
        problems = []
        vectors = [tuple(h["vector"]) for h in data["hits"]]
        for h, v in zip(data["hits"], vectors):
            if not ref.in_box(v, L, S):
                problems.append("hit %r lies outside the (%d, %d) box" % (v, L, S))
                continue
            if ref.dual_value(rows, v) != -1:
                problems.append("hit %r has v^T M^-1 v != -1" % (v,))
            terminal, steps = _reduction(_frozen(ref.bordered(rows, v, -1)))
            if terminal != [[0]]:
                problems.append("hit %r does not reduce to [[0]]" % (v,))
            if [s["matrix_after"] for s in h["trace"]] != [m for _, m in steps]:
                problems.append("trace of hit %r differs from the plain reduction" % (v,))
        if vectors != list(_hits(tag, L, S)):
            problems.append("hits on %s1 at (%d, %d) differ from the dual-form enumeration" % (tag, L, S))
        return problems

    def _check_iterate(self, key, data):
        _, tag, K = key
        problems = []
        if data["ok"] is not True or not data["records"] or data["records"][0]["ok"] is not True:
            problems.append("family verify is not ok")
        it = data["iteration"]
        candidates = [tuple(v) for v in it["candidates"]]
        survivors = [tuple(v) for v in it["survivors"]]
        if candidates != list(_hits(tag, *ITERATE_DEFAULT_BOX)):
            problems.append("candidates differ from the dual-form enumeration")
        if not survivors or not set(survivors) <= set(candidates):
            problems.append("survivors %r are not a non-empty subset of the candidates" % (survivors,))
        records = it["step_records"]
        if it["steps"] != K or len(records) != K:
            problems.append("%d step records for %d steps" % (len(records), K))
        for k, rec in enumerate(records, start=1):
            if (rec["step"], rec["n"], rec["signature"]) != (k, 1 + k, -6 - k):
                problems.append(
                    "step %d record has n=%r signature=%r, want n=%d signature=%d"
                    % (k, rec["n"], rec["signature"], 1 + k, -6 - k)
                )
                break
        return problems

    def _check_reduce(self, key, data):
        ids, rows = self.diagrams[key[1]]
        terminal, steps = _reduction(_frozen(rows))
        problems = []
        if terminal != [[0]]:
            problems.append("the plain reduction of %s ends at %r" % (key[1], terminal))
        if data["matrix"] != terminal:
            problems.append("terminal %r, the plain reduction gives %r" % (data["matrix"], terminal))
        trace = [(s["component"], s["matrix_after"]) for s in data["trace"]]
        if trace != [(ids[i], m) for i, m in steps]:
            problems.append("trace of %s differs from the plain reduction" % key[1])
        return problems

    def expected_trace(self, outputs):
        candidates = hits = 0
        for key, (code, text) in outputs:
            if key[0] == "search":
                candidates += ref.box_size(len(self.rows[key[1]]), key[2], key[3])
                hits += len(json.loads(text)["hits"])
            elif key[0] == "iterate":
                candidates += ref.box_size(len(self.rows[key[1]]), *ITERATE_DEFAULT_BOX)
                hits += len(json.loads(text)["iteration"]["candidates"])
        return {
            "kirby.surgery_search.candidates": candidates,
            "kirby.surgery_search.hits": hits,
        }


WORKLOADS = {w.name: w for w in (FamilySweep, BrieskornCensus, KirbyReplay)}

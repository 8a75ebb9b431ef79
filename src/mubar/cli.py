"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed, 2 usage or
input error.  Every subcommand prints valid JSON when --json is
passed; output is deterministic (no timestamps, no environment
dependence).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import families, kirby, plumbing, seifert


class InputError(Exception):
    """Bad user input: file, JSON shape or argument values."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from None


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=False))


# report builds the dense n x n intersection matrix only for plumbings
# with a cycle; at 2000 vertices that takes 1.5 s and 46 MB, and both
# grow as n^2, so 4000 vertices is about 6 s and 190 MB.  Larger
# plumbings with a cycle are refused before the matrix is built.  Trees
# take report's O(n) leaf-elimination pass and are never refused.
MAX_REPORT_VERTICES = 4000

# family verify checks members 1..N, each O(n) to O(n log n) in its
# n + 5 vertices, so the run grows as N^2: on one core of a shared
# 2-core host, N = 1000 takes about 2.8 s and N = 2000 about 8.4 s,
# and N = 4000 would take over half a minute.  Larger N is refused.
MAX_FAMILY_N = 2000


def _report(g: plumbing.PlumbingGraph) -> plumbing.InvariantReport:
    if not g.is_tree and g.n_vertices > MAX_REPORT_VERTICES:
        raise InputError(
            "plumbing has a cycle and %d vertices; invariants of such"
            " plumbings are computed for at most %d vertices"
            % (g.n_vertices, MAX_REPORT_VERTICES)
        )
    return plumbing.report(g)


def _report_lines(rep: plumbing.InvariantReport) -> List[str]:
    lines = [
        "det = %d" % rep.det,
        "inertia = (%d, %d, %d)" % rep.inertia,
        "signature = %d" % (rep.inertia[0] - rep.inertia[2]),
    ]
    if rep.wu is not None:
        lines.append("wu = (%s)" % ", ".join(str(x) for x in rep.wu))
        lines.append("wu_square = %d" % rep.wu_square)
        lines.append("mu_bar = %d" % rep.mu_bar)
    else:
        lines.append("wu undefined (even determinant)")
    if rep.rokhlin is not None:
        lines.append("rokhlin = %d" % rep.rokhlin)
    return lines


def _cmd_brieskorn(args) -> int:
    try:
        data = seifert.brieskorn_seifert(args.p, args.q, args.r)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    g = seifert.canonical_plumbing(data)
    if args.plumbing:
        if args.dot:
            sys.stdout.write(plumbing.to_dot(g))
        else:
            _print_json(plumbing.to_json_dict(g))
        return 0
    if args.dot:
        raise InputError("--dot only applies to --plumbing output")
    rep = _report(g)
    if args.invariants or args.json:
        out = rep.to_json_dict()
        out["seifert"] = {
            "e0": data.e0,
            "cone_pairs": [list(p) for p in data.cone_pairs],
        }
        _print_json(out)
        return 0
    print("Sigma(%d, %d, %d)" % (args.p, args.q, args.r))
    print(
        "seifert: e0 = %d, pairs: %s"
        % (data.e0, " ".join("(%d, %d)" % p for p in data.cone_pairs))
    )
    arms = [
        "[%s]" % ", ".join(str(-c) for c in seifert.neg_continued_fraction(a, b))
        for a, b in data.cone_pairs
    ]
    print("plumbing: center %d; arms: %s" % (data.e0, " ".join(arms)))
    for line in _report_lines(rep):
        print(line)
    return 0


def _cmd_plumbing_invariants(args) -> int:
    try:
        g = plumbing.from_json_dict(_load_json(args.file))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    rep = _report(g)
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        for line in _report_lines(rep):
            print(line)
    return 0


def _cmd_family_verify(args) -> int:
    if not 1 <= args.n_max <= MAX_FAMILY_N:
        raise InputError("--n-max must be between 1 and %d" % MAX_FAMILY_N)
    if args.iterate is not None and args.iterate < 1:
        raise InputError("--iterate must be >= 1")
    records = [
        families.verify_family(families.FamilyId(args.family, n))
        for n in range(1, args.n_max + 1)
    ]
    iteration = None
    if args.iterate is not None:
        iteration = families.verify_iteration(
            families.FamilyId(args.family, 1), args.iterate
        )
    ok = all(r.ok for r in records) and (iteration is None or iteration.ok)
    if args.json:
        out = {
            "family": args.family,
            "records": [r.to_json_dict() for r in records],
            "ok": ok,
        }
        if iteration is not None:
            out["iteration"] = iteration.to_json_dict()
        _print_json(out)
    else:
        for r in records:
            line = "family %s n=%-3d Sigma(%d, %d, %d): %s" % (
                r.family,
                r.n,
                *r.params,
                "ok" if r.ok else "FAIL",
            )
            failing = [c.name for c in r.checks if not c.passed]
            if failing:
                line += "  failed: %s" % ", ".join(failing)
            print(line)
        if iteration is not None:
            print(
                "iteration %s steps=%d: %d candidate(s), %d survivor(s)%s"
                % (
                    iteration.family,
                    iteration.steps,
                    len(iteration.candidates),
                    len(iteration.survivors),
                    "" if iteration.ok else "  NO CANDIDATE",
                )
            )
        print("result: %s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_kirby_reduce(args) -> int:
    try:
        link = kirby.FramedLinkMatrix.from_json_dict(_load_json(args.file))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    terminal, trace = kirby.reduce_with_trace(link)
    if args.json:
        out = terminal.to_json_dict()
        if args.trace:
            out["trace"] = trace
        _print_json(out)
        return 0
    if terminal.dim == 0:
        print("terminal diagram: empty")
    else:
        print(
            "terminal diagram: %d component(s): %s"
            % (terminal.dim, ", ".join(terminal.ids))
        )
        for row in terminal.matrix.to_lists():
            print("  " + " ".join("%d" % x for x in row))
    if args.trace:
        for step in trace:
            print(
                "%s %s -> %s"
                % (step["move"], step["component"], step["matrix_after"])
            )
    return 0


def _cmd_kirby_search(args) -> int:
    try:
        g = plumbing.from_json_dict(_load_json(args.file))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if args.max_link < 1 or args.max_support < 1:
        raise InputError("--max-link and --max-support must be >= 1")
    hits = kirby.surgery_search(g, args.max_link, args.max_support)
    if args.json:
        _print_json(
            {
                "vertex_order": list(g.vertex_ids),
                "max_link": args.max_link,
                "max_support": args.max_support,
                "hits": [
                    {"vector": list(h.vector), "trace": h.trace} for h in hits
                ],
            }
        )
        return 0
    print("searched %d vertices, found %d hit(s)" % (g.n_vertices, len(hits)))
    for h in hits:
        print(
            "vector (%s): reduced in %d blow-down(s)"
            % (", ".join(str(x) for x in h.vector), len(h.trace))
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubar",
        description=(
            "Exact Seifert, plumbing and Kirby-calculus invariants of "
            "Brieskorn homology spheres."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser(
        "brieskorn",
        help="Seifert data, canonical plumbing and invariants of Sigma(p, q, r)",
    )
    b.add_argument("p", type=int)
    b.add_argument("q", type=int)
    b.add_argument("r", type=int)
    what = b.add_mutually_exclusive_group()
    what.add_argument(
        "--plumbing", action="store_true", help="emit the canonical plumbing"
    )
    what.add_argument(
        "--invariants", action="store_true", help="emit the invariant report"
    )
    fmt = b.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true")
    b.set_defaults(func=_cmd_brieskorn)

    p = sub.add_parser("plumbing", help="operate on a plumbing JSON file")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pi = psub.add_parser("invariants", help="invariant report of a plumbing")
    pi.add_argument("file")
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(func=_cmd_plumbing_invariants)

    f = sub.add_parser("family", help="verify the plumbing families")
    fsub = f.add_subparsers(dest="subcommand", required=True)
    fv = fsub.add_parser("verify", help="verify family members 1..N")
    fv.add_argument("family", choices=["A", "B"])
    fv.add_argument("--n-max", type=int, required=True, metavar="N")
    fv.add_argument(
        "--iterate",
        type=int,
        metavar="K",
        help="also run the K-step Kirby iteration from n = 1",
    )
    fv.add_argument("--json", action="store_true")
    fv.set_defaults(func=_cmd_family_verify)

    k = sub.add_parser("kirby", help="homology-level Kirby moves")
    ksub = k.add_subparsers(dest="subcommand", required=True)
    kr = ksub.add_parser("reduce", help="greedy blow-down reduction")
    kr.add_argument("file", help="framed link JSON file")
    kr.add_argument("--trace", action="store_true")
    kr.add_argument("--json", action="store_true")
    kr.set_defaults(func=_cmd_kirby_reduce)
    ks = ksub.add_parser("search", help="search for -1-framed surgery curves")
    ks.add_argument("file", help="plumbing JSON file")
    ks.add_argument("--max-link", type=int, required=True, metavar="L")
    ks.add_argument("--max-support", type=int, required=True, metavar="S")
    ks.add_argument("--json", action="store_true")
    ks.set_defaults(func=_cmd_kirby_search)

    return parser


# built on the first call of main; parse_args leaves the parser unchanged,
# so one parser serves every call in the process
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

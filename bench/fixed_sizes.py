"""Time single calls of mubar at fixed sizes, for reference only.

    python3 bench/fixed_sizes.py

Each line is one call, timed once with time.perf_counter, after the
inputs are built and one small untimed report call.  These sizes are far
outside the benchmark's rounds and bounds; the figures show where the
time goes as sizes grow, nothing more.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mubar import (  # noqa: E402
    FamilyId,
    brieskorn_seifert,
    canonical_plumbing,
    determinant,
    family_plumbing,
    inertia,
    intersection_matrix,
    report,
    surgery_search,
    verify_iteration,
)


def main():
    a400 = family_plumbing(FamilyId("A", 400))
    m400 = intersection_matrix(a400)
    a1 = family_plumbing(FamilyId("A", 1))
    g2999 = canonical_plumbing(brieskorn_seifert(2, 3, 2999))
    report(family_plumbing(FamilyId("A", 10)))
    cases = [
        ("determinant, family A n=400", lambda: determinant(m400)),
        ("inertia, family A n=400", lambda: inertia(m400)),
        ("report, family A n=400", lambda: report(a400)),
        ("report, family A n=200", lambda: report(family_plumbing(FamilyId("A", 200)))),
        ("surgery_search(A1, 2, 4)", lambda: surgery_search(a1, 2, 4)),
        ("surgery_search(A1, 3, 5)", lambda: surgery_search(a1, 3, 5)),
        ("verify_iteration(A, 9)", lambda: verify_iteration(FamilyId("A", 1), 9)),
        ("verify_iteration(A, 30)", lambda: verify_iteration(FamilyId("A", 1), 30)),
        ("verify_iteration(A, 45)", lambda: verify_iteration(FamilyId("A", 1), 45)),
        ("report, Sigma(2, 3, 2999) (%d vertices)" % g2999.n_vertices,
         lambda: report(g2999)),
    ]
    print("Python %s" % sys.version.split()[0])
    for name, call in cases:
        t0 = time.perf_counter()
        call()
        print("%-44s %8.3f s" % (name, time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    main()

"""Two families of Brieskorn spheres presented by one-parameter plumbings.

Family A is Sigma(2, 4n+1, 12n+5), family B is Sigma(3, 3n+1, 12n+5),
n >= 1.  Both are boundaries of star-shaped negative-definite
plumbings on 5 + n vertices: a central -1 vertex, a single-vertex arm,
a three-vertex arm whose middle weight is -(n+1), and a chain arm that
grows with n.  verify_family checks the plumbing against the Seifert
oracle and the invariant profile; verify_iteration drives the Kirby
iteration that produces the (n+1)-st plumbing from the n-th.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from .kirby import (
    BLACK,
    GRAY,
    AmbiguousTarget,
    FramedLinkMatrix,
    NotLinked,
    family_step,
    gray_plumbing,
    reduce,
    surgery_search,
)
from .lattice import inertia, signature
from .plumbing import PlumbingGraph, report, star
from .seifert import brieskorn_seifert, canonical_plumbing, plumbings_isomorphic

FAMILY_TAGS = ("A", "B")


@dataclass(frozen=True)
class FamilyId:
    """One member of family A or B."""

    tag: str
    n: int

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError("family tag must be 'A' or 'B', got %r" % (self.tag,))
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be an integer >= 1")


def brieskorn_params(f: FamilyId) -> Tuple[int, int, int]:
    """Multiplicities (p, q, r) of the member Sigma(p, q, r)."""
    if f.tag == "A":
        p, q, r = 2, 4 * f.n + 1, 12 * f.n + 5
    else:
        p, q, r = 3, 3 * f.n + 1, 12 * f.n + 5
    # pairwise coprime for every n by construction
    assert gcd(p, q) == 1 and gcd(p, r) == 1 and gcd(q, r) == 1
    return (p, q, r)


def family_plumbing(f: FamilyId) -> PlumbingGraph:
    """The 5 + n vertex plumbing of the member.

    Center -1; arms (in order): the single vertex, the three-vertex
    arm with middle weight -(n+1), and the chain arm of length n.
    """
    n = f.n
    if f.tag == "A":
        single = [-2]
        triple = [-4, -(n + 1), -3]
        chain = [-5] + [-2] * (n - 1)
    else:
        single = [-3]
        triple = [-3, -(n + 1), -4]
        chain = [-4] + [-2] * (n - 1)
    return star(-1, [single, triple, chain])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: object
    actual: object

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True)
class FamilyVerification:
    """Invariant profile of one family member, checked where expected.

    For odd n the wu_square / mu_bar / rokhlin values are asserted
    (-13-n, 8, 1); for even n they are only observed, never asserted.
    """

    family: str
    n: int
    params: Tuple[int, int, int]
    checks: Tuple[CheckResult, ...]
    observed: Tuple[Tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "params": list(self.params),
            "checks": [c.to_json_dict() for c in self.checks],
            "observed": {k: v for k, v in self.observed},
            "ok": self.ok,
        }


def verify_family(f: FamilyId) -> FamilyVerification:
    """Check one member against the Seifert oracle and its invariants."""
    g = family_plumbing(f)
    oracle = canonical_plumbing(brieskorn_seifert(*brieskorn_params(f)))
    rep = report(g)
    iso = plumbings_isomorphic(g, oracle)
    checks: List[CheckResult] = [
        CheckResult("matches_seifert_plumbing", iso, True, iso),
        CheckResult(
            "inertia",
            rep.inertia == (0, 0, 5 + f.n),
            (0, 0, 5 + f.n),
            rep.inertia,
        ),
        CheckResult("unimodular", abs(rep.det) == 1, 1, abs(rep.det)),
    ]
    observed: List[Tuple[str, int]] = []
    if f.n % 2 == 1:
        checks.append(
            CheckResult(
                "wu_square",
                rep.wu_square == -13 - f.n,
                -13 - f.n,
                rep.wu_square,
            )
        )
        checks.append(CheckResult("mu_bar", rep.mu_bar == 8, 8, rep.mu_bar))
        checks.append(CheckResult("rokhlin", rep.rokhlin == 1, 1, rep.rokhlin))
    else:
        observed.append(("wu_square", rep.wu_square))
        observed.append(("mu_bar", rep.mu_bar))
        if rep.rokhlin is not None:
            observed.append(("rokhlin", rep.rokhlin))
    return FamilyVerification(
        family=f.tag,
        n=f.n,
        params=brieskorn_params(f),
        checks=tuple(checks),
        observed=tuple(observed),
    )


@dataclass
class IterationVerification:
    """Outcome of propagating searched candidates through the iteration.

    candidates are all search hits on the n = 1 plumbing; survivors are
    those whose diagram passes every step check (gray part isomorphic
    to the n = 1+k member, determinant still 0, signature one lower,
    reduction to [[0]]) for all requested steps.  step_records documents
    the first survivor: at each step, the branch count and the values
    the step checks computed on the first successor.  no_candidate is
    the reported, non-fatal flag for an empty survivor list.
    """

    family: str
    steps: int
    max_link: int
    max_support: int
    candidates: Tuple[Tuple[int, ...], ...]
    survivors: Tuple[Tuple[int, ...], ...]
    step_records: Tuple[dict, ...]
    no_candidate: bool

    @property
    def ok(self) -> bool:
        return not self.no_candidate

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "steps": self.steps,
            "max_link": self.max_link,
            "max_support": self.max_support,
            "candidates": [list(v) for v in self.candidates],
            "survivors": [list(v) for v in self.survivors],
            "step_records": list(self.step_records),
            "no_candidate": self.no_candidate,
            "ok": self.ok,
        }


def _black_index(link: FramedLinkMatrix) -> int:
    return next(
        i for i, c in enumerate(link.components) if c.tag == BLACK
    )


def _step_once(link: FramedLinkMatrix, want: PlumbingGraph, sig_before: int):
    """All one-step successors whose full profile matches the next member.

    sig_before is the signature of link.  Each successor comes with the
    values its checks computed, under the names of the step record.
    """
    b = _black_index(link)
    out = []
    for t in range(link.dim):
        if link.components[t].tag != GRAY or link.linking(b, t) < 1:
            continue
        try:
            nxt = family_step(link, target=t)
        except (NotLinked, AmbiguousTarget, ValueError):
            continue
        try:
            gp = gray_plumbing(nxt)
            iso = plumbings_isomorphic(gp, want)
        except ValueError:
            # gray part is not a connected plumbing tree: dead branch
            continue
        if not iso:
            continue
        n_plus, n_zero, n_minus = inertia(nxt.matrix)
        # det is 0 exactly when the form has a radical
        if not n_zero or n_plus - n_minus != sig_before - 1:
            continue
        checks = {
            "gray_isomorphic": iso,
            "det": 0,
            "signature": n_plus - n_minus,
        }
        terminal = reduce(nxt)
        checks["reduces_to_zero_framed"] = (
            terminal.dim == 1 and terminal.framing(0) == 0
        )
        if not checks["reduces_to_zero_framed"]:
            continue
        out.append((nxt, checks))
    return out


def verify_iteration(
    f: FamilyId,
    steps: int,
    max_link: int = 2,
    max_support: int = 4,
) -> IterationVerification:
    """Search the n = 1 plumbing for surgery curves and iterate them.

    Every hit of surgery_search is augmented onto the n = 1 plumbing
    and pushed through `steps` applications of family_step, branching
    over the gray components the black curve links and keeping the
    branches whose gray part is isomorphic to family_plumbing(1 + k)
    with determinant 0, signature dropped by exactly 1 and a reduction
    terminating at the single 0-framed component.
    """
    if f.n != 1:
        raise ValueError("iteration starts at n = 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    g1 = family_plumbing(f)
    base = FramedLinkMatrix.from_plumbing(g1)
    hits = surgery_search(g1, max_link, max_support)
    targets = [
        family_plumbing(FamilyId(f.tag, 1 + k)) for k in range(1, steps + 1)
    ]
    survivors: List[Tuple[int, ...]] = []
    first_records: Tuple[dict, ...] = ()
    for hit in hits:
        start = base.augmented(hit.vector, -1)
        states = [(start, signature(start.matrix))]
        records: List[dict] = []
        for k in range(1, steps + 1):
            nxt = []
            for state, sig in states:
                nxt.extend(_step_once(state, targets[k - 1], sig))
            if not nxt:
                records = []
                break
            records.append(
                {
                    "step": k,
                    "n": 1 + k,
                    "gray_vertices": 5 + 1 + k,
                    **nxt[0][1],
                    "branches": len(nxt),
                }
            )
            states = [(state, checks["signature"]) for state, checks in nxt]
        if records:
            survivors.append(hit.vector)
            if not first_records:
                first_records = tuple(records)
    return IterationVerification(
        family=f.tag,
        steps=steps,
        max_link=max_link,
        max_support=max_support,
        candidates=tuple(h.vector for h in hits),
        survivors=tuple(survivors),
        step_records=first_records,
        no_candidate=not survivors,
    )

"""Executable property suites: structural laws and classification theorems.

Each suite runs over a deterministic corpus (glued families, boundary
spheres, seeded random pure complexes) and returns a report listing every
counterexample with the complex that produced it, so the CLI can serialize
failures for replay.  `link_laws` (with its join cases) and the pinned
`paper_fixtures` have loops of their own; the other six are checks of one
complex each, run over the corpus by `_per_item`.  `link_laws`,
`link_recursion` and `k_link_recursion` fail when the link or the
restriction kernel drops a facet; `deletion_theorem` meets only the pure
items with at most two facets, the only ones with an admissible removal
set among their facet subsets; `criteria_equivalence` and `monotonicity`
hold by construction (every criterion and t read one int per link, k = 1
and 2 one k-CM_t search), so they can catch no fault in the deciders.

Those three take their links, and `link_laws` its restrictions, as
facet-mask tuples from core's kernels `_link` and `_restrict` (which
`SimplicialComplex.link` and `.restrict` wrap): a complex and all that is
derived from it share one label table, so equal tuples are equal
complexes.  `link_laws` builds each link and restriction of an item once,
in tables keyed on face masks, and per check the link of a link, the link
of a restriction and the restriction of a link, and a `Face` only for a
failure message.  `link_recursion` reads each vertex link's min_t once,
and `k_link_recursion` every t of a link from one k-CM_t search (`_k_cm`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from . import core
from ._record import FrozenRecord, Record
from .classify import (
    CRITERIA,
    _max_k_at,
    _max_k_up_to,
    _min_t,
    is_cm,
    is_cm_t,
    is_k_cm_t_unbounded,
    is_pure,
    min_t,
)
from .core import Face, SimplicialComplex, _bits, _face_masks
from .fields import GF2, FieldSpec
from .generators import (
    GluedFamilySpec,
    boundary_simplex,
    glued_simplices,
    miyazaki_example,
    random_pure,
)

DEFAULT_SEED_BASE = 101

CorpusItem = tuple[str, SimplicialComplex]


class CaseFailure(FrozenRecord):
    __slots__ = _fields = ("suite", "case", "complex")

    def __init__(self, suite: str, case: str, complex: SimplicialComplex | None = None):
        self._assign(suite, case, complex)

    def to_json(self) -> dict:
        return {"suite": self.suite, "case": self.case}


class SuiteReport(Record):
    __slots__ = _fields = ("suite", "cases", "failures")

    def __init__(self, suite: str, cases: int = 0, failures: list[CaseFailure] | None = None):
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
        }


# -- corpus ------------------------------------------------------------------

def glued_fixture_grid() -> list[CorpusItem]:
    """Pairs of (d-1)-simplices sharing a (t-2)-face, 2<=d<=5, 1<=t<=d-1,
    plus a three-member family with pairwise vertex overlaps."""
    items = []
    for d in range(2, 6):
        for t in range(1, d):
            cx = glued_simplices(GluedFamilySpec.uniform(d, 2, t - 2))
            items.append((f"glued-d{d}-t{t}", cx))
    items.append(("glued-d4-m3-o0", glued_simplices(GluedFamilySpec.uniform(4, 3, 0))))
    return items


def boundary_corpus(max_n: int = 6) -> list[CorpusItem]:
    return [(f"boundary-{n}", boundary_simplex(n)) for n in range(2, min(max_n, 6) + 1)]


_RANDOM_GRID = ((5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (7, 4))
_DENSITIES = (0.45, 0.6, 0.8)


def random_corpus(count: int, max_n: int = 7,
                  seed_base: int = DEFAULT_SEED_BASE) -> list[CorpusItem]:
    grid = [(n, d) for n, d in _RANDOM_GRID if n <= max_n] or [(max_n, min(2, max_n))]
    items = []
    for i in range(count):
        n, d = grid[i % len(grid)]
        density = _DENSITIES[(i // len(grid)) % len(_DENSITIES)]
        seed = seed_base + i
        items.append((f"random-n{n}-d{d}-p{density}-s{seed}",
                      random_pure(n, d, density, seed)))
    return items


def build_corpus(max_n: int = 7, seeds: int = 20,
                 seed_base: int = DEFAULT_SEED_BASE) -> list[CorpusItem]:
    """Verification corpus: glued fixtures always, the rest sized by max_n."""
    return (glued_fixture_grid()
            + boundary_corpus(max_n)
            + random_corpus(seeds, max_n=max_n, seed_base=seed_base))


def acceptance_corpus() -> list[CorpusItem]:
    """The pinned corpus: glued fixtures, 50 seeded random complexes with
    at most 7 vertices, and boundary spheres up to 6 vertices."""
    return (glued_fixture_grid()
            + random_corpus(50, max_n=7, seed_base=DEFAULT_SEED_BASE)
            + boundary_corpus(6))


# -- helpers -----------------------------------------------------------------

def _report(suite: str, cases: int, failures: list[CaseFailure]) -> SuiteReport:
    return SuiteReport(suite, cases, sorted(failures, key=lambda f: f.case))


def _sampled(seq, cap: int):
    if len(seq) <= cap:
        return seq
    stride = -(-len(seq) // cap)
    return seq[::stride]


def _built(table: dict[int, tuple[int, ...]], build: Callable[..., tuple[int, ...]],
           masks: tuple[int, ...], key: int) -> tuple[int, ...]:
    """build(masks, key), made once per table: a table lives for one corpus item."""
    got = table.get(key)
    if got is None:
        got = table[key] = build(masks, key)
    return got


def _k_cm(masks: tuple[int, ...], k: int, field: FieldSpec) -> Callable[[int], bool]:
    """is_k_cm_t_unbounded(., k, ., field) on facet masks, from one search run at the first call."""
    ks: list[int] = []

    def at(t: int) -> bool:
        ks[:] = ks or _max_k_up_to(masks, field, k)
        return ks[min(max(t, 0), len(ks) - 1)] == k
    return at


# -- structural laws -----------------------------------------------------------

def suite_link_laws(corpus: Iterable[CorpusItem], field: FieldSpec = GF2) -> SuiteReport:
    """The two link laws the paper's proofs use, and the join laws.

    For each item and sampled face sigma: lk_{lk sigma}(tau) = lk(sigma u tau)
    for sampled tau, and restricting to V minus W commutes with the link at
    sigma for a few small W outside sigma (how k-CM_t reduces to CM_t of the
    deletions and of the links).  Then, over eight consecutive triples: the
    join's dimension formula, {<>} as its identity, and associativity.
    The skeleton, ``from_facets`` and ``delete_cofaces`` identities are left
    to ``tests/test_properties.py`` (``TestSkeletonLaws``, ``TestConstructors``).
    """
    items = list(corpus)
    fails: list[CaseFailure] = []

    def bad(case: str, where: SimplicialComplex):
        fails.append(CaseFailure("link_laws", case, where))

    link, restrict = core._link, core._restrict  # read here, so a test can patch them
    for name, cx in items:
        masks, support = cx.masks, cx.support_mask
        links: dict[int, tuple[int, ...]] = {}  # face mask -> the facet masks of its link
        restrictions: dict[int, tuple[int, ...]] = {}  # kept mask -> those of the restriction
        # the link of the empty face is cx itself: nothing to check there
        for s in _sampled(_face_masks(masks)[1:], 24):
            lk = _built(links, link, masks, s)
            for t in _sampled(_face_masks(lk), 8):
                if link(lk, t) != _built(links, link, masks, s | t):
                    bad(f"{name}: link-of-link fails at {Face.from_mask(s)}, "
                        f"{Face.from_mask(t)}", cx)
            bits = [1 << v for v in _bits(support & ~s)[:4]]  # W: 4 vertices, then 2 pairs
            for w in bits + [bits[0] | b for b in bits[1:3]]:
                keep = support & ~w
                # sigma lies in keep, so it must be a face of the restriction
                lk_w = link(_built(restrictions, restrict, masks, keep), s)
                if not lk_w or lk_w != restrict(lk, keep):
                    bad(f"{name}: restriction/link commutation fails at {Face.from_mask(s)}, "
                        f"W={_bits(w)}", cx)

    joins = min(len(items), 8)
    for i in range(joins):
        name_a, a = items[i]
        _, b = items[(i + 1) % len(items)]
        _, c = items[(i + 2) % len(items)]
        ab = a.join(b)
        if ab.dim != a.dim + b.dim + 1:
            bad(f"join:{name_a}: dimension formula fails", ab)
        if a.join(SimplicialComplex.from_facets([()])) != a:
            bad(f"join:{name_a}: {{<>}} is not a join identity", a)
        left = ab.join(c).compact()
        if left.masks != a.join(b.join(c)).compact().masks:
            bad(f"join:{name_a}: associativity fails", left)
    return _report("link_laws", len(items) + joins, fails)


# -- classification theorems ---------------------------------------------------

def _per_item(suite: str):
    """The suite `suite` made of the decorated check, which yields a failure
    message for each law one complex breaks: called as (corpus, field=GF2),
    it counts one case per item and files each message under its name."""
    def suite_of(check: Callable[[SimplicialComplex, FieldSpec], Iterator[str]]):
        def run(corpus: Iterable[CorpusItem], field: FieldSpec = GF2) -> SuiteReport:
            items = list(corpus)
            fails = [CaseFailure(suite, f"{name}: {what}", cx)
                     for name, cx in items for what in check(cx, field)]
            return _report(suite, len(items), fails)
        run.__name__ = run.__qualname__ = check.__name__
        run.__doc__ = check.__doc__
        return run
    return suite_of


@_per_item("criteria_equivalence")
def suite_criteria_equivalence(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """The three CM_t deciders agree for every t in 0..dim."""
    for t in range(cx.dim + 1):
        verdicts = {crit: is_cm_t(cx, t, field, crit) for crit in CRITERIA}
        if len(set(verdicts.values())) != 1:
            yield f"t={t} verdicts {verdicts}"


@_per_item("link_recursion")
def suite_link_recursion(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """CM_t (t >= 1) holds iff the complex is pure and every vertex link is CM_{t-1}."""
    pure = is_pure(cx)
    links = [core._link(cx.masks, 1 << v) for v in cx.vertex_ids()] if pure else []
    # each link read once: its min_t, or dim (failing every t) if it is impure
    worst = max((_min_t(lk, field) if lk[0].bit_count() == lk[-1].bit_count() else cx.dim
                 for lk in links), default=0)
    for t in range(1, cx.dim + 1):
        lhs = is_cm_t(cx, t, field)
        rhs = pure and worst < t
        if lhs != rhs:
            yield f"t={t} lhs={lhs} rhs={rhs}"


@_per_item("k_link_recursion")
def suite_k_link_recursion(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """k-CM_t recursion laws on pure complexes, k = 2:

    * t >= 1: k-CM_t iff every nonempty face's link is k-CM_{t-1};
    * links drop the index by the face size (one direction);
    * the alternative formulation via k-CM links of faces with >= t vertices
      agrees with the removal-set definition for every t.
    """
    k = 2
    if not is_pure(cx):
        return
    own = _k_cm(cx.masks, k, field)
    links = [(s, _k_cm(core._link(cx.masks, s), k, field)) for s in _face_masks(cx.masks)]
    nonempty = links[1:]  # the empty face comes first
    for t in range(1, cx.dim + 1):
        lhs = own(t)
        rhs = all(lk(t - 1) for _, lk in nonempty)
        if lhs != rhs:
            yield f"t={t} lhs={lhs} rhs={rhs}"
        if lhs:
            for s, lk in _sampled([(s, lk) for s, lk in nonempty if s.bit_count() <= 2], 6):
                if not lk(t - s.bit_count()):
                    yield f"t={t} link drop fails at {Face.from_mask(s)}"
    for t in range(cx.dim + 1):
        lhs = own(t)
        rhs = all(lk(0) for s, lk in links if s.bit_count() >= t)
        if lhs != rhs:
            yield f"t={t} link formulation lhs={lhs} rhs={rhs}"


@_per_item("deletion_theorem")
def suite_deletion_theorem(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """Coface deletion: for CM_t cx and an admissible set of at most two
    facets (pairwise unions outside, dimension drop, links 2-CM_{t-1}), the
    survivor is 2-CM_t one dimension down.  A facet holds no other facet, so
    only the set of all facets of a pure complex can drop the dimension."""
    if not is_pure(cx) or len(cx.masks) > 2:
        return
    sigmas = list(cx.facets)
    survivor, rep = cx.delete_cofaces(sigmas)
    if not (rep.union_condition and rep.dim_dropped):
        return
    links = [cx.link(s) for s in sigmas]
    for t in range(cx.dim + 1):
        if not is_cm_t(cx, t, field):
            continue
        if not all(is_k_cm_t_unbounded(lk, 2, t - 1, field) for lk in links):
            continue
        if (survivor.is_void or survivor.dim != cx.dim - 1
                or not is_k_cm_t_unbounded(survivor, 2, t, field)):
            yield f"t={t} sigmas={sigmas} conclusion fails"


@_per_item("skeleton_theorem")
def suite_skeleton_theorem(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """For a k-CM_t complex of dimension d-1 the (d-s-1)-skeleton is (k+s)-CM_t."""
    if not is_pure(cx) or cx.dim < 1:
        return
    t = min_t(cx, field)
    k = _max_k_at(cx, t, field, 3)
    for s in (1, 2):
        if s > cx.dim:
            continue
        target = cx.skeleton(cx.dim - s)
        if not is_k_cm_t_unbounded(target, k + s, t, field):
            yield f"t={t} k={k} s={s} skeleton not (k+s)-CM_t"


@_per_item("monotonicity")
def suite_monotonicity(cx: SimplicialComplex, field: FieldSpec) -> Iterator[str]:
    """CM_t is monotone in t; k-CM_t is antitone in k."""
    verdicts = [is_cm_t(cx, t, field) for t in range(cx.dim + 1)]
    if any(a and not b for a, b in zip(verdicts, verdicts[1:])):
        yield f"CM_t not monotone: {verdicts}"
    for t in range(cx.dim + 1):
        if is_k_cm_t_unbounded(cx, 2, t, field) and not is_k_cm_t_unbounded(cx, 1, t, field):
            yield f"k-monotonicity fails at t={t}"


def suite_paper_fixtures(corpus: Iterable[CorpusItem] = (),
                         field: FieldSpec = GF2) -> SuiteReport:
    """Pinned classification facts for the canonical example families."""
    del corpus  # fixture-driven
    checks: list[tuple[str, bool]] = []

    two_tri_vertex = SimplicialComplex.from_facets([(1, 2, 3), (3, 4, 5)])
    checks.append(("two triangles at a vertex: link of the shared vertex",
                   two_tri_vertex.link(Face((2,)))
                   == SimplicialComplex(5, [Face((0, 1)), Face((3, 4))],
                                        two_tri_vertex.labels)))
    checks.append(("two triangles at a vertex: CM_2 but not CM_1",
                   is_cm_t(two_tri_vertex, 2, field)
                   and not is_cm_t(two_tri_vertex, 1, field)))
    checks.append(("two triangles at a vertex: min_t = 2",
                   min_t(two_tri_vertex, field) == 2))
    checks.append(("two triangles at a vertex: not CM",
                   not is_cm(two_tri_vertex, field)))

    two_tets = SimplicialComplex.from_facets([(1, 2, 3, 4), (4, 5, 6, 7)])
    checks.append(("two tetrahedra at a vertex: min_t = 2",
                   min_t(two_tets, field) == 2))

    mi, sigma1 = miyazaki_example()
    wedge = SimplicialComplex.from_facets([(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    checks.append(("miyazaki: join has 6 facets of size 4 and dimension 3",
                   mi.dim == 3 and len(mi.masks) == 6
                   and all(m.bit_count() == 4 for m in mi.masks)))
    checks.append(("miyazaki: the join is Cohen-Macaulay",
                   is_cm_t(mi, 0, field)))
    checks.append(("miyazaki: link of {x,y} is the wedge of two circles",
                   mi.link(sigma1).compact() == wedge))
    checks.append(("miyazaki: wedge is 2-CM_1 but not 2-CM_0",
                   is_k_cm_t_unbounded(wedge, 2, 1, field)
                   and not is_k_cm_t_unbounded(wedge, 2, 0, field)))

    deleted, _ = mi.delete_cofaces([sigma1])
    two_points = SimplicialComplex.from_facets([(0,), (1,)], labels=("x", "y"))
    checks.append(("miyazaki: deleting cofaces of {x,y} gives wedge * two points",
                   deleted.masks == wedge.join(two_points).masks))
    checks.append(("miyazaki: the deletion survivor is not 2-CM_1",
                   not is_k_cm_t_unbounded(deleted, 2, 1, field)))

    gamma3 = glued_simplices(GluedFamilySpec.uniform(4, 3, 0))
    checks.append(("three glued tetrahedra: CM_2 with min_t = 2",
                   is_cm_t(gamma3, 2, field) and min_t(gamma3, field) == 2))

    # each glued pair, then its skeleton: 2-CM_t always; the sharpness half
    # (not 2-CM_{t-1}) only bites for t <= d-2, where the skeleton is
    # high-dimensional enough to see the failure
    for d in range(2, 6):
        for t in range(1, d):
            gamma = glued_simplices(GluedFamilySpec.uniform(d, 2, t - 2))
            checks.append((f"glued d={d} t={t}: min_t = {t}", min_t(gamma, field) == t))
            lam = gamma.skeleton(d - 2)
            checks.append((f"glued skeleton d={d} t={t}: 2-CM_{t}",
                           is_k_cm_t_unbounded(lam, 2, t, field)))
            if t <= d - 2:
                checks.append((f"glued skeleton d={d} t={t}: not 2-CM_{t - 1}",
                               not is_k_cm_t_unbounded(lam, 2, t - 1, field)))

    return _report("paper_fixtures", len(checks),
                   [CaseFailure("paper_fixtures", name) for name, ok in checks if not ok])


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "link_laws": suite_link_laws,
    "criteria_equivalence": suite_criteria_equivalence,
    "link_recursion": suite_link_recursion,
    "k_link_recursion": suite_k_link_recursion,
    "deletion_theorem": suite_deletion_theorem,
    "skeleton_theorem": suite_skeleton_theorem,
    "monotonicity": suite_monotonicity,
    "paper_fixtures": suite_paper_fixtures,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suites(names: Iterable[str], corpus: list[CorpusItem],
               field: FieldSpec = GF2) -> list[SuiteReport]:
    wanted: list[str] = []
    for name in names:
        if name == "all":
            wanted.extend(SUITES)
        elif name in SUITES:
            wanted.append(name)
        else:
            raise ValueError(f"unknown suite: {name!r} (expected one of {SUITE_NAMES})")
    return [SUITES[name](corpus, field=field) for name in wanted]

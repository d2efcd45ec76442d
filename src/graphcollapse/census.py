"""Exhaustive census of small connected graphs: which are strongly
contractible, which have collapsible clique complexes, and whether the
first property ever occurs without the second.

Graphs are generated once per vertex count, up to isomorphism, by
canonical augmentation: each graph of the previous level gets one new
vertex, joined to one neighbor set per orbit of its automorphisms, and
a child is kept only when the new vertex is its canonical deletion, so
each isomorphism class is produced exactly once and nothing is
deduplicated. Every connected graph arises this way because some vertex
of any connected graph can be removed without disconnecting it.

Generation runs on adjacency masks over positions 0..n-1. One canonical
search on each child (canon._canonical) gives its form, its masks in
canonical order and generators of its automorphism group on those
positions. An accepted child carries all three to the next level, where
it is a parent: no parent is decoded or searched again, and only the
level being extended is kept. A run's last level has no next one, so
it carries no generators. Classification builds each graph from the
same carried masks, sent with its form (which pickles) to
classify_graph.

Census files are plain text, one level per file, so long runs can stop
and resume between levels. A level file is named for the level its
header gives. A resumed level must hold each form once and the
published number of graphs. When a larger level is generated from it,
each of its forms is decoded and searched, which gives the masks and
generators a generated level carries and checks that the form is
canonical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .canon import CanonicalForm, _canonical, _close, graph_from_canonical
from .complexes import DEFAULT_COLLAPSE_BUDGET, _lift, _replay, clique_complex, is_collapsible
from .contract import is_strong_contractible_any_order
from .errors import GraphFormatError, InputError, InternalInconsistencyError, check_collapse_budget, check_jobs
from .graphs import Graph, _component_masks, _content_lines, iter_bits

__all__ = [
    "MAX_CENSUS_N",
    "CensusConfig",
    "CensusEntry",
    "Census",
    "generate_connected",
    "classify_graph",
    "build_census",
    "ConjectureReport",
    "check_conjecture",
    "deletion_order_gap",
]

MAX_CENSUS_N = 9

# Progress of long runs, one INFO record per level.
_log = logging.getLogger("graphcollapse")

# Connected graphs up to isomorphism by vertex count, for validation.
KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}


@dataclass(frozen=True)
class CensusConfig:
    max_n: int = 8
    collapse_budget: int = DEFAULT_COLLAPSE_BUDGET
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.max_n <= MAX_CENSUS_N:
            raise ValueError(f"max_n must be between 1 and {MAX_CENSUS_N}, got {self.max_n}")
        check_jobs(self.jobs)
        check_collapse_budget(self.collapse_budget)


@dataclass(frozen=True)
class CensusEntry:
    """One isomorphism class: its canonical form, whether the greedy
    vertex-deletion test accepts it, and whether its clique complex is
    collapsible (None when the search budget ran out)."""

    form: CanonicalForm
    vertex_count: int
    in_strong: bool
    collapsible: Optional[bool]

    def graph(self) -> Graph:
        return graph_from_canonical(self.form)


# A graph as one level of generation hands it to the next: its form, its
# adjacency masks in canonical order, and generators of its automorphism
# group as lists indexed by those positions, none on a run's last level.
Carried = tuple[CanonicalForm, list[int], Sequence[list[int]]]


def _subset_orbit_representatives(k: int, gens: list[list[int]], subsets: Iterable[int]) -> list[int]:
    """The least member of each orbit of the automorphisms gens of
    {0, ..., k-1} on the given nonempty subsets, as bit masks, ascending.
    The subsets, ascending, must be a union of orbits."""
    images = []
    for p in gens:
        image = [0] * (1 << k)
        for s in range(1, 1 << k):
            low = s & -s
            image[s] = image[s ^ low] | 1 << p[low.bit_length() - 1]
        images.append(image)
    seen: set[int] = set()
    reps = []
    for s in subsets:
        if s not in seen:
            reps.append(s)
            seen.add(s)
            _close(seen, [s], images)
    return reps


def _candidate_subsets(deg: list[int], cuts: list[list[int]]) -> Iterator[int]:
    """The nonempty subsets of a parent's vertices, as bit masks,
    ascending, that can be the neighbors of an accepted new vertex: all
    but those S with 2 <= |S| < D, where D is the largest degree deg[v]
    of a vertex v whose deletion leaves the parent connected, cuts[v]
    being the components it leaves (see _extend_level)."""
    bound = max((d for d, comps in zip(deg, cuts) if len(comps) == 1), default=0)
    return (s for s in range(1, 1 << len(deg)) if not 2 <= s.bit_count() < bound)


def _rivals(adj: list[int], deg: list[int], cuts: list[list[int]], s: int) -> Optional[list[int]]:
    """The old vertices that tie with the new vertex k on (degree, sorted
    neighbor degrees) in the child joining k to the parent's vertices s,
    among the child's vertices whose deletion keeps it connected, or None
    when one of those beats k. The parent has adjacency masks adj and
    degrees deg, and cuts[v] lists the components of the parent minus v.
    k is such a vertex itself; an old vertex v is one when every
    component in cuts[v] meets s."""
    k = len(adj)
    d = s.bit_count()
    child_deg = [deg[v] + (s >> v & 1) for v in range(k)]
    candidates = []
    for v in range(k):
        if child_deg[v] >= d and all(map(s.__and__, cuts[v])):
            if child_deg[v] > d:
                return None
            candidates.append(v)
    if not candidates:
        return []
    child_deg.append(d)
    mine = sorted([child_deg[u] for u in iter_bits(s)])
    rivals = []
    for v in candidates:
        theirs = sorted([child_deg[u] for u in iter_bits(adj[v] | (s >> v & 1) << k)])
        if theirs > mine:
            return None
        if theirs == mine:
            rivals.append(v)
    return rivals


def _extend_level(parents: Iterable[Carried], last: bool = False) -> list[Carried]:
    """All connected graphs one vertex larger than the given ones, which
    must be every connected graph of their size, each class once. Each
    parent is its form, its masks in canonical order and generators of
    its automorphism group on those positions, as a generated level
    carries them; only the masks and generators are read.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998). A child C of parent P gets the new vertex k
    adjacent to a nonempty subset S of P's vertices, one S per orbit of
    Aut(P). C's canonical deletion m(C) is, among the vertices whose
    deletion leaves C connected, those maximizing (degree, sorted
    neighbor degrees), the one last in C's canonical order. Canonical
    orders of isomorphic graphs differ by an isomorphism, so every
    isomorphism C -> C' takes m(C) into the Aut(C')-orbit of m(C'). C is
    accepted when k is in the Aut(C)-orbit of m(C). A child where k does
    not maximize the invariant is dropped before any search; the one
    search on C gives its form and, when other vertices tie with k, its
    automorphism group for the orbit test.

    Each connected class is accepted exactly once. At least once: C minus
    m(C) is connected, so some isomorphism f takes it to a parent P, and
    the representative S of the orbit of f(neighbors of m(C)) gives a
    child isomorphic to C by a map taking k to m(C), so k is in the orbit
    of the child's canonical deletion. At most once: two isomorphic
    accepted children (P, S) and (P', S') have an isomorphism taking k
    to k (compose with an automorphism along the orbit of the canonical
    deletion), so P and P' are isomorphic, hence equal, and it restricts
    to an automorphism of P taking S to S', so S and S' are the same
    orbit representative. A repeated form means this argument or the
    automorphisms found broke, and raises InternalInconsistencyError.

    Subsets too small to win are skipped before their orbits are
    computed. Let D be the largest degree of a vertex v whose deletion
    leaves P connected. When 2 <= |S| < D, S has a vertex other than v,
    so deleting v leaves C connected too, and v's degree in C, at least
    D, beats k's, |S|: such an S is never accepted.

    Everything runs on masks. The parents' masks and generators come
    from the searches that accepted them one level down (a level read
    from disk goes through _searched first), and one search on each
    child gives its form, its masks in canonical order and its
    generators on those positions, which the returned level carries to
    the next; a last level, which no level extends, carries no
    generators. Children are keyed by form.
    """
    children: dict[CanonicalForm, Carried] = {}
    for _, adj, gens in parents:
        k = len(adj)
        everything = (1 << k) - 1
        cuts = [_component_masks(adj, everything ^ 1 << v) for v in range(k)]
        deg = [m.bit_count() for m in adj]
        for s in _subset_orbit_representatives(k, gens, _candidate_subsets(deg, cuts)):
            rivals = _rivals(adj, deg, cuts, s)
            if rivals is None:
                continue
            form, place, masks, child_gens = _canonical([adj[v] | (s >> v & 1) << k for v in range(k)] + [s])
            if rivals:
                orbit = {max(place[v] for v in rivals + [k])}
                _close(orbit, list(orbit), child_gens)
                if place[k] not in orbit:
                    continue
            if form in children:
                raise InternalInconsistencyError(f"canonical augmentation produced {form.hex()} twice")
            children[form] = form, masks, () if last else child_gens
    return [children[form] for form in sorted(children)]


def _searched(forms: Iterable[CanonicalForm]) -> Iterator[Carried]:
    """Parents for _extend_level from forms alone, as a level read from
    disk gives them: each form decoded and searched, lazily, so a level
    is checked only when a larger one is generated from it. A form that
    is not its own graph's form raises InputError."""
    for form in forms:
        g = graph_from_canonical(form)
        got, _, masks, gens = _canonical([g._adj[v] for v in g.vertices])
        if got != form:
            raise InputError(f"form {form.hex()} is not canonical: its graph's form is {got.hex()}")
        yield form, masks, gens


def _level(n: int, parents: Iterable[Carried], last: bool = False) -> list[Carried]:
    """The connected graphs on n vertices, given those on n - 1; when
    last, without generators (see _extend_level)."""
    if n > 1:
        return _extend_level(parents, last)
    form, _, masks, gens = _canonical([0])
    return [(form, masks, gens)]


def generate_connected(max_n: int) -> dict[int, tuple[CanonicalForm, ...]]:
    """Connected graphs up to isomorphism, grouped by vertex count."""
    if not 1 <= max_n <= MAX_CENSUS_N:
        raise ValueError(f"max_n must be between 1 and {MAX_CENSUS_N}, got {max_n}")
    levels: dict[int, tuple[CanonicalForm, ...]] = {}
    level: list[Carried] = []
    for n in range(1, max_n + 1):
        level = _level(n, level, n == max_n)
        levels[n] = tuple(form for form, _, _ in level)
        _log.info("generated %d graphs on %d vertices", len(level), n)
    return levels


def classify_graph(g: Graph, collapse_budget: int = DEFAULT_COLLAPSE_BUDGET) -> tuple[bool, Optional[bool]]:
    """(accepted by the greedy deletion test, clique complex collapsible).

    One greedy scan decides the first answer and, when it reaches a
    point, lifts the collapse witness as it goes (complexes._lift). The
    witness is then replayed pair by pair, each checked to be free, on
    the graph's cliques (complexes._replay), which must end at a single
    face, hence a vertex: the True answer is verified, not assumed.
    Otherwise an exhaustive collapse search decides, budget permitting.
    """
    lift = _lift(g._adj, g._vmask, {}, {})
    if lift is None:
        return False, is_collapsible(clique_complex(g), budget=collapse_budget).collapsible
    if len(_replay(clique_complex(g)._masks, lift[0])) != 1:
        raise InternalInconsistencyError("trace-guided collapse did not reach a point")
    return True, True


def _classify_payload(payload: tuple[CanonicalForm, list[int], int]) -> tuple[CanonicalForm, bool, Optional[bool]]:
    form, masks, budget = payload
    g = Graph._from_masks(tuple(range(len(masks))), dict(enumerate(masks)))
    strong, collapsible = classify_graph(g, budget)
    return form, strong, collapsible


def _classify_level(level: list[Carried], config: CensusConfig) -> tuple[CensusEntry, ...]:
    forms = [form for form, _, _ in level]
    payloads = [(form, masks, config.collapse_budget) for form, masks, _ in level]
    if config.jobs == 1 or len(payloads) < 4:
        results = [_classify_payload(p) for p in payloads]
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(payloads) // (config.jobs * 8))
            results = list(pool.map(_classify_payload, payloads, chunksize=chunk))
    entries = []
    for form, (classified, strong, collapsible) in zip(forms, results):
        if classified != form:
            raise InternalInconsistencyError("classification results out of order")
        entries.append(CensusEntry(form, form.vertex_count, strong, collapsible))
    return tuple(entries)


# -- census container and files ---------------------------------------------


@dataclass(frozen=True)
class Census:
    levels: dict[int, tuple[CensusEntry, ...]]

    def counts(self) -> dict[int, int]:
        return {n: len(entries) for n, entries in sorted(self.levels.items())}

    @property
    def total(self) -> int:
        return sum(len(entries) for entries in self.levels.values())

    def entries(self) -> list[CensusEntry]:
        out = []
        for n in sorted(self.levels):
            out.extend(self.levels[n])
        return out

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for n, entries in sorted(self.levels.items()):
            (directory / f"census_n{n}.txt").write_text(format_level(n, entries))

    @classmethod
    def load(cls, directory) -> "Census":
        directory = Path(directory)
        return cls(dict(_read_level(path) for path in sorted(directory.glob("census_n*.txt"))))


def _flag_text(value: Optional[bool]) -> str:
    if value is None:
        return "?"
    return "1" if value else "0"


def format_level(n: int, entries: tuple[CensusEntry, ...]) -> str:
    lines = [f"census {n} {len(entries)}"]
    for e in entries:
        lines.append(f"{e.form.hex()} {_flag_text(e.in_strong)} {_flag_text(e.collapsible)}")
    return "\n".join(lines) + "\n"


def parse_level(text: str, source: str = "<census>") -> tuple[int, tuple[CensusEntry, ...]]:
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError(source, 1, "empty census file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "census":
        raise GraphFormatError(source, lineno, f"expected header 'census n count', got {header!r}")
    try:
        n, count = int(parts[1]), int(parts[2])
    except ValueError:
        raise GraphFormatError(source, lineno, f"bad header numbers in {header!r}")
    body = lines[1:]
    if len(body) != count:
        raise GraphFormatError(source, lineno, f"header says {count} entries, file has {len(body)}")
    entries = []
    seen: set[CanonicalForm] = set()
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(source, lineno, f"expected 'hex is ic', got {line!r}")
        hex_form, s_flag, c_flag = fields
        try:
            form = CanonicalForm.from_hex(hex_form)
        except ValueError as exc:
            raise GraphFormatError(source, lineno, f"bad canonical form: {exc}")
        if s_flag not in ("0", "1"):
            raise GraphFormatError(source, lineno, f"bad flag {s_flag!r}")
        if c_flag not in ("0", "1", "?"):
            raise GraphFormatError(source, lineno, f"bad flag {c_flag!r}")
        if form.vertex_count != n:
            raise GraphFormatError(source, lineno, f"form has {form.vertex_count} vertices, file is level {n}")
        if form in seen:
            raise GraphFormatError(source, lineno, f"canonical form {hex_form} is repeated")
        seen.add(form)
        entries.append(
            CensusEntry(form, n, s_flag == "1", None if c_flag == "?" else c_flag == "1")
        )
    return n, tuple(entries)


def _read_level(path: Path, complete: bool = False) -> tuple[int, tuple[CensusEntry, ...]]:
    """parse_level on the file at path, which must be census_n<n>.txt for
    the level n its header names and, if complete, must hold all
    KNOWN_CONNECTED_COUNTS[n] connected graphs on n vertices. Either
    fault names the header's line."""
    text = path.read_text()
    n, entries = parse_level(text, source=str(path))
    if path.name != f"census_n{n}.txt":
        fault = f"expected level {path.stem.removeprefix('census_n')}, found {n}"
    elif complete and len(entries) != KNOWN_CONNECTED_COUNTS[n]:
        fault = f"level {n} has {len(entries)} graphs, not the {KNOWN_CONNECTED_COUNTS[n]} connected ones"
    else:
        return n, entries
    raise GraphFormatError(str(path), _content_lines(text)[0][0], fault)


def build_census(config: CensusConfig = CensusConfig(), out_dir=None) -> Census:
    """Generate, classify, and optionally persist every level up to
    config.max_n. Levels already saved under out_dir are loaded instead
    of recomputed, so interrupted runs pick up where they stopped.
    Progress goes to the "graphcollapse" logger at INFO, one record per
    level."""
    directory = Path(out_dir) if out_dir is not None else None
    levels: dict[int, tuple[CensusEntry, ...]] = {}
    parents: Iterable[Carried] = ()
    for n in range(1, config.max_n + 1):
        path = directory / f"census_n{n}.txt" if directory else None
        if path is not None and path.exists():
            entries = _read_level(path, complete=True)[1]
            levels[n] = entries
            parents = _searched(e.form for e in entries)
            _log.info("level %d: loaded %d graphs", n, len(entries))
            continue
        parents = _level(n, parents, n == config.max_n)
        entries = _classify_level(parents, config)
        levels[n] = entries
        if path is not None:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(format_level(n, entries))
        strong = sum(1 for e in entries if e.in_strong)
        _log.info("level %d: %d graphs, %d pass the deletion test", n, len(entries), strong)
    return Census(levels)


# -- conjecture checking -------------------------------------------------------


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of checking that every graph passing the greedy deletion
    test has a collapsible clique complex, over a whole census."""

    total: int
    strong_total: int
    collapsible_total: int
    violations: tuple[str, ...]
    converse_examples: tuple[str, ...]
    undecided: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            f"graphs {self.total}",
            f"deletion-test positives {self.strong_total}",
            f"collapsible {self.collapsible_total}",
            f"undecided {len(self.undecided)}",
            f"violations {len(self.violations)}",
            f"collapsible-but-not-positive {len(self.converse_examples)}",
            f"implication holds: {'yes' if self.holds else 'NO'}",
        ]
        for h in self.violations:
            lines.append(f"violation {h}")
        return "\n".join(lines) + "\n"


def check_conjecture(census: Census) -> ConjectureReport:
    violations = []
    converse = []
    undecided = []
    strong_total = 0
    collapsible_total = 0
    entries = census.entries()
    for e in entries:
        if e.in_strong:
            strong_total += 1
        if e.collapsible:
            collapsible_total += 1
        if e.collapsible is None:
            undecided.append(e.form.hex())
        if e.in_strong and e.collapsible is False:
            violations.append(e.form.hex())
        if e.collapsible and not e.in_strong:
            converse.append(e.form.hex())
    return ConjectureReport(
        len(entries),
        strong_total,
        collapsible_total,
        tuple(violations),
        tuple(converse),
        tuple(undecided),
    )


def deletion_order_gap(census: Census) -> tuple[str, ...]:
    """Canonical forms accepted by the try-every-vertex variant of the
    deletion test but rejected by the greedy first-hit one. The greedy
    test is the definition used everywhere else; a nonempty result here
    would mean deletion order matters for some graph."""
    gap = []
    for e in census.entries():
        if e.in_strong:
            continue
        if is_strong_contractible_any_order(e.graph()):
            gap.append(e.form.hex())
    return tuple(gap)

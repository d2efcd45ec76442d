"""Exhaustive census of small connected graphs: which are strongly
contractible, which have collapsible clique complexes, and whether the
first property ever occurs without the second.

Graphs are generated once per vertex count, up to isomorphism, by
extending every graph of the previous level with one new vertex in all
possible ways and deduplicating by canonical form. Every connected
graph arises this way because some vertex of any connected graph can be
removed without disconnecting it.

Census files are plain text, one level per file, so long runs can stop
and resume between levels.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from .canon import CanonicalForm, canonical_form, graph_from_canonical
from .complexes import (
    DEFAULT_COLLAPSE_BUDGET,
    clique_complex,
    collapse_via_trace,
    is_collapsible,
)
from .contract import (
    contractible_reduction,
    is_strong_contractible,
    is_strong_contractible_any_order,
)
from .errors import GraphFormatError, InternalInconsistencyError, check_jobs
from .graphs import Graph

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
        if self.collapse_budget < 1:
            raise ValueError(f"collapse_budget must be positive, got {self.collapse_budget}")


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


def _extend_level(parent_forms: Iterable[CanonicalForm]) -> tuple[CanonicalForm, ...]:
    """All canonical forms one vertex larger than the given ones."""
    seen: dict[bytes, CanonicalForm] = {}
    for form in parent_forms:
        g = graph_from_canonical(form)
        new = g.n
        base = list(g.vertices)
        for subset in range(1, 1 << g.n):
            nbrs = [base[i] for i in range(g.n) if subset >> i & 1]
            bigger = g.glue_vertex(new, nbrs)
            f = canonical_form(bigger)
            seen.setdefault(bytes(f), f)
    return tuple(seen[k] for k in sorted(seen))


def generate_connected(
    max_n: int, log: Optional[Callable[[str], None]] = None
) -> dict[int, tuple[CanonicalForm, ...]]:
    """Connected graphs up to isomorphism, grouped by vertex count."""
    if not 1 <= max_n <= MAX_CENSUS_N:
        raise ValueError(f"max_n must be between 1 and {MAX_CENSUS_N}, got {max_n}")
    levels: dict[int, tuple[CanonicalForm, ...]] = {1: (canonical_form(Graph([0], [])),)}
    for n in range(2, max_n + 1):
        levels[n] = _extend_level(levels[n - 1])
        if log:
            log(f"generated {len(levels[n])} graphs on {n} vertices")
    return levels


def classify_graph(g: Graph, collapse_budget: int = DEFAULT_COLLAPSE_BUDGET) -> tuple[bool, Optional[bool]]:
    """(accepted by the greedy deletion test, clique complex collapsible).

    For accepted graphs the collapse witness is built from the reduction
    trace and replayed move by move, so the True answer is verified, not
    assumed. Otherwise an exhaustive collapse search decides, budget
    permitting.
    """
    strong = is_strong_contractible(g)
    if strong:
        reduced, trace = contractible_reduction(g)
        if reduced.n != 1:
            raise InternalInconsistencyError(
                f"greedy test accepted a graph whose reduction kept {reduced.n} vertices"
            )
        cx = clique_complex(g)
        for pair in collapse_via_trace(g, trace):
            cx = cx.collapse(pair)
        if not (cx.face_count == 1 and cx.dim == 0):
            raise InternalInconsistencyError("trace-guided collapse did not reach a point")
        return True, True
    verdict = is_collapsible(clique_complex(g), budget=collapse_budget)
    return False, verdict.collapsible


def _classify_payload(payload: tuple[str, int]) -> tuple[str, bool, Optional[bool]]:
    hex_form, budget = payload
    g = graph_from_canonical(CanonicalForm.from_hex(hex_form))
    strong, collapsible = classify_graph(g, budget)
    return hex_form, strong, collapsible


def _classify_level(
    forms: tuple[CanonicalForm, ...], config: CensusConfig
) -> tuple[CensusEntry, ...]:
    payloads = [(f.hex(), config.collapse_budget) for f in forms]
    if config.jobs == 1 or len(payloads) < 4:
        results = [_classify_payload(p) for p in payloads]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            chunk = max(1, len(payloads) // (config.jobs * 8))
            results = list(pool.map(_classify_payload, payloads, chunksize=chunk))
    entries = []
    for form, (hex_form, strong, collapsible) in zip(forms, results):
        if form.hex() != hex_form:
            raise InternalInconsistencyError("classification results out of order")
        entries.append(CensusEntry(form, graph_from_canonical(form).n, strong, collapsible))
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
        levels = {}
        for path in sorted(directory.glob("census_n*.txt")):
            n, entries = parse_level(path.read_text(), source=str(path))
            levels[n] = entries
        return cls(levels)


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
    lines = [
        (i, ln.strip())
        for i, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
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
        g = graph_from_canonical(form)
        if g.n != n:
            raise GraphFormatError(source, lineno, f"form has {g.n} vertices, file is level {n}")
        entries.append(
            CensusEntry(form, n, s_flag == "1", None if c_flag == "?" else c_flag == "1")
        )
    return n, tuple(entries)


def build_census(
    config: CensusConfig = CensusConfig(),
    out_dir=None,
    log: Optional[Callable[[str], None]] = None,
) -> Census:
    """Generate, classify, and optionally persist every level up to
    config.max_n. Levels already saved under out_dir are loaded instead
    of recomputed, so interrupted runs pick up where they stopped."""
    directory = Path(out_dir) if out_dir is not None else None
    levels: dict[int, tuple[CensusEntry, ...]] = {}
    prev_forms: tuple[CanonicalForm, ...] = ()
    for n in range(1, config.max_n + 1):
        path = directory / f"census_n{n}.txt" if directory else None
        if path is not None and path.exists():
            level_n, entries = parse_level(path.read_text(), source=str(path))
            if level_n != n:
                raise GraphFormatError(str(path), 1, f"expected level {n}, found {level_n}")
            levels[n] = entries
            prev_forms = tuple(e.form for e in entries)
            if log:
                log(f"level {n}: loaded {len(entries)} graphs")
            continue
        forms = (
            (canonical_form(Graph([0], [])),) if n == 1 else _extend_level(prev_forms)
        )
        entries = _classify_level(forms, config)
        levels[n] = entries
        prev_forms = forms
        if path is not None:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(format_level(n, entries))
        if log:
            strong = sum(1 for e in entries if e.in_strong)
            log(f"level {n}: {len(entries)} graphs, {strong} pass the deletion test")
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

"""Workload definitions and seeded input generation.

The program under test receives only what this module produces: name
triples, query texts, and (for ``lubm-edit``) batches of triples to add
and retract.  The graphs come from ``repro.workloads`` with fixed
generator seeds, so the expected answers cached under ``expected/``
stay valid; the benchmark ``--seed`` orders the operations and picks
which write episodes run.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.workloads import (
    BENCH_QUERIES,
    DBPEDIA_QUERIES,
    LUBM_QUERIES,
    generate_dbpedia,
    generate_lubm,
)

NameTriple = Tuple[object, str, object]

MODES = ("full", "pruned", "auto")
ENGINES = ("virtuoso-like", "rdfox-like")

#: Generator seeds (the library defaults).  Fixed so that the cached
#: reference answers cover every benchmark seed.
LUBM_GENERATOR_SEED = 7
DBPEDIA_GENERATOR_SEED = 11
#: Seed of the lubm-edit write-episode pool (fixed for the same reason).
EPISODE_POOL_SEED = 101


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    dataset: str  # "lubm" or "dbpedia"
    scale: int
    tiny_scale: int
    backend: str  # "memory", "snapshot" or "edit"
    #: Engine profile of each fresh session, in the order they run.
    sessions: Tuple[str, ...]
    queries: Dict[str, str] = field(hash=False)
    #: Resident-byte ceiling for snapshot sessions (None: unbudgeted).
    residency_budget: Optional[int] = None
    tiny_residency_budget: Optional[int] = None
    #: Size of the write-episode pool (lubm-edit only).
    episodes: int = 0
    tiny_episodes: int = 0
    #: Read operations issued after each write batch (lubm-edit only).
    reads_per_write: int = 2
    #: Episodes between two compactions (lubm-edit only).
    compact_every: int = 0

    @property
    def engines(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(self.sessions))


#: Every workload this module can generate.  BENCHMARK.json lists the
#: ones the benchmark gates; dbpedia-snapshot stays runnable by name
#: but is not gated (its figures were not steady enough, see README).
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="lubm-read",
            dataset="lubm",
            scale=50,
            tiny_scale=1,
            backend="memory",
            sessions=ENGINES,
            queries=dict(LUBM_QUERIES),
        ),
        WorkloadSpec(
            name="dbpedia-snapshot",
            dataset="dbpedia",
            scale=12,
            tiny_scale=1,
            backend="snapshot",
            sessions=ENGINES,
            queries={**DBPEDIA_QUERIES, **BENCH_QUERIES},
            # About half of the 41 MiB the mix promotes unbudgeted.
            residency_budget=20 * 2**20,
            tiny_residency_budget=256 * 2**10,
        ),
        WorkloadSpec(
            name="lubm-edit",
            dataset="lubm",
            scale=10,
            tiny_scale=1,
            backend="edit",
            sessions=("virtuoso-like",),
            queries=dict(LUBM_QUERIES),
            episodes=8,
            tiny_episodes=2,
            reads_per_write=2,
            compact_every=5,
        ),
    )
}


@dataclass(frozen=True)
class Episode:
    """Four write batches that leave the graph as they found it.

    Retract some existing triples, add triples about new nodes,
    re-add the retracted triples, retract the new ones.  The states in
    between are ``base - R``, ``base - R + A`` and ``base + A``.
    """

    retracted: Tuple[NameTriple, ...]
    added: Tuple[NameTriple, ...]

    def batches(self) -> Tuple[Tuple[str, Tuple[NameTriple, ...]], ...]:
        return (
            ("retract", self.retracted),
            ("add", self.added),
            ("add", self.retracted),
            ("retract", self.added),
        )

    def states(self, base: List[NameTriple]) -> List[List[NameTriple]]:
        """Triples after each of the first three batches."""
        removed = set(self.retracted)
        without = [t for t in base if t not in removed]
        return [
            without,
            without + list(self.added),
            list(base) + list(self.added),
        ]


@dataclass
class Inputs:
    spec: WorkloadSpec
    seed: int
    tiny: bool
    triples: List[NameTriple]
    digest: str
    episodes: List[Episode]

    @property
    def residency_budget(self) -> Optional[int]:
        if self.tiny:
            return self.spec.tiny_residency_budget
        return self.spec.residency_budget

    def combos(self, engine: str) -> List[Tuple[str, str, str]]:
        return [
            (engine, query, mode)
            for query in self.spec.queries
            for mode in MODES
        ]

    def passes(self, engine: str, salt: int = 0) -> Iterator[Tuple[str, str, str]]:
        """Endless balanced passes: every (query, mode) once per pass,
        each pass in a fresh seeded order."""
        rng = random.Random(f"{self.seed}:{engine}:{salt}")
        combos = self.combos(engine)
        while True:
            order = list(combos)
            rng.shuffle(order)
            yield from order

    def edit_program(self) -> Iterator[Tuple[str, object]]:
        """The lubm-edit closed-loop operation stream.

        Yields ``("write", (episode_index, batch_index, kind, triples))``,
        ``("read", (engine, query, mode))`` and ``("compact", None)``.
        """
        rng = random.Random(f"{self.seed}:edit")
        reads = self.passes(self.spec.engines[0], salt=1)
        # Balanced rounds: every pooled episode once per round, each
        # round in a fresh seeded order.
        rounds = (
            index
            for _ in itertools.count()
            for index in rng.sample(range(len(self.episodes)), len(self.episodes))
        )
        for number, index in enumerate(rounds, 1):
            for batch, (kind, triples) in enumerate(
                self.episodes[index].batches()
            ):
                yield "write", (index, batch, kind, triples)
                for _ in range(self.spec.reads_per_write):
                    yield "read", next(reads)
            if number % self.spec.compact_every == 0:
                yield "compact", None


def triples_digest(triples: List[NameTriple], extra: str = "") -> str:
    hasher = hashlib.sha256()
    for line in sorted(repr(t) for t in triples):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    hasher.update(extra.encode("utf-8"))
    return hasher.hexdigest()


def _generate(spec: WorkloadSpec, scale: int) -> List[NameTriple]:
    if spec.dataset == "lubm":
        graph = generate_lubm(n_universities=scale, seed=LUBM_GENERATOR_SEED)
    else:
        graph = generate_dbpedia(scale=scale, seed=DBPEDIA_GENERATOR_SEED)
    return list(graph.edges())


#: Predicates an episode may retract: the ones the L-queries read.
_EDITABLE = (
    "advisor", "takesCourse", "teacherOf", "memberOf", "worksFor",
    "author", "headOf", "teachingAssistantOf", "undergraduateDegreeFrom",
)


def _episode_pool(base: List[NameTriple], size: int) -> List[Episode]:
    rng = random.Random(EPISODE_POOL_SEED)
    editable = sorted(
        (t for t in base if t[1] in _EDITABLE), key=repr
    )
    works_for = {s: o for s, p, o in base if p == "worksFor"}
    part_of = {s: o for s, p, o in base if p == "subOrganizationOf"}
    teaching = sorted(
        ((s, o) for s, p, o in base if p == "teacherOf" and s in works_for),
        key=repr,
    )
    pool = []
    for number in range(size):
        professor, course = rng.choice(teaching)
        department = works_for[professor]
        student = f"new{number}:student"
        paper = f"new{number}:publication"
        added = [
            (student, "type", "GraduateStudent"),
            (student, "memberOf", department),
            (student, "advisor", professor),
            (student, "takesCourse", course),
            (student, "teachingAssistantOf", course),
            (paper, "type", "Publication"),
            (paper, "author", student),
            (paper, "author", professor),
        ]
        university = part_of.get(department)
        if university is not None:
            added.append((student, "undergraduateDegreeFrom", university))
        pool.append(
            Episode(
                retracted=tuple(rng.sample(editable, 6)),
                added=tuple(added),
            )
        )
    return pool


def clone_episodes(base: List[NameTriple], size: int) -> List[Episode]:
    """Dataset-independent episodes: retract 6 existing triples and
    add a renamed copy of one subject's out-edges."""
    rng = random.Random(EPISODE_POOL_SEED)
    ordered = sorted(base, key=repr)
    by_subject: Dict[object, List[NameTriple]] = {}
    for triple in ordered:
        by_subject.setdefault(triple[0], []).append(triple)
    subjects = list(by_subject)
    pool = []
    for number in range(size):
        clone = f"clone{number}"
        added = [(clone, p, o) for _, p, o in by_subject[rng.choice(subjects)]]
        pool.append(
            Episode(retracted=tuple(rng.sample(ordered, 6)), added=tuple(added))
        )
    return pool


def make_inputs(name: str, seed: int, tiny: bool = False) -> Inputs:
    spec = WORKLOADS[name]
    triples = _generate(spec, spec.tiny_scale if tiny else spec.scale)
    episodes = _episode_pool(
        triples, spec.tiny_episodes if tiny else spec.episodes
    )
    digest = triples_digest(triples, extra=repr(episodes))
    return Inputs(
        spec=spec,
        seed=seed,
        tiny=tiny,
        triples=triples,
        digest=digest,
        episodes=episodes,
    )

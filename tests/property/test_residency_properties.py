"""Property tests: enforced residency budgets never change results.

The LRU demotion pass is a pure memory policy.  For random graphs,
random budgets — including pathological ones smaller than any single
label's packed footprint — and all three product kernels:

* the solver trajectory (rounds, evaluations, updates, bits removed)
  and the fixpoint are bit-identical to the unbudgeted run;
* query answers through the `repro.Database` façade are identical to
  the unbudgeted in-memory session;
* resident CSR bytes fit the budget at every query boundary.

Budgets may be transiently exceeded *mid-solve* (the label a product
needs is protected while resident), which is exactly why the
boundary-time check is the enforced invariant.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import Database, ExecutionProfile
from repro.bitvec import use_kernel
from repro.core import SolverOptions
from repro.core.soi import SystemOfInequalities
from repro.core.solver import solve
from repro.graph import Graph
from repro.graph.database import GraphDatabase
from repro.storage import TieredGraphView, write_snapshot

LABELS = ("a", "b", "c")
KERNELS = ("packed", "batched", "reference")

#: Small budgets on purpose: every label's packed pair on these graph
#: sizes is far bigger than 64 bytes, so low draws exercise the
#: "smaller than any single label" pathology (demote everything at
#: the boundary, protect the in-use label mid-solve).
budgets = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=65, max_value=1 << 20),
)


@st.composite
def databases(draw, max_nodes=10, max_edges=20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    db = GraphDatabase()
    for i in range(n):
        db.add_node(f"n{i}")
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        db.add_triple(f"n{src}", draw(st.sampled_from(LABELS)), f"n{dst}")
    return db


@st.composite
def patterns(draw, max_nodes=4, max_edges=5):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    g = Graph()
    for i in range(n):
        g.add_node(f"p{i}")
    for _ in range(n_edges):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 1))
        g.add_edge(f"p{src}", draw(st.sampled_from(LABELS)), f"p{dst}")
    return g


def _query_of(pattern: Graph) -> str:
    """The pattern graph as a SELECT over variable triple patterns."""
    body = " ".join(
        f"?{src} {label} ?{dst} ." for src, label, dst in pattern.edges()
    )
    return f"SELECT * WHERE {{ {body} }}"


@given(patterns(), databases(), budgets, st.sampled_from(KERNELS))
@settings(max_examples=25, deadline=None)
def test_budgeted_solve_trajectory_bit_identical(
    pattern, db, budget, kernel
):
    """Same fixpoint, same work counters, budget held at the end."""
    options = SolverOptions()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.snap"
        write_snapshot(db, path, cold_threshold=1e9)  # all labels cold
        free = TieredGraphView(path)
        capped = TieredGraphView(path, residency_budget=budget)
        with use_kernel(kernel):
            expected = solve(
                SystemOfInequalities.from_pattern_graph(pattern),
                free, options,
            )
            result = solve(
                SystemOfInequalities.from_pattern_graph(pattern),
                capped, options,
            )
        assert result.report.rounds == expected.report.rounds
        assert result.report.evaluations == expected.report.evaluations
        assert result.report.updates == expected.report.updates
        assert (
            result.report.bits_removed == expected.report.bits_removed
        )
        for var, expected_var in zip(
            result.soi.roots(), expected.soi.roots()
        ):
            assert result.row(var) == expected.row(expected_var)
        capped.enforce_budget()
        assert capped.resident_bytes() <= budget
        free.close()
        capped.close()


@given(patterns(), databases(), budgets, st.sampled_from(KERNELS))
@settings(max_examples=25, deadline=None)
def test_budgeted_query_answers_bit_identical(
    pattern, db, budget, kernel
):
    """Façade answers match the unbudgeted in-memory session, and the
    budget holds after every query() boundary."""
    query = _query_of(pattern)
    reference = Database.in_memory(
        db, profile=ExecutionProfile(kernel=kernel)
    )
    expected = reference.query(query, mode="pruned").as_set()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.snap"
        write_snapshot(db, path, cold_threshold=1e9)
        profile = ExecutionProfile(kernel=kernel, residency_budget=budget)
        with Database.open(path, profile=profile, cached=False) as capped:
            for mode in ("pruned", "full"):
                assert capped.query(query, mode=mode).as_set() == expected
                residency = capped.stats().residency
                assert residency.resident_bytes <= budget
            assert capped.stats().within_residency_budget is True


@given(patterns(), databases(), budgets)
@settings(max_examples=15, deadline=None)
def test_repeated_queries_churn_stably(pattern, db, budget):
    """Loop the same query: promote -> demote -> re-promote cycles
    keep answering identically, and resident bytes stay bounded at
    every boundary (no batched-block or residency leak)."""
    query = _query_of(pattern)
    expected = Database.in_memory(db).query(query, mode="pruned").as_set()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "graph.snap"
        write_snapshot(db, path, cold_threshold=1e9)
        profile = ExecutionProfile(
            kernel="batched", residency_budget=budget
        )
        with Database.open(path, profile=profile, cached=False) as capped:
            for _ in range(3):
                assert (
                    capped.query(query, mode="pruned").as_set()
                    == expected
                )
                assert (
                    capped.stats().residency.resident_bytes <= budget
                )

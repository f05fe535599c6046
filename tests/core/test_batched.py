"""Unit tests for the batched round evaluator (repro.core.batched).

Serial ``batched`` solves run the packed products, so the batched side
here solves with two workers: that is the path through the deferred
batches and hazard flushes, which must match packed bit for bit.
"""

import dataclasses

import pytest

from repro.bitvec import use_kernel
from repro.core.compiler import compile_query
from repro.core.solver import (
    SolverOptions,
    largest_dual_simulation,
    solve,
)
from repro.graph import Graph, example_movie_database


def _chain(labels):
    """Pattern v0 -a-> v1 -b-> v2 ... (worst case for batching: every
    inequality chains into the next)."""
    g = Graph()
    for i, label in enumerate(labels):
        g.add_edge(f"v{i}", label, f"v{i + 1}")
    return g


def _solve_both(pattern, data, options=None):
    with use_kernel("packed"):
        packed = largest_dual_simulation(pattern, data, options)
    parallel = dataclasses.replace(options or SolverOptions(), workers=2)
    with use_kernel("batched"):
        batched = largest_dual_simulation(pattern, data, parallel)
    return packed, batched


def _assert_identical(packed, batched):
    assert batched.total_bits() == packed.total_bits()
    for var in packed.soi.roots():
        assert batched.row(var) == packed.row(var)
    assert batched.report.rounds == packed.report.rounds
    assert batched.report.evaluations == packed.report.evaluations
    assert batched.report.updates == packed.report.updates
    assert batched.report.bits_removed == packed.report.bits_removed


class TestBatchedSolve:
    def test_movie_example(self):
        db = example_movie_database()
        pattern = Graph()
        pattern.add_edge("d", "directed", "m")
        pattern.add_edge("d", "worked_with", "c")
        _assert_identical(*_solve_both(pattern, db))

    @pytest.mark.parametrize("product", ["auto", "row", "column"])
    def test_products_on_chain_pattern(self, product):
        db = example_movie_database()
        pattern = _chain(["directed", "sequel_of"])
        options = SolverOptions(product=product)
        _assert_identical(*_solve_both(pattern, db, options))

    @pytest.mark.parametrize(
        "ordering", ["fifo", "sparsity", "frequency", "random"]
    )
    def test_static_orderings(self, ordering):
        db = example_movie_database()
        pattern = _chain(["directed", "sequel_of"])
        options = SolverOptions(ordering=ordering, seed=3)
        _assert_identical(*_solve_both(pattern, db, options))

    def test_dynamic_ordering_falls_back_to_per_call_products(self):
        db = example_movie_database()
        pattern = _chain(["directed"])
        options = SolverOptions(ordering="dynamic")
        with use_kernel("batched"):
            batched = largest_dual_simulation(pattern, db, options)
        with use_kernel("packed"):
            packed = largest_dual_simulation(pattern, db, options)
        assert batched.to_relation() == packed.to_relation()

    def test_absent_label_clears_target(self):
        db = example_movie_database()
        pattern = Graph()
        pattern.add_edge("x", "no_such_label", "y")
        _, batched = _solve_both(pattern, db)
        assert batched.is_empty()

    def test_empty_pattern(self):
        db = example_movie_database()
        pattern = Graph()
        pattern.add_node("lonely")
        packed, batched = _solve_both(pattern, db)
        _assert_identical(packed, batched)

    def test_copy_inequalities_from_optional(self):
        """OPTIONAL compilation introduces surrogate copy
        inequalities; the batched loop must apply them inline."""
        db = example_movie_database()
        query = """
            SELECT * WHERE {
                ?d directed ?m .
                OPTIONAL { ?d worked_with ?c . }
            }
        """
        for branch in compile_query(query):
            with use_kernel("packed"):
                packed = solve(branch.soi, db)
            with use_kernel("batched"):
                batched = solve(branch.soi, db)
            assert batched.total_bits() == packed.total_bits()
            for var in packed.soi.roots():
                assert batched.row(var) == packed.row(var)

    def test_blocks_cached_on_graph_across_solves(self):
        db = example_movie_database()
        # Degree-two variable: its row is strictly below each label
        # summary, so the products cannot take the saturated-source
        # shortcut and must gather from the CSR matrices.
        pattern = Graph()
        pattern.add_edge("d", "directed", "m")
        pattern.add_edge("d", "worked_with", "c")
        with use_kernel("batched"):
            largest_dual_simulation(pattern, db)
            matrices = db.matrices()
            largest_dual_simulation(pattern, db)
            assert db.matrices() is matrices

    def test_graph_mutation_invalidates_blocks(self):
        db = example_movie_database()
        pattern = _chain(["directed"])
        with use_kernel("batched"):
            largest_dual_simulation(pattern, db)
            matrices = db.matrices()
            db.add_edge("NewDirector", "directed", "NewMovie")
            assert db.matrices() is not matrices
            # And the solve after the mutation sees the new edge.
            result = largest_dual_simulation(pattern, db)
        assert "NewDirector" in result.candidates(
            result.soi.variable_by_origin("v0")
        )


class TestSaturatedSourceShortcut:
    def test_saturated_source_equals_dual_summary_product(self):
        """A degree-one variable's row equals the label summary after
        Eq.-(13) initialization, so its round-1 product must come out
        of the shortcut bit-identical to the computed product."""
        g = Graph()
        for i in range(40):
            g.add_edge(f"s{i}", "a", f"t{i % 7}")
        # Non-uniform second label so the solve is not trivial.
        for i in range(0, 40, 3):
            g.add_edge(f"t{i % 7}", "b", f"u{i % 5}")
        pattern = _chain(["a", "b"])
        _assert_identical(*_solve_both(pattern, g))

"""Tests for plan compilation (per-step constants of Alg. 4/5)."""
import pytest

from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan, mask_steps, step_masks
from repro.hyper.model import Hypergraph, fig1_data, fig1_query
from repro.hyper.storage import SignatureStore


@pytest.fixture(scope="module")
def fig1_plan():
    H, q = fig1_data(), fig1_query()
    phi = compute_matching_order(q, SignatureStore(H).card)
    return q, compile_plan(q, phi)


class TestCompile:
    def test_step_zero_has_no_constraints(self, fig1_plan):
        _, plan = fig1_plan
        s0 = plan.steps[0]
        assert s0.constraints == ()
        assert s0.non_adjacent == ()

    def test_sig_matches_query_edge(self, fig1_plan):
        q, plan = fig1_plan
        for step in plan.steps:
            assert step.sig == q.signature(step.eq)

    def test_expected_vcount_monotone(self, fig1_plan):
        _, plan = fig1_plan
        counts = [s.expected_vcount for s in plan.steps]
        assert counts == sorted(counts)
        assert counts[-1] == plan.q.n_vertices

    def test_profiles_cover_new_edge(self, fig1_plan):
        q, plan = fig1_plan
        for step in plan.steps:
            assert len(step.expected_profiles) == q.arity(step.eq)
            for label, mask in step.expected_profiles:
                assert isinstance(label, str) and isinstance(mask, int)

    def test_profiles_sorted(self, fig1_plan):
        _, plan = fig1_plan
        for step in plan.steps:
            assert list(step.expected_profiles) == sorted(step.expected_profiles)

    def test_profile_positions_include_current_step(self, fig1_plan):
        q, plan = fig1_plan
        for step in plan.steps:
            for _, mask in step.expected_profiles:
                positions = mask_steps(mask)
                assert positions[-1] == step.i  # no bit above step i
        # Each vertex's mask holds exactly the steps whose hyperedge
        # contains it.
        last = plan.steps[-1]
        masks = step_masks(q.edges[eq] for eq in plan.phi)
        expected = sorted((q.label(u), masks[u]) for u in q.edges[last.eq])
        assert list(last.expected_profiles) == expected

    def test_shared_profiles_are_covered_part_without_current_bit(self, fig1_plan):
        q, plan = fig1_plan
        assert plan.steps[0].shared_profiles == ()
        for step in plan.steps:
            assert list(step.shared_profiles) == sorted(step.shared_profiles)
            bit = 1 << step.i
            # expected_profiles restricted to the vertices that carry
            # another step's bit (covered before step i), bit i cleared.
            expected = sorted(
                (label, mask & ~bit)
                for label, mask in step.expected_profiles
                if mask != bit
            )
            assert list(step.shared_profiles) == expected
            prev = step_masks(q.edges[eq] for eq in plan.phi[: step.i])
            by_vertex = sorted((q.label(u), prev[u]) for u in q.edges[step.eq] if u in prev)
            assert by_vertex == expected
        assert plan.steps[-1].shared_profiles  # fig1's query is connected

    def test_constraint_degrees_are_partial_query_degrees(self):
        # Query: triangle of 2-edges; at step 2, shared vertices have
        # partial-query degree 1 or 2 depending on overlap history.
        q = Hypergraph(["A", "A", "A"], [[0, 1], [1, 2], [0, 2]])
        plan = compile_plan(q, [0, 1, 2])
        last = plan.steps[2]
        degs = sorted(c.degree for c in last.constraints)
        assert degs == [1, 1]  # v0 in e0 only; v2 in e1 only

    def test_non_adjacent_detection(self):
        # Path of three 2-edges: e0 and e2 share nothing.
        q = Hypergraph(["A", "A", "A", "A"], [[0, 1], [1, 2], [2, 3]])
        plan = compile_plan(q, [0, 1, 2])
        assert plan.steps[2].non_adjacent == (0,)

    def test_constraint_dedup(self):
        # Two identical-label vertices shared with the same prior step
        # at the same degree produce a single deduplicated constraint.
        q = Hypergraph(["A", "A", "B"], [[0, 1, 2], [0, 1]])
        plan = compile_plan(q, [0, 1])
        cons = plan.steps[1].constraints
        assert len(cons) == 1
        assert cons[0].label == "A" and cons[0].j == 0

    def test_invalid_phi_rejected(self):
        q = Hypergraph(["A", "A"], [[0, 1]])
        with pytest.raises(ValueError):
            compile_plan(q, [0, 1])
        with pytest.raises(ValueError):
            compile_plan(q, [1])

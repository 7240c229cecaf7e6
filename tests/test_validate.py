"""Tests for embedding validation (paper Alg. 5, Theorem V.2).

The heart of the correctness argument: profile-based validation must
agree with the exact bijection checker on every reachable partial
embedding.
"""
from collections import Counter

from tests.helpers import small_instance
from repro.core.candidates import generate_candidates
from repro.core.order import compute_matching_order
from repro.core.plan import compile_plan, mask_steps, step_masks
from repro.core.validate import exact_embedding_exists, is_valid_embedding
from repro.hyper.model import Hypergraph, fig1_data, fig1_query


def validate(step, new_vsets, H, stats=None):
    """Alg. 5 on ``new_vsets`` (candidate last), with the parent's step
    bitmasks built as the engine builds them."""
    incid = step_masks(new_vsets[:-1])
    return is_valid_embedding(step, incid, new_vsets[-1], stats, H=H)


class TestFig1:
    def test_true_embedding_validates(self):
        H, q = fig1_data(), fig1_query()
        plan = compile_plan(q, [0, 1, 2])
        new_vsets = [H.edges[0], H.edges[2], H.edges[4]]  # (e1,e3,e5)
        assert validate(plan.steps[2], new_vsets, H)

    def test_cross_branch_mix_rejected(self):
        H, q = fig1_data(), fig1_query()
        plan = compile_plan(q, [0, 1, 2])
        # (e1, e3, e6): e6 does not contain f(u0)=v0 -> invalid.
        new_vsets = [H.edges[0], H.edges[2], H.edges[5]]
        assert not validate(plan.steps[2], new_vsets, H)
        assert not exact_embedding_exists(plan, new_vsets, H)

    def test_vertex_count_check_obs_v5(self):
        H, q = fig1_data(), fig1_query()
        plan = compile_plan(q, [0, 1, 2])
        stats = Counter()
        # Valid branch passes both stages; counters advance.
        validate(plan.steps[2], [H.edges[0], H.edges[2], H.edges[4]], H, stats)
        assert stats["filtered"] == 1
        assert stats["validated"] == 1

    def test_data_vertex_profiles_contents(self):
        H, q = fig1_data(), fig1_query()
        plan = compile_plan(q, [0, 1, 2])
        incid = step_masks([H.edges[0], H.edges[2]])
        profs = sorted((H.label(v), incid[v]) for v in H.edges[2])
        # e3 = {v0, v1, v2}; v2 also in e1 (step 0): steps {0, 1} = 0b11.
        assert profs == [("A", 0b10), ("A", 0b11), ("B", 0b10)]
        assert sorted((lbl, mask_steps(mask)) for lbl, mask in profs) == [
            ("A", (0, 1)),
            ("A", (1,)),
            ("B", (1,)),
        ]
        # The data side's full profiles equal the query side's; Alg. 5
        # compares only the shared vertex v2, without the current bit.
        assert tuple(profs) == plan.steps[1].expected_profiles
        assert plan.steps[1].shared_profiles == (("A", 0b01),)
        assert validate(plan.steps[1], [H.edges[0], H.edges[2]], H)


class TestOneSharedVertex:
    """A step whose query hyperedge shares one vertex with the partial
    query: phi = ({0,1}, {1,2}, {2,3}) on one label, so step 2's shared
    profile is ("A", 0b10) and only the mask can tell candidates apart."""

    H = Hypergraph(["A"] * 4, [[0, 1], [1, 2], [1, 3], [0, 2], [2, 3]])
    plan = compile_plan(Hypergraph(["A"] * 4, [[0, 1], [1, 2], [2, 3]]), [0, 1, 2])

    def check(self, c):
        stats = Counter()
        new_vsets = [self.H.edges[0], self.H.edges[1], self.H.edges[c]]
        ok = validate(self.plan.steps[2], new_vsets, self.H, stats)
        assert ok == exact_embedding_exists(self.plan, new_vsets, self.H)
        return ok, stats

    def test_shared_profile(self):
        assert self.plan.steps[2].shared_profiles == (("A", 0b10),)
        assert self.check(4) == (True, Counter(filtered=1, validated=1))

    def test_same_label_wrong_mask(self):
        # {1, 3} shares v1, in both matched hyperedges: mask 0b11.
        ok, stats = self.check(2)
        assert not ok
        assert (stats["filtered"], stats["validated"]) == (1, 0)

    def test_two_shared_vertices_fail_vertex_count(self):
        # {0, 2} shares v0 and v2: 3 vertices in all, not 4.
        ok, stats = self.check(3)
        assert not ok
        assert (stats["filtered"], stats["validated"]) == (0, 0)


class TestEquivalenceWithExact:
    def test_profile_equals_exact_on_reachable_states(self):
        """Theorem V.2: for every candidate reachable through the real
        pipeline, profile validation == exact bijection existence."""
        agreements = 0
        for seed in range(25):
            inst = small_instance(seed)
            if inst is None:
                continue
            H, store, q = inst
            phi = compute_matching_order(q, store.card)
            plan = compile_plan(q, phi)
            frontier = [[eid] for eid in store.scan(plan.steps[0].sig)]
            for i in range(1, plan.n_steps):
                nxt = []
                for m in frontier[:50]:
                    vsets = [H.edges[e] for e in m]
                    incid = step_masks(vsets)
                    for c in generate_candidates(
                        plan.steps[i], vsets, store, None, incid
                    ):
                        if c in m:
                            continue
                        new = vsets + [H.edges[c]]
                        prof = is_valid_embedding(
                            plan.steps[i], incid, H.edges[c], H=H
                        )
                        exact = exact_embedding_exists(plan, new, H)
                        assert prof == exact, (seed, m, c)
                        agreements += 1
                        if prof:
                            nxt.append(m + [c])
                frontier = nxt
        assert agreements > 100

    def test_duplicate_edge_rejected_by_profiles(self):
        # Using the same data hyperedge twice can never validate.
        H = Hypergraph(["A", "A", "A"], [[0, 1], [1, 2]])
        q = Hypergraph(["A", "A", "A"], [[0, 1], [1, 2]])
        plan = compile_plan(q, [0, 1])
        new_vsets = [H.edges[0], H.edges[0]]
        assert not validate(plan.steps[1], new_vsets, H)


class TestExactChecker:
    def test_exact_respects_labels(self):
        H = Hypergraph(["A", "B"], [[0, 1]])
        q = Hypergraph(["A", "A"], [[0, 1]])
        plan = compile_plan(q, [0])
        assert not exact_embedding_exists(plan, [H.edges[0]], H)

    def test_exact_single_edge_match(self):
        H = Hypergraph(["A", "B"], [[0, 1]])
        q = Hypergraph(["B", "A"], [[0, 1]])
        plan = compile_plan(q, [0])
        assert exact_embedding_exists(plan, [H.edges[0]], H)

    def test_exact_prefix_check(self):
        H, q = fig1_data(), fig1_query()
        plan = compile_plan(q, [0, 1, 2])
        assert exact_embedding_exists(
            plan, [H.edges[0], H.edges[2]], H, n_steps=2
        )

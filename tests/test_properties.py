"""Property-based tests (hypothesis) over random hypergraphs.

These complement the seeded cross-validation tests with
adversarially-shrunk instances: plan compilation vs its per-pair
definition, profile validation vs the exact bijection oracle, storage
invariants, and scheduler conservation.
"""
import dataclasses

from hypothesis import given, settings, strategies as st

from repro.baselines.bruteforce import brute_force
from repro.core.candidates import generate_candidates
from repro.core.local_engine import embeddings_in_query_edge_order, hgmatch
from repro.core.order import compute_matching_order
from repro.core.plan import PlanStep, compile_plan, step_masks
from repro.core.validate import exact_embedding_exists, is_valid_embedding
from repro.engine.scheduler import simulate_workstealing
from repro.engine.tasks import HGMatchTaskExecutor
from repro.hyper.model import Hypergraph
from repro.hyper.storage import SignatureStore


# Labels that hold separator characters, unicode or nothing at all:
# an engine that encodes label multisets as joined strings conflates
# e.g. one "A,B" vertex with an "A" and a "B" vertex.
ADVERSARIAL_ALPHABET = ["A", "A,B", "x|0", "E|A", "ü", ""]
# Two-label slices of it, so that labels repeat and the label checks
# of Alg. 4/5, not signatures alone, decide most candidates.
ADVERSARIAL_PAIRS = [
    ADVERSARIAL_ALPHABET[a : a + 2] for a in range(0, len(ADVERSARIAL_ALPHABET), 2)
]


@st.composite
def small_hypergraphs(draw, alphabets=(["A", "B"], ADVERSARIAL_ALPHABET)):
    """Tiny labelled hypergraphs with arity <= 4, labelled from one of
    ``alphabets``: by default either {A, B} or the adversarial one."""
    n = draw(st.integers(4, 9))
    alphabet = draw(st.sampled_from(alphabets))
    labels = [draw(st.sampled_from(alphabet)) for _ in range(n)]
    n_edges = draw(st.integers(2, 7))
    edges: list[frozenset[int]] = []
    seen = set()
    for _ in range(n_edges):
        a = draw(st.integers(1, min(4, n)))
        e = frozenset(
            draw(
                st.lists(
                    st.integers(0, n - 1), min_size=a, max_size=a, unique=True
                )
            )
        )
        if e and e not in seen:
            seen.add(e)
            edges.append(e)
    return Hypergraph(labels, edges) if edges else Hypergraph(labels, [[0]])


def connected_query_from(H: Hypergraph, k: int) -> Hypergraph | None:
    """Deterministically grab a connected k-edge subhypergraph."""
    chosen = [0]
    frontier = set(H.adj_edges(0))
    while len(chosen) < k and frontier:
        nxt = min(frontier)
        chosen.append(nxt)
        frontier |= set(H.adj_edges(nxt))
        frontier -= set(chosen)
    if len(chosen) < k:
        return None
    q, _ = H.subhypergraph(chosen)
    return q if q.is_connected() else None


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), st.integers(1, 3))
def test_hgmatch_agrees_with_brute_force(H, k):
    q = connected_query_from(H, min(k, H.n_edges))
    if q is None:
        return
    store = SignatureStore(H)
    bf, bft = brute_force(H, q, collect=True)
    r = hgmatch(H, store, q, collect=True)
    assert r.count == bf
    assert embeddings_in_query_edge_order(r) == bft


@settings(max_examples=150, deadline=None)
@given(
    # One label: only the step mask decides a one-shared-vertex check.
    small_hypergraphs(alphabets=[ADVERSARIAL_ALPHABET, *ADVERSARIAL_PAIRS, ["A"]]),
    st.integers(2, 5),
    st.data(),
)
def test_incremental_alg5_equals_exact(H, k, data):
    """Theorem V.2 for the shared-profile Alg. 5, under any matching
    order: on every hyperedge ``c`` of the partition S(phi[i]) outside
    the partial embedding (its precondition), not only on Alg. 4's
    output, it equals a full (label, mask | bit i) multiset check and
    the exact bijection oracle. Alg. 4 must keep every valid one. On
    Alg. 4's candidates, the ``from_alg4`` form, which lets the vertex
    count alone decide at one-shared steps, equals both as well."""
    q = connected_query_from(H, min(k, H.n_edges))
    if q is None:
        return
    store = SignatureStore(H)
    plan = compile_plan(q, data.draw(st.permutations(range(q.n_edges))))
    stack = [(eid,) for eid in store.scan(plan.steps[0].sig)]
    while stack:
        m = stack.pop()
        if len(m) == plan.n_steps:
            continue
        step = plan.steps[len(m)]
        bit = 1 << step.i
        vsets = [H.edges[eid] for eid in m]
        incid = step_masks(vsets)
        cands = set(generate_candidates(step, vsets, store, None, incid))
        for c in store.scan(step.sig):
            if c in m:
                continue
            vs = H.edges[c]
            ok = is_valid_embedding(step, incid, vs, H=H)
            full = len(incid.keys() | vs) == step.expected_vcount and tuple(
                sorted((H.labels[v], incid.get(v, 0) | bit) for v in vs)
            ) == step.expected_profiles
            assert ok == full == exact_embedding_exists(plan, vsets + [vs], H)
            if c in cands:
                assert is_valid_embedding(step, incid, vs, H=H, from_alg4=True) == full
            if ok:
                assert c in cands
                stack.append(m + (c,))


def reference_plan(q: Hypergraph, phi: list[int]) -> list[dict]:
    """Every PlanStep field by direct definition: per step ``i``, the
    intersection of phi[i] with each earlier phi[j] gives adjacency and
    Alg. 4's constraints (by j, then by vertex, first copy kept); the
    profiles are read off the vertex -> step-bitmask map."""
    steps, masks, sum_arity = [], {}, 0
    for i, eq in enumerate(phi):
        e = q.edges[eq]
        cons: list[tuple[int, str, int]] = []
        for j in range(i):
            for u in sorted(q.edges[phi[j]] & e):
                c = (j, q.label(u), masks[u].bit_count())
                if c not in cons:
                    cons.append(c)
        shared = tuple(sorted((q.label(u), masks[u]) for u in e if u in masks))
        for u in e:
            masks[u] = masks.get(u, 0) | 1 << i
        sum_arity += len(e)
        steps.append(
            {
                "i": i,
                "eq": eq,
                "sig": q.signature(eq),
                "non_adjacent": tuple(j for j in range(i) if not q.edges[phi[j]] & e),
                "constraints": tuple(cons),
                "expected_vcount": len(masks),
                "shared_profiles": shared,
                "sum_arity": sum_arity,
                "expected_profiles": tuple(sorted((q.label(u), masks[u]) for u in e)),
            }
        )
    return steps


@settings(max_examples=150, deadline=None)
@given(
    small_hypergraphs(alphabets=[ADVERSARIAL_ALPHABET, *ADVERSARIAL_PAIRS, ["A"]]),
    st.integers(1, 5),
    st.data(),
)
def test_compile_plan_equals_reference(H, k, data):
    """The one-pass compiler equals the per-pair definition field by
    field, in constraint order, under any order: on a connected query
    (a single hyperedge when k = 1) and on the whole, possibly
    disconnected, hypergraph."""
    fields = [f.name for f in dataclasses.fields(PlanStep)]
    for q in (connected_query_from(H, min(k, H.n_edges)), H):
        if q is None:
            continue
        phi = data.draw(st.permutations(range(q.n_edges)))
        plan = compile_plan(q, phi)
        assert plan.phi == tuple(phi)
        got = [
            {
                **{f: getattr(step, f) for f in fields},
                "constraints": tuple((c.j, c.label, c.degree) for c in step.constraints),
                "expected_profiles": step.expected_profiles,
            }
            for step in plan.steps
        ]
        assert got == reference_plan(q, phi)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_storage_invariants(H):
    store = SignatureStore(H)
    # Partitions exactly cover the edges, grouped by signature.
    covered = sorted(e for p in store.partitions.values() for e in p)
    assert covered == list(range(H.n_edges))
    for sig, part in store.partitions.items():
        assert all(H.signature(e) == sig for e in part)
    # Posting totals equal incidence totals.
    postings = sum(
        len(p) for inv in store.inverted.values() for p in inv.values()
    )
    assert postings == sum(H.arity(e) for e in range(H.n_edges))


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.integers(2, 3), st.integers(1, 6))
def test_scheduler_conserves_embeddings(H, k, p):
    q = connected_query_from(H, min(k, H.n_edges))
    if q is None:
        return
    store = SignatureStore(H)
    plan = compile_plan(q, compute_matching_order(q, store.card))
    expected = hgmatch(H, store, q).count
    sim = simulate_workstealing(HGMatchTaskExecutor(plan, store), p)
    assert sim.emitted == expected


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs())
def test_signature_is_label_multiset(H):
    for e in range(H.n_edges):
        sig = H.signature(e)
        assert list(sig) == sorted(sig)
        assert sorted(sig) == sorted(H.label(v) for v in H.edges[e])

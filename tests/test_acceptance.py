"""Acceptance suite: one test per criterion, each printing a summary line.

Run with -s to see the lines; every criterion is also enforced by asserts.
"""

import itertools
import json
import random
import time

import pytest

from kotzigcdc.amiable import (
    STANDARD,
    SYMMETRIC,
    amiable_to_parity,
    construct_amiable_concentrated_row,
    construct_amiable_two_busy_columns,
    find_parity_coloring,
    identity_f,
    is_parity_coloring,
    parity_to_amiable,
)
from kotzigcdc.catalog import k4, petersen, theta_graph
from kotzigcdc.cli import run_pipeline
from kotzigcdc.corpus import cubic_corpus
from kotzigcdc.errors import HypothesisError
from kotzigcdc.multigraph import Multigraph, components
from kotzigcdc.rowgraph import (
    AmiableColoring,
    RowEdge,
    RowGraph,
    brute_force_amiable,
    enumerate_row_graphs,
    extend_to_amiable,
    is_amiable,
    row_graph_to_json,
)
from kotzigcdc.switching import BLUE, RED, acyclic_t_join, switchable_to_blue
from tests.rearrangement import random_rearrangement
from tests.test_amiable import has_parity_coloring_bruteforce
from tests.test_rowgraph import row_graph_from_json
from tests.test_switching import apply_switch_sequence, is_all_blue, t_join_degrees_ok


def test_criterion_1_corpus_end_to_end():
    """Every connected cubic graph on <= 10 vertices: whenever a frame with
    a well-connected coloring is found the constructed cover verifies."""
    start = time.perf_counter()
    outcomes = {}
    for g in cubic_corpus(10):
        report = run_pipeline(g, strategy="two_factor")
        if report.outcome != "verified":
            report = run_pipeline(g, strategy="exhaustive")
        outcomes[report.outcome] = outcomes.get(report.outcome, 0) + 1
        assert report.outcome in ("verified", "no_frame", "no_witness"), report.error
    elapsed = time.perf_counter() - start
    assert outcomes.get("invariant_error", 0) == 0
    assert outcomes.get("no_witness", 0) == 0
    assert outcomes == {"verified": 90, "no_frame": 30}
    assert elapsed < 600, f"corpus run took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1: 120 graphs, 90 verified covers, 30 frameless "
          f"(all bridged), 0 failures, {elapsed:.1f}s  PASS")


def test_criterion_2_named_instances():
    timings = {}

    t0 = time.perf_counter()
    th = theta_graph()
    rep = run_pipeline(th, strategy="two_factor")
    assert rep.outcome == "verified"
    cycles = sorted(sorted(c) for cs in rep.certificate["classes"].values() for c in cs)
    assert cycles == [[0, 1], [0, 2], [1, 2]]  # the three digons
    timings["theta"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    g = k4()
    rep = run_pipeline(g, strategy="user_supplied", frame_edges=list(g.edge_ids))
    assert rep.outcome == "verified"
    cycles = [c for cs in rep.certificate["classes"].values() for c in cs]
    assert len(cycles) == 3 and all(len(c) == 4 for c in cycles)
    timings["k4"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rep = run_pipeline(petersen(), strategy="exhaustive")
    assert rep.outcome == "verified"
    timings["petersen"] = time.perf_counter() - t0

    assert all(dt <= 5.0 for dt in timings.values()), timings
    pretty = ", ".join(f"{k}={v:.2f}s" for k, v in timings.items())
    print(f"\nACCEPTANCE 2: named instances verified ({pretty})  PASS")


def test_criterion_3_switching_agreement():
    rng = random.Random(20240816)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(0, 2 * n)
        g = Multigraph(range(n), [(i, rng.randrange(n), rng.randrange(n)) for i in range(m)])
        coloring = {e: rng.choice([RED, BLUE]) for e in g.edge_ids}
        mine = switchable_to_blue(g, coloring)
        brute = None
        verts = list(g.vertices)
        for mask in range(1 << len(verts)):
            seq = [v for i, v in enumerate(verts) if mask >> i & 1]
            if is_all_blue(apply_switch_sequence(g, coloring, seq)):
                brute = seq
                break
        assert (mine is None) == (brute is None)
        if mine is not None:
            assert is_all_blue(apply_switch_sequence(g, coloring, mine))
        checked += 1
    print(f"\nACCEPTANCE 3: switching vs 2^n brute force, {checked}/500 agree  PASS")


def test_criterion_4_t_join_contract():
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(1, 10)
        m = rng.randint(0, 2 * n)
        g = Multigraph(range(n), [(i, rng.randrange(n), rng.randrange(n)) for i in range(m)])
        comps = components(g)
        t = set()
        for comp in comps:
            pick = [v for v in comp if rng.random() < 0.5]
            if len(pick) % 2:
                pick.pop()
            t.update(pick)
        join = acyclic_t_join(g, t)
        assert t_join_degrees_ok(g, t, join)
        sub = g.subgraph_of_edges(join, keep_vertices=g.vertices)
        assert sub.num_edges() == sub.num_vertices() - len(components(sub))
        if n >= 1:
            bad = set(t) ^ {comps[0][0]}
            with pytest.raises(HypothesisError):
                acyclic_t_join(g, bad)
    print("\nACCEPTANCE 4: t-join parity contract and rejection, 500/500  PASS")


# -- criterion 5: the big sweep -------------------------------------------------

ROW_PAIRS = [(i1, i2) for i1 in (1, 2, 3) for i2 in (1, 2, 3)]


def _bit(col: int, color: int) -> int:
    return 1 << ((col - 1) * 3 + (color - 1))


# counter kinds for the parity relations
W1, W2, W3, C12R1, C12R2, C23R2, C23R3 = range(7)


def _ctr(kind: int, col: int) -> int:
    return 1 << (kind * 3 + (col - 1))


def _precompute_pair(p: int, q: int, count: int):
    """All edge multisets of a given size on one column pair, aggregated.

    Each entry: (forced parity mask, base mask of binary edges, tuple of
    binary-edge deltas, relation-counter parity mask, row-connection bits,
    the raw assignment for reconstruction)."""
    out = []
    for assignment in itertools.combinations_with_replacement(ROW_PAIRS, count):
        forced = 0
        base = 0
        deltas = []
        counters = 0
        rowconn = 0
        for (i1, i2) in assignment:
            if i1 == i2:
                a = i1
                c1, c2 = sorted({1, 2, 3} - {a})
                base ^= _bit(p, c1) ^ _bit(q, c1)
                deltas.append(_bit(p, c1) ^ _bit(p, c2) ^ _bit(q, c1) ^ _bit(q, c2))
                rowconn |= 1 << (a - 1)
                if a == 1:
                    counters ^= _ctr(W1, p) ^ _ctr(W1, q)
                elif a == 2:
                    counters ^= _ctr(W2, p) ^ _ctr(W2, q)
                else:
                    counters ^= _ctr(W3, p) ^ _ctr(W3, q)
            else:
                color = 6 - i1 - i2
                forced ^= _bit(p, color) ^ _bit(q, color)
                rows = {i1, i2}
                if rows == {1, 2}:
                    counters ^= _ctr(C12R1, p if i1 == 1 else q)
                    counters ^= _ctr(C12R2, p if i1 == 2 else q)
                elif rows == {2, 3}:
                    counters ^= _ctr(C23R2, p if i1 == 2 else q)
                    counters ^= _ctr(C23R3, p if i1 == 3 else q)
        out.append((forced, base, tuple(deltas), counters, rowconn, assignment))
    return out


def _xor_solvable(target: int, deltas) -> bool:
    basis = []
    for d in deltas:
        for b in basis:
            d = min(d, d ^ b)
        if d:
            basis.append(d)
            basis.sort(reverse=True)
    for b in basis:
        target = min(target, target ^ b)
    return target == 0


def _row_blocks(joined_pairs, cols):
    """Partition of the columns induced by joined (p, q) pairs."""
    parent = {c: c for c in cols}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in joined_pairs:
        parent[find(p)] = find(q)
    blocks = {}
    for c in cols:
        blocks.setdefault(find(c), []).append(c)
    return list(blocks.values())


def _parity_exists_fast(s, rel12, rel23, blocks_per_row):
    for bits in itertools.product((0, 1), repeat=s):
        black = [[False] * 3 for _ in range(s)]
        for j in range(s):
            b1 = bits[j]
            b2 = b1 if rel12[j] else 1 - b1
            b3 = b2 if rel23[j] else 1 - b2
            black[j] = (b1, b2, b3)
        ok = True
        for row in (1, 2, 3):
            for block in blocks_per_row[row - 1]:
                if sum(black[j - 1][row - 1] for j in block) % 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _sweep_three_way(s, combined, sample_hook=None):
    """combined: iterable of (forced, base, deltas, counters, joined_by_row,
    assignments, key) as _instances_for_s yields them; returns the numbers
    of instances and of colorable ones, and asserts agreement.

    The three answers read only the target forced ^ base, the set of
    deltas, the counter mask and the set of joined pairs in each row, so
    they are worked out once per value of those four and every instance
    is checked through its key, one integer that encodes the four."""
    counted = 0
    positive = 0
    answers = {}
    for forced, base, deltas, counters, joined_by_row, assignments, key in combined:
        if key not in answers:
            answers[key] = _three_answers(s, forced ^ base, deltas, counters, joined_by_row)
        ext, std, sym = answers[key]
        assert ext == std == sym, (s, assignments, ext, std, sym)
        counted += 1
        positive += ext
        if sample_hook is not None:
            sample_hook(counted, assignments, ext)
    return counted, positive


def _three_answers(s, target, deltas, counters, joined_by_row):
    """Extension at identity f, standard and symmetric parity colouring."""
    ext = _xor_solvable(target, deltas)
    rel12 = []
    rel23s = []
    rel23y = []
    for j in range(1, s + 1):
        w1 = counters >> (W1 * 3 + j - 1) & 1
        w2 = counters >> (W2 * 3 + j - 1) & 1
        w3 = counters >> (W3 * 3 + j - 1) & 1
        c12r1 = counters >> (C12R1 * 3 + j - 1) & 1
        c12r2 = counters >> (C12R2 * 3 + j - 1) & 1
        c23r2 = counters >> (C23R2 * 3 + j - 1) & 1
        c23r3 = counters >> (C23R3 * 3 + j - 1) & 1
        rel12.append((w1 + c12r1 + c12r2) % 2 == 0)
        rel23s.append((w2 + c23r2 + w3 + c23r3) % 2 == 0)
        rel23y.append((w2 + c23r2 + c23r3) % 2 == 0)
    cols = list(range(1, s + 1))
    blocks_per_row = [
        _row_blocks(joined_by_row[row - 1], cols) for row in (1, 2, 3)
    ]
    std = _parity_exists_fast(s, rel12, rel23s, blocks_per_row)
    sym = _parity_exists_fast(s, rel12, rel23y, blocks_per_row)
    return ext, std, sym


def _instances_for_s(s, max_edges):
    """Yield combined aggregate data for every eulerian instance, with its
    sweep key.  The key packs, from the top: a mask with bit d for every
    distinct delta d, the counter mask, a mask with bit (row - 1) * P + k
    when that row joins the k-th of the P column pairs, and the target
    forced ^ base.  Each field has a width of its own, so two instances
    share a key exactly when they share those four values."""
    pairs = list(itertools.combinations(range(1, s + 1), 2))
    target_width = 3 * s  # _bit
    joined_width = 3 * len(pairs)
    counter_width = 7 * 3  # _ctr: 7 kinds on up to 3 columns
    cache = {}

    def pair_lists(k, c):
        """The aggregated multisets on pair k with c edges, each with the
        masks of its deltas and of its joined (row, pair)s."""
        if (k, c) not in cache:
            cache[k, c] = [
                entry
                + (
                    sum(1 << d for d in set(entry[2])),
                    sum(1 << (row - 1) * len(pairs) + k for row in (1, 2, 3) if entry[4] >> (row - 1) & 1),
                )
                for entry in _precompute_pair(*pairs[k], c)
            ]
        return cache[k, c]

    def vectors(idx, left, acc):
        if idx == len(pairs):
            yield tuple(acc)
            return
        for c in range(left + 1):
            acc.append(c)
            yield from vectors(idx + 1, left - c, acc)
            acc.pop()

    for mults in vectors(0, max_edges, []):
        # eulerian: every column's degree even
        ok = True
        for col in range(1, s + 1):
            deg = sum(m for (p, q), m in zip(pairs, mults) if col in (p, q))
            if deg % 2:
                ok = False
                break
        if not ok:
            continue
        lists = [pair_lists(k, m) for k, m in enumerate(mults)]
        for combo in itertools.product(*lists):
            forced = base = counters = delta_set = joined_set = 0
            deltas = []
            joined = ([], [], [])
            assignments = []
            for (p, q), entry in zip(pairs, combo):
                f, b, d, c, rc, raw, d_bits, j_bits = entry
                forced ^= f
                base ^= b
                counters ^= c
                deltas.extend(d)
                delta_set |= d_bits
                joined_set |= j_bits
                for row in (1, 2, 3):
                    if rc >> (row - 1) & 1:
                        joined[row - 1].append((p, q))
                assignments.append(((p, q), raw))
            key = (delta_set << counter_width | counters) << joined_width | joined_set
            key = key << target_width | forced ^ base
            yield forced, base, tuple(deltas), counters, joined, assignments, key


def _rebuild_row_graph(s, assignments):
    edges = []
    eid = 0
    for (p, q), raw in assignments:
        for (i1, i2) in raw:
            edges.append(RowEdge(eid, (i1, p), (i2, q)))
            eid += 1
    return RowGraph(s, edges)


def test_criterion_5_three_way_equivalence():
    """Amiable extension at fixed f, parity coloring and symmetric parity
    coloring exist together on every eulerian instance with s <= 3 and at
    most 8 edges; round-trip conversions checked on a deterministic sample
    through the library code paths."""
    start = time.perf_counter()
    total = 0
    positives = 0
    samples = 0

    for s in (1, 2, 3):
        def hook(counter, assignments, ext, s=s):
            nonlocal samples
            if counter % 997 != 1:
                return
            r = _rebuild_row_graph(s, assignments)
            g = extend_to_amiable(r, identity_f(r))
            std = find_parity_coloring(r, STANDARD)
            sym = find_parity_coloring(r, SYMMETRIC)
            assert (g is not None) == (std is not None) == (sym is not None) == ext
            if s <= 2:
                slow_std = has_parity_coloring_bruteforce(r, STANDARD)
                assert (slow_std is None) == (std is None)
            if g is not None:
                a = AmiableColoring(f=identity_f(r), g=g)
                phi = amiable_to_parity(r, a)
                assert is_parity_coloring(r, phi, STANDARD)
                assert is_amiable(r, parity_to_amiable(r, phi))
                psi = amiable_to_parity(r, a, SYMMETRIC)
                assert is_parity_coloring(r, psi, SYMMETRIC)
                assert is_amiable(r, parity_to_amiable(r, psi))
            samples += 1

        counted, positive = _sweep_three_way(s, _instances_for_s(s, 8), hook)
        total += counted
        positives += positive

    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 5: three-way agreement on {total} instances "
          f"({positives} colorable), {samples} library round-trip samples, "
          f"{elapsed:.0f}s  PASS")


def test_sweep_formulation_matches_library_exhaustively():
    """The aggregated sweep used by criterion 5 equals the library checkers
    on every instance small enough to compare directly."""
    for s, max_edges in ((2, 4), (3, 4)):
        keys = {}  # the sweep's key -> the four values it stands for
        for forced, base, deltas, counters, joined, assignments, key in _instances_for_s(
            s, max_edges
        ):
            r = _rebuild_row_graph(s, assignments)
            ext, std, sym = _three_answers(s, forced ^ base, deltas, counters, joined)
            assert ext == (extend_to_amiable(r, identity_f(r)) is not None)
            assert std == (find_parity_coloring(r, STANDARD) is not None)
            assert sym == (find_parity_coloring(r, SYMMETRIC) is not None)
            values = (forced ^ base, frozenset(deltas), counters, tuple(frozenset(pairs) for pairs in joined))
            assert keys.setdefault(key, values) == values
        # one key per value of the four, and back
        assert len(set(keys.values())) == len(keys)


def test_criterion_6_shape_constructors():
    """On every generated instance meeting a constructor's shape hypothesis
    (s <= 4, <= 10 edges), the construction succeeds, its output is amiable
    and the oracle agrees."""
    rng = random.Random(90125)
    instances = []
    for r in enumerate_row_graphs(2, 6):
        instances.append(r)

    def random_eulerian(s, max_edges):
        # parallel pairs and column cycles keep all degrees even
        edges = []
        eid = 0
        budget = rng.randint(0, max_edges)
        while budget - len(edges) >= 2:
            if rng.random() < 0.6:
                p, q = rng.sample(range(1, s + 1), 2)
                a, b = rng.choice(ROW_PAIRS), rng.choice(ROW_PAIRS)
                edges.append(RowEdge(eid, (a[0], p), (a[1], q)))
                edges.append(RowEdge(eid + 1, (b[0], p), (b[1], q)))
                eid += 2
            else:
                k = rng.randint(3, s) if s >= 3 else 2
                cols = rng.sample(range(1, s + 1), k)
                rows = [rng.randint(1, 3) for _ in cols]
                for idx in range(k):
                    p, q = cols[idx], cols[(idx + 1) % k]
                    edges.append(RowEdge(eid, (rows[idx], p), (rows[(idx + 1) % k], q)))
                    eid += 1
        return RowGraph(s, edges)

    def concentrated(s, max_edges, row):
        # within-row structure only, plus optional parallel pairs
        edges = []
        eid = 0
        cols = list(range(1, s + 1))
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(2, s)
            cyc = rng.sample(cols, k)
            if k == 2:
                p, q = cyc
                edges.append(RowEdge(eid, (row, p), (row, q)))
                edges.append(RowEdge(eid + 1, (row, p), (row, q)))
                eid += 2
            else:
                for idx in range(k):
                    p, q = cyc[idx], cyc[(idx + 1) % k]
                    edges.append(RowEdge(eid, (row, p), (row, q)))
                    eid += 1
            if eid >= max_edges - 1:
                break
        return RowGraph(s, edges[:max_edges])

    for s in (3, 4):
        for _ in range(120):
            instances.append(random_eulerian(s, 10))
        for _ in range(60):
            instances.append(concentrated(s, 10, rng.randint(1, 3)))

    built = 0
    skipped = 0
    for r in instances:
        hit = False
        for row in (1, 2, 3):
            try:
                a = construct_amiable_concentrated_row(r, row)
            except HypothesisError:
                continue
            assert is_amiable(r, a), "constructor output not amiable"
            assert brute_force_amiable(r) is not None, "oracle disagrees"
            hit = True
            break
        for p, q in itertools.combinations(range(1, r.s + 1), 2):
            try:
                a = construct_amiable_two_busy_columns(r, p, q)
            except HypothesisError:
                continue
            assert is_amiable(r, a), "constructor output not amiable"
            assert brute_force_amiable(r) is not None, "oracle disagrees"
            hit = True
            break
        built += hit
        skipped += not hit
    assert built > 3600  # nearly every generated instance fits some hypothesis
    print(f"\nACCEPTANCE 6: {built} instances constructed and oracle-confirmed, "
          f"{skipped} outside every hypothesis, 0 divergences  PASS")


def test_criterion_7_row_scan():
    counterexamples = []
    scanned = 0
    for s in (1, 2):
        for r in enumerate_row_graphs(s, 6, eulerian_only=True, up_to_rearrangement=True):
            scanned += 1
            if brute_force_amiable(r) is None:
                counterexamples.append(row_graph_to_json(r))
    # archives must reproduce the instance exactly
    probe = row_graph_to_json(RowGraph(2, [(0, (1, 1), (2, 2)), (1, (3, 1), (3, 2))]))
    back = row_graph_from_json(json.loads(json.dumps(probe)))
    assert row_graph_to_json(back) == probe
    assert counterexamples == []
    print(f"\nACCEPTANCE 7: scanned {scanned} reduced instances at s<=2, "
          f"|E|<=6: zero counterexamples  PASS")


def test_criterion_8_rearrangement_invariance():
    rng = random.Random(31337)
    pool = list(enumerate_row_graphs(2, 5))
    checked = 0
    for _ in range(100):
        r = rng.choice(pool)
        rearr = random_rearrangement(r, rng)
        r2 = rearr.apply(r)
        assert (brute_force_amiable(r) is None) == (brute_force_amiable(r2) is None)
        checked += 1
    print(f"\nACCEPTANCE 8: oracle outcome preserved under {checked}/100 "
          f"random rearrangements  PASS")

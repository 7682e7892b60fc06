from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Set, Tuple

import pytest

from mapfdc.errors import PreconditionError
from mapfdc.gadgets import (
    _aux_trajectories,
    _pancake_layout,
    _star_moves,
    build_colored_pancake_instance,
    build_pancake_instance,
    build_three_partition_instance,
    colored_pancake_forward_schedule,
    pancake_forward_schedule,
    pancake_trivial_yes,
    preprocess_three_partition,
    random_instance,
    serialize_registry,
    three_partition_forward_schedule,
)
from mapfdc.graphs import Graph, clique_split, min_vertex_cover
from mapfdc.model import (
    Instance,
    Schedule,
    serialize_colored_instance,
    serialize_instance,
    validate_colored_schedule,
    validate_schedule,
)

N2_PARTITION = ((1, 2, 3), (4, 5, 6))


def _distance(g: Graph, start: int) -> Dict[int, int]:
    dist = {start: 0}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        for w in g.neighbor_set(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                dq.append(w)
    return dist


def _bfs_path(g: Graph, start: int, target: int) -> List[int]:
    parent = {start: -1}
    dq = deque([start])
    while dq:
        v = dq.popleft()
        if v == target:
            break
        for w in sorted(g.neighbor_set(v)):
            if w not in parent:
                parent[w] = v
                dq.append(w)
    path = [target]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _components_without(g: Graph, removed: int) -> int:
    seen: Set[int] = {removed}
    comps = 0
    for v in range(g.n):
        if v in seen:
            continue
        comps += 1
        dq = deque([v])
        seen.add(v)
        while dq:
            x = dq.popleft()
            for w in g.neighbor_set(x):
                if w not in seen:
                    seen.add(w)
                    dq.append(w)
    return comps


# --- numeric preprocessing ----------------------------------------------------


def test_preprocess_requires_at_least_two_triples() -> None:
    with pytest.raises(PreconditionError):
        preprocess_three_partition((1, 1, 1))


def test_preprocess_rejects_broken_shapes() -> None:
    with pytest.raises(PreconditionError):
        preprocess_three_partition((1, 1, 1, 1))
    with pytest.raises(PreconditionError):
        preprocess_three_partition(())
    with pytest.raises(PreconditionError):
        preprocess_three_partition((1, 1, 1, 1, 1, 2))
    with pytest.raises(PreconditionError):
        preprocess_three_partition((0, 1, 2, 1, 1, 1))


def test_preprocess_scales_unit_items() -> None:
    spec = preprocess_three_partition((1, 1, 1, 1, 1, 1))
    assert spec.n == 2
    assert spec.betas == (42,) * 6
    assert spec.phi == 126
    assert spec.goal == 2 * 126 + 6


def test_preprocess_rejects_oversized_items() -> None:
    # one item larger than 1.5x the triple sum cannot fit the strict range
    with pytest.raises(PreconditionError):
        preprocess_three_partition((97, 1, 1, 1, 1, 1))


def test_preprocess_output_lands_in_the_strict_range() -> None:
    rng = random.Random(61)
    accepted = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        raw = [rng.randint(1, 9) for _ in range(3 * n)]
        if sum(raw) % n:
            continue
        try:
            spec = preprocess_three_partition(tuple(raw))
        except PreconditionError:
            continue
        accepted += 1
        assert sum(spec.betas) == spec.n * spec.phi
        for b in spec.betas:
            assert 4 * b > spec.phi
            assert 2 * b < spec.phi
    assert accepted >= 10


# --- three-partition instance ---------------------------------------------------


@pytest.fixture(scope="module")
def n2_bundle():
    spec = preprocess_three_partition((1, 1, 1, 1, 1, 1))
    inst, reg = build_three_partition_instance(spec)
    return spec, inst, reg


def test_three_partition_graph_is_a_tree(n2_bundle) -> None:
    _, inst, _ = n2_bundle
    g = inst.graph
    assert len(g.edges) == g.n - 1
    assert len(_distance(g, 0)) == g.n


def test_three_partition_has_nine_internal_vertices(n2_bundle) -> None:
    _, inst, reg = n2_bundle
    g = inst.graph
    internal = [v for v in range(g.n) if len(g.neighbor_set(v)) > 1]
    assert len(internal) == 9
    assert sorted(internal) == sorted(reg.vertex(f"u{i}") for i in range(1, 10))


def test_three_partition_vertex_and_agent_counts(n2_bundle) -> None:
    spec, inst, _ = n2_bundle
    n, ell = spec.n, spec.goal
    beta_sum = sum(spec.betas)
    z_sum = spec.phi + (spec.phi + 2) * (n - 2) + spec.phi + 4
    bows = 3 * (ell - 1 - (2 * n - 2)) + 2 * (ell - 1 - 4 * n)
    assert inst.graph.n == 9 + beta_sum + z_sum + 2 * (2 * n - 2) + 2 * 4 * n + 2 * bows
    assert inst.n_agents == beta_sum + z_sum + (2 * n - 2) + 4 * n + bows
    assert inst.makespan_limit == ell


def test_three_partition_registry_is_complete(n2_bundle) -> None:
    _, inst, reg = n2_bundle
    ids = sorted(reg.vertices.values())
    assert ids == list(range(inst.graph.n))
    all_agents: List[int] = []
    for ids_ in reg.agent_groups.values():
        all_agents.extend(ids_)
    assert sorted(all_agents) == list(range(inst.n_agents))


def test_three_partition_pre_places_the_first_group_leads(n2_bundle) -> None:
    _, inst, reg = n2_bundle
    assert inst.starts[reg.agents("agents.r1.g1")[0]] == reg.vertex("u1")
    assert inst.starts[reg.agents("agents.r7.g1")[0]] == reg.vertex("u7")
    assert inst.starts[reg.agents("agents.r1.g2")[0]] != reg.vertex("u1")


def test_three_partition_minimum_cover_is_the_seven_hubs(n2_bundle) -> None:
    _, inst, _ = n2_bundle
    cover = min_vertex_cover(inst.graph, budget=7)
    assert cover is not None and len(cover) == 7
    assert min_vertex_cover(inst.graph, budget=6) is None


# --- the rotating-star recipe ---------------------------------------------------


def test_rotating_star_recipe_timing() -> None:
    # hub 0, camp vertex 1, four leaves: the full rotation takes size+2
    # turns and camps on the neighbor during turns 2..size
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    starts = (2, 3, 4, 5)
    targets = (3, 4, 5, 2)
    moves: Dict[int, List[Tuple[int, int]]] = {}
    _star_moves(moves, (0, 1, 2, 3), starts, targets, 0, 1, 0, 4, pre_placed=False)
    assert max(moves) == 6
    rows: List[Tuple[int, ...]] = []
    cur = list(starts)
    for turn in range(1, 7):
        for agent, vertex in moves.get(turn, ()):
            cur[agent] = vertex
        rows.append(tuple(cur))
    sched = Schedule(tuple(rows))
    inst = Instance(g, starts, targets)
    assert validate_schedule(inst, sched).ok
    camped = {t + 1 for t, row in enumerate(rows) if 1 in row}
    assert camped == {2, 3, 4}


def test_rotating_star_recipe_pre_placed_lead_skips_the_entry_move() -> None:
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    starts = (0, 3, 4)
    targets = (3, 4, 2)
    moves: Dict[int, List[Tuple[int, int]]] = {}
    _star_moves(moves, (0, 1, 2), starts, targets, 0, 1, -1, 3, pre_placed=True)
    assert all(agent != 0 for agent, _ in moves.get(0, ()))
    rows = []
    cur = list(starts)
    for turn in range(1, max(moves) + 1):
        for agent, vertex in moves.get(turn, ()):
            cur[agent] = vertex
        rows.append(tuple(cur))
    sched = Schedule(tuple(rows))
    assert validate_schedule(Instance(g, starts, targets), sched).ok


# --- three-partition forward schedule -------------------------------------------


@pytest.fixture(scope="module")
def n2_schedule(n2_bundle):
    spec, inst, reg = n2_bundle
    return three_partition_forward_schedule(spec, inst, reg, N2_PARTITION)


def test_forward_schedule_hits_the_limit_exactly(n2_bundle, n2_schedule) -> None:
    spec, inst, _ = n2_bundle
    assert n2_schedule.makespan == spec.goal
    assert validate_schedule(inst, n2_schedule).ok


def test_forward_schedule_rejects_bad_certificates(n2_bundle) -> None:
    spec, inst, reg = n2_bundle
    with pytest.raises(PreconditionError):
        three_partition_forward_schedule(spec, inst, reg, ((1, 2), (3, 4, 5)))
    with pytest.raises(PreconditionError):
        three_partition_forward_schedule(spec, inst, reg, ((1, 2, 3), (4, 5, 3)))
    with pytest.raises(PreconditionError):
        three_partition_forward_schedule(spec, inst, reg, ((1, 2, 3),))
    lopsided = preprocess_three_partition((2, 2, 2, 1, 1, 4))
    linst, lreg = build_three_partition_instance(lopsided)
    with pytest.raises(PreconditionError):
        # triples exist but these two do not both sum to phi
        three_partition_forward_schedule(
            lopsided, linst, lreg, ((1, 2, 4), (3, 5, 6))
        )


def test_forward_schedule_frees_the_crossing_vertex_on_cue(
    n2_bundle, n2_schedule
) -> None:
    spec, inst, reg = n2_bundle
    u4 = reg.vertex("u4")
    r7 = [a for name in ("agents.r7.g1", "agents.r7.g2") for a in reg.agents(name)]
    free_turns = {
        turn
        for turn, row in enumerate(n2_schedule.placements, start=1)
        if all(row[a] != u4 for a in r7)
    }
    phi, ell = spec.phi, spec.goal
    expected = {phi + 3 - 3, phi + 3 - 2, ell - 1, ell}
    assert free_turns == expected


# --- pancake instance ------------------------------------------------------------


def test_pancake_layout_counts() -> None:
    for perm, flips in (((2, 1), 1), ((3, 1, 2), 2), ((1, 2, 3, 4), 3)):
        inst, reg = build_pancake_instance(perm, flips)
        n = len(perm)
        big_l = 3 * (n + 2) * flips
        assert inst.makespan_limit == big_l
        assert inst.graph.n == (n + 1) + 2 * (big_l + 1) + 1 + 4 * (2 * big_l + 1)
        assert inst.n_agents == n + 3 * big_l + (big_l - big_l // 3)
        leaves = [v for v in range(inst.graph.n) if len(inst.graph.neighbor_set(v)) == 1]
        assert len(leaves) == 11


def test_pancake_graph_is_a_tree_hinged_on_the_junction(n2_bundle) -> None:
    inst, reg = build_pancake_instance((2, 1), 1)
    g = inst.graph
    assert len(g.edges) == g.n - 1
    assert _components_without(g, reg.vertex("vstar")) == 3


def test_pancake_auxiliary_routes_have_length_exactly_the_limit() -> None:
    inst, reg = build_pancake_instance((3, 1, 2), 1)
    big_l = inst.makespan_limit
    aux = [
        a
        for name in ("agents.bb", "agents.bc", "agents.ba1", "agents.ba2")
        for a in reg.agents(name)
    ]
    for a in aux:
        dist = _distance(inst.graph, inst.starts[a])
        assert dist[inst.targets[a]] == big_l


@pytest.mark.parametrize("n", range(1, 8))
def test_pancake_auxiliary_routes_match_a_search_per_agent(n: int) -> None:
    # the routes read off one rooted traversal equal a separate search from
    # each auxiliary agent's start, on the plain and the colored tree
    alpha = [i % 2 for i in range(n)]
    for flips in (1, 2, 3):
        lay = _pancake_layout(n, flips)
        plain, preg = build_pancake_instance(tuple(range(n, 0, -1)), flips)
        colored, creg = build_colored_pancake_instance(alpha, alpha[::-1], flips)
        aux = [
            a
            for name in ("agents.bb", "agents.bc", "agents.ba1", "agents.ba2")
            for a in preg.agents(name)
        ]
        want = [_bfs_path(plain.graph, plain.starts[a], plain.targets[a]) for a in aux]
        assert _aux_trajectories(preg, lay) == want
        colored_starts = [v for g in colored.groups[2:] for v in g.starts]
        colored_targets = [v for g in colored.groups[2:] for v in g.targets]
        want = [_bfs_path(colored.graph, s, t) for s, t in zip(colored_starts, colored_targets)]
        assert _aux_trajectories(creg, lay) == want


def test_pancake_primary_agents_encode_the_permutation() -> None:
    perm = (3, 1, 2)
    inst, reg = build_pancake_instance(perm, 2)
    primary = reg.agents("agents.primary")
    for p, aid in enumerate(primary, start=1):
        assert inst.starts[aid] == reg.vertex(f"va.{perm.index(p) + 1}")
        assert inst.targets[aid] == reg.vertex(f"va.{p}")


def test_pancake_rejects_bad_inputs() -> None:
    with pytest.raises(PreconditionError):
        build_pancake_instance((2, 2), 1)
    with pytest.raises(PreconditionError):
        build_pancake_instance((0, 1), 1)
    with pytest.raises(PreconditionError):
        build_pancake_instance((1,), 0)


def test_pancake_trivial_budget_threshold() -> None:
    assert not pancake_trivial_yes(1, 2)
    assert pancake_trivial_yes(1, 3)
    assert not pancake_trivial_yes(4, 7)
    assert pancake_trivial_yes(4, 8)


# --- pancake forward schedule ----------------------------------------------------


def test_pancake_forward_single_flip() -> None:
    inst, reg = build_pancake_instance((2, 1), 1)
    sched = pancake_forward_schedule(inst, reg, (2,))
    assert sched.makespan == 12
    assert validate_schedule(inst, sched).ok


def test_pancake_forward_noop_flip_on_sorted_input() -> None:
    inst, reg = build_pancake_instance((1, 2), 1)
    sched = pancake_forward_schedule(inst, reg, (1,))
    assert sched.makespan == 12
    assert validate_schedule(inst, sched).ok


def test_pancake_forward_two_rounds() -> None:
    inst, reg = build_pancake_instance((3, 1, 2), 2)
    sched = pancake_forward_schedule(inst, reg, (3, 2))
    assert sched.makespan == 30
    assert validate_schedule(inst, sched).ok


def test_pancake_forward_rejects_bad_certificates() -> None:
    inst, reg = build_pancake_instance((2, 1), 1)
    with pytest.raises(PreconditionError):
        pancake_forward_schedule(inst, reg, (1,))
    with pytest.raises(PreconditionError):
        pancake_forward_schedule(inst, reg, (2, 2))
    with pytest.raises(PreconditionError):
        pancake_forward_schedule(inst, reg, (3,))


def test_pancake_crossing_agents_use_the_junction_on_schedule() -> None:
    # auxiliary traffic may stand on the foot of the B path only while the
    # pancakes are away (the pop phase of the single round)
    inst, reg = build_pancake_instance((2, 1), 1)
    sched = pancake_forward_schedule(inst, reg, (2,))
    vb0 = reg.vertex("vb.0")
    aux = [
        a
        for name in ("agents.bb", "agents.bc", "agents.ba1", "agents.ba2")
        for a in reg.agents(name)
    ]
    busy = {
        turn
        for turn, row in enumerate(sched.placements, start=1)
        if any(row[a] == vb0 for a in aux)
    }
    assert busy == {8, 9, 10, 11}


# --- colored pancake --------------------------------------------------------------


def test_colored_pancake_groups_follow_the_symbol_strings() -> None:
    inst, reg = build_colored_pancake_instance("0110", "1001", 1)
    assert len(inst.groups) == 6
    va = {i: reg.vertex(f"va.{i}") for i in range(1, 5)}
    zeros = inst.groups[0]
    ones = inst.groups[1]
    assert set(zeros.starts) == {va[1], va[4]}
    assert set(zeros.targets) == {va[2], va[3]}
    assert set(ones.starts) == {va[2], va[3]}
    assert set(ones.targets) == {va[1], va[4]}
    assert inst.makespan_limit == 3 * 6 * 1


def test_colored_pancake_rejects_mismatched_strings() -> None:
    with pytest.raises(PreconditionError):
        build_colored_pancake_instance("00", "11", 1)
    with pytest.raises(PreconditionError):
        build_colored_pancake_instance("01", "012", 1)
    with pytest.raises(PreconditionError):
        build_colored_pancake_instance("02", "20", 1)


def test_colored_pancake_auxiliary_pairing_is_forced() -> None:
    # within each auxiliary group, matching starts to targets at distance
    # <= L admits exactly one perfect matching, found by propagating
    # single-candidate rows; no tie-break is ever needed
    inst, reg = build_colored_pancake_instance("10", "01", 1)
    big_l = inst.makespan_limit
    for group in inst.groups[2:]:
        starts = list(group.starts)
        targets = list(group.targets)
        cand: Dict[int, Set[int]] = {}
        for s in starts:
            dist = _distance(inst.graph, s)
            cand[s] = {t for t in targets if dist[t] <= big_l}
        paired: Dict[int, int] = {}
        while cand:
            forced = [s for s, ts in cand.items() if len(ts) == 1]
            assert forced, "pairing requires a choice; not forced"
            s = forced[0]
            (t,) = cand.pop(s)
            paired[s] = t
            for ts in cand.values():
                ts.discard(t)
        assert len(paired) == len(starts)


def test_colored_pancake_forward_schedule() -> None:
    inst, reg = build_colored_pancake_instance("01", "10", 1)
    sched = colored_pancake_forward_schedule(inst, reg, (2,))
    assert sched.makespan == 12
    assert validate_colored_schedule(inst, sched).ok


def test_colored_pancake_forward_rejects_wrong_outcomes() -> None:
    inst, reg = build_colored_pancake_instance("01", "10", 1)
    with pytest.raises(PreconditionError):
        colored_pancake_forward_schedule(inst, reg, (1,))
    stay, sreg = build_colored_pancake_instance("01", "01", 1)
    sched = colored_pancake_forward_schedule(stay, sreg, (1,))
    assert validate_colored_schedule(stay, sched).ok


# --- registry lines and determinism -----------------------------------------------


def test_registry_writer_lines() -> None:
    # the README's registry format: vertices first, then agent groups
    _, reg = build_pancake_instance((2, 1), 1)
    lines = serialize_registry(reg).splitlines()
    assert lines[:3] == ["name vstar vertex 0", "name va.0 vertex 1", "name va.1 vertex 2"]
    assert lines.index("name agents.primary agents 0 1") == len(reg.vertices)
    assert lines[-1].startswith("name agents.ba2 agents ")


def test_builders_are_deterministic() -> None:
    spec = preprocess_three_partition((1, 1, 1, 1, 1, 1))
    a_inst, a_reg = build_three_partition_instance(spec)
    b_inst, b_reg = build_three_partition_instance(spec)
    assert serialize_instance(a_inst) == serialize_instance(b_inst)
    assert serialize_registry(a_reg) == serialize_registry(b_reg)
    p_inst, p_reg = build_pancake_instance((3, 1, 2), 2)
    q_inst, q_reg = build_pancake_instance((3, 1, 2), 2)
    assert serialize_instance(p_inst) == serialize_instance(q_inst)
    assert serialize_registry(p_reg) == serialize_registry(q_reg)
    c_inst, c_reg = build_colored_pancake_instance("011", "110", 2)
    d_inst, d_reg = build_colored_pancake_instance("011", "110", 2)
    assert serialize_colored_instance(c_inst) == serialize_colored_instance(d_inst)
    assert serialize_registry(c_reg) == serialize_registry(d_reg)


# --- seeded random instances --------------------------------------------------


def test_random_instance_is_reproducible_and_exact() -> None:
    for seed in range(6):
        a = random_instance(7, 2, 3, seed)
        b = random_instance(7, 2, 3, seed)
        assert serialize_instance(a) == serialize_instance(b)
        assert a.graph.n == 7
        assert a.n_agents == 3
        assert clique_split(a.graph, budget=7).dc == 2


def test_random_instance_zero_distance_is_a_clique() -> None:
    inst = random_instance(5, 0, 2, 11)
    assert inst.graph.is_complete()


def test_random_instance_rejects_impossible_requests() -> None:
    with pytest.raises(PreconditionError):
        random_instance(3, 5, 1, 0)
    with pytest.raises(PreconditionError):
        random_instance(3, 3, 1, 0)
    with pytest.raises(PreconditionError):
        random_instance(4, 0, 9, 0)

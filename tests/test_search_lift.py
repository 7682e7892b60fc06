from __future__ import annotations

import functools
import random
import time
from dataclasses import replace
from typing import List, Optional, Tuple

import pytest

from mapfdc import engine, fpt
from mapfdc.errors import ResourceLimitError
from mapfdc.fpt import kernel_graph, oracle_with_stats, solve_with_stats
from mapfdc.gadgets import random_instance
from mapfdc.graphs import Graph, clique_split, complete_graph
from mapfdc.model import Instance, Schedule, detect_swaps, validate_schedule


def _finish_on_clique(
    n: int, starts: Tuple[int, ...], targets: Tuple[int, ...]
) -> Optional[Schedule]:
    """The two-turn schedule that the two-turn step gives agents standing
    on `starts` in K_n: one middle row over the pool of every vertex, agents
    in id order, since every vertex has the same degree."""
    return fpt._two_turn_schedule(Instance(complete_graph(n), starts, targets))


def test_finish_sends_every_agent_home_when_nothing_exchanges() -> None:
    # nothing exchanges, so every agent heads straight home
    targets = (1, 2)
    sched = _finish_on_clique(5, (0, 1), targets)
    assert sched is not None and sched.placements == (targets, targets)


def test_finish_places_four_exchanging_pairs() -> None:
    starts = tuple(range(8))
    targets = (1, 0, 3, 2, 5, 4, 7, 6)
    assert len(detect_swaps(starts, targets)) == 4
    sched = _finish_on_clique(12, starts, targets)
    assert sched is not None and validate_schedule(Instance(complete_graph(12), starts, targets), sched).ok


def _record_backtracks(monkeypatch) -> List[int]:
    """The list to which each later `fpt._middle_row` call appends the
    backtracking steps it took."""
    steps: List[int] = []
    middle_row = fpt._middle_row

    def spy(*args: object):
        row, taken = middle_row(*args)
        steps.append(taken)
        return row, taken

    monkeypatch.setattr(fpt, "_middle_row", spy)
    return steps


@pytest.mark.parametrize(
    "n, pairs",
    [
        (70, ((0, 11),)),
        (300, ((0, 11),)),
        (300, tuple((v, v + 1) for v in range(0, 300, 2))),
    ],
    ids=["K70-one-pair", "K300-one-pair", "K300-150-pairs"],
)
def test_finish_resolves_exchanges_in_a_packed_clique(monkeypatch, n, pairs) -> None:
    # the exchanging pairs and the idle agents fill K_n, so no vertex is
    # spare. With a single pair, two idle agents join its second agent in a
    # three-cycle; the search places every agent with few or no backtracking
    # steps. solve_with_stats answers 2 on the same instance only if its
    # two-turn search does not give up, since no other step answers a
    # complete graph without a search
    steps = _record_backtracks(monkeypatch)
    paired = [v for pair in pairs for v in pair]
    idle = [v for v in range(n) if v not in paired]
    starts = tuple(paired + idle)
    targets = tuple([v for u, w in pairs for v in (w, u)] + idle)
    inst = Instance(complete_graph(n), starts, targets)
    sched = _finish_on_clique(n, starts, targets)
    assert sched is not None and validate_schedule(inst, sched).ok
    assert len(steps) == 1 and steps[0] < fpt._FINISH_BACKTRACKS // 100
    x = sched.placements[0]
    moved = sum(x[a] != starts[a] for a in range(len(paired), n))
    assert moved == (2 if len(pairs) == 1 else 0)
    steps.clear()
    result, states = solve_with_stats(inst)
    assert result is not None and result[0] == 2 and states == 0
    assert validate_schedule(inst, result[1]).ok
    assert len(steps) == 1 and steps[0] < fpt._FINISH_BACKTRACKS // 100


def test_finish_sends_the_second_of_a_pair_to_a_spare_vertex() -> None:
    # agent 0 steps onto its target at once; agent 1 steps aside to the
    # spare vertex 2, and no idle agent is involved
    sched = _finish_on_clique(4, (0, 1), (1, 0))
    assert sched is not None and sched.placements == ((1, 2), (1, 0))
    assert validate_schedule(Instance(complete_graph(4), (0, 1), (1, 0)), sched).ok


def test_finish_raises_when_no_placement_exists() -> None:
    # K3 full of agents, two of which exchange: no two turns can do it, and
    # the exhaustive middle-row search refutes them
    assert _finish_on_clique(3, (0, 1, 2), (1, 0, 2)) is None


def test_two_turn_step_offers_each_agent_its_own_candidates() -> None:
    # a 12,000-vertex path, far past the clique split's budget, with agent
    # i walking from 3i to 3i + 2: each agent's only middle vertex is
    # 3i + 1, so the two-turn step answers at once, without scanning every
    # vertex for every agent
    path = Graph(12_000, [(v, v + 1) for v in range(11_999)])
    inst = Instance(path, tuple(range(0, 12_000, 3)), tuple(range(2, 12_000, 3)))
    started = time.perf_counter()
    result, states = solve_with_stats(inst)
    assert time.perf_counter() - started < 1.0
    assert result is not None and result[0] == 2 and states == 0
    assert result[1].placements[0] == tuple(range(1, 12_000, 3))


@functools.lru_cache(maxsize=None)
def _near_clique(clique: int, attached: int) -> Graph:
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges.extend((v, clique) for v in range(clique - attached, clique))
    return Graph(clique + 1, edges)


def _tight_near_clique(
    rng: random.Random, pairs: Optional[int] = None, on_modulator: bool = False
) -> Instance:
    """dc = 1: clique 0..c-1 (c = 305..308) plus vertex c joined to the top
    1-3 clique vertices. Agents 0..99 stand still on 0..99; with
    `on_modulator`, agent 0 starts on c instead, two hops from its target,
    so the instance touches the modulator. The others start on all but
    0-12 of the unattached vertices from 100 on; `pairs` of them (1-3 at
    random when None) exchange vertices and no other pair does. Raises
    ValueError when the last agent is left only a target that would make
    one more exchange."""
    clique, attached = rng.randint(305, 308), rng.randint(1, 3)
    region = list(range(100, clique - attached))
    starts = rng.sample(region, len(region) - rng.randint(0, 12))
    if pairs is None:
        pairs = rng.randint(1, 3)
    targets: List[int] = []
    for p in range(pairs):
        targets += [starts[2 * p + 1], starts[2 * p]]
    planted = set(targets)
    pool = [v for v in region if v not in planted]
    rng.shuffle(pool)
    at = {v: i for i, v in enumerate(starts)}
    for i in range(2 * pairs, len(starts)):
        for j, v in enumerate(pool):
            k = at.get(v)
            if k is None or k >= i or targets[k] != starts[i]:
                targets.append(pool.pop(j))
                break
        else:
            raise ValueError(f"no free vertex left for agent {100 + i}")
    still = tuple(range(100))
    still_starts = (clique,) + still[1:] if on_modulator else still
    return Instance(
        _near_clique(clique, attached), still_starts + tuple(starts), still + tuple(targets)
    )


def _no_search(*args: object, **kwargs: object) -> object:
    raise AssertionError("joint_bfs ran")


def test_solve_with_stats_finishes_tight_near_cliques(monkeypatch) -> None:
    # every agent lies in the clique part, so the two-turn step answers
    # and no search runs
    monkeypatch.setattr(fpt, "joint_bfs", _no_search)
    rng = random.Random(909)
    solved = 0
    while solved < 100:
        try:
            inst = _tight_near_clique(rng)
        except ValueError:
            continue
        pairs = len(detect_swaps(inst.starts, inst.targets))
        assert 1 <= pairs <= 3
        result, states = solve_with_stats(inst)
        assert result is not None
        makespan, sched = result
        assert makespan == 2 and states == 0
        assert validate_schedule(inst, sched).ok
        solved += 1


def test_solve_with_stats_answers_all_core_tight_near_cliques_without_a_search(
    monkeypatch,
) -> None:
    # the first twelve draws hold 291-305 agents, and on five of them a
    # joint search of every agent used up a 3,000-state guard; the two-turn
    # search answers 2 on each before any search
    monkeypatch.setattr(fpt, "joint_bfs", _no_search)
    rng = random.Random(913)
    answered = []
    for _ in range(12):
        inst = _tight_near_clique(rng, on_modulator=True)
        result, states = solve_with_stats(inst, state_guard=3000)
        assert result is not None
        makespan, sched = result
        assert makespan == 2 and states == 0
        assert validate_schedule(inst, sched).ok
        answered.append(inst.n_agents)
    assert answered == [297, 291, 299, 296, 300, 295, 304, 301, 298, 296, 305, 304]


def test_solve_with_stats_meets_the_limit_on_tight_near_cliques(monkeypatch) -> None:
    # one exchanging pair needs two turns: limit 1 leaves nothing and limit
    # 2 leaves the optimum, with no search either way
    monkeypatch.setattr(fpt, "joint_bfs", _no_search)
    rng = random.Random(911)
    solved = 0
    while solved < 5:
        try:
            inst = _tight_near_clique(rng, pairs=1)
        except ValueError:
            continue
        assert inst.n_agents >= 100 and len(detect_swaps(inst.starts, inst.targets)) == 1
        assert solve_with_stats(replace(inst, makespan_limit=1)) == (None, 0)
        limited = replace(inst, makespan_limit=2)
        result, _ = solve_with_stats(limited)
        assert result is not None
        makespan, sched = result
        assert makespan == 2
        assert validate_schedule(limited, sched).ok
        solved += 1


def test_solve_with_stats_matches_the_oracle_at_distance_to_clique_13() -> None:
    # K4 plus 13 pendant vertices: deleting the pendants is the cheapest
    # way to a clique, so dc = 13; the pendant agent steps to its anchor
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges.extend((v, v % 4) for v in range(4, 17))
    g = Graph(17, edges)
    assert clique_split(g).dc == 13
    inst = Instance(g, (4,), (0,))
    result, _ = solve_with_stats(inst)
    expected, _ = oracle_with_stats(inst)
    assert result is not None and expected is not None
    assert result[0] == expected[0] == 1
    assert validate_schedule(inst, result[1]).ok


@pytest.mark.parametrize("dc", [21, 22, 23, 24])
def test_solve_with_stats_matches_the_oracle_beyond_the_old_distance_ceiling(dc) -> None:
    # past the clique split's budget of 20, which no step reads. K4 plus dc
    # pendant vertices, pendant v hanging off v % 4: up to four agents go
    # from a pendant of anchor a to a pendant of anchor a + shift, a
    # rotation with no exchange, so the target row and the two-turn step
    # fail and the last step's search (nothing to trim) answers 3. A star with dc + 1 leaves:
    # one pair of leaves exchanges (4 turns) while other agents stand on
    # leaves
    rng = random.Random(2412 + dc)
    pendants = Graph(
        dc + 4,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(v, v % 4) for v in range(4, dc + 4)],
    )
    star = Graph(dc + 2, [(0, v) for v in range(1, dc + 2)])
    for g in (pendants, star):
        assert clique_split(g, budget=g.n).dc == dc
    by_anchor = [range(4 + a, dc + 4, 4) for a in range(4)]
    for _ in range(6):
        shift = rng.choice((1, 3))
        anchors = rng.sample(range(4), rng.randint(1, 4))
        starts = tuple(rng.choice(by_anchor[a]) for a in anchors)
        targets = tuple(
            rng.choice([v for v in by_anchor[(a + shift) % 4] if v not in starts])
            for a in anchors
        )
        leaves = rng.sample(range(1, dc + 2), 2 + rng.randint(0, 2))
        swapped = (leaves[1], leaves[0]) + tuple(leaves[2:])
        for inst, optimum in (
            (Instance(pendants, starts, targets), 3),
            (Instance(star, tuple(leaves), swapped), 4),
        ):
            for limit in (None, optimum - 1):
                limited = replace(inst, makespan_limit=limit)
                result, states = solve_with_stats(limited)
                expected, _ = oracle_with_stats(limited)
                assert states > 0
                if limit is not None:
                    assert result is None and expected is None
                    continue
                assert result is not None and expected is not None
                assert result[0] == expected[0] == optimum
                assert validate_schedule(inst, result[1]).ok
                assert validate_schedule(inst, expected[1]).ok


def test_trimmed_search_answers_a_tail_that_the_whole_search_cannot() -> None:
    # clique 0..299 plus the modulator path 300-301 hanging off vertex 0
    # (dc 2). Agent 0 walks 301 -> 300 -> 0 -> 299, and the agents on 1..4
    # stand still. The clique part splits into vertex 0 and a type of 299
    # vertices, past the budget of three per agent, which keeps 15 of them:
    # the search of those 18 vertices answers 3 after 42,594 states, and
    # the search of the whole graph uses up a 200,000-state guard.
    c = 300
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges.extend([(0, c), (c, c + 1)])
    inst = Instance(Graph(c + 2, edges), (c + 1, 1, 2, 3, 4), (c - 1, 1, 2, 3, 4))
    result, states = solve_with_stats(inst)
    assert result is not None and result[0] == 3 and states > 0
    assert validate_schedule(inst, result[1]).ok
    with pytest.raises(ResourceLimitError):
        oracle_with_stats(inst, 200_000)



def test_trimmed_search_answers_a_bottleneck_in_few_states() -> None:
    # clique 0..299 plus vertex 300 joined to vertex 0 alone (dc 1). Agents
    # 0 and 1 trade vertices 300 and 1 through the bottleneck vertex 0, and
    # agent 2 stands still on 2. The trimmed search answers 3 after 163
    # states; the search of the whole graph answers 3 too, after 178,803.
    c = 300
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges.append((0, c))
    inst = Instance(Graph(c + 1, edges), (c, 1, 2), (1, c, 2))
    result, states = solve_with_stats(inst)
    assert result is not None and result[0] == 3 and 0 < states < 1000
    assert validate_schedule(inst, result[1]).ok
    whole, _ = oracle_with_stats(inst)
    assert whole is not None and whole[0] == 3
    assert validate_schedule(inst, whole[1]).ok

def test_clique_part_answer_plans_one_exchange_among_still_agents(monkeypatch) -> None:
    # dc = 1: clique 0..309, vertex 310 joined to 302..309. Agents 0..99 stand
    # still; agents 100 and 101 exchange vertices, and the rest shift one
    # place along a chain. Every agent lies in the clique part, so the
    # two-turn plan comes without a joint search.
    monkeypatch.setattr(fpt, "joint_bfs", _no_search)
    clique, attached = 310, 8
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges.extend((v, clique) for v in range(clique - attached, clique))
    g = Graph(clique + 1, edges)
    starts = tuple(range(250))
    targets = tuple(range(100)) + (101, 100) + tuple(range(103, 251))
    inst = Instance(g, starts, targets)
    result, _ = solve_with_stats(inst)
    assert result is not None
    makespan, sched = result
    assert makespan == 2
    assert validate_schedule(inst, sched).ok


def test_clique_part_answer_covers_complete_graphs_without_a_search(monkeypatch) -> None:
    inst = Instance(complete_graph(5), (0, 1, 2), (1, 0, 2))
    oracle_result = oracle_with_stats(inst)[0]
    monkeypatch.setattr(fpt, "joint_bfs", _no_search)
    fpt_result, states = solve_with_stats(inst)
    assert fpt_result is not None and oracle_result is not None
    assert fpt_result[0] == oracle_result[0] == 2
    assert states == 0
    assert validate_schedule(inst, fpt_result[1]).ok


def test_solve_with_stats_star_leaf_exchange_costs_four() -> None:
    g = Graph(5, [(0, i) for i in range(1, 5)])
    inst = Instance(g, (1, 2), (2, 1))
    result = solve_with_stats(inst)[0]
    assert result is not None
    m, sched = result
    assert m == 4
    assert validate_schedule(inst, sched).ok
    oracle_result = oracle_with_stats(inst)[0]
    assert oracle_result is not None and oracle_result[0] == 4


def test_solve_with_stats_finds_no_exchange_on_a_two_vertex_path() -> None:
    inst = Instance(Graph(2, [(0, 1)]), (0, 1), (1, 0))
    assert solve_with_stats(inst)[0] is None


def _outcome(solve) -> Tuple[object, ...]:
    """Makespan, placements and state count of a solve, or the message and
    state count of the ResourceLimitError it raised."""
    try:
        result, states = solve()
    except ResourceLimitError as exc:
        return ("guard", str(exc), exc.states)
    if result is None:
        return (None, states)
    return (result[0], result[1].placements, states)


def _record_searches(monkeypatch) -> List[Graph]:
    """The list to which each later `fpt.joint_bfs` call appends the graph
    it searches."""
    graphs: List[Graph] = []
    search = fpt.joint_bfs

    def spy(graph: Graph, *args: object, **kwargs: object):
        graphs.append(graph)
        return search(graph, *args, **kwargs)

    monkeypatch.setattr(fpt, "joint_bfs", spy)
    return graphs


def test_small_instances_search_the_whole_instance_as_the_kernel_would(
    monkeypatch,
) -> None:
    # The last step of solve_with_stats searches every agent on the
    # trimmed graph, which is the instance's own graph when the clique part
    # has at most three vertices per agent. On every seeded draw that
    # reaches it untrimmed, it gives the oracle's makespan, placements and
    # state count, or trips the state guard with the same message. A
    # trimmed search, and an earlier step that answers with no search, give
    # the oracle's makespan wherever neither trips the guard.
    graphs = _record_searches(monkeypatch)
    guard = 20_000
    whole = early = tripped = 0
    for i in range(400):
        rng = random.Random(i)
        n = rng.randint(4, 12)
        dc = rng.randint(0, min(3, n - 1))
        inst = random_instance(n, dc, rng.randint(1, n), i)
        expected = _outcome(lambda: oracle_with_stats(inst, guard))
        graphs.clear()
        got = _outcome(lambda: solve_with_stats(inst, guard))
        if graphs and graphs[0] is inst.graph:
            assert got == expected, i
            whole += 1
            tripped += got[0] == "guard"
            continue
        if graphs:
            assert graphs == [kernel_graph(inst)], i
        else:
            assert got[-1] == 0, i
            early += 1
        if "guard" not in (got[0], expected[0]):
            assert got[0] == expected[0], i
    assert whole >= 40 and tripped >= 1 and early >= 300


def test_solve_with_stats_agrees_with_the_oracle_on_sampled_instances(
    monkeypatch,
) -> None:
    # two draws whose trimmed graph drops vertices of the clique part and
    # whose optimum is 2: solve_with_stats answers with the two-turn
    # search, and the trimmed search, run directly, makes as many states as
    # the oracle's
    for args in ((16, 1, 2, 3), (20, 1, 3, 5)):
        inst = random_instance(*args)
        trimmed = kernel_graph(inst)
        assert trimmed != inst.graph
        two_turn, two_turn_states = solve_with_stats(inst)
        res = engine.joint_bfs(trimmed, inst.starts, inst.targets)
        oracle_result, oracle_states = oracle_with_stats(inst)
        assert two_turn is not None and res.path is not None
        assert oracle_result is not None
        assert two_turn[0] == len(res.path) - 1 == oracle_result[0] == 2
        assert two_turn_states == 0 and res.states == oracle_states == 3
        assert validate_schedule(inst, two_turn[1]).ok
        assert validate_schedule(inst, Schedule(res.path[1:])).ok
    # a draw whose trimmed graph drops a vertex of the clique part and
    # whose optimum is 3: the two-turn search refutes 2, and
    # solve_with_stats answers with one search of the trimmed graph
    graphs = _record_searches(monkeypatch)
    inst = random_instance(15, 2, 2, 479)
    trimmed = kernel_graph(inst)
    assert trimmed != inst.graph
    fpt_result, fpt_states = solve_with_stats(inst)
    assert graphs == [trimmed]
    oracle_result, oracle_states = oracle_with_stats(inst)
    assert fpt_states > 0 and oracle_states > 0
    assert fpt_result is not None and oracle_result is not None
    assert fpt_result[0] == oracle_result[0] == 3
    assert validate_schedule(inst, fpt_result[1]).ok
    rng = random.Random(515)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.65
            ],
        )
        try:
            clique_split(g, budget=3)
        except Exception:
            continue
        agents = rng.randint(1, min(3, n))
        inst = Instance(
            g,
            tuple(rng.sample(range(n), agents)),
            tuple(rng.sample(range(n), agents)),
        )
        fpt_result = solve_with_stats(inst)[0]
        oracle_result = oracle_with_stats(inst)[0]
        if oracle_result is None:
            assert fpt_result is None
        else:
            assert fpt_result is not None
            assert fpt_result[0] == oracle_result[0]
            assert validate_schedule(inst, fpt_result[1]).ok
        checked += 1
    assert checked >= 30


def test_two_turn_search_agrees_with_the_oracle_on_small_draws(monkeypatch) -> None:
    # seeded draws in the shape above whose target row is not a schedule,
    # so that their optimum is 2 exactly when a two-turn schedule exists. A
    # row the two-turn search finds must validate, and the oracle held to two
    # turns must answer 2 there; a refutation must meet no oracle answer
    # within two turns. A search that runs out of backtracking steps claims
    # nothing, and solve_with_stats must then answer as the oracle does.
    steps = _record_backtracks(monkeypatch)
    guard = 20_000
    found = refuted = capped = 0
    for i in range(1500):
        rng = random.Random(i)
        n = rng.randint(4, 12)
        dc = rng.randint(0, min(3, n - 1))
        inst = random_instance(n, dc, rng.randint(1, n), i)
        if validate_schedule(inst, Schedule((inst.targets,))).ok:
            continue
        steps.clear()
        sched = fpt._two_turn_schedule(inst)
        two_turns = replace(inst, makespan_limit=2)
        expected = _outcome(lambda: oracle_with_stats(two_turns, guard))
        if sched is not None:
            assert sched.makespan == 2 and validate_schedule(inst, sched).ok
            if expected[0] == "guard":
                # draw 556: the oracle needs 27,513 states to answer
                expected = _outcome(lambda: oracle_with_stats(two_turns, 30_000))
            assert expected[0] == 2, i
            found += 1
        elif steps and steps[0] > fpt._FINISH_BACKTRACKS:
            assert _outcome(lambda: solve_with_stats(two_turns, guard))[0] == expected[0], i
            capped += 1
        else:
            assert expected[0] is None, i
            refuted += 1
    assert found >= 600 and refuted >= 200 and capped <= 4

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .errors import PreconditionError
from .model import Instance, Placement, Schedule, detect_swaps
from . import oracle


def _one_turn(targets: Placement) -> Tuple[int, Schedule]:
    return 1, Schedule((targets,))


def _case_many_pairs(starts: Placement, pairs: Sequence[Tuple[int, int]]) -> Placement:
    """Two or more swapping pairs: rotate the betas one pair onward, with the
    last alpha filling the gap, so every blocked exchange is broken at once."""
    alphas = [a for a, _ in pairs]
    betas = [b for _, b in pairs]
    p = len(pairs)
    mid = list(starts)
    mid[alphas[p - 1]] = starts[betas[0]]
    for i in range(p - 1):
        mid[betas[i]] = starts[betas[i + 1]]
    mid[betas[p - 1]] = starts[alphas[p - 1]]
    return tuple(mid)


def _case_one_pair(inst: Instance, pair: Tuple[int, int]) -> Placement:
    """A single swapping pair. With a free vertex the alpha steps aside;
    otherwise two further agents, both settled or both displaced, join a
    three-cycle that breaks the exchange."""
    starts, targets = inst.starts, inst.targets
    a1, b1 = pair
    used = set(starts)
    if len(starts) < inst.graph.n:
        spare = min(v for v in range(inst.graph.n) if v not in used)
        mid = list(starts)
        mid[a1] = spare
        return tuple(mid)
    others = [a for a in range(len(starts)) if a != a1 and a != b1]
    home = [a for a in others if starts[a] == targets[a]]
    away = [a for a in others if starts[a] != targets[a]]
    cand_home = tuple(home[:2]) if len(home) >= 2 else None
    cand_away = tuple(away[:2]) if len(away) >= 2 else None
    if cand_home is None and cand_away is None:
        raise AssertionError("no helper pair among the remaining agents")
    use_home = cand_home is not None and (cand_away is None or cand_home < cand_away)
    mid = list(starts)
    if use_home:
        a0, b0 = cand_home
        mid[a1] = starts[a0]
        mid[a0] = starts[b0]
        mid[b0] = starts[a1]
    else:
        a0, b0 = cand_away
        if targets[a0] == starts[b0]:
            a0, b0 = b0, a0
        mid[a1] = starts[a0]
        mid[b1] = starts[a1]
        mid[a0] = starts[b1]
    return tuple(mid)


def solve_clique(inst: Instance) -> Optional[Tuple[int, Schedule]]:
    """Optimal schedule on a complete graph.

    With at least four vertices the answer is direct: makespan 0 when every
    agent starts on its target, 1 when no pair of agents must exchange
    vertices, and 2 otherwise. Smaller cliques can be infeasible and are
    decided by exhaustive search.
    """
    if not inst.graph.is_complete():
        raise PreconditionError("graph is not complete")
    if inst.starts == inst.targets:
        return 0, Schedule(())
    if inst.graph.n < 4:
        return oracle.solve_with_stats(inst)[0]
    pairs = detect_swaps(inst.starts, inst.targets)
    if not pairs:
        result = _one_turn(inst.targets)
    elif len(pairs) >= 2:
        result = 2, Schedule((_case_many_pairs(inst.starts, pairs), inst.targets))
    else:
        result = 2, Schedule((_case_one_pair(inst, pairs[0]), inst.targets))
    if inst.makespan_limit is not None and result[0] > inst.makespan_limit:
        return None
    return result


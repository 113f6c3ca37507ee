"""Independent brute-force oracle for turn-based games.

Winning sets are computed by enumerating every positional strategy of
the protagonist and model-checking each one directly on the game graph,
with none of the solver's fixpoint machinery.  Also hosts the seeded
random-game generator used by the solver test corpus, and the
round-by-round reference solvers that the engine's linear-time
attractors must match in `winning`, `kept` and `rank`.
"""

import itertools
import random

from motifsim.games import AGENT_TURN, ENV_TURN, Controller, GameModel


def random_game(seed, max_states=8, max_actions=3):
    """A random alternating game.

    Every agent-turn state gets at least one action (the engine's games
    always include an explicit idle), env-turn states may be quiescent.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    game = GameModel()
    turns = []
    for i in range(n):
        turn = AGENT_TURN if rng.random() < 0.5 else ENV_TURN
        bad = rng.random() < 0.2
        target = rng.random() < 0.25
        game.add_state(f"s{i}", f"w{i}", turn, bad, target)
        turns.append(turn)
    agent_ix = [i for i in range(n) if turns[i] == AGENT_TURN]
    env_ix = [i for i in range(n) if turns[i] == ENV_TURN]
    for i in range(n):
        if turns[i] == AGENT_TURN:
            k = rng.randint(1, max_actions)
            dsts = env_ix or agent_ix
        else:
            k = rng.randint(0, max_actions)
            dsts = agent_ix or env_ix
        for j in range(k):
            game.add_action(i, f"a{i}_{j}", rng.choice(dsts),
                            turns[i] == AGENT_TURN)
    game.initial = 0
    return game


def _strategies(game):
    """Every positional choice of one action per agent-turn state."""
    slots = []
    for i, s in enumerate(game.states):
        if s.turn == AGENT_TURN:
            slots.append((i, list(range(len(s.actions)))))
    ids = [i for i, _ in slots]
    for combo in itertools.product(*[c for _, c in slots]):
        yield dict(zip(ids, combo))


def oracle_safety(game):
    """States from which some positional strategy avoids bad forever.

    A strategy is safe from s iff no bad state is reachable from s when
    the agent follows it and the environment branches arbitrarily; a
    quiescent env state stalls the play, which is safe.
    """
    n = len(game.states)
    winning = set()
    for strat in _strategies(game):
        for s0 in range(n):
            if s0 in winning:
                continue
            seen = set()
            stack = [s0]
            safe = True
            while stack and safe:
                i = stack.pop()
                if i in seen:
                    continue
                seen.add(i)
                s = game.states[i]
                if s.bad:
                    safe = False
                    break
                if s.turn == AGENT_TURN:
                    if not s.actions:
                        safe = False
                        break
                    stack.append(s.actions[strat[i]].dst)
                else:
                    stack.extend(a.dst for a in s.actions)
            if safe:
                winning.add(s0)
    return {game.states[i].key for i in sorted(winning)}


def oracle_reach(game, bound=None):
    """States from which some positional strategy forces target within
    `bound` moves (default 2 * |states|) on every environment branch."""
    n = len(game.states)
    if bound is None:
        bound = 2 * n
    winning = set()
    for strat in _strategies(game):
        memo = {}

        def ok(i, k):
            s = game.states[i]
            if s.target:
                return True
            if k == 0:
                return False
            key = (i, k)
            hit = memo.get(key)
            if hit is not None:
                return hit
            memo[key] = False  # cycles within the bound fail closed
            if s.turn == AGENT_TURN:
                r = bool(s.actions) and ok(s.actions[strat[i]].dst, k - 1)
            else:
                r = bool(s.actions) and all(ok(a.dst, k - 1) for a in s.actions)
            memo[key] = r
            return r

        for s0 in range(n):
            if s0 not in winning and ok(s0, bound):
                winning.add(s0)
    return {game.states[i].key for i in sorted(winning)}


def reference_safety(game):
    """Round-by-round greatest fixpoint, O(|V|·rounds): every round
    rescans every state until no state falls."""
    n = len(game.states)
    alive = [not s.bad for s in game.states]
    changed = True
    while changed:
        changed = False
        for i, s in enumerate(game.states):
            if not alive[i]:
                continue
            if s.turn == AGENT_TURN:
                ok = any(alive[a.dst] for a in s.actions if a.controllable)
            else:
                ok = all(alive[a.dst] for a in s.actions)
            if not ok:
                alive[i] = False
                changed = True
    winning = {game.states[i].key for i in range(n) if alive[i]}
    kept = {}
    for i, s in enumerate(game.states):
        if alive[i] and s.turn == AGENT_TURN:
            kept[s.key] = tuple(
                a.label for a in s.actions if a.controllable and alive[a.dst])
    return Controller(winning, kept)


def reference_reach(game, within=None):
    """Round-by-round least fixpoint, O(|V|·rounds): round r ranks every
    state that some controllable action (agent turn) or every action
    (env turn) takes into the states ranked before r."""
    def allowed(i):
        return within is None or game.states[i].key in within.winning

    def usable(s, a):
        if within is None or not a.controllable:
            return True
        return a.label in within.kept.get(s.key, ())

    rank = {}
    for i, s in enumerate(game.states):
        if allowed(i) and s.target:
            rank[i] = 0
    r = 0
    while True:
        r += 1
        new = []
        for i, s in enumerate(game.states):
            if i in rank or not allowed(i):
                continue
            if s.turn == AGENT_TURN:
                if any(usable(s, a) and a.dst in rank for a in s.actions
                       if a.controllable):
                    new.append(i)
            else:
                succs = [a.dst for a in s.actions]
                if succs and all(d in rank for d in succs):
                    new.append(i)
        if not new:
            break
        for i in new:
            rank[i] = r
    winning = {game.states[i].key for i in rank}
    kept = {}
    ranks = {game.states[i].key: k for i, k in rank.items()}
    for i, k in rank.items():
        s = game.states[i]
        if s.turn == AGENT_TURN:
            kept[s.key] = tuple(
                a.label for a in s.actions
                if a.controllable and usable(s, a) and rank.get(a.dst, 10**9) < k)
    return Controller(winning, kept, ranks)

"""A small, deterministic simulated-annealing engine.

Both HiDaP annealing problems (shape-curve generation and per-level
layout generation) share this engine.  The state is always a Polish
expression; the problem supplies the cost function.  Cooling is
geometric; the initial temperature is calibrated from the cost spread of
random perturbations so the same configuration works across problem
scales.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs import current_tracer
from repro.slicing.moves import perturb, undo
from repro.slicing.polish import PolishExpression


#: Spacing between per-restart child seeds.  A large odd constant (the
#: golden-ratio hash multiplier) so that restart streams can never
#: collide with the small consecutive per-level seed increments callers
#: use (e.g. ``HiDaPConfig.layout_config`` seeds adjacent levels with
#: ``base + level``); with a +1 stride, restart 1 of one level would be
#: driven by the identical RNG stream as restart 0 of the next.
RESTART_SEED_STRIDE = 0x9E3779B1

#: Share of uphill moves the calibrated T0 accepts.
INITIAL_ACCEPTANCE = 0.85
#: The schedule stops at T0 times this ratio.
MIN_TEMPERATURE_RATIO = 1e-4


@dataclass
class AnnealConfig:
    """Annealing schedule parameters.

    ``moves_per_block`` scales the iteration count with problem size, so
    small trees anneal in milliseconds while big ones get a fair search.
    """

    seed: int = 0
    moves_per_block: int = 220
    min_moves: int = 400
    max_moves: int = 30000
    moves_per_temperature: int = 40
    restarts: int = 1
    #: Random perturbations probed to pick T0.  Calibration is part of
    #: each restart's own RNG stream (see :meth:`Annealer.run`), so
    #: changing this count re-randomizes a restart's search but can
    #: never leak into *other* restarts.
    calibration_probes: int = 24

    def total_moves(self, n_blocks: int) -> int:
        moves = self.moves_per_block * max(1, n_blocks)
        return max(self.min_moves, min(self.max_moves, moves))

    def cooling_rate(self, budget: int) -> float:
        """The geometric cooling rate that sweeps the temperature from
        T0 down to T0 * :data:`MIN_TEMPERATURE_RATIO` within ``budget``
        moves."""
        steps = max(2.0, budget / max(1, self.moves_per_temperature))
        return MIN_TEMPERATURE_RATIO ** (1.0 / steps)

    def restart_seed(self, restart: int) -> int:
        """The child seed driving restart number ``restart``.

        Restart 0 keeps the configured seed (historical single-restart
        streams are reproduced exactly); later restarts are spaced by
        :data:`RESTART_SEED_STRIDE`.
        """
        return self.seed + restart * RESTART_SEED_STRIDE


@dataclass
class AnnealResult:
    """Best state found and bookkeeping about the search.

    ``t0`` is the calibrated initial temperature, ``t_final`` the
    temperature the schedule stopped at and ``best_move`` the move
    index (1-based; 0 = the initial state) at which ``best`` was found.
    """

    best: PolishExpression
    best_cost: float
    initial_cost: float
    moves_tried: int
    moves_accepted: int
    t0: float = 0.0
    t_final: float = 0.0
    best_move: int = 0

    @property
    def gain(self) -> float:
        """How much the search improved on the initial state's cost."""
        return self.initial_cost - self.best_cost


class Annealer:
    """Simulated annealing over Polish expressions.

    Parameters
    ----------
    cost_fn:
        Maps a ``PolishExpression`` to a non-negative float; lower is
        better.  The engine treats it as a black box.
    config:
        Schedule parameters; defaults are tuned for floorplans of 2-40
        blocks.
    """

    def __init__(self, cost_fn: Callable[[PolishExpression], float],
                 config: Optional[AnnealConfig] = None):
        self.cost_fn = cost_fn
        self.config = config or AnnealConfig()

    # -- internals ----------------------------------------------------------

    def _calibrate_temperature(self, expr: PolishExpression,
                               rng: random.Random) -> float:
        """Pick T0 so ~:data:`INITIAL_ACCEPTANCE` of uphill moves are
        accepted."""
        deltas = []
        probe = expr.copy()
        cost = self.cost_fn(probe)
        for _ in range(max(1, self.config.calibration_probes)):
            perturb(probe, rng)
            new_cost = self.cost_fn(probe)
            if new_cost > cost:
                deltas.append(new_cost - cost)
            cost = new_cost
        if not deltas:
            return max(1e-9, abs(cost)) * 0.1
        # The median is robust against the huge deltas produced when a
        # perturbation crosses into heavily-penalized illegal layouts.
        deltas.sort()
        typical_uphill = deltas[len(deltas) // 2]
        return -typical_uphill / math.log(INITIAL_ACCEPTANCE)

    def _run_once(self, initial: PolishExpression,
                  rng: random.Random) -> AnnealResult:
        cost_fn = self.cost_fn
        current = initial.copy()
        current_cost = cost_fn(current)
        best = current.copy()
        best_cost = current_cost
        initial_cost = current_cost

        n_blocks = current.n_blocks
        if n_blocks < 2:
            return AnnealResult(best, best_cost, initial_cost, 0, 0)

        t0 = temperature = self._calibrate_temperature(current, rng)
        floor = temperature * MIN_TEMPERATURE_RATIO
        budget = self.config.total_moves(n_blocks)
        cooling = self.config.cooling_rate(budget)
        tried = 0
        accepted = 0
        best_move = 0

        # Moves apply to ``current`` in place and a rejected one is
        # undone, so no expression is copied per move; the cost
        # functions key on the token tuple and keep no reference.
        while tried < budget and temperature > floor:
            for _ in range(self.config.moves_per_temperature):
                if tried >= budget:
                    break
                tried += 1
                move = perturb(current, rng)
                candidate_cost = cost_fn(current)
                delta = candidate_cost - current_cost
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    current_cost = candidate_cost
                    accepted += 1
                    if current_cost < best_cost:
                        best = current.copy()
                        best_cost = current_cost
                        best_move = tried
                else:
                    undo(current, move)
            temperature *= cooling
        return AnnealResult(best, best_cost, initial_cost, tried, accepted,
                            t0=t0, t_final=temperature, best_move=best_move)

    # -- public API -----------------------------------------------------------

    def run(self, initial: PolishExpression) -> AnnealResult:
        """Anneal from ``initial``; multi-restart keeps the best result.

        Determinism contract: restart ``r`` re-anneals the caller's
        ``initial`` expression driven *entirely* by the child seed
        ``config.restart_seed(r)`` (= ``seed + r *
        RESTART_SEED_STRIDE``) — one ``random.Random(child_seed)``
        feeds, in order, the restart's temperature calibration and its
        move/acceptance stream.  Consequences:

        * restart ``r`` of this run is identical to restart 0 of a
          single-restart run at ``restart_seed(r)``; raising
          ``restarts`` appends new searches without disturbing the
          results of earlier ones (the historical engine threaded one
          RNG through calibration and all restarts, so any change to
          the calibration probe count — or to the restart count —
          silently reshuffled every downstream placement);
        * every restart revisits ``initial`` (the caller's best known
          start) instead of abandoning it for a random shuffle, as the
          historical engine did for restarts > 0; diversity comes from
          the per-restart streams;
        * restart 0, with the default configuration, reproduces the
          single-restart results of the historical engine exactly.
        """
        tracer = current_tracer()
        best_result: Optional[AnnealResult] = None
        for restart in range(max(1, self.config.restarts)):
            rng = random.Random(self.config.restart_seed(restart))
            # Span granularity is one restart, not one move: the
            # disabled-mode overhead gate in benchmarks/bench_anneal.py
            # only holds because the inner accept/reject loop stays
            # untraced.
            with tracer.span("restart", index=restart) as span:
                result = self._run_once(initial, rng)
                span.set(moves=result.moves_tried,
                         accepted=result.moves_accepted, t0=result.t0,
                         t_final=result.t_final,
                         best_move=result.best_move, gain=result.gain)
            if best_result is None or result.best_cost < best_result.best_cost:
                best_result = result
        return best_result

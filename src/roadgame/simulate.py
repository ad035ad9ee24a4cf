"""Tour execution against attack plans, delivery classification, metrics.

A courier walks its planned route edge by edge; each traversal of an
occupied edge costs one fixed ambush delay, after which the courier
continues from the far endpoint.  Early arrival waits (without penalty)
until the window opens.  A delivery is late when it arrives after the
window closes, and critically late when the lateness exceeds half the
window size.

One evaluator, ``_evaluate_tours``, applies these rules to a courier's
tour under every attack plan of a round at once; ``run_tour`` is its
one-plan form.  It accumulates each leg in chunks of edges, so a tour's
arrays are bounded per chunk, not per leg, however long a random walk
grows.  Its reference, the plain edge-by-edge walk, is
``tests/oracles.py::reference_tour``.

Rounds are scored on arrays: the evaluator's plans x stops arrivals,
ambush counts and tour times go to one scorer, ``_score``, which gives
every plan's ``RoundMetrics`` at once, for ``metrics_from_tours`` too.
``reclassify_with_windows`` recounts only lateness, for every round of
a ``run_rounds`` result in one pass, against the rounds' own cards.
``TourResult``, the per-tour view, comes only from ``run_tour``, which
alone checks a caller's route and attack plan.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .attacks import AttackPlan, select_attack_edges
from .errors import DomainError, ValidationError
from .network import RoadNetwork, memoised
from .routing import RoutePlan, plan_route
from .rng import derive_seed

ON_TIME = "on_time"
LATE = "late"
CRITICALLY_LATE = "critically_late"

DEFAULT_AMBUSH_DELAY_S = 600.0

# Edges per accumulate in a tour leg: 63 plans' arrays stay under 1 MB.
_TOUR_CHUNK = 256


@dataclass(frozen=True)
class Stop:
    node_id: str
    window_start_s: float
    window_end_s: float

    def __post_init__(self):
        if not self.window_start_s < self.window_end_s:
            raise ValidationError(
                f"stop {self.node_id!r}: window start must precede window end")

    @property
    def window_size_s(self) -> float:
        return self.window_end_s - self.window_start_s


@dataclass(frozen=True)
class JobCard:
    """One courier's daily tour: warehouse -> stops in order -> warehouse."""

    courier_id: str
    warehouse: str
    stops: tuple[Stop, ...]
    day_start_s: float = 0.0

    def __post_init__(self):
        if not self.stops:
            raise ValidationError(f"job card {self.courier_id!r} has no stops")


@dataclass(frozen=True)
class TourResult:
    courier_id: str
    arrivals: tuple[float, ...]
    statuses: tuple[str, ...]
    ambush_count: int
    tour_time_s: float


@dataclass(frozen=True)
class RoundMetrics:
    late_fraction: float
    critical_fraction_of_late: float
    mean_tour_time_s: float
    p95_tour_time_s: float
    total_deliveries: int
    total_ambushes: int


def apply_window_multiplier(fleet: Sequence[JobCard], multiplier: float) -> list[JobCard]:
    """Scale every stop's window size by ``multiplier``, keeping its start."""
    if multiplier < 1:
        raise DomainError(f"window multiplier must be >= 1, got {multiplier}")
    scaled = []
    for card in fleet:
        stops = tuple(
            Stop(s.node_id, s.window_start_s,
                 s.window_start_s + multiplier * s.window_size_s)
            for s in card.stops)
        scaled.append(replace(card, stops=stops))
    return scaled


@memoised
def _travel_time_vector(net: RoadNetwork) -> np.ndarray:
    """Travel time of each edge, in ``net.edge_ids`` order."""
    return np.array(net.travel)


def _compile_route(net: RoadNetwork, plan: RoutePlan, card: JobCard) -> tuple[np.ndarray, ...]:
    """Check that ``run_tour``'s route structurally matches the card; per-leg edge indices.

    The checks are the leg count (or, for a failed walk, no legs beyond
    the failure), every edge continuing from the current node, and every
    leg ending at its stop.  Raises DomainError on the first violation.
    """
    points = [card.warehouse] + [s.node_id for s in card.stops] + [card.warehouse]
    expected_legs = len(points) - 1
    if plan.failed_leg is None:
        if len(plan.legs) != expected_legs:
            raise DomainError(
                f"route has {len(plan.legs)} legs, card needs {expected_legs}")
    elif len(plan.legs) != plan.failed_leg:
        raise DomainError("failed route carries legs beyond the failure point")

    if card.warehouse not in net.nodes:
        raise DomainError(f"warehouse {card.warehouse!r} is not in the network")
    node = net.node_index[card.warehouse]
    for i, leg in enumerate(plan.legs):
        for e in leg:
            step = next((v for v, k in net.links[node] if k == e), None)
            if step is None:
                raise DomainError(f"leg {i} does not continue from {net.node_ids[node]!r}")
            node = step
        if net.node_ids[node] != points[i + 1]:
            raise DomainError(f"leg {i} ends at {net.node_ids[node]!r}, "
                              f"card expects {points[i + 1]!r}")
    return tuple(np.array(leg, dtype=np.intp) for leg in plan.legs)


def run_tour(net: RoadNetwork, plan: RoutePlan, card: JobCard,
             attack: AttackPlan, ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S) -> TourResult:
    """Execute one tour under an attack plan.

    Raises DomainError when the route does not structurally match the
    card or the attack plan's edges are not distinct indices into
    ``net.edge_ids``.  A plan whose walk failed marks all remaining
    deliveries as critically late with infinite arrival.
    """
    if not ambush_delay_s > 0:
        raise DomainError("ambush delay must be > 0")
    legs = _compile_route(net, plan, card)
    m = net.num_edges
    bad = [e for e, n in Counter(attack.edges).items() if n > 1 or e not in range(m)]
    if bad:
        raise DomainError(f"attack plan edges must be distinct indices in [0, {m}), got {bad}")
    delays = _delay_matrix(net, [attack], ambush_delay_s)
    arrivals, ambushes, tour_time = _evaluate_tours(card, legs, _travel_time_vector(net), delays)
    late, critical = _lateness(arrivals, card.stops)
    statuses = tuple(CRITICALLY_LATE if is_critical else LATE if is_late else ON_TIME
                     for is_late, is_critical in zip(late[0].tolist(), critical[0].tolist()))
    return TourResult(card.courier_id, tuple(arrivals[0].tolist()), statuses, int(ambushes[0]),
                      float(tour_time[0]))


def _delay_matrix(net: RoadNetwork, plans: Sequence[AttackPlan],
                  ambush_delay_s: float) -> np.ndarray:
    """Plans x edges: the ambush delay on each plan's edges, 0.0 elsewhere.

    The plans' edges are distinct edge indices, as ``select_attack_edges``
    gives them; ``run_tour`` checks a caller's plan.
    """
    delays = np.zeros((len(plans), net.num_edges))
    for row, plan in enumerate(plans):
        delays[row, list(plan.edges)] = ambush_delay_s
    return delays


def _evaluate_tours(card: JobCard, legs: Sequence[np.ndarray], travel: np.ndarray,
                    delays: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One courier's tour under every row of ``delays`` (plans x edges).

    Returns the plans x stops arrivals (``inf`` at a stop a failed walk
    never reaches), and per plan the ambush count and the tour time
    (``inf`` for a failed walk).  Each leg adds, in walking order, every
    edge's travel time and then its delay (0.0 off the plan, which is
    exact) to the clock: ``np.add.accumulate`` over
    ``[clock, t1, d1, t2, d2, ...]`` performs those IEEE additions one
    after another, unlike a pairwise sum, so the result equals an
    edge-by-edge walk bit for bit.  A leg is accumulated in chunks of at
    most ``_TOUR_CHUNK`` edges, each starting from the last one's clock,
    which is the same float, so the arrays stay bounded however long a
    random walk's leg grows.
    """
    plans = delays.shape[0]
    clock = np.full(plans, card.day_start_s, dtype=float)
    ambushes = np.zeros(plans, dtype=np.int64)
    arrivals = np.full((plans, len(card.stops)), math.inf)
    tour_time = np.full(plans, math.inf)
    for i, idx in enumerate(legs):
        for lo in range(0, len(idx), _TOUR_CHUNK):
            chunk = idx[lo:lo + _TOUR_CHUNK]
            chunk_delays = delays[:, chunk]
            steps = np.empty((plans, 2 * len(chunk) + 1))
            steps[:, 0] = clock
            steps[:, 1::2] = travel[chunk]
            steps[:, 2::2] = chunk_delays
            with np.errstate(over="ignore"):  # an overflowed clock is +inf
                clock = np.add.accumulate(steps, axis=1)[:, -1]
            ambushes += np.count_nonzero(chunk_delays, axis=1)
        if i < len(card.stops):
            start = card.stops[i].window_start_s
            clock = np.where(start > clock, start, clock)  # max(clock, start)
            arrivals[:, i] = clock
        else:
            tour_time = clock - card.day_start_s
    return arrivals, ambushes, tour_time


def _lateness(arrivals: np.ndarray, stops: Sequence[Stop]) -> tuple[np.ndarray, np.ndarray]:
    """The late and the critically late masks of ``arrivals`` (plans x
    stops) against ``stops``' windows: the module's one lateness rule."""
    ends = np.array([stop.window_end_s for stop in stops])
    sizes = np.array([stop.window_size_s for stop in stops])
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: not critical, as in Python
        return ~(arrivals <= ends), arrivals - ends > 0.5 * sizes


def _score(late: np.ndarray, critical: np.ndarray, ambushes: np.ndarray,
           times: np.ndarray) -> list[RoundMetrics]:
    """One RoundMetrics per plan row, the one scoring rule of every round.

    ``late`` and ``critical`` are plans x deliveries masks, ``ambushes``
    the plans' ambush totals and ``times`` the plans x couriers tour
    times, C-ordered so that each row's mean is the pairwise sum a 1-D
    array of those times gets.  A finite row whose sum passes the float
    range is averaged as a sum of quotients instead.  The 95th percentile
    is ``np.percentile``'s linear rule in its operation order: at index
    ``(n - 1) * 0.95`` of the sorted row, with fraction g between order
    statistics a and b, it is ``a + (b - a) * g``, or ``b - (b - a) * (1
    - g)`` when g >= 0.5.  At a whole index it is that order statistic,
    and otherwise inf when b is, where numpy would give NaN.
    """
    times = np.ascontiguousarray(times, dtype=float)
    plans, couriers = times.shape
    if couriers:
        position = (couriers - 1) * 0.95
        lo = math.floor(position)
        gamma = position - lo
        ordered = np.sort(times, axis=1)
        a, b = ordered[:, lo], ordered[:, min(lo + 1, couriers - 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = times.mean(axis=1)
            for row in np.flatnonzero((mean == math.inf) & np.isfinite(times).all(axis=1)):
                mean[row] = (times[row] / couriers).sum()
            if gamma == 0:
                p95 = a
            else:
                p95 = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
                p95[b == math.inf] = math.inf
    else:
        mean = p95 = np.zeros(plans)
    return [RoundMetrics(**fractions, mean_tour_time_s=row_mean, p95_tour_time_s=row_p95,
                         total_deliveries=late.shape[1], total_ambushes=row_ambushes)
            for fractions, row_mean, row_p95, row_ambushes
            in zip(_late_fractions(late, critical), mean.tolist(), p95.tolist(),
                   np.asarray(ambushes).tolist())]


def _late_fractions(late: np.ndarray, critical: np.ndarray) -> list[dict[str, float]]:
    """The two RoundMetrics fractions per row of the plans x deliveries
    masks: late of all deliveries, and critically late of the late ones."""
    deliveries = late.shape[1]
    return [{"late_fraction": n_late / deliveries if deliveries else 0.0,
             "critical_fraction_of_late": n_critical / n_late if n_late else 0.0}
            for n_late, n_critical in zip(np.count_nonzero(late, axis=1).tolist(),
                                          np.count_nonzero(critical, axis=1).tolist())]


def metrics_from_tours(tours: Iterable[TourResult]) -> RoundMetrics:
    tours = list(tours)
    statuses = [status for tour in tours for status in tour.statuses]
    return _score(np.array([[status != ON_TIME for status in statuses]], dtype=bool),
                  np.array([[status == CRITICALLY_LATE for status in statuses]], dtype=bool),
                  [sum(tour.ambush_count for tour in tours)],
                  np.array([[tour.tour_time_s for tour in tours]], dtype=float))[0]


@dataclass(frozen=True, eq=False)
class RoundDetails:
    """Everything one round produced; metrics plus replayable pieces.

    ``cards`` are the round's job cards in courier id order, and
    ``arrivals`` holds their stops' arrivals in that order (``inf`` at a
    stop a failed walk never reaches).  Rounds compare by identity, as
    arrays have no single truth value under ``==``.
    """

    attack: AttackPlan
    routes: dict[str, RoutePlan]
    metrics: RoundMetrics
    cards: tuple[JobCard, ...]
    arrivals: np.ndarray


def run_rounds(net: RoadNetwork, fleet: Sequence[JobCard], attacks: Sequence[str],
               defense: str, ks: Sequence[int],
               ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S, seed: int = 0,
               nested_plans: bool = False) -> dict[tuple[str, int], RoundDetails]:
    """Every (attack, k) round of one (defense, seed), keyed by (attack, k).

    A courier's route depends on neither the attack nor k, so each one is
    planned once and every attack plan is scored against it,
    all rounds in one pass over plans x stops arrays.
    Bit-reproducible given the seed: attack and per-courier route RNG are
    independent substreams keyed by purpose and courier id, so results do
    not depend on execution order.  With ``nested_plans`` the per-seed
    random plan is a prefix of a single permutation, so enlarging k only
    ever adds edges.
    """
    if not fleet:
        raise DomainError("fleet must be nonempty")
    ids = [card.courier_id for card in fleet]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate courier ids in fleet")
    if not ambush_delay_s > 0:
        raise DomainError("ambush delay must be > 0")

    cards = tuple(sorted(fleet, key=lambda c: c.courier_id))
    routes: dict[str, RoutePlan] = {}
    for card in cards:
        route_seed = derive_seed(seed, "route", card.courier_id)
        routes[card.courier_id] = plan_route(net, card, defense, seed=route_seed)
    compiled = [[np.array(leg, dtype=np.intp) for leg in plan.legs] for plan in routes.values()]

    attack_seeds = {k: derive_seed(seed, "attack") if nested_plans
                    else derive_seed(seed, "attack", k) for k in dict.fromkeys(ks)}
    keys = list(dict.fromkeys((attack, k) for attack in attacks for k in ks))
    plans = [select_attack_edges(net, attack, k, seed=attack_seeds[k]) for attack, k in keys]
    delays = _delay_matrix(net, plans, ambush_delay_s)
    travel = _travel_time_vector(net)
    card_arrivals, card_ambushes, card_times = zip(*(
        _evaluate_tours(card, legs, travel, delays) for card, legs in zip(cards, compiled)))
    arrivals = np.hstack(card_arrivals)
    ambushes = np.stack(card_ambushes, axis=1)
    times = np.stack(card_times, axis=1)
    stops = [stop for card in cards for stop in card.stops]
    metrics = _score(*_lateness(arrivals, stops), ambushes.sum(axis=1), times)
    return {key: RoundDetails(plan, routes, row_metrics, cards, arrivals[row])
            for row, (key, plan, row_metrics) in enumerate(zip(keys, plans, metrics))}


def run_round_details(net: RoadNetwork, fleet: Sequence[JobCard], attack_strategy: str,
                      defense_strategy: str, k: int,
                      ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S,
                      seed: int = 0, nested_plans: bool = False) -> RoundDetails:
    """One full round: attack phase, then defense routing, then all tours."""
    rounds = run_rounds(net, fleet, (attack_strategy,), defense_strategy, (k,),
                        ambush_delay_s, seed, nested_plans)
    return rounds[(attack_strategy, k)]


def reclassify_with_windows(rounds: dict[tuple[str, int], RoundDetails], multiplier: float
                            ) -> dict[tuple[str, int], RoundMetrics]:
    """Metrics each of ``rounds`` would yield with its windows scaled by ``multiplier``.

    ``rounds`` is one ``run_rounds`` result, so every round shares its
    cards, which are scaled as ``apply_window_multiplier`` scales a fleet
    (a multiplier below 1 is refused, whatever the rounds).  Valid because
    arrivals and tour times never depend on window ends and window starts
    are unchanged by scaling; only the late and critical counts move.
    Every round is recounted in one pass over its stacked arrivals.
    """
    cards = apply_window_multiplier(next(iter(rounds.values())).cards if rounds else (),
                                    multiplier)
    if not rounds:
        return {}
    stops = [stop for card in cards for stop in card.stops]
    late, critical = _lateness(np.stack([details.arrivals for details in rounds.values()]), stops)
    return {key: replace(details.metrics, **fractions)
            for (key, details), fractions in zip(rounds.items(), _late_fractions(late, critical))}

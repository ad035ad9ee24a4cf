"""Tour execution against attack plans, delivery classification, metrics.

A courier walks its planned route edge by edge; each traversal of an
occupied edge costs one fixed ambush delay, after which the courier
continues from the far endpoint.  Early arrival waits (without penalty)
until the window opens.  A delivery is late when it arrives after the
window closes, and critically late when the lateness exceeds half the
window size.

One evaluator, ``_evaluate_tours``, applies these rules to a courier's
tour under every attack plan of a round at once; ``run_tour`` is its
one-plan form.  Its reference, the plain edge-by-edge walk, is
``tests/oracles.py::reference_tour``.
"""

from __future__ import annotations

import math
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


def classify_arrival(arrival_s: float, stop: Stop) -> str:
    if arrival_s <= stop.window_end_s:
        return ON_TIME
    if arrival_s - stop.window_end_s > 0.5 * stop.window_size_s:
        return CRITICALLY_LATE
    return LATE


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
    """Check that the route structurally matches the card; per-leg edge indices.

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

    index = net.edge_index
    node = card.warehouse
    compiled = []
    for i, leg in enumerate(plan.legs):
        for eid in leg:
            edge = net.edges.get(eid)
            if edge is None or node not in (edge.u, edge.v):
                raise DomainError(f"leg {i} does not continue from {node!r}")
            node = edge.other(node)
        if node != points[i + 1]:
            raise DomainError(f"leg {i} ends at {node!r}, card expects {points[i + 1]!r}")
        compiled.append(np.array([index[eid] for eid in leg], dtype=np.intp))
    return tuple(compiled)


def run_tour(net: RoadNetwork, plan: RoutePlan, card: JobCard,
             attack: AttackPlan, ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S) -> TourResult:
    """Execute one tour under an attack plan.

    Raises DomainError when the route does not structurally match the
    card or the attack plan names an edge the network lacks.  A plan
    whose walk failed marks all remaining deliveries as critically late
    with infinite arrival.
    """
    if not ambush_delay_s > 0:
        raise DomainError("ambush delay must be > 0")
    legs = _compile_route(net, plan, card)
    delays = _delay_matrix(net, [attack], ambush_delay_s)
    return _evaluate_tours(card, legs, _travel_time_vector(net), delays)[0]


def _delay_matrix(net: RoadNetwork, plans: Sequence[AttackPlan],
                  ambush_delay_s: float) -> np.ndarray:
    """Plans x edges: the ambush delay on each plan's edges, 0.0 elsewhere.

    Raises DomainError when a plan names an edge the network lacks.
    """
    index = net.edge_index
    delays = np.zeros((len(plans), net.num_edges))
    for row, plan in enumerate(plans):
        unknown = plan.edges.difference(index)
        if unknown:
            raise DomainError(f"attack plan names edges not in the network: {sorted(unknown)}")
        delays[row, [index[eid] for eid in plan.edges]] = ambush_delay_s
    return delays


def _evaluate_tours(card: JobCard, legs: tuple[np.ndarray, ...], travel: np.ndarray,
                    delays: np.ndarray) -> list[TourResult]:
    """One courier's tour under every row of ``delays`` (plans x edges).

    Each leg adds, in walking order, every edge's travel time and then its
    delay (0.0 off the plan, which is exact) to the clock:
    ``np.add.accumulate`` over ``[clock, t1, d1, t2, d2, ...]`` performs
    those IEEE additions one after another, unlike a pairwise sum, so the
    result equals an edge-by-edge walk bit for bit.
    """
    plans = delays.shape[0]
    clock = np.full(plans, card.day_start_s, dtype=float)
    ambushes = np.zeros(plans, dtype=np.int64)
    arrivals = []
    tour_time = np.full(plans, math.inf)
    for i, idx in enumerate(legs):
        leg_delays = delays[:, idx]
        steps = np.empty((plans, 2 * len(idx) + 1))
        steps[:, 0] = clock
        steps[:, 1::2] = travel[idx]
        steps[:, 2::2] = leg_delays
        with np.errstate(over="ignore"):  # an overflowed clock is +inf
            clock = np.add.accumulate(steps, axis=1)[:, -1]
        ambushes += np.count_nonzero(leg_delays, axis=1)
        if i < len(card.stops):
            start = card.stops[i].window_start_s
            clock = np.where(start > clock, start, clock)  # max(clock, start)
            arrivals.append(clock)
        else:
            tour_time = clock - card.day_start_s

    missing = [math.inf] * (len(card.stops) - len(arrivals))
    by_plan = np.array(arrivals).T.tolist() if arrivals else [[] for _ in range(plans)]
    tours = []
    for row, times in enumerate(by_plan):
        times = tuple(times + missing)
        statuses = tuple(classify_arrival(t, stop) for t, stop in zip(times, card.stops))
        tours.append(TourResult(card.courier_id, times, statuses,
                                int(ambushes[row]), float(tour_time[row])))
    return tours


def _p95(times: np.ndarray) -> float:
    """95th percentile (linear interpolation); inf when a neighbouring order
    statistic is inf, where interpolating would give NaN."""
    if not len(times):
        return 0.0
    ordered = np.sort(times)
    position = 0.95 * (len(ordered) - 1)
    if math.isinf(ordered[math.floor(position)]) or math.isinf(ordered[math.ceil(position)]):
        return math.inf
    return float(np.percentile(times, 95))


def metrics_from_tours(tours: Iterable[TourResult]) -> RoundMetrics:
    tours = list(tours)
    total = sum(len(t.statuses) for t in tours)
    late = sum(1 for t in tours for s in t.statuses if s != ON_TIME)
    critical = sum(1 for t in tours for s in t.statuses if s == CRITICALLY_LATE)
    times = np.array([t.tour_time_s for t in tours])
    with np.errstate(over="ignore"):
        mean = float(times.mean()) if len(times) else 0.0
        if mean == math.inf and np.isfinite(times).all():  # the sum passed the float range
            mean = float((times / len(times)).sum())
    return RoundMetrics(
        late_fraction=late / total if total else 0.0,
        critical_fraction_of_late=critical / late if late else 0.0,
        mean_tour_time_s=mean,
        p95_tour_time_s=_p95(times),
        total_deliveries=total,
        total_ambushes=sum(t.ambush_count for t in tours),
    )


@dataclass(frozen=True)
class RoundDetails:
    """Everything one round produced; metrics plus replayable pieces."""

    attack: AttackPlan
    routes: dict[str, RoutePlan]
    tours: dict[str, TourResult]
    metrics: RoundMetrics


def run_rounds(net: RoadNetwork, fleet: Sequence[JobCard], attacks: Sequence[str],
               defense: str, ks: Sequence[int],
               ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S, seed: int = 0,
               nested_plans: bool = False) -> dict[tuple[str, int], RoundDetails]:
    """Every (attack, k) round of one (defense, seed), keyed by (attack, k).

    A courier's route depends on neither the attack nor k, so each one is
    planned and checked once and every attack plan is scored against it.
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

    cards = sorted(fleet, key=lambda c: c.courier_id)
    routes: dict[str, RoutePlan] = {}
    for card in cards:
        route_seed = derive_seed(seed, "route", card.courier_id)
        routes[card.courier_id] = plan_route(net, card, defense, seed=route_seed)
    compiled = [_compile_route(net, routes[card.courier_id], card) for card in cards]

    attack_seeds = {k: derive_seed(seed, "attack") if nested_plans
                    else derive_seed(seed, "attack", k) for k in dict.fromkeys(ks)}
    keys = list(dict.fromkeys((attack, k) for attack in attacks for k in ks))
    plans = [select_attack_edges(net, attack, k, seed=attack_seeds[k]) for attack, k in keys]
    delays = _delay_matrix(net, plans, ambush_delay_s)
    travel = _travel_time_vector(net)
    per_card = [_evaluate_tours(card, legs, travel, delays)
                for card, legs in zip(cards, compiled)]
    rounds = {}
    for row, (key, plan) in enumerate(zip(keys, plans)):
        tours = {card.courier_id: results[row] for card, results in zip(cards, per_card)}
        rounds[key] = RoundDetails(plan, routes, tours, metrics_from_tours(tours.values()))
    return rounds


def run_round_details(net: RoadNetwork, fleet: Sequence[JobCard], attack_strategy: str,
                      defense_strategy: str, k: int,
                      ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S,
                      seed: int = 0, nested_plans: bool = False) -> RoundDetails:
    """One full round: attack phase, then defense routing, then all tours."""
    rounds = run_rounds(net, fleet, (attack_strategy,), defense_strategy, (k,),
                        ambush_delay_s, seed, nested_plans)
    return rounds[(attack_strategy, k)]


def reclassify_with_windows(fleet: Sequence[JobCard], details: RoundDetails) -> RoundMetrics:
    """Metrics the same round would yield under ``fleet``'s delivery windows.

    ``fleet`` is the round's fleet with its windows scaled, as
    ``apply_window_multiplier`` gives it.  Valid because arrivals never
    depend on window ends and window starts are unchanged by scaling;
    only the lateness classification moves.
    """
    tours = []
    for card in fleet:
        old = details.tours[card.courier_id]
        statuses = tuple(classify_arrival(arrival, stop)
                         for arrival, stop in zip(old.arrivals, card.stops))
        tours.append(replace(old, statuses=statuses))
    return metrics_from_tours(tours)

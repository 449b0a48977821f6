"""Property-based tests for the baseline packing machinery."""

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.common import (
    OrderCost,
    order_cost,
    pack_boxes,
    pack_perimeter,
    refine_order,
)
from repro.geometry.rect import Point, Rect, total_overlap_area


def _reference_pack_perimeter(die, dims, gap=0.0):
    """The per-item ``Rect`` packing loop that :func:`pack_boxes`
    replaced, kept verbatim as its oracle."""
    placements: List[Optional[Rect]] = [None] * len(dims)
    remaining = list(range(len(dims)))
    inset = 0.0
    guard = 0
    while remaining and guard < 12:
        guard += 1
        reserve = max(min(dims[i]) for i in remaining) + gap
        wall_ranges = {
            "W": (die.y + inset, die.y2 - inset - reserve),
            "N": (die.x + inset, die.x2 - inset - reserve),
            "E": (die.y + inset + reserve, die.y2 - inset),
            "S": (die.x + inset + reserve, die.x2 - inset),
        }
        ring_depth = 0.0
        index_in_ring = 0
        for wall in ("W", "N", "E", "S"):
            cursor, limit = wall_ranges[wall]
            while index_in_ring < len(remaining):
                item = remaining[index_in_ring]
                w, h = dims[item]
                along, depth = max(w, h), min(w, h)
                if cursor + along > limit + 1e-9:
                    break
                if wall == "W":
                    rect = Rect(die.x + inset, cursor, depth, along)
                elif wall == "E":
                    rect = Rect(die.x2 - inset - depth, cursor,
                                depth, along)
                elif wall == "N":
                    rect = Rect(cursor, die.y2 - inset - depth,
                                along, depth)
                else:
                    rect = Rect(cursor, die.y + inset, along, depth)
                placements[item] = rect
                ring_depth = max(ring_depth, depth)
                cursor += along + gap
                index_in_ring += 1
        placed_now = remaining[:index_in_ring]
        remaining = remaining[index_in_ring:]
        if not placed_now:
            break
        inset += ring_depth + gap
    if remaining:
        cx, cy = die.x + inset, die.y + inset
        row_h = 0.0
        for item in remaining:
            w, h = dims[item]
            if cx + w > die.x2 - inset and cx > die.x + inset:
                cx = die.x + inset
                cy += row_h
                row_h = 0.0
            placements[item] = Rect(cx, cy, w, h)
            cx += w
            row_h = max(row_h, h)
    return [r for r in placements]


def _reference_refine_order(order, repack, matrix, port_pulls, passes=4):
    """The refinement loop over ``Rect`` packings scored by the
    reference :func:`order_cost`."""
    rects = repack(order)
    best_cost = order_cost(order, rects, matrix, port_pulls)
    n = len(order)
    for _ in range(passes):
        improved = False
        for stride in (1, 2):
            for a in range(n - stride):
                b = a + stride
                order[a], order[b] = order[b], order[a]
                cand_rects = repack(order)
                cost = order_cost(order, cand_rects, matrix, port_pulls)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    rects = cand_rects
                    improved = True
                else:
                    order[a], order[b] = order[b], order[a]
        if not improved:
            break
    return order, rects


def _random_affinity(rng, n, n_ports):
    """A sparse random affinity matrix over ``n`` macros and
    ``n_ports`` ports, with the port pulls the baselines derive."""
    size = n + n_ports
    matrix = [[rng.uniform(0.0, 3.0) if rng.random() < 0.3 else 0.0
               for _ in range(size)] for _ in range(size)]
    port_pulls = [[(Point(rng.uniform(0, 50), rng.uniform(0, 50)),
                    matrix[i][n + t] + matrix[n + t][i])
                   for t in range(n_ports)
                   if matrix[i][n + t] + matrix[n + t][i] > 0]
                  for i in range(n)]
    return matrix, port_pulls


#: Sides drawn from a small grid as well as from a range, so squares
#: (``w == h``) and equal depths across items come up often.
side_strategy = st.one_of(st.sampled_from([1.0, 2.0, 2.5, 4.0, 6.0]),
                          st.floats(min_value=0.5, max_value=12.0))

dims_strategy = st.lists(
    st.tuples(st.floats(min_value=1.0, max_value=12.0),
              st.floats(min_value=1.0, max_value=12.0)),
    min_size=1, max_size=24)


class TestPackPerimeterProperties:
    @settings(max_examples=60, deadline=None)
    @given(dims_strategy)
    def test_all_placed_no_overlap(self, dims):
        """Whenever total item area fits comfortably, the packing is
        complete, disjoint and in-die."""
        total_area = sum(w * h for w, h in dims)
        side = max(40.0, (4 * total_area) ** 0.5)
        die = Rect(0, 0, side, side)
        rects = pack_perimeter(die, dims)
        assert len(rects) == len(dims)
        assert all(r is not None for r in rects)
        assert total_overlap_area(rects) < 1e-6
        for rect in rects:
            assert die.contains_rect(rect, tol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(dims_strategy)
    def test_footprints_preserved_up_to_rotation(self, dims):
        die = Rect(0, 0, 200, 200)
        rects = pack_perimeter(die, dims)
        for (w, h), rect in zip(dims, rects):
            assert {round(rect.w, 6), round(rect.h, 6)} \
                == {round(w, 6), round(h, 6)} \
                or (round(rect.w, 6) == round(h, 6)
                    and round(rect.h, 6) == round(w, 6))

    def test_order_determines_positions(self):
        die = Rect(0, 0, 60, 60)
        dims = [(6, 3), (4, 4), (8, 2)]
        a = pack_perimeter(die, dims)
        b = pack_perimeter(die, dims)
        assert a == b
        swapped = pack_perimeter(die, [dims[1], dims[0], dims[2]])
        assert swapped != a


class TestOrderCostProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_compiled_equals_reference(self, n, n_ports, seed):
        """The vectorized cost of a box packing equals the reference
        loop over the same packing as ``Rect`` objects bit for bit on
        sparse affinity, for whole orders and for strip-style subsets."""
        rng = random.Random(seed)
        matrix, port_pulls = _random_affinity(rng, n, n_ports)
        cost = OrderCost(matrix, port_pulls)
        die = Rect(0, 0, 200, 200)
        dims = [(rng.uniform(1, 12), rng.uniform(1, 12)) for _ in range(n)]
        for _ in range(5):
            order = rng.sample(range(n), rng.randint(0, n))
            boxes = pack_boxes(die, [dims[m] for m in order])
            rects = [Rect(*box) for box in boxes]
            assert cost(order, boxes) \
                == order_cost(order, rects, matrix, port_pulls)


class TestAgainstRectReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(side_strategy, side_strategy),
                    min_size=0, max_size=40),
           st.sampled_from([0.0, 0.5, 1.25]),
           st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=-50.0, max_value=50.0),
           st.floats(min_value=4.0, max_value=120.0),
           st.floats(min_value=4.0, max_value=120.0))
    def test_packing_equals_reference(self, dims, gap, x, y, w, h):
        """Box packing equals the ``Rect`` loop exactly, on any die:
        off the origin, roomy, or small enough to run out of rings
        (the 12-ring guard) and grid-fill the centre."""
        die = Rect(x, y, w, h)
        assert pack_perimeter(die, dims, gap) \
            == _reference_pack_perimeter(die, dims, gap)

    @pytest.mark.parametrize("gap", [0.0, 0.25])
    def test_ring_guard_and_grid_fill_equal_reference(self, gap):
        """12 full rings of unit squares, then the centre grid fill."""
        die = Rect(3.0, -2.0, 30.0, 30.0)
        dims = [(1.0, 1.0)] * 1000
        rects = pack_perimeter(die, dims, gap)
        assert rects == _reference_pack_perimeter(die, dims, gap)
        # The last items were grid-filled inside the twelfth ring.
        assert rects[-1].x >= die.x + 12 and rects[-1].y >= die.y + 12

    def test_no_ring_fits_grid_fills_unrotated(self):
        die = Rect(-4.0, 7.0, 8.0, 8.0)
        dims = [(6.0, 5.0), (5.0, 6.0), (3.0, 3.0)]
        rects = pack_perimeter(die, dims, 1.0)
        assert rects == _reference_pack_perimeter(die, dims, 1.0)
        assert rects[0] == Rect(-4.0, 7.0, 6.0, 5.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=24),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=10 ** 6),
           st.booleans())
    def test_refine_order_equals_reference(self, n, n_ports, seed, strip):
        """``refine_order`` on boxes returns the order and ``Rect``
        objects of the reference loop, for whole orders (IndEDA) and
        for strip subsets in a narrow off-origin strip (handFP)."""
        rng = random.Random(seed)
        matrix, port_pulls = _random_affinity(rng, n, n_ports)
        dims = [(rng.choice([2.0, 4.0, rng.uniform(1, 12)]),
                 rng.choice([2.0, 4.0, rng.uniform(1, 12)]))
                for _ in range(n)]
        if strip:
            die = Rect(rng.uniform(0, 60), 0.0, rng.uniform(14, 40), 120.0)
            order = rng.sample(range(n), rng.randint(0, n))
        else:
            die = Rect(0.0, 0.0, 90.0, 70.0)
            order = list(range(n))
            rng.shuffle(order)
        passes = rng.randint(1, 5)
        got = refine_order(
            list(order), lambda o: pack_boxes(die, [dims[m] for m in o]),
            matrix, port_pulls, passes=passes)
        want = _reference_refine_order(
            list(order),
            lambda o: _reference_pack_perimeter(die, [dims[m] for m in o]),
            matrix, port_pulls, passes=passes)
        assert got == want

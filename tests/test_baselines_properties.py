"""Property-based tests for the baseline packing machinery."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines.common import OrderCost, order_cost, pack_perimeter
from repro.geometry.rect import Point, Rect, total_overlap_area

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
        """The vectorized cost equals the reference loop bit for bit on
        sparse affinity, for whole orders and for strip-style subsets."""
        rng = random.Random(seed)
        size = n + n_ports
        matrix = [[rng.uniform(0.0, 3.0) if rng.random() < 0.3 else 0.0
                   for _ in range(size)] for _ in range(size)]
        port_pulls = [[(Point(rng.uniform(0, 50), rng.uniform(0, 50)),
                        matrix[i][n + t] + matrix[n + t][i])
                       for t in range(n_ports)
                       if matrix[i][n + t] + matrix[n + t][i] > 0]
                      for i in range(n)]
        cost = OrderCost(matrix, port_pulls)
        die = Rect(0, 0, 200, 200)
        dims = [(rng.uniform(1, 12), rng.uniform(1, 12)) for _ in range(n)]
        for _ in range(5):
            order = rng.sample(range(n), rng.randint(0, n))
            rects = pack_perimeter(die, [dims[m] for m in order])
            assert cost(order, rects) \
                == order_cost(order, rects, matrix, port_pulls)

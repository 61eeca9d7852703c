import math
import random

import pytest

from qcong.genfun import Family, build_series
from qcong.oracles import (
    BudgetExceeded,
    Overpartition,
    PlaneOverpartition,
    count_linear_reps,
    count_ncolor_overpartitions,
    count_ncolor_partitions,
    count_overpartitions,
    count_partitions_multiset,
    count_plane_overpartitions,
    count_sum_of_squares,
    overpartitions,
    partitions,
    plane_overpartitions,
    plane_partitions,
    render,
    validate,
)
from references import sum_of_squares_series


class TestPartitionsMultiset:
    def test_known_small_counts(self):
        assert count_partitions_multiset(5, [1, 2, 5, 8]) == 4
        assert count_partitions_multiset(4, [1, 2, 2, 3, 3]) == 8

    def test_empty_weight(self):
        assert count_partitions_multiset(0, [3, 7]) == 1

    def test_accepts_multiset_object(self):
        # a restricted family's parts, or any iterable of them
        family = Family.restricted([3, 2, 1, 3, 2])
        assert count_partitions_multiset(4, family.parts) == 8
        assert count_partitions_multiset(4, iter([3, 2, 1, 3, 2])) == 8

    def test_matches_series(self):
        parts = [1, 2, 2, 3, 3]
        series = build_series(Family.restricted(parts), 25)
        for n in range(26):
            assert count_partitions_multiset(n, parts) == series[n]

    def test_more_entries_than_the_recursion_limit(self):
        # the count keeps one stack entry per part, not one Python frame
        assert count_partitions_multiset(1, [1] * 1100) == 1100


class TestBudgets:
    """Each oracle charges one step per node visited and one per object."""

    @pytest.mark.parametrize("count,steps", [
        # 6 nodes below the root and 3 partitions
        (lambda budget: len(list(partitions(3, budget=budget))), 9),
        # 14 nodes (the root, 5 remainders after entry 1, 8 after entry 2)
        # and 3 partitions
        (lambda budget: count_partitions_multiset(4, [1, 2], budget), 17),
        # 10 nodes and 6 n-color partitions
        (lambda budget: count_ncolor_partitions(3, budget), 16),
        # partitions(j) and distinct partitions(j) for j = 1..3 on one budget
        (lambda budget: count_overpartitions(3, budget=budget), 29),
        # the same for j = 1..12, with partitions up to twelve parts deep
        (lambda budget: count_overpartitions(12, budget=budget), 1493),
    ], ids=["partitions", "multiset", "ncolor", "overpartitions",
            "overpartitions-12"])
    def test_exact_steps(self, count, steps):
        count(steps)
        with pytest.raises(BudgetExceeded):
            count(steps - 1)

    def test_none_is_unlimited(self):
        assert count_partitions_multiset(30, [1, 2, 3], None) == 91
        assert count_ncolor_overpartitions(4, None) == count_ncolor_overpartitions(4)


class TestOverpartitions:
    def test_census_three(self):
        assert count_overpartitions(3) == 8
        assert count_overpartitions(3, odd_parts_only=True) == 4

    def test_zero(self):
        assert count_overpartitions(0) == 1
        assert count_overpartitions(0, odd_parts_only=True) == 1

    def test_object_enumeration_agrees(self):
        for n in range(10):
            assert sum(1 for _ in overpartitions(n)) == count_overpartitions(n)
            assert (
                sum(1 for _ in overpartitions(n, odd_parts_only=True))
                == count_overpartitions(n, odd_parts_only=True)
            )

    def test_matches_series(self):
        over = build_series(Family.overpartitions(), 25)
        odd = build_series(Family.odd_overpartitions(), 25)
        for n in range(26):
            assert count_overpartitions(n) == over[n]
            assert count_overpartitions(n, odd_parts_only=True) == odd[n]

    def test_object_weights(self):
        for po in overpartitions(6):
            assert isinstance(po, Overpartition)
            assert po.weight == 6
            assert po.overlined <= set(po.parts)


class TestPlaneOverpartitions:
    def test_census(self):
        assert count_plane_overpartitions(2) == 6
        assert count_plane_overpartitions(3) == 16

    def test_single_row_is_overpartition(self):
        for n in range(9):
            assert count_plane_overpartitions(n, max_rows=1) == count_overpartitions(n)

    def test_monotone_in_rows_and_stabilizes(self):
        for n in (4, 6):
            counts = [count_plane_overpartitions(n, max_rows=k) for k in range(1, n + 2)]
            assert counts == sorted(counts)
            assert counts[n - 1] == counts[n]  # stabilizes at k = n

    def test_matches_series(self):
        pl = build_series(Family.plane(), 10)
        for n in range(11):
            assert count_plane_overpartitions(n) == pl[n]

    def test_k_rowed_matches_series(self):
        for k in (1, 2, 3, 4):
            plk = build_series(Family.k_rowed(k), 9)
            for n in range(10):
                assert count_plane_overpartitions(n, max_rows=k) == plk[n]

    def test_all_enumerated_objects_validate(self):
        for n in range(7):
            for po in plane_overpartitions(n):
                assert validate(po)
                assert po.weight == n

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            count_plane_overpartitions(11, budget=50)

    @pytest.mark.parametrize("budget", [0, 1, 10, 1000, 20000])
    def test_budget_bounds_the_objects_yielded(self, budget):
        # each yielded decoration costs budget, not only each cell visit
        for n, max_rows in ((40, None), (14, None), (30, 2)):
            yielded = 0
            with pytest.raises(BudgetExceeded):
                for _ in plane_overpartitions(n, max_rows, budget):
                    yielded += 1
            assert yielded <= budget

    def test_budget_admits_exact_counts(self):
        assert count_plane_overpartitions(10, budget=None) == 3584
        assert count_plane_overpartitions(10) == 3584

    def test_all_two_squares_filling_has_no_decoration(self):
        # [[2,2],[2,2]]: row rule forbids overlining cell (1,0), the column
        # rule demands it
        fillings = list(plane_partitions(8))
        assert ((2, 2), (2, 2)) in fillings
        square = [
            po for po in plane_overpartitions(8)
            if tuple(tuple(v for v, _ in row) for row in po.rows) == ((2, 2), (2, 2))
        ]
        assert square == []


class TestValidateRender:
    def weight_31_diagram(self):
        return PlaneOverpartition(
            (
                ((5, False), (4, False), (4, True), (3, False), (1, True)),
                ((3, False), (2, False), (1, False)),
                ((2, False), (2, True), (1, True)),
                ((1, False), (1, False)),
                ((1, True),),
            )
        )

    def test_weight_31_diagram_is_valid(self):
        po = self.weight_31_diagram()
        assert validate(po)
        assert po.weight == 31

    def test_render_golden(self):
        assert render(self.weight_31_diagram()) == (
            "5 4 4~ 3 1~\n3 2 1\n2 2~ 1~\n1 1\n1~"
        )

    def test_row_rule_violation(self):
        assert not validate(PlaneOverpartition((((1, True), (1, False)),)))

    def test_column_rule_violation(self):
        assert not validate(PlaneOverpartition((((1, False),), ((1, False),))))

    def test_increasing_row_invalid(self):
        assert not validate(PlaneOverpartition((((1, False), (2, False)),)))

    def test_increasing_column_invalid(self):
        assert not validate(PlaneOverpartition((((1, False),), ((2, False),))))

    def test_nonpositive_value_invalid(self):
        assert not validate(PlaneOverpartition((((0, False),),)))

    def test_ragged_shape_raises(self):
        with pytest.raises(ValueError):
            validate(PlaneOverpartition((((1, False),), ((1, False), (1, False)))))


class TestNColor:
    def test_census(self):
        assert count_ncolor_partitions(3) == 6
        assert count_ncolor_overpartitions(3) == 16
        assert count_ncolor_overpartitions(0) == 1

    def test_matches_plane_overpartitions(self):
        for n in range(9):
            assert count_ncolor_overpartitions(n) == count_plane_overpartitions(n)

    def test_plain_counts_match_macmahon_series(self):
        # n-color partitions share the plane-partition generating function
        from qcong.series import EXACT, binomial_product

        series = binomial_product(
            EXACT, 10, ((n, -n) for n in range(1, 11))
        )
        for n in range(11):
            assert count_ncolor_partitions(n) == series[n]


class TestRepresentationCounts:
    def test_sum_of_squares(self):
        assert count_sum_of_squares(5, 2) == 2
        assert count_sum_of_squares(4, 1) == 1
        assert count_sum_of_squares(3, 2) == 0

    def test_sum_of_squares_matches_series(self):
        for k in (1, 2, 3):
            series = sum_of_squares_series(k, 30)
            for n in range(31):
                assert count_sum_of_squares(n, k) == series[n]

    def test_linear_reps(self):
        assert count_linear_reps(1, 3, 12) == 3
        assert count_linear_reps(5, 7, 213) == 6
        assert count_linear_reps(5, 7, 3) == 0

    def test_lemma_c_minus_one_pairs(self):
        # a*n + b*m = a*b*c has exactly c - 1 positive solutions for coprime a, b
        rng = random.Random(11)
        seen = 0
        while seen < 20:
            a = rng.randint(1, 12)
            b = rng.randint(1, 12)
            if math.gcd(a, b) != 1:
                continue
            c = rng.randint(1, 10)
            assert count_linear_reps(a, b, a * b * c) == c - 1, (a, b, c)
            seen += 1

    def test_pairwise_coprime_matches_multiset_count(self):
        rng = random.Random(5)
        seen = 0
        while seen < 20:
            a = rng.randint(2, 12)
            b = rng.randint(2, 12)
            c = rng.randint(2, 60)
            if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
                continue
            assert count_linear_reps(a, b, c) == count_partitions_multiset(c, [a, b])
            seen += 1


def test_partitions_generator_basics():
    assert list(partitions(0)) == [()]
    # largest first part first, then the rest in the same order
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(4, odd_only=True)) == [(3, 1), (1, 1, 1, 1)]
    assert list(partitions(4, distinct=True)) == [(4,), (3, 1)]


def test_partitions_deeper_than_the_recursion_limit():
    # the enumeration keeps one stack entry per part, not one generator frame
    assert list(partitions(1000, max_part=1)) == [(1,) * 1000]

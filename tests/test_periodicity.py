import random

import pytest

from qcong.genfun import Family, build_series
from qcong.periodicity import (
    InsufficientOrder,
    b_value,
    cross_check,
    ell_free_part,
    empirical_period,
    is_prime,
    kwong_period,
    m_value,
    ord_prime,
)
from qcong.series import EXACT, Mod, Series
from references import f_series

WORKED_EXAMPLE = [1, 1, 2, 2, 2, 4, 4, 5]


class TestFactorizationHelpers:
    def test_ord_and_free_part(self):
        assert ord_prime(12, 2) == 2
        assert ell_free_part(12, 2) == 3
        assert ord_prime(20, 2) == 2
        assert ell_free_part(20, 2) == 5
        assert ord_prime(7, 3) == 0
        assert ell_free_part(7, 3) == 7

    def test_prime_check(self):
        with pytest.raises(ValueError):
            ord_prime(10, 4)
        with pytest.raises(ValueError):
            ell_free_part(10, 1)

    def test_is_prime(self):
        primes = [n for n in range(2, 40) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


class TestKwongParameters:
    def test_worked_example(self):
        # sum of 2-power parts is 2*1 + 3*2 + 2*4 + 1 = 17, so b = 5; the
        # 2-free part of lcm = 20 is 5
        assert b_value(WORKED_EXAMPLE, 2) == 5
        assert m_value(WORKED_EXAMPLE, 2) == 5

    def test_five_seven(self):
        assert b_value([5, 7], 2) == 1
        assert m_value([5, 7], 2) == 35

    def test_worked_example_periods(self):
        for power in (1, 2, 3):
            report = kwong_period(WORKED_EXAMPLE, 2, power)
            assert report.period == 2 ** (power + 4) * 5

    def test_five_seven_mod_eight(self):
        report = kwong_period([5, 7], 2, 3)
        assert report.period == 280

    def test_monotone_in_power(self):
        rng = random.Random(2)
        for _ in range(20):
            parts = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
            ell = rng.choice([2, 3])
            for power in (1, 2):
                small = kwong_period(parts, ell, power).period
                big = kwong_period(parts, ell, power + 1).period
                assert big == ell * small

    def test_m_value_coprime_to_prime(self):
        rng = random.Random(9)
        for _ in range(30):
            parts = [rng.randint(1, 12) for _ in range(rng.randint(1, 5))]
            ell = rng.choice([2, 3, 5])
            assert m_value(parts, ell) % ell != 0

    def test_singleton_unit_part(self):
        # b is the least exponent with 2^b >= 1, which is 0: period 2^(N-1)
        report = kwong_period([1], 2, 1)
        assert (report.b_value, report.m_value, report.period) == (0, 1, 1)


class TestEmpiricalPeriod:
    def test_five_seven_mod_eight(self):
        series = build_series(Family.restricted([5, 7]), 1200, Mod(8))
        assert empirical_period(series, 400, guard=3) == 280

    def test_constant_series(self):
        series = build_series(Family.restricted([1]), 90, Mod(4))
        assert empirical_period(series, 30) == 1

    def test_f_mod_two_has_no_pure_period(self):
        # coefficients are 1, 0, 0, ...: no shift can reproduce the leading 1
        assert empirical_period(f_series(1, 150, Mod(2)), 50) is None

    def test_insufficient_order(self):
        series = build_series(Family.restricted([2]), 50, Mod(4))
        with pytest.raises(InsufficientOrder):
            empirical_period(series, 20, guard=3)

    def test_exact_ring_rejected(self):
        with pytest.raises(ValueError):
            empirical_period(Series.one(EXACT, 10), 2)

    def test_guard_validation(self):
        series = build_series(Family.restricted([2]), 50, Mod(4))
        with pytest.raises(ValueError):
            empirical_period(series, 5, guard=2)


class TestCrossCheck:
    def test_random_multisets_agree(self):
        # |S| >= 2 avoids the singleton degeneracy where the closed form
        # overshoots the true pure period; draws are capped so the series
        # stays desk-sized
        rng = random.Random(7)
        checked = 0
        while checked < 20:
            parts = [rng.randint(1, 12) for _ in range(rng.randint(2, 5))]
            ell = rng.choice([2, 3])
            power = rng.randint(1, 3)
            if kwong_period(parts, ell, power).period > 1600:
                continue
            report = cross_check(parts, ell, power)
            assert report.agreement, (parts, ell, power, report)
            checked += 1

    def test_singleton_degeneracy_is_flagged(self):
        # partitions into {2}: the indicator of even n has pure period 2 for
        # every modulus, but the closed form gives 2^power
        report = cross_check([2], 2, 2)
        assert report.period == 4
        assert report.empirical_period == 2
        assert report.agreement is False

    def test_report_json_round_trip(self):
        report = cross_check([5, 7], 2, 3)
        data = report.to_json()
        assert data["period"] == 280
        assert data["empirical_period"] == 280
        assert data["agreement"] is True
        assert data["parts"] == [5, 7]

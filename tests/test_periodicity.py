import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcong import periodicity
from qcong.genfun import Family, build_series
from qcong.periodicity import (
    InsufficientOrder,
    cross_check,
    empirical_period,
    kwong_period,
)
from qcong.series import EXACT, Mod, Series
from references import UNPRINTABLE_LCM_PARTS, byte_scan_period, f_series

WORKED_EXAMPLE = [1, 1, 2, 2, 2, 4, 4, 5]


class TestFactorizationHelpers:
    # for a singleton multiset {s}, b is ord_l(s) and m is the l-free part of s
    def test_ord_and_free_part(self):
        for part, ell, ord_, free in ((12, 2, 2, 3), (20, 2, 2, 5), (7, 3, 0, 7)):
            report = kwong_period([part], ell, 1)
            assert (report.b_value, report.m_value) == (ord_, free)

    def test_prime_check(self):
        with pytest.raises(ValueError, match="not prime"):
            kwong_period([10], 4, 1)
        with pytest.raises(ValueError, match="not prime"):
            kwong_period([10], 1, 1)

    def test_is_prime(self):
        primes = []
        for n in range(-2, 40):
            try:
                kwong_period([1], n, 1)
            except ValueError:
                continue
            primes.append(n)
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


class TestPrimeBound:
    def test_large_prime_is_fast(self):
        t0 = time.perf_counter()
        report = kwong_period([1, 2], 10**18 + 3, 1)
        assert time.perf_counter() - t0 < 1
        assert (report.b_value, report.m_value) == (1, 2)
        assert report.period == 2 * (10**18 + 3)

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2: 23 * 89
            561,  # Carmichael number: 3 * 11 * 17
            25,
            1,
            0,
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            318665857834031151167461,  # to every prime base up to 37
        ],
    )
    def test_composites_and_units_rejected(self, n):
        with pytest.raises(ValueError, match=f"^{n} is not prime$"):
            kwong_period([1, 2], n, 1)

    def test_largest_primes_accepted(self):
        # 2^61 - 1 is a Mersenne prime; the other is the largest prime below
        # the limit of the test
        for p in (2**61 - 1, 3317044064679887385961813):
            assert kwong_period([3], p, 2).period == p * 3

    def test_above_the_limit(self):
        limit = 3317044064679887385961981
        with pytest.raises(ValueError, match=f"not below {limit}"):
            kwong_period([1, 2], limit, 1)
        with pytest.raises(ValueError, match=f"not below {limit}"):
            kwong_period([1, 2], 2**127 - 1, 1)

    def test_period_digit_limit(self):
        # [3] mod 3^N: b = 1 and m = 1, so the period is 3^N; 3^9012 has
        # 4300 digits and 3^9013 has 4301
        assert len(str(kwong_period([3], 3, 9012).period)) == 4300
        with pytest.raises(ValueError, match="about 4301 digits, more than the "
                                             "limit of 4300"):
            kwong_period([3], 3, 9013)

    def test_refusal_names_an_unprintable_lcm_by_its_digits(self):
        # m, the 2-free part of the lcm, has more than 4300 digits itself,
        # so the message gives its size, not its digits
        with pytest.raises(ValueError) as info:
            kwong_period(UNPRINTABLE_LCM_PARTS, 2, 3)
        assert str(info.value) == (
            "the period 2^13 * (an integer of about 4443 digits) has about "
            "4447 digits, more than the limit of 4300")


class TestKwongParameters:
    def test_worked_example(self):
        # sum of 2-power parts is 2*1 + 3*2 + 2*4 + 1 = 17, so b = 5; the
        # 2-free part of lcm = 20 is 5
        report = kwong_period(WORKED_EXAMPLE, 2, 1)
        assert (report.b_value, report.m_value) == (5, 5)

    def test_five_seven(self):
        report = kwong_period([5, 7], 2, 1)
        assert (report.b_value, report.m_value) == (1, 35)

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
            assert kwong_period(parts, ell, 1).m_value % ell != 0

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


@st.composite
def _near_periodic(draw):
    """(series, max_period): a pattern repeated to the order, a few values changed.

    Few distinct values make many shifts agree on the leading terms; the
    changes sit from term 64 on, where only the whole-series compare sees
    them, or anywhere.
    """
    m = draw(st.integers(2, 64))
    max_period = draw(st.integers(1, 80))
    order = draw(st.integers(3 * max_period, 3 * max_period + 200))
    period = draw(st.integers(1, 2 * max_period))
    values = st.integers(0, draw(st.integers(0, m - 1)))
    pattern = draw(st.lists(values, min_size=period, max_size=period))
    coeffs = [pattern[i % period] for i in range(order + 1)]
    where = draw(st.sampled_from([min(64, order), 0]))
    for i, v in draw(st.lists(st.tuples(st.integers(where, order), values),
                              max_size=3)):
        coeffs[i] = v
    return Series(Mod(m), order, coeffs), max_period


def _tiled(pattern, order, m):
    return Series(Mod(m), order, [pattern[i % len(pattern)] for i in range(order + 1)])


class TestShiftFilter:
    """empirical_period against the shift-by-shift byte scan it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(_near_periodic())
    @example((_tiled([5], 90, 64), 30))  # constant: d = 1
    @example((f_series(1, 150, Mod(2)), 50))  # no pure period
    @example((_tiled([0, 1] * 40 + [1] * 5, 255, 2), 85))  # 2 fails at term 80
    def test_matches_byte_scan(self, drawn):
        series, max_period = drawn
        want = byte_scan_period(series, max_period)
        assert empirical_period(series, max_period) == want

    def test_shift_agreeing_on_the_leading_terms_fails_later(self):
        # period 80: 75 terms of period 5, then 5 terms that break it, so
        # shifts 5, 10, ... agree on the first 64 terms and fail at term 70
        pattern = [n % 5 for n in range(75)] + [7] * 5
        series = _tiled(pattern, 240, 8)
        arr = series._c
        assert all(arr[n + 5] == arr[n] for n in range(64))
        assert byte_scan_period(series, 80) == 80
        assert empirical_period(series, 80) == 80
        assert empirical_period(series, 79) is None

    def test_moduli_and_periods_of_restricted_series(self):
        for parts, bits in (((5, 7), 3), ((1, 2, 2, 3, 3), 2), ((3,), 4), ((2, 6), 1)):
            period = kwong_period(parts, 2, bits).period
            series = build_series(Family.restricted(parts), 3 * period + 7,
                                  Mod(2**bits))
            want = byte_scan_period(series, period)
            assert want is not None
            assert empirical_period(series, period) == want


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

    @pytest.mark.parametrize("guard", [-5, 0, 2])
    def test_small_guard_is_refused_before_a_build(self, monkeypatch, guard):
        # the guard sets the order of the build, so it is checked first
        def built(*args, **kwargs):
            raise AssertionError("build_series called")

        monkeypatch.setattr(periodicity, "build_series", built)
        with pytest.raises(ValueError, match=rf"^guard must be >= 3, got {guard}$"):
            cross_check([1, 2], 2, 2, guard=guard)

    def test_report_json_round_trip(self):
        report = cross_check([5, 7], 2, 3)
        data = report.to_json()
        assert data["period"] == 280
        assert data["empirical_period"] == 280
        assert data["agreement"] is True
        assert data["parts"] == [5, 7]

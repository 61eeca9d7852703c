"""Each public input check raises ValueError with its own message."""

import re

import pytest

from qcong import oracles
from qcong.congruence import SeriesStore
from qcong.genfun import Family, phi_series
from qcong.periodicity import empirical_period, kwong_period
from qcong.scan import ScanConfig
from qcong.series import EXACT, Mod, Series

OVER = Family.overpartitions()


def _wrong_order_put():
    SeriesStore(10).put(OVER, None, Series.one(EXACT, 9))


CHECKS = {
    "family-parts": (lambda: Family("over", parts=(1, 2)),
                     "family 'over' does not take parts"),
    "phi-sign": (lambda: phi_series(0, 5), "sign must be +1 or -1"),
    "store-order": (lambda: SeriesStore(-1), "order must be >= 0"),
    "store-put-order": (_wrong_order_put, "series order does not match the store"),
    "inflate-stride": (lambda: Series.one(EXACT, 5).inflate(0), "stride must be >= 1"),
    "inflate-base": (lambda: Series.one(Mod(4), 3).inflate(2, 10),
                     "need base order >= 5, have 3"),
    "kwong-power": (lambda: kwong_period([1, 2], 2, 0), "power must be >= 1"),
    "empirical-max-period": (lambda: empirical_period(Series.one(Mod(4), 30), 0),
                             "max_period must be >= 1"),
    "scan-l-max": (lambda: ScanConfig(OVER, 4, l_max=0, bound=10),
                   "l_max and bound must be >= 1"),
    "scan-bound": (lambda: ScanConfig(OVER, 4, l_max=5, bound=0),
                   "l_max and bound must be >= 1"),
    "multiset-part": (lambda: oracles.count_partitions_multiset(5, [1, 0]),
                      "parts must be positive"),
    "squares-k": (lambda: oracles.count_sum_of_squares(5, k=0), "k must be >= 1"),
    "linear-reps": (lambda: oracles.count_linear_reps(0, 1, 1), "a, b, c must be >= 1"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

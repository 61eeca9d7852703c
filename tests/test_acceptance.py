"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they complete.
"""

import math
import random
import time

import pytest

from qcong.congruence import SeriesStore, builtin_suite, reference_bound, verify
from qcong.genfun import Family, build_series
from qcong.oracles import (
    count_linear_reps,
    count_ncolor_overpartitions,
    count_overpartitions,
    count_partitions_multiset,
    count_plane_overpartitions,
)
from qcong.periodicity import empirical_period, kwong_period
from qcong.scan import ScanConfig, empirical_density, scan_ap_congruences
from qcong.series import Mod, Series
from references import (
    f_series,
    jacobi_specializations,
    phi_factorizations,
    phi_product_approx,
    two_adic_overpartition,
)


def _finish(name, t0, ok, detail=""):
    line = f"[{name}] {'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f}s) {detail}"
    print(line)
    assert ok, line
    return time.time() - t0


@pytest.fixture(scope="module")
def store2000():
    return SeriesStore(2000)


@pytest.fixture(scope="module")
def store6930():
    return SeriesStore(6930)


@pytest.fixture(scope="module")
def store4620():
    return SeriesStore(4620)


def test_criterion_1_exact_small_coefficients():
    t0 = time.time()
    ok = build_series(Family.overpartitions(), 4).tolist() == [1, 2, 4, 8, 14]
    ok &= build_series(Family.plane(), 3)[3] == 16
    ok &= build_series(Family.restricted([1, 2, 5, 8]), 5)[5] == 4
    ok &= build_series(Family.restricted([1, 2, 2, 3, 3]), 4)[4] == 8
    ok &= count_ncolor_overpartitions(3) == 16
    elapsed = _finish("criterion 1: exact small coefficients", t0, ok)
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    failures = []

    over = build_series(Family.overpartitions(), 25)
    odd = build_series(Family.odd_overpartitions(), 25)
    for n in range(26):
        if count_overpartitions(n) != over[n]:
            failures.append(("over", n))
        if count_overpartitions(n, odd_parts_only=True) != odd[n]:
            failures.append(("oddover", n))
    for parts in ([1, 2, 5, 8], [1, 2, 2, 3, 3], [5, 7]):
        series = build_series(Family.restricted(parts), 25)
        for n in range(26):
            if count_partitions_multiset(n, parts) != series[n]:
                failures.append(("restricted", parts, n))

    plane = build_series(Family.plane(), 10)
    for n in range(11):
        if count_plane_overpartitions(n) != plane[n]:
            failures.append(("plane", n))
        if count_ncolor_overpartitions(n) != plane[n]:
            failures.append(("ncolor", n))
    for k in (1, 2, 3, 4):
        plk = build_series(Family.k_rowed(k), 10)
        for n in range(11):
            if count_plane_overpartitions(n, max_rows=k) != plk[n]:
                failures.append((f"plk{k}", n))

    elapsed = _finish(
        "criterion 2: oracle equivalence", t0, not failures, str(failures[:4])
    )
    assert elapsed < 60


MOD4_PREFIXES = (
    "thm1.2", "thm2.6", "thm1.3", "thm1.4", "thm1.5", "thm1.6",
    "cor3.1-", "cor3.2", "cor3.3", "cor3.4", "cor3.5",
)


def test_criterion_3_mod4_suite(store2000, store6930):
    t0 = time.time()
    suite = [c for c in builtin_suite() if c.label.startswith(MOD4_PREFIXES)]
    assert all(c.modulus == 4 for c in suite)
    big = [c for c in suite if reference_bound(c) == 6930]
    small = [c for c in suite if reference_bound(c) == 2000]
    assert len(big) + len(small) == len(suite)

    reports = verify(small, store2000, 2000)
    reports += verify(big, store6930, 6930)
    failures = [r.claim.label for r in reports if not r.passed]

    # the 6930 bound gives the 3465n row its minimum of two progression
    # members; every row's member count is noted in its report
    members = {r.claim.label: r.members for r in reports if r.bound == 6930}
    detail = f"{len(reports)} claims; 3465-row members {members}"
    ok = not failures
    ok &= members["thm1.4-pl12-3465n-mod4"] >= 2
    ok &= all(count >= 1 for count in members.values())
    elapsed = _finish("criterion 3: mod-4 suite", t0, ok, detail or str(failures[:5]))
    assert elapsed < 120


def test_criterion_4_mod8_suite(store4620):
    t0 = time.time()
    mod8 = [
        c
        for c in builtin_suite()
        if c.label.startswith(("thm1.7", "thm1.8", "thm1.9", "cor3.10",
                               "cor3.11", "cor3.12", "ext-over-9n+6"))
    ]
    assert len(mod8) == 17
    assert {reference_bound(c) for c in mod8} == {4620}
    reports = verify(mod8, store4620, 4620)
    extras = [
        c
        for c in builtin_suite()
        if c.label in ("ext-over-8n+7-mod64", "ext-over-27n+18-mod12",
                       "ext-over-243n+162-mod12")
    ]
    assert {reference_bound(c) for c in extras} == {4000}
    reports += verify(extras, store4620, 4000)
    failures = [r.claim.label for r in reports if not r.passed]
    elapsed = _finish(
        "criterion 4: mod-8 suite", t0, not failures,
        f"{len(reports)} claims" if not failures else str(failures),
    )
    assert elapsed < 180


def test_criterion_5_kwong():
    t0 = time.time()
    report = kwong_period([5, 7], 2, 3)
    ok = report.period == 280

    series = build_series(Family.restricted([5, 7]), 1200, Mod(8))
    ok &= empirical_period(series, 400, guard=3) == 280

    worked = [1, 1, 2, 2, 2, 4, 4, 5]
    for power in (1, 2, 3):
        rep = kwong_period(worked, 2, power)
        ok &= (rep.b_value, rep.m_value) == (5, 5)
        ok &= rep.period == 2 ** (power + 4) * 5
    elapsed = _finish("criterion 5: Kwong periods", t0, ok)
    assert elapsed < 5


def test_criterion_6_linear_representations():
    t0 = time.time()
    series = build_series(Family.restricted([5, 7]), 213, Mod(8))
    expected = {3: 0, 73: 2, 143: 4, 213: 6}
    ok = True
    for c, want in expected.items():
        ok &= count_linear_reps(5, 7, c) % 8 == want
        ok &= series[c] == want

    rng = random.Random(17)
    seen = 0
    while seen < 20:
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        if math.gcd(a, b) != 1:
            continue
        c = rng.randint(1, 10)
        ok &= count_linear_reps(a, b, a * b * c) == c - 1
        seen += 1
    elapsed = _finish("criterion 6: linear representation counts", t0, ok)
    assert elapsed < 5


def test_criterion_7_identity_checks():
    t0 = time.time()
    ok = all(lhs == rhs for _, lhs, rhs in phi_factorizations(200))
    ok &= all(lhs == rhs for _, lhs, rhs in jacobi_specializations(200))

    for bits in range(2, 7):
        product = build_series(Family.overpartitions(), 500, Mod(2**bits))
        ok &= two_adic_overpartition(500, bits) == product
        ok &= phi_product_approx(bits, 500) == product

    rng = random.Random(23)
    for _ in range(50):  # (1 + 2S)^(2^k) = 1 mod 2^(k+1) for random S
        order = 128
        tail = [2 * rng.randint(-9, 9) for _ in range(order)]
        for k in range(1, 7):
            ring = Mod(2 ** (k + 1))
            s = Series(ring, order, [1] + tail)
            ok &= s.pow(2**k) == Series.one(ring, order)
    for n in range(1, 17):  # f(q^n)^(2^k) = 1 mod 2^(k+1)
        for k in range(1, 7):
            ring = Mod(2 ** (k + 1))
            ok &= f_series(n, 128, ring).pow(2**k) == Series.one(ring, 128)
    elapsed = _finish("criterion 7: identity checks", t0, ok)
    assert elapsed < 60


def test_criterion_8_scan_and_density():
    t0 = time.time()
    findings = scan_ap_congruences(ScanConfig(Family.k_rowed(4), 8, 12, 4000))
    known = {
        (f.claim.l, f.claim.b, f.claim.kind.residue)
        for f in findings
        if f.status.startswith("matches-known")
    }
    ok = known == {(12, 0, 0), (6, 3, 0)}

    density = empirical_density(Family.overpartitions(), 4, 10**4)
    ok &= density == (10**4 - 100) / 10**4  # squares are the only nonzeros
    _finish(
        "criterion 8: scan rediscovery and density", t0, ok,
        f"matches-known={sorted(known)}, density mod4 = {density}",
    )

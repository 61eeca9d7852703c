import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import congruence
from qcong.congruence import (
    PREDICATES,
    Claim,
    Constant,
    Equivalent,
    Predicate,
    SeriesOrderTooSmall,
    SeriesStore,
    SumClaim,
    builtin_suite,
    claim_from_json,
    claims_by_label,
    reference_bound,
    verify,
    verify_at_reference,
    verify_claim,
    verify_sum_claim,
)
from qcong.genfun import Family
from qcong.series import EXACT, Mod, Series


@pytest.fixture(scope="module")
def store():
    return SeriesStore(700)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_twice_square(n: int) -> bool:
    return n % 2 == 0 and is_square(n // 2)


def odd_divisor_signature(n: int) -> int:
    """Number of odd divisors of n >= 2, via trial-division factorization."""
    if n < 2:
        raise ValueError("n must be >= 2")
    while n % 2 == 0:
        n //= 2
    count = 1
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            count *= e + 1
        p += 2
    if n > 1:
        count *= 2
    return count


# The per-argument predicates: expected residue before reduction, or None
# to skip the argument.
SCALAR_PREDICATES = {
    "square-or-twice-square":
        lambda n: 2 if is_square(n) or is_twice_square(n) else 0,
    "nonsquare-odd": lambda n: 0 if n % 2 == 1 and not is_square(n) else None,
    "odd-divisor-formula": lambda n: 2 * odd_divisor_signature(n),
}


def verify_reference(claim, series, other, bound):
    """The per-coefficient verify loop: (members, outcome, counterexample)."""
    members = 0
    m = claim.modulus
    for arg in range(claim.l * claim.n_start + claim.b, bound + 1, claim.l):
        if isinstance(claim.kind, Constant):
            want = claim.kind.residue
        elif isinstance(claim.kind, Equivalent):
            want = other[arg]
        else:
            raw = SCALAR_PREDICATES[claim.kind.name](arg)
            if raw is None:
                continue
            want = raw % m
        members += 1
        got = series[arg]
        if got != want:
            n = (arg - claim.b) // claim.l
            return members, "counterexample", (n, arg, got, want)
    return members, "pass" if members else "vacuous", None


def verify_sum_reference(claim, series, bound):
    """The per-coefficient sum loop: (members, outcome, counterexample)."""
    offsets = [b for _, b in claim.terms]
    members = 0
    n = claim.n_start
    while claim.l * n + max(offsets) <= bound:
        members += 1
        total = sum(s[claim.l * n + b] for s, b in zip(series, offsets))
        if total % claim.modulus != claim.residue:
            return members, "counterexample", (
                n, claim.l * n + offsets[0], total % claim.modulus, claim.residue)
        n += 1
    return members, "pass" if members else "vacuous", None


def _outcome(report):
    return report.members, report.outcome, report.counterexample


@st.composite
def _near_series(draw, m, order, expected):
    """``expected(i)`` for every index, with a few values changed."""
    coeffs = [expected(i) % m for i in range(order + 1)]
    for i, v in draw(st.lists(st.tuples(st.integers(0, order),
                                        st.integers(0, m - 1)), max_size=3)):
        coeffs[i] = v
    return Series(Mod(m), order, coeffs)


class TestPredicateHelpers:
    def test_squares(self):
        assert is_square(0) and is_square(9) and not is_square(12)
        assert is_twice_square(2) and is_twice_square(8) and not is_twice_square(12)

    def test_residue_three_mod_four_is_neither(self):
        for k in range(10**4):
            n = 4 * k + 3
            assert not is_square(n) and not is_twice_square(n)

    def test_odd_divisor_signature(self):
        assert odd_divisor_signature(12) == 2  # 1, 3
        assert odd_divisor_signature(9) == 3   # 1, 3, 9
        for k in range(1, 12):
            assert odd_divisor_signature(2**k) == 1
        assert odd_divisor_signature(45) == 6  # 1,3,5,9,15,45

    def test_odd_divisor_brute_force(self):
        for n in range(2, 400):
            brute = sum(1 for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
            assert odd_divisor_signature(n) == brute

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_vector_predicates_match_scalar(self, name):
        first = 2 if name == "odd-divisor-formula" else 0
        args = np.arange(first, 10**5 + 1, dtype=np.int64)
        want, keep = PREDICATES[name](args)
        scalar = [SCALAR_PREDICATES[name](int(n)) for n in args]
        mask = [v is not None for v in scalar]
        assert (keep if keep is not None else np.ones(args.size, bool)).tolist() == mask
        assert want[np.array(mask)].tolist() == [v for v in scalar if v is not None]

    def test_parity_matches_square_split(self):
        # odd many odd divisors exactly when n is a square or twice a square
        for n in range(2, 2001):
            odd_count = odd_divisor_signature(n) % 2 == 1
            assert odd_count == (is_square(n) or is_twice_square(n))


class TestClaimModel:
    def test_validation(self):
        fam = Family.plane()
        with pytest.raises(ValueError):
            Claim("bad", fam, 1, 1, 0, Constant(0))
        with pytest.raises(ValueError):
            Claim("bad", fam, 4, 2, 2, Constant(0))
        with pytest.raises(ValueError):
            Claim("bad", fam, 4, 1, 0, Constant(5))
        with pytest.raises(ValueError):
            Claim("bad", fam, 4, 1, 0, Predicate("missing"))

    @pytest.mark.parametrize("l,b,n_start", [(1, 0, 0), (2, 1, 0), (1, 0, 1),
                                             (5, 1, 0), (7, 0, 0)])
    def test_odd_divisor_formula_needs_arguments_from_two(self, l, b, n_start):
        with pytest.raises(ValueError, match="odd-divisor-formula") as err:
            Claim("od", Family.plane(), 4, l, b, Predicate("odd-divisor-formula"),
                  n_start=n_start)
        assert "ap.n_start" in str(err.value) and "ap.b" in str(err.value)

    def test_odd_divisor_formula_from_two_is_accepted(self):
        Claim("od", Family.plane(), 4, 1, 0, Predicate("odd-divisor-formula"), n_start=2)
        Claim("od", Family.plane(), 4, 3, 2, Predicate("odd-divisor-formula"))

    def test_report_json(self, store):
        claim = Claim("thm-x", Family.plane(), 4, 4, 3, Constant(0))
        report = verify_claim(claim, store, 500)
        data = report.to_json()
        assert data["label"] == "thm-x"
        assert data["ap"] == {"l": 4, "b": 3, "n_start": 0}
        assert data["outcome"] == "pass"
        json.dumps(data)  # serializable


class TestSeriesStore:
    def test_put_rejects_another_ring(self):
        series = Series(Mod(16), 50, [3] * 51)
        store = SeriesStore(50)
        with pytest.raises(ValueError, match="Z/16"):
            store.put(Family.overpartitions(), 8, series)
        with pytest.raises(ValueError):
            store.put(Family.overpartitions(), None, series)
        store.put(Family.overpartitions(), 16, series)
        assert store.get(Family.overpartitions(), 16) is series

    def test_put_exact_under_none(self):
        series = Series(EXACT, 5, [1, 2, 3, 4, 5, 6])
        store = SeriesStore(5)
        with pytest.raises(ValueError):
            store.put(Family.plane(), 4, series)
        store.put(Family.plane(), None, series)
        assert store.get(Family.plane()) is series

    def test_catalog_builds_each_series_once_per_store(self, monkeypatch):
        calls = []
        original = congruence.build_series

        def counted(family, order, ring=EXACT):
            calls.append((family, order, ring))
            return original(family, order, ring)

        monkeypatch.setattr(congruence, "build_series", counted)
        verify_at_reference(builtin_suite())
        first = list(calls)
        assert len(first) == len(set(first))
        assert (Family.k_rowed(5), 4620, Mod(8)) in first
        # no process-wide cache: a second catalog builds everything again
        verify_at_reference(builtin_suite())
        assert calls[len(first):] == first

    def test_put_with_mismatched_ring_cannot_fake_a_counterexample(self):
        # at the parent a mod-16 series under key 8 failed this true claim
        (claim,) = claims_by_label(["cor3.11-over-4n+3-mod8"])
        store = SeriesStore(500)
        over16 = SeriesStore(500).get(Family.overpartitions(), 16)
        with pytest.raises(ValueError):
            store.put(Family.overpartitions(), 8, over16)
        store.put(Family.overpartitions(), 8, over16.reduce_mod(8))
        assert verify_claim(claim, store, 500).passed


class TestVerifyClaim:
    def test_counterexample_location(self, store):
        fabricated = Claim(
            "fab", Family.overpartitions(), 4, 2, 0, Constant(0), n_start=1
        )
        report = verify_claim(fabricated, store, 500)
        assert report.outcome == "counterexample"
        assert report.counterexample == (2, 4, 2, 0)  # p(4) = 14 = 2 mod 4

    def test_plane_not_all_zero(self, store):
        claim = Claim("fab2", Family.plane(), 4, 1, 0, Constant(0), n_start=1)
        report = verify_claim(claim, store, 500)
        assert report.counterexample == (1, 1, 2, 0)

    def test_order_too_small(self, store):
        claim = Claim("x", Family.plane(), 4, 1, 0, Constant(0), n_start=1)
        with pytest.raises(SeriesOrderTooSmall,
                           match="^series order 700 < verification bound 10000$"):
            verify_claim(claim, store, 10_000)

    def test_equivalence_is_symmetric(self, store):
        a = Claim("a", Family.plane(), 4, 2, 1, Equivalent(Family.odd_overpartitions()))
        b = Claim("b", Family.odd_overpartitions(), 4, 2, 1, Equivalent(Family.plane()))
        ra = verify_claim(a, store, 600)
        rb = verify_claim(b, store, 600)
        assert ra.outcome == rb.outcome == "pass"

    def test_pass_is_monotone_in_bound(self, store):
        claim = Claim("mono", Family.plane(), 4, 4, 3, Constant(0))
        big = verify_claim(claim, store, 600)
        small = verify_claim(claim, store, 200)
        assert big.passed and small.passed
        assert small.members < big.members

    def test_members_zero_is_noted(self, store):
        claim = Claim(
            "far", Family.plane(), 4, 650, 0, Constant(0), n_start=1
        )
        report = verify_claim(claim, store, 600)
        assert report.outcome == "vacuous" and report.members == 0
        assert not report.passed
        assert "no progression members" in report.note


class TestVerifyMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_claims_of_every_kind(self, data):
        m = data.draw(st.integers(2, 64), label="m")
        order = data.draw(st.integers(0, 400), label="order")
        l = data.draw(st.integers(1, 60), label="l")
        b = data.draw(st.integers(0, l - 1), label="b")
        n_start = data.draw(st.integers(0, 4), label="n_start")
        kind = data.draw(st.sampled_from(["constant", "equivalent", *PREDICATES]))
        other_family = Family.overpartitions()
        other = data.draw(_near_series(m, order, lambda i: i * i + 3))
        if kind == "constant":
            residue = data.draw(st.integers(0, m - 1), label="residue")
            claim_kind, expected = Constant(residue), lambda i: residue
        elif kind == "equivalent":
            claim_kind, expected = Equivalent(other_family), other.coeff
        else:
            if kind == "odd-divisor-formula" and l * n_start + b < 2:
                n_start = 2
            claim_kind = Predicate(kind)
            rule = SCALAR_PREDICATES[kind]

            def expected(i):
                if kind == "odd-divisor-formula" and i < 2:
                    return 0
                want = rule(i)
                return i if want is None else want  # anything where skipped
        series = data.draw(_near_series(m, order, expected))
        claim = Claim("x", Family.plane(), m, l, b, claim_kind, n_start=n_start)
        store = SeriesStore(order)
        store.put(Family.plane(), m, series)
        store.put(other_family, m, other)
        bound = data.draw(st.integers(0, order), label="bound")
        report = verify_claim(claim, store, bound)
        assert _outcome(report) == verify_reference(claim, series, other, bound)
        assert report.passed == (report.outcome == "pass")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sums_with_unequal_offsets(self, data):
        m = data.draw(st.integers(2, 64), label="m")
        order = data.draw(st.integers(0, 300), label="order")
        l = data.draw(st.integers(1, 30), label="l")
        families = [Family.plane(), Family.overpartitions(), Family.k_rowed(4)]
        store = SeriesStore(order)
        for family in families:
            store.put(family, m, data.draw(_near_series(m, order, lambda i: i % 3)))
        terms = data.draw(st.lists(
            st.tuples(st.sampled_from(families), st.integers(0, 3 * l)),
            min_size=1, max_size=4), label="terms")
        residue = data.draw(st.integers(0, m - 1), label="residue")
        n_start = data.draw(st.integers(0, 3), label="n_start")
        claim = SumClaim("s", tuple(terms), m, l, residue, n_start)
        bound = data.draw(st.integers(0, order), label="bound")
        series = [store.get(f, m) for f, _ in terms]
        report = verify_sum_claim(claim, store, bound)
        assert _outcome(report) == verify_sum_reference(claim, series, bound)

    def test_sum_residues_near_the_modulus_do_not_overflow(self):
        m = 2**62 - 1
        store = SeriesStore(20)
        store.put(Family.plane(), m, Series(Mod(m), 20, [m - 1] * 21))
        claim = SumClaim("big", ((Family.plane(), 0),) * 4, m, 1, m - 4)
        report = verify_sum_claim(claim, store, 20)
        assert report.passed and report.members == 21

    def test_counterexample_counts_only_kept_arguments(self):
        # nonsquare-odd skips the even arguments and the odd squares
        coeffs = [0] * 201
        coeffs[50] = coeffs[81] = coeffs[99] = 5  # 50 is even, 81 = 9^2
        store = SeriesStore(200)
        store.put(Family.overpartitions(), 8, Series(Mod(8), 200, coeffs))
        claim = Claim("ns", Family.overpartitions(), 8, 1, 0, Predicate("nonsquare-odd"))
        report = verify_claim(claim, store, 200)
        assert report.counterexample == (99, 99, 5, 0)
        assert report.members == len([n for n in range(1, 100, 2) if not is_square(n)])


# l = 3, b = 1 from n = 2: arguments 7, 10, ..., 100 up to the bound 100
EDGE_M, EDGE_L, EDGE_B, EDGE_START, EDGE_BOUND = 8, 3, 1, 2, 100


def _last_member(kind):
    """The sum claim adds plane(3n + 1) and over(3n + 4), so it ends at
    n = 32; the others read plane(3n + 1) up to n = 33."""
    return 32 if kind == "sum" else 33


def _edge_case(kind, bad):
    """(claim, store, want) with the members at n in ``bad`` off by one."""
    order = EDGE_BOUND
    other = [(i * i + 3) % EDGE_M for i in range(order + 1)]
    if kind == "constant":
        claim_kind, want = Constant(5), [5] * (order + 1)
    elif kind == "equivalent":
        claim_kind, want = Equivalent(Family.overpartitions()), other
    elif kind == "predicate":
        rule = SCALAR_PREDICATES["square-or-twice-square"]
        claim_kind = Predicate("square-or-twice-square")
        want = [rule(i) % EDGE_M for i in range(order + 1)]
    else:  # sum: 3 + 2 = 5
        claim_kind, want, other = None, [5] * (order + 1), [2] * (order + 1)
    plane = [3] * (order + 1) if claim_kind is None else list(want)
    for n in bad:
        arg = EDGE_L * n + EDGE_B
        plane[arg] = (plane[arg] + 1) % EDGE_M
    store = SeriesStore(order)
    store.put(Family.plane(), EDGE_M, Series(Mod(EDGE_M), order, plane))
    store.put(Family.overpartitions(), EDGE_M, Series(Mod(EDGE_M), order, other))
    if claim_kind is None:
        claim = SumClaim("edge", ((Family.plane(), EDGE_B), (Family.overpartitions(), 4)),
                         EDGE_M, EDGE_L, 5, EDGE_START)
    else:
        claim = Claim("edge", Family.plane(), EDGE_M, EDGE_L, EDGE_B, claim_kind,
                      n_start=EDGE_START)
    return claim, store, want


def _verify(claim, store, bound):
    if isinstance(claim, SumClaim):
        return verify_sum_claim(claim, store, bound)
    return verify_claim(claim, store, bound)


EDGE_KINDS = ["constant", "equivalent", "predicate", "sum"]


class TestReportEdges:
    """The first mismatching member is the counterexample, wherever it sits."""

    @pytest.mark.parametrize("kind", EDGE_KINDS)
    @pytest.mark.parametrize("where", ["first", "last", "several", "first-and-last"])
    def test_first_mismatch_wins(self, kind, where):
        last = _last_member(kind)
        bad = {"first": [EDGE_START], "last": [last], "several": [9, 5, 20, last],
               "first-and-last": [EDGE_START, last]}[where]
        claim, store, want = _edge_case(kind, bad)
        report = _verify(claim, store, EDGE_BOUND)
        n = min(bad)
        arg = EDGE_L * n + EDGE_B
        assert report.outcome == "counterexample" and not report.passed
        assert report.members == n - EDGE_START + 1
        assert report.counterexample == (n, arg, (want[arg] + 1) % EDGE_M, want[arg])

    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_pass_counts_every_member(self, kind):
        claim, store, _ = _edge_case(kind, [])
        report = _verify(claim, store, EDGE_BOUND)
        assert report.passed and report.counterexample is None
        assert report.members == _last_member(kind) - EDGE_START + 1

    @pytest.mark.parametrize("kind", EDGE_KINDS)
    def test_no_members_is_vacuous(self, kind):
        # below the first member: 3*2 + 1 = 7, and 3*2 + 4 = 10 for the sum
        claim, store, _ = _edge_case(kind, [])
        first = EDGE_L * EDGE_START + (4 if kind == "sum" else EDGE_B)
        report = _verify(claim, store, first - 1)
        assert report.outcome == "vacuous" and not report.passed
        assert report.members == 0 and report.counterexample is None
        report = _verify(claim, store, first)
        assert report.passed and report.members == 1


class TestSumClaims:
    def test_four_rowed_sum(self, store):
        claim = SumClaim(
            "sum",
            ((Family.k_rowed(4), 1), (Family.k_rowed(4), 2), (Family.k_rowed(4), 3)),
            modulus=4,
            l=4,
            residue=0,
        )
        assert verify_sum_claim(claim, store, 600).passed

    def test_single_term_degenerates_to_claim(self, store):
        sum_claim = SumClaim(
            "single", ((Family.plane(), 3),), modulus=4, l=4, residue=0
        )
        plain = Claim("plain", Family.plane(), 4, 4, 3, Constant(0))
        assert (
            verify_sum_claim(sum_claim, store, 600).outcome
            == verify_claim(plain, store, 600).outcome
        )

    def test_late_counterexample_reports_first_term(self, store):
        # offsets 6 >= l and n_start 3: n = (arg - b_1) // l = (18 - 6) // 4
        claim = SumClaim("late", ((Family.k_rowed(4), 6), (Family.k_rowed(4), 2)),
                         modulus=4, l=4, residue=0, n_start=3)
        report = verify_sum_claim(claim, store, 300)
        assert report.counterexample == (3, 18, 2, 0) and report.members == 1

    def test_empty_sum_is_vacuous(self, store):
        claim = SumClaim("nothing", (), modulus=4, l=4, residue=0)
        report = verify_sum_claim(claim, store, 600)
        assert report.outcome == "vacuous" and not report.passed
        assert report.members == 0 and report.note == "no terms"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l": 0},  # would loop forever: l*n + b never exceeds the bound
            {"modulus": 1, "residue": 0},
            {"n_start": -1},
            {"terms": ((Family.plane(), -1),)},
            {"residue": 9},
            {"residue": -1},
        ],
    )
    def test_validation(self, kwargs):
        fields = {"terms": ((Family.plane(), 3),), "modulus": 4, "l": 4,
                  "residue": 0, **kwargs}
        with pytest.raises(ValueError):
            SumClaim("bad", **fields)


class TestBuiltinSuite:
    def test_size_and_unique_labels(self):
        suite = builtin_suite()
        labels = [c.label for c in suite]
        assert len(suite) >= 40
        assert len(labels) == len(set(labels))

    def test_contract_labels_present(self):
        labels = {c.label for c in builtin_suite()}
        assert "thm1.7-pl4-12n-mod8" in labels
        assert any(label.startswith("thm1.7-pl8-210n+105") for label in labels)

    def test_selection_by_prefix(self):
        chosen = claims_by_label(["thm1.7"])
        assert len(chosen) == 6
        assert all(c.modulus == 8 for c in chosen)

    def test_deterministic(self):
        assert [c.label for c in builtin_suite()] == [c.label for c in builtin_suite()]

    def test_moduli(self):
        assert {c.modulus for c in builtin_suite()} == {4, 8, 12, 64}

    def test_mod4_subset_passes_quickly(self, store):
        # everything whose progressions fit comfortably below order 700
        claims = [
            c
            for c in builtin_suite()
            if c.modulus == 4
            and all(t not in c.label for t in ("3465", "315", "486", "243"))
        ]
        reports = verify(claims, store, 700)
        assert reports == sorted(reports, key=lambda r: r.claim.label)
        failures = [r.claim.label for r in reports if not r.passed]
        assert failures == []


# Report.to_json() as written before Claim.to_json() took over the claim
# fields: the JSON report shape that readers of `qcong verify` rely on.
PINNED_REPORTS = [
    ("cor3.1-pl-4n+3-mod4", 600, {
        "label": "cor3.1-pl-4n+3-mod4", "family": "plane",
        "ap": {"l": 4, "b": 3, "n_start": 0}, "modulus": 4,
        "kind": {"type": "constant", "residue": 0},
        "outcome": "pass", "members": 150, "bound": 600}),
    ("thm1.9-pl5-12n+1-eq-over-mod8", 600, {
        "label": "thm1.9-pl5-12n+1-eq-over-mod8", "family": "plk5",
        "ap": {"l": 12, "b": 1, "n_start": 0}, "modulus": 8,
        "kind": {"type": "equivalent", "other": "over"},
        "outcome": "pass", "members": 50, "bound": 600}),
    ("thm1.8-over-nonsquare-odd-mod8", 600, {
        "label": "thm1.8-over-nonsquare-odd-mod8", "family": "over",
        "ap": {"l": 2, "b": 1, "n_start": 0}, "modulus": 8,
        "kind": {"type": "predicate", "id": "nonsquare-odd"},
        "outcome": "pass", "members": 288, "bound": 600}),
    ("thm1.4-pl12-3465n-mod4", 600, {
        "label": "thm1.4-pl12-3465n-mod4", "family": "plk12",
        "ap": {"l": 3465, "b": 0, "n_start": 1}, "modulus": 4,
        "kind": {"type": "constant", "residue": 0},
        "outcome": "vacuous", "members": 0, "bound": 600,
        "note": "no progression members within bound"}),
    ("cor3.5-pl4-sum-4n+123-mod4", 600, {
        "label": "cor3.5-pl4-sum-4n+123-mod4", "family": ["plk4", "plk4", "plk4"],
        "ap": {"l": 4, "b": [1, 2, 3], "n_start": 0}, "modulus": 4,
        "kind": {"type": "sum", "terms": [{"family": "plk4", "b": 1},
                                          {"family": "plk4", "b": 2},
                                          {"family": "plk4", "b": 3}],
                 "residue": 0},
        "outcome": "pass", "members": 150, "bound": 600}),
]


class TestClaimCodec:
    @pytest.mark.parametrize("label,bound,expected", PINNED_REPORTS,
                             ids=[p[0] for p in PINNED_REPORTS])
    def test_suite_report_json_is_pinned(self, store, label, bound, expected):
        (claim,) = [c for c in builtin_suite() if c.label == label]
        assert verify([claim], store, bound)[0].to_json() == expected

    def test_counterexample_report_json_is_pinned(self, store):
        claim = Claim("fab", Family.overpartitions(), 4, 2, 0, Constant(0), n_start=1)
        assert verify_claim(claim, store, 500).to_json() == {
            "label": "fab", "family": "over", "ap": {"l": 2, "b": 0, "n_start": 1},
            "modulus": 4, "kind": {"type": "constant", "residue": 0},
            "outcome": "counterexample", "members": 2, "bound": 500,
            "counterexample": {"n": 2, "arg": 4, "got": 2, "expected": 0},
        }

    def test_custom_sum_report_json_is_pinned(self, store):
        claim = SumClaim("sum-x", ((Family.plane(), 3), (Family.overpartitions(), 7)),
                         modulus=4, l=4, residue=0, n_start=1)
        assert verify_sum_claim(claim, store, 600).to_json() == {
            "label": "sum-x", "family": ["plane", "over"],
            "ap": {"l": 4, "b": [3, 7], "n_start": 1}, "modulus": 4,
            "kind": {"type": "sum", "terms": [{"family": "plane", "b": 3},
                                              {"family": "over", "b": 7}],
                     "residue": 0},
            "outcome": "pass", "members": 148, "bound": 600,
        }

    def test_round_trip_whole_suite(self):
        suite = builtin_suite()
        assert len(suite) == 95
        for claim in suite:
            assert claim_from_json(json.loads(json.dumps(claim.to_json()))) == claim

    def test_defaults(self):
        claim = claim_from_json({"family": "plane", "modulus": 4,
                                 "kind": {"residue": 0}})
        assert claim == Claim("custom", Family.plane(), 4, 1, 0, Constant(0))
        total = claim_from_json({"modulus": 4, "kind": {"type": "sum", "terms": [],
                                                        "residue": 0}})
        assert total == SumClaim("custom-sum", (), 4, 1, 0)

    @pytest.mark.parametrize(
        "raw,field",
        [
            ({"family": "plane", "kind": {"residue": 0}}, "modulus"),
            ({"family": "plane", "modulus": "4", "kind": {"residue": 0}}, "modulus"),
            ({"family": "plane", "modulus": True, "kind": {"residue": 0}}, "modulus"),
            ({"family": "plane", "modulus": 4, "kind": {}}, "kind.residue"),
            ({"family": "plane", "modulus": 4, "kind": []}, "kind"),
            ({"family": "plane", "modulus": 4, "ap": {"l": 2.0},
              "kind": {"residue": 0}}, "ap.l"),
            ({"family": 5, "modulus": 4, "kind": {"residue": 0}}, "family"),
            ({"modulus": 4, "kind": {"residue": 0}}, "family"),
            ({"family": "plane", "modulus": 4, "kind": {"type": "equivalent"}},
             "kind.other"),
            ({"modulus": 4, "kind": {"type": "sum", "residue": 0}}, "kind.terms"),
            ({"modulus": 4, "kind": {"type": "sum", "residue": 0,
                                     "terms": [{"family": "over"}]}},
             "kind.terms[0].b"),
            ({"modulus": 4, "kind": {"type": "sum", "residue": 0, "terms": [3]}},
             "kind.terms[0]"),
        ],
    )
    def test_bad_field_is_named(self, raw, field):
        with pytest.raises(ValueError, match=re.escape(f"claim field {field} ")):
            claim_from_json(raw)

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="a claim must be a JSON object"):
            claim_from_json([])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown claim kind"):
            claim_from_json({"family": "over", "modulus": 4, "kind": {"type": "x"}})


def _run_suite_bound(claim):
    """The per-group bounds of the deleted catalog script, by label match."""
    if claim.modulus == 4:
        return 6930 if "3465" in claim.label else 2000
    return {8: 4620, 12: 4000, 64: 4000}[claim.modulus]


class TestReferenceBounds:
    def test_matches_former_catalog_groups(self):
        for claim in builtin_suite():
            assert reference_bound(claim) == _run_suite_bound(claim), claim.label

    def test_unknown_modulus(self):
        claim = Claim("m5", Family.overpartitions(), 5, 1, 0, Constant(0))
        with pytest.raises(ValueError, match="no reference bound"):
            reference_bound(claim)

    def test_whole_suite_passes_with_members(self):
        reports = verify_at_reference(builtin_suite())
        assert [r.claim.label for r in reports] == sorted(c.label for c in builtin_suite())
        assert all(r.passed and r.members >= 1 for r in reports)
        assert {r.bound for r in reports} == {2000, 6930, 4620, 4000}
        assert sum(r.members for r in reports) == 31742

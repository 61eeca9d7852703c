import json
import re

import pytest

from qcong.congruence import (
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
    is_square,
    is_twice_square,
    odd_divisor_signature,
    reference_bound,
    verify,
    verify_at_reference,
    verify_claim,
    verify_sum_claim,
)
from qcong.genfun import Family


@pytest.fixture(scope="module")
def store():
    return SeriesStore(700)


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

    def test_report_json(self, store):
        claim = Claim("thm-x", Family.plane(), 4, 4, 3, Constant(0))
        report = verify_claim(claim, store, 500)
        data = report.to_json()
        assert data["label"] == "thm-x"
        assert data["ap"] == {"l": 4, "b": 3, "n_start": 0}
        assert data["outcome"] == "pass"
        json.dumps(data)  # serializable


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
        with pytest.raises(SeriesOrderTooSmall):
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
        assert report.passed and report.members == 0
        assert "no progression members" in report.note


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

    def test_empty_sum_is_vacuous(self, store):
        claim = SumClaim("nothing", (), modulus=4, l=4, residue=0)
        report = verify_sum_claim(claim, store, 600)
        assert report.passed and "vacuous" in report.note

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
        "outcome": "pass", "members": 0, "bound": 600,
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

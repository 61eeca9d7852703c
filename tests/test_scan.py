import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcong.congruence import Claim, Constant, builtin_suite
from qcong.genfun import Family
from qcong.periodicity import kwong_period
from qcong import scan
from qcong.scan import (
    Finding,
    ScanConfig,
    empirical_density,
    load_findings,
    persist_findings,
    scan_ap_congruences,
)
from qcong.series import Mod, Series
from qcong.genfun import build_series
from references import UNPRINTABLE_LCM_PARTS


def scan_reference(cfg, series):
    """The per-coefficient scan loop: (l, b, residue, support) per finding."""
    reported = set()
    found = []
    for l in range(1, cfg.l_max + 1):
        for b in range(l):
            start = l if b == 0 else b  # skip the constant term
            members = range(start, cfg.bound + 1, l)
            support = len(members)
            if support < cfg.min_support:
                continue
            residue = series[members[0]]
            if any(series[arg] != residue for arg in members):
                continue
            implied = any(
                (d, b % d, residue) in reported
                for d in range(1, l)
                if l % d == 0
            )
            if implied:
                continue
            reported.add((l, b, residue))
            found.append((l, b, residue, support))
    return found


def density_reference(series, bound):
    return sum(1 for n in range(1, bound + 1) if series[n] == 0) / bound


def scanned(cfg, series):
    return [(f.claim.l, f.claim.b, f.claim.kind.residue, f.support)
            for f in scan_ap_congruences(cfg, series=series)]


@st.composite
def _patterned_series(draw, moduli, periods=st.integers(1, 16),
                      bounds=st.integers(1, 200), pure=False):
    """A periodic series with a free constant term and a few changed values.

    Few distinct values and short periods make many progressions constant,
    so the scan has findings to prune; the changed values may sit anywhere,
    including far beyond the first rows of the (row, b) table.  A pure
    series keeps its pattern everywhere, constant term included.
    """
    m = draw(st.sampled_from(moduli))
    bound = draw(bounds)
    order = bound + draw(st.integers(0, 3))
    period = draw(periods)
    values = st.integers(0, min(m - 1, draw(st.integers(0, 3))))
    pattern = draw(st.lists(values, min_size=period, max_size=period))
    coeffs = [pattern[i % period] for i in range(order + 1)]
    if pure:
        return Series(Mod(m), order, coeffs), bound
    coeffs[0] = draw(st.integers(0, m - 1))
    for i, v in draw(st.lists(st.tuples(st.integers(0, order),
                                        st.integers(0, m - 1)), max_size=3)):
        coeffs[i] = v
    return Series(Mod(m), order, coeffs), bound


@st.composite
def _restricted_family(draw, max_period=96):
    """(family, 2^r, Kwong period) for a few small parts, r = 1..4."""
    r = draw(st.integers(1, 4))
    parts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    period = kwong_period(parts, 2, r).period
    assume(period <= max_period)
    return Family.restricted(parts), 2**r, period


class TestScanConfig:
    def test_modulus_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ScanConfig(Family.plane(), 12, 6, 500)

    def test_min_support_floor(self):
        with pytest.raises(ValueError):
            ScanConfig(Family.plane(), 4, 6, 500, min_support=5)


class TestScan:
    def test_plane_mod_two_collapses_to_one_finding(self):
        cfg = ScanConfig(Family.plane(), 2, 6, 600)
        findings = scan_ap_congruences(cfg)
        assert [(f.claim.l, f.claim.b, f.claim.kind.residue) for f in findings] == [
            (1, 0, 0)
        ]

    def test_four_rowed_mod_eight_rediscovers_known_rows(self):
        cfg = ScanConfig(Family.k_rowed(4), 8, 12, 2500)
        findings = scan_ap_congruences(cfg)
        known = {
            (f.claim.l, f.claim.b, f.claim.kind.residue): f.status
            for f in findings
            if f.status.startswith("matches-known")
        }
        assert set(known) == {(12, 0, 0), (6, 3, 0)}
        assert known[(12, 0, 0)].endswith("thm1.7-pl4-12n-mod8")
        assert known[(6, 3, 0)].endswith("thm1.7-pl4-6n+3-mod8")

    def test_six_rowed_mod_four_finds_constant_two_row(self):
        cfg = ScanConfig(Family.k_rowed(6), 4, 15, 1500)
        findings = scan_ap_congruences(cfg)
        by_ap = {(f.claim.l, f.claim.b): f for f in findings}
        assert by_ap[(15, 0)].claim.kind.residue == 2
        assert by_ap[(15, 0)].status.endswith("thm1.4-pl6-15n-mod4")

    def test_known_claims_inside_grid_are_rediscovered(self):
        # every built-in constant claim of this family/modulus within the
        # scanned grid resurfaces, possibly as the coarser generating row
        cfg = ScanConfig(Family.k_rowed(4), 4, 6, 1200)
        findings = scan_ap_congruences(cfg)
        found = {(f.claim.l, f.claim.b, f.claim.kind.residue) for f in findings}
        for claim in builtin_suite():
            if (
                isinstance(claim, Claim)
                and isinstance(claim.kind, Constant)
                and claim.family == Family.k_rowed(4)
                and claim.modulus == 4
                and claim.l <= 6
            ):
                key = (claim.l, claim.b, claim.kind.residue)
                implied = any(
                    (d, claim.b % d, claim.kind.residue) in found
                    for d in range(1, claim.l + 1)
                    if claim.l % d == 0
                )
                assert key in found or implied, claim.label

    def test_deterministic(self):
        cfg = ScanConfig(Family.k_rowed(4), 8, 10, 1000)
        first = scan_ap_congruences(cfg)
        second = scan_ap_congruences(cfg)
        assert first == second

    def test_support_respects_minimum(self):
        cfg = ScanConfig(Family.k_rowed(4), 8, 12, 1000, min_support=50)
        for finding in scan_ap_congruences(cfg):
            assert finding.support >= 50

    def test_prebuilt_series_too_short(self):
        series = build_series(Family.plane(), 100, Mod(4))
        cfg = ScanConfig(Family.plane(), 4, 6, 500)
        from qcong.congruence import SeriesOrderTooSmall

        with pytest.raises(SeriesOrderTooSmall, match="^series order 100 < scan bound 500$"):
            scan_ap_congruences(cfg, series=series)
        with pytest.raises(SeriesOrderTooSmall,
                           match="^series order 100 < density bound 500$"):
            empirical_density(Family.plane(), 4, 500, series=series)


class TestScanMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(_patterned_series([2, 4, 8, 16, 32, 64]), st.data())
    def test_random_series(self, drawn, data):
        series, bound = drawn
        m = series.ring.modulus
        l_max = data.draw(st.integers(1, 3 * bound), label="l_max")
        min_support = data.draw(
            st.integers(10, max(10, bound // 2 + 2)), label="min_support")
        cfg = ScanConfig(Family.k_rowed(4), m, l_max, bound, min_support)
        assert scanned(cfg, series) == scan_reference(cfg, series)

    def test_b0_column_differs_only_at_constant_term(self):
        series = Series(Mod(2), 300, [1] + [0] * 300)
        cfg = ScanConfig(Family.plane(), 2, 5, 300)
        assert scanned(cfg, series) == scan_reference(cfg, series) == [(1, 0, 0, 300)]

    @pytest.mark.parametrize("where", [40, 151, 299, 300])
    def test_change_beyond_the_first_rows(self, where):
        coeffs = [0] * 301
        coeffs[where] = 1
        series = Series(Mod(2), 300, coeffs)
        cfg = ScanConfig(Family.plane(), 2, 12, 300)
        found = scanned(cfg, series)
        assert found == scan_reference(cfg, series)
        assert all((where - b) % l for l, b, _, _ in found)

    @pytest.mark.parametrize("min_support", [19, 20, 21])
    def test_min_support_edge(self, min_support):
        # columns of l = 10 have exactly 20 members up to 200
        series = Series(Mod(4), 200, [(i % 10) % 3 for i in range(201)])
        cfg = ScanConfig(Family.plane(), 4, 30, 200, min_support)
        found = scanned(cfg, series)
        assert found == scan_reference(cfg, series)
        assert any(l == 10 for l, *_ in found) == (min_support <= 20)

    @pytest.mark.parametrize("bits", [9, 17, 33, 61])
    def test_residues_wider_than_a_byte(self, bits):
        # m/2 and 0 agree in every narrower dtype: they must still differ
        m = 2**bits
        coeffs = [(m // 2) * (i % 3 == 0) + i % 2 for i in range(601)]
        cfg = ScanConfig(Family.plane(), m, 40, 600, 10)
        found = scanned(cfg, Series(Mod(m), 600, coeffs))
        assert found == scan_reference(cfg, coeffs)
        assert {res for _, _, res, _ in found} == {0, 1, m // 2, m // 2 + 1}

    def test_series_in_another_ring_is_rejected(self):
        series = build_series(Family.overpartitions(), 400, Mod(16))
        cfg = ScanConfig(Family.overpartitions(), 8, 8, 400)
        with pytest.raises(ValueError, match="Z/16"):
            scan_ap_congruences(cfg, series=series)


class TestPeriodRoute:
    """Restricted families are scanned from one Kwong period once the
    coefficients show it; every answer must still be the loop's."""

    @settings(max_examples=150, deadline=None)
    @given(_restricted_family(), st.data())
    def test_restricted_families(self, drawn, data):
        family, m, period = drawn
        # below one period, near it, and at several periods
        periods = data.draw(st.integers(0, 12), label="periods")
        offset = data.draw(st.integers(-(period // 2), 2), label="offset")
        bound = max(1, periods * period + offset)
        series = build_series(family, bound, Mod(m))
        l_max = data.draw(st.integers(1, 2 * period + 3), label="l_max")
        min_support = data.draw(st.integers(10, 25), label="min_support")
        cfg = ScanConfig(family, m, l_max, bound, min_support)
        assert scanned(cfg, series) == scan_reference(cfg, series)

    @settings(max_examples=150, deadline=None)
    @given(_restricted_family(), st.data())
    def test_patterned_series_with_period_dividing_kwong_period(self, drawn, data):
        family, m, period = drawn
        divisors = [d for d in range(1, period + 1) if period % d == 0]
        # an impure series is not periodic, and the scan must notice
        pure = data.draw(st.booleans(), label="pure")
        series, bound = data.draw(_patterned_series(
            [m], st.sampled_from(divisors), st.integers(1, 6 * period), pure))
        l_max = data.draw(st.integers(1, 2 * period + 3), label="l_max")
        cfg = ScanConfig(family, m, l_max, bound)
        assert scanned(cfg, series) == scan_reference(cfg, series)

    def test_series_changed_after_its_first_period_falls_back(self):
        family = Family.restricted([1, 2, 2, 3, 3])
        assert kwong_period([1, 2, 2, 3, 3], 2, 3).period == 96
        series = build_series(family, 384, Mod(8))
        cfg = ScanConfig(family, 8, 48, 384, min_support=10)
        assert (12, 4, 0, 32) in scanned(cfg, series)
        coeffs = list(series._c)
        coeffs[124] = (coeffs[124] + 1) % 8  # 124 = 12*10 + 4, past one period
        changed = Series(Mod(8), 384, coeffs)
        found = scanned(cfg, changed)
        assert found == scan_reference(cfg, changed)
        assert all((l, b) != (12, 4) for l, b, _, _ in found)
        assert (24, 16, 0, 16) in found  # no longer implied by (12, 4)

    def test_constant_column_read_and_proven_is_reported_once(self):
        # below one period (12) column n (n >= 1) is read, and its class
        # mod 1 is constant too: the finding must not come twice
        family = Family.restricted([1, 3])
        series = Series(Mod(4), 11, [2] * 12)
        cfg = ScanConfig(family, 4, 3, 11, min_support=10)
        assert scanned(cfg, series) == scan_reference(cfg, series) == [(1, 0, 2, 11)]

    @pytest.mark.parametrize("hot, column", [(8, (5, 1, 0, 11)), (0, (5, 0, 0, 11))])
    def test_column_one_member_short_of_a_period(self, hot, column):
        # Kwong's period of parts {1, 3} mod 4 is 12, and gcd(5, 12) = 1.  Up
        # to 55 the columns 5n + 1 (n >= 0) and 5n (n >= 1) have 11 members,
        # one short of a period: each misses one residue mod 12, the one where
        # this series is 1, so both are constant although no class mod 1 is.
        family = Family.restricted([1, 3])
        assert kwong_period([1, 3], 2, 2).period == 12
        series = Series(Mod(4), 55, [int(n % 12 == hot) for n in range(56)])
        cfg = ScanConfig(family, 4, 6, 55, min_support=10)
        found = scanned(cfg, series)
        assert found == scan_reference(cfg, series)
        assert column in found

    def test_refused_period_scans_the_plain_way(self):
        # kwong_period refuses the period, so the scan, like the build,
        # goes without one
        with pytest.raises(ValueError, match="digits"):
            kwong_period(UNPRINTABLE_LCM_PARTS, 2, 3)
        family = Family.restricted(UNPRINTABLE_LCM_PARTS)
        cfg = ScanConfig(family, 8, 6, 300)
        series = build_series(family, 300, Mod(8))
        assert scanned(cfg, None) == scan_reference(cfg, series) == [
            (1, 0, 1, 300)]

    def test_only_column_zero_one_member_short_of_a_period(self):
        # as above up to 59 = 5*12 - 1: every 5n + b with b >= 1 now has a
        # whole period, so l = 5 has no column to read but 5n (n >= 1)
        family = Family.restricted([1, 3])
        series = Series(Mod(4), 59, [int(n % 12 == 0) for n in range(60)])
        cfg = ScanConfig(family, 4, 6, 59, min_support=10)
        found = scanned(cfg, series)
        assert found == scan_reference(cfg, series)
        assert (5, 0, 0, 11) in found


class TestDensity:
    @settings(max_examples=100, deadline=None)
    @given(_patterned_series(list(range(2, 65))), st.data())
    def test_matches_loop(self, drawn, data):
        series, top = drawn
        bound = data.draw(st.integers(1, top))
        family = Family.overpartitions()
        got = empirical_density(family, series.ring.modulus, bound, series=series)
        assert got == density_reference(series, bound)

    def test_series_in_another_ring_is_rejected(self):
        # reading a mod-16 series as mod 4 would give 0.7205, not 0.978
        series = build_series(Family.overpartitions(), 2000, Mod(16))
        with pytest.raises(ValueError, match="Z/16"):
            empirical_density(Family.overpartitions(), 4, 2000, series=series)
        reduced = series.reduce_mod(4)
        value = empirical_density(Family.overpartitions(), 4, 2000, series=reduced)
        assert round(value, 3) == 0.978

    def test_everything_even(self):
        assert empirical_density(Family.overpartitions(), 2, 3000) == 1.0

    def test_mod_four_squares_excluded(self):
        # residue 2 occurs exactly at the squares
        value = empirical_density(Family.overpartitions(), 4, 10**4)
        assert value == (10**4 - 100) / 10**4

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            empirical_density(Family.overpartitions(), 4, 0)

    def test_mod_64_recorded_value(self):
        # Desk-scale snapshot: 3554 of the first 10^4 coefficients vanish
        # mod 64 (0.4276 at 10^5).  The known density-1 limit is nowhere
        # near visible at these bounds, so only the frozen finite-bound
        # value is asserted.
        value = empirical_density(Family.overpartitions(), 64, 10**4)
        assert value == 3554 / 10**4


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = ScanConfig(Family.k_rowed(6), 4, 15, 1500)
        findings = scan_ap_congruences(cfg)
        path = tmp_path / "findings.jsonl"
        persist_findings(findings[:3], path)
        assert load_findings(path) == findings[:3]

    def test_append_only(self, tmp_path):
        cfg = ScanConfig(Family.k_rowed(6), 4, 15, 1500)
        findings = scan_ap_congruences(cfg)
        path = tmp_path / "findings.jsonl"
        persist_findings(findings[:2], path)
        persist_findings(findings[2:4], path)
        assert load_findings(path) == findings[:4]

    def test_duplicates_warn_and_collapse(self, tmp_path):
        cfg = ScanConfig(Family.k_rowed(6), 4, 15, 1500)
        findings = scan_ap_congruences(cfg)[:2]
        path = tmp_path / "findings.jsonl"
        persist_findings(findings, path)
        persist_findings(findings[:1], path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = load_findings(path)
        assert back == findings
        assert len(caught) == 1

    def test_families_share_a_file(self, tmp_path):
        # each family token is decoded once per file, so two must not mix
        plk6 = scan_ap_congruences(ScanConfig(Family.k_rowed(6), 4, 15, 1500))[:2]
        parts = scan_ap_congruences(
            ScanConfig(Family.restricted([2, 1]), 2, 4, 200))[:2]
        path = tmp_path / "findings.jsonl"
        persist_findings(plk6 + parts + plk6[1:], path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = load_findings(path)
        assert back == plk6 + parts
        assert back[2].claim.family.token == "restricted:1,2"

    def test_lines_are_pinned(self, tmp_path):
        plk4 = scan_ap_congruences(ScanConfig(Family.k_rowed(4), 8, 12, 2500))
        parts = scan_ap_congruences(
            ScanConfig(Family.restricted([1, 2, 2, 3, 3]), 8, 48, 2000))
        assert any(f.status.startswith("matches-known:") for f in plk4)
        assert parts and all(f.status == "candidate" for f in parts)
        findings = plk4 + parts
        path = tmp_path / "findings.jsonl"
        persist_findings(findings, path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        assert lines == [json.dumps(f.to_json(), sort_keys=True) for f in findings]
        known = next(line for line in lines if "12n-mod8" in line)
        assert known == (
            '{"b": 0, "bound": 2500, "c": 0, "family": "plk4", "l": 12, '
            '"modulus": 8, "status": "matches-known:thm1.7-pl4-12n-mod8", '
            '"support": 208}')

    def test_family_token_must_be_a_string(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"family": ["plk4"], "modulus": 4, "l": 2, "b": 0, "c": 0, '
                        '"support": 20, "bound": 40, "status": "candidate"}\n')
        with pytest.raises(ValueError, match="line 1: family token must be a string"):
            load_findings(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"family": "plane"}\n')
        with pytest.raises(ValueError, match="line 1"):
            load_findings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_findings(path) == []


_FAMILIES = st.one_of(
    st.sampled_from([Family.overpartitions(), Family.odd_overpartitions(),
                     Family.plane(), Family.ncolor()]),
    st.integers(1, 99).map(Family.k_rowed),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=40).map(Family.restricted),
)
# quotes, backslashes, control and non-ASCII characters all need escaping
_AWKWARD = st.text(st.sampled_from('"\\/:-ab\n\t\x00\x7f\u00e9\u2028\u20ac\U0001d52e'),
                   max_size=12)
_STATUSES = st.one_of(st.just("candidate"),
                      _AWKWARD.map(lambda s: f"matches-known:{s}"),
                      _AWKWARD, st.text(max_size=20))


@st.composite
def _findings(draw):
    family = draw(_FAMILIES)
    modulus = draw(st.integers(2, 2**70))
    l = draw(st.integers(1, 10**12))
    b = draw(st.integers(0, l - 1))
    residue = draw(st.integers(0, modulus - 1))
    return Finding(scan._scan_claim(family, modulus, l, b, residue),
                   draw(st.integers(0, 10**20)), draw(st.integers(0, 10**20)),
                   draw(_STATUSES))


def _line(**changes) -> str:
    """One finding line as json.dumps writes it, with some fields changed."""
    good = {"b": 1, "bound": 4000, "c": 0, "family": "plk4", "l": 2, "modulus": 8,
            "status": "candidate", "support": 2000}
    return json.dumps({**good, **changes}, sort_keys=True)


class TestFindingsCodec:
    """One template writes each line and one decoder reads it back."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_findings(), max_size=6, unique_by=lambda f: f.claim.label))
    def test_lines_are_json_dumps_and_load_back(self, findings):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "findings.jsonl"
            persist_findings(findings, path)
            lines = path.read_bytes().decode("utf-8").split("\n")
            assert lines.pop() == ""
            assert lines == [json.dumps(f.to_json(), sort_keys=True) for f in findings]
            assert load_findings(path) == findings

    def test_template_has_the_fields_of_to_json(self):
        finding = scan_ap_congruences(ScanConfig(Family.k_rowed(4), 8, 12, 400))[0]
        assert re.findall(r'"(\w+)": ', scan._LINE) == sorted(finding.to_json())

    @pytest.mark.parametrize("bad, message", [
        (_line() + _line(b=0), f"unexpected data after column {len(_line())}"),
        (_line() + "  x", f"unexpected data after column {len(_line())}"),
        (_line() + "}", f"unexpected data after column {len(_line())}"),
        (_line(l=2.0), "field 'l' must be an integer, got 2.0"),
        (_line(c=1.5), "field 'c' must be an integer, got 1.5"),
        (_line(status=None), "field 'status' must be a string, got None"),
        (_line(status=3), "field 'status' must be a string, got 3"),
        (_line(support="x"), "field 'support' must be an integer, got 'x'"),
        (_line(b=True), "field 'b' must be an integer, got True"),
        (_line(bound=4000.0), "field 'bound' must be an integer, got 4000.0"),
        (_line(modulus=False), "field 'modulus' must be an integer, got False"),
        (_line(l=2.0, c=1.5, status=None, support="x"),
         "field 'l' must be an integer, got 2.0"),
    ], ids=["two-objects", "trailing-garbage", "extra-brace", "l-float", "c-float",
            "status-null", "status-int", "support-string", "b-bool", "bound-float",
            "modulus-bool", "first-bad-field-named"])
    def test_malformed_line_is_rejected_with_its_number(self, tmp_path, bad, message):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(["", _line(b=0), "", bad, _line(l=3)]) + "\n")
        with pytest.raises(ValueError, match=f"line 4: {re.escape(message)}$"):
            load_findings(path)

    def test_blank_lines_skipped_and_duplicates_warn_once(self, tmp_path):
        path = tmp_path / "findings.jsonl"
        path.write_text("\n".join(["", _line(), "  ", _line(b=0), _line(), "", ""]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            back = load_findings(path)
        assert [f.claim.label for f in back] == ["scan-plk4-mod8-2n+1", "scan-plk4-mod8-2n+0"]
        assert [str(w.message) for w in caught] == [
            f"{path}: duplicate finding scan-plk4-mod8-2n+1 on line 5"]

    @pytest.mark.parametrize("field, finding", [
        ("b", Finding(scan._scan_claim(Family.k_rowed(4), 8, 2, True, 0), 20, 40, "x")),
        ("c", Finding(scan._scan_claim(Family.k_rowed(4), 8, 2, 1, 1.0), 20, 40, "x")),
        ("support", Finding(scan._scan_claim(Family.k_rowed(4), 8, 2, 1, 0), 20.5, 40, "x")),
        ("status", Finding(scan._scan_claim(Family.k_rowed(4), 8, 2, 1, 0), 20, 40, None)),
    ], ids=["b", "c", "support", "status"])
    def test_persist_writes_nothing_that_would_not_load(self, tmp_path, field, finding):
        good = scan_ap_congruences(ScanConfig(Family.k_rowed(4), 8, 12, 400))
        path = tmp_path / "findings.jsonl"
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            persist_findings(good + [finding], path)
        assert not path.exists()

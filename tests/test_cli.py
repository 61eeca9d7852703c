import contextlib
import csv
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import congruence
from qcong.cli import main
from qcong.congruence import PREDICATES
from references import UNPRINTABLE_LCM_PARTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_overpartition_prefix(self, capsys):
        code, out, _ = run(capsys, "expand", "over", "--order", "4")
        assert code == 0
        assert out.split() == ["1", "2", "4", "8", "14"]

    def test_plane_prefix(self, capsys):
        code, out, _ = run(capsys, "expand", "plane", "--order", "3")
        assert out.split() == ["1", "2", "6", "16"]

    def test_one_rowed_matches_overpartition(self, capsys):
        _, a, _ = run(capsys, "expand", "plk", "--k", "1", "--order", "4")
        _, b, _ = run(capsys, "expand", "over", "--order", "4")
        assert a == b

    def test_alias_and_mod(self, capsys):
        code, out, _ = run(
            capsys, "expand", "overpartition", "--order", "4", "--mod", "4"
        )
        assert code == 0
        assert out.split() == ["1", "2", "0", "0", "2"]

    @pytest.mark.parametrize(
        "argv",
        [("--order", "-1"), ("--order", "4", "--mod", "0"), ("--order", "4", "--mod", "1")],
    )
    def test_bad_order_or_modulus_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "expand", "over", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_restricted(self, capsys):
        code, out, _ = run(
            capsys, "expand", "restricted", "--parts", "1,2,5,8", "--order", "5"
        )
        assert out.split()[5] == "4"

    @pytest.mark.parametrize("argv,message", [
        (["plk"], "plk family needs --k"),
        (["restricted"], "restricted family needs --parts"),
        (["restricted", "--parts", "1,x"], "cannot parse parts list '1,x'"),
    ])
    def test_missing_or_bad_family_arguments_are_one_error_line(self, argv, message):
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "expand", *argv, "--order", "3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "expand", "plane", "--order", "3", "--format", "json"
        )
        data = json.loads(out)
        assert data["coefficients"] == [1, 2, 6, 16]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "expand", "over", "--order", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,coefficient"
        assert lines[1:] == ["0,1", "1,2", "2,4"]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "coeffs.txt"
        code, out, _ = run(
            capsys, "expand", "over", "--order", "4", "--output", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text().split() == ["1", "2", "4", "8", "14"]


class TestVerify:
    def test_single_label_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--label", "thm1.7-pl4", "--bound", "600"
        )
        assert code == 0
        assert out.count("PASS") == 2

    def test_prefix_label_from_contract(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--label", "thm1.7-pl8-210n+105", "--bound", "700"
        )
        assert code == 0 and "thm1.7-pl8-210n+105-mod8" in out

    def test_fabricated_claim_exits_two(self, capsys):
        claim = json.dumps(
            {
                "label": "fab",
                "family": "over",
                "modulus": 4,
                "ap": {"l": 2, "b": 0, "n_start": 1},
                "kind": {"type": "constant", "residue": 0},
            }
        )
        code, out, _ = run(capsys, "verify", "--claim", claim, "--bound", "300")
        assert code == 2
        assert "n=2 arg=4 got=2 expected=0" in out

    def test_claim_from_file(self, capsys, tmp_path):
        path = tmp_path / "claim.json"
        path.write_text(
            json.dumps(
                {
                    "label": "pl-4n3",
                    "family": "plane",
                    "modulus": 4,
                    "ap": {"l": 4, "b": 3},
                    "kind": {"type": "constant", "residue": 0},
                }
            )
        )
        code, out, _ = run(capsys, "verify", "--claim", f"@{path}", "--bound", "400")
        assert code == 0 and "PASS pl-4n3" in out

    def test_unknown_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--label", "no-such", "--bound", "100"])

    def test_usage_error_exit_code_is_one(self):
        # argparse defaults to exit code 2, which is reserved for
        # counterexamples here
        import subprocess
        import sys as _sys

        proc = subprocess.run(
            [_sys.executable, "-m", "qcong.cli", "expand", "over"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--label", "cor3.11", "--bound", "500", "--format", "json",
        )
        data = json.loads(out)
        assert data[0]["outcome"] == "pass"
        assert data[0]["modulus"] == 8

    def test_reference_bounds_without_bound_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 95
        assert all(line.startswith("PASS ") and "members=0" not in line
                   for line in lines)
        assert {line.split("bound=")[1] for line in lines} == {
            "2000", "6930", "4620", "4000"}

    @pytest.mark.parametrize("modulus", [4, 8, 12, 64])
    def test_suite_selects_the_claims_of_its_modulus(self, capsys, modulus):
        code, out, _ = run(capsys, "verify", "--suite", f"mod{modulus}",
                           "--format", "json")
        want = sorted(c.label for c in congruence.builtin_suite()
                      if c.modulus == modulus)
        assert code == 0 and want
        assert [r["label"] for r in json.loads(out)] == want

    def test_report_claim_fields_are_claim_input(self, capsys):
        _, out, _ = run(capsys, "verify", "--label", "cor3.5", "--bound", "200",
                        "--format", "json")
        (report,) = json.loads(out)
        code, out, _ = run(capsys, "verify", "--claim", json.dumps(report),
                           "--bound", "200")
        assert code == 0 and out.startswith("PASS cor3.5-pl4-sum-4n+123-mod4 ")

    def test_sum_counterexample_names_first_term_argument(self, capsys):
        claim = {"modulus": 4, "ap": {"l": 4},
                 "kind": {"type": "sum", "residue": 0,
                          "terms": [{"family": "plk4", "b": 1},
                                    {"family": "plk4", "b": 2}]}}
        code, out, _ = run(capsys, "verify", "--claim", json.dumps(claim),
                           "--bound", "400")
        assert code == 2
        assert "FAIL custom-sum  counterexample n=1 arg=5 got=2 expected=0" in out

    def test_zero_member_rows_are_vacuous_and_exit_1(self, capsys):
        code, out, err = run(capsys, "verify", "--label", "thm1.4-pl12-3465n",
                             "--bound", "2000")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 6
        assert all(re.fullmatch(r"VACUOUS thm1\.4-pl12-3465n\S*  members=0 bound=2000",
                                line) for line in lines)
        assert err == "error: 6 claim(s) have no progression members within the bound\n"

    def test_vacuous_with_passes_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--label", "thm1.4-pl12-3465n",
                           "--label", "cor3.1-", "--bound", "2000",
                           "--format", "json")
        outcomes = {r["label"]: r["outcome"] for r in json.loads(out)}
        assert code == 1 and outcomes.pop("cor3.1-pl-4n+3-mod4") == "pass"
        assert set(outcomes.values()) == {"vacuous"}

    def test_counterexample_wins_over_vacuous(self, capsys, monkeypatch):
        far = {"label": "far", "family": "plane", "modulus": 4,
               "ap": {"l": 500, "n_start": 1}, "kind": {"residue": 0}}
        false = {"label": "false", "family": "over", "modulus": 4,
                 "kind": {"residue": 0}}
        reports = []
        for claim in (far, false):
            code, _, _ = run(capsys, "verify", "--claim", json.dumps(claim),
                             "--bound", "100")
            reports.append(congruence.verify([congruence.claim_from_json(claim)],
                                             congruence.SeriesStore(100), 100)[0])
            assert code == {"far": 1, "false": 2}[claim["label"]]
        assert [r.outcome for r in reports] == ["vacuous", "counterexample"]
        monkeypatch.setattr(congruence, "verify", lambda *args: reports)
        code, out, err = run(capsys, "verify", "--label", "cor3.1", "--bound", "100")
        assert code == 2 and err == ""
        assert out.splitlines()[0] == "VACUOUS far  members=0 bound=100"

    def test_negative_bound_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--label", "thm1.7-pl8",
                             "--bound", "-5")
        assert (code, out) == (1, "")
        assert err == "error: --bound must be >= 0, got -5\n"

    def test_odd_divisor_claim_below_two_is_usage_error(self, capsys):
        claim = {"family": "plane", "modulus": 4,
                 "kind": {"type": "predicate", "id": "odd-divisor-formula"}}
        code, out, err = run(capsys, "verify", "--claim", json.dumps(claim),
                             "--bound", "50")
        assert code == 1 and out == ""
        assert err.startswith("error: predicate odd-divisor-formula")
        assert "ap.n_start" in err and "ap.b" in err

    @pytest.mark.parametrize(
        "claim",
        [
            {"family": 5, "modulus": 4, "kind": {"residue": 0}},
            {"family": "over", "modulus": 5, "kind": {"residue": 0}},  # no --bound
            {"modulus": 4, "kind": {"type": "sum", "residue": 0,
                                    "terms": [{"family": "over", "b": -1}]}},
            {"modulus": 4, "kind": {"type": "sum", "residue": 9,
                                    "terms": [{"family": "over", "b": 1}]}},
            {"modulus": 4, "ap": [], "kind": {"residue": 0}},
        ],
    )
    def test_malformed_claim_is_usage_error(self, capsys, claim):
        code, out, err = run(capsys, "verify", "--claim", json.dumps(claim))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


FAMILY_TOKENS = ["over", "oddover", "plane", "ncolor", "plk1", "plk4", "plk",
                 "plk0", "plkx", "restricted:1,2,2", "restricted:", "restricted:0",
                 "bogus"]
_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70),
    st.sampled_from([2**62, 2**64]), st.floats(allow_nan=False),
    st.text(max_size=3), st.sampled_from(FAMILY_TOKENS),
)
_value = st.one_of(_leaf, st.lists(_leaf, max_size=2),
                   st.dictionaries(st.text(max_size=2), _leaf, max_size=2))
_small = st.integers(-2, 12)
_PATHS = [("label",), ("family",), ("modulus",), ("ap",), ("ap", "l"),
          ("ap", "b"), ("ap", "n_start"), ("kind",), ("kind", "type"),
          ("kind", "residue"), ("kind", "other"), ("kind", "id"),
          ("kind", "terms")]


@st.composite
def _claim_json(draw):
    """Mostly well-formed claims, with a few fields dropped or retyped."""
    term = st.fixed_dictionaries({"family": st.sampled_from(FAMILY_TOKENS),
                                  "b": _small})
    raw = {
        "label": "fuzz",
        "family": draw(st.sampled_from(FAMILY_TOKENS)),
        "modulus": draw(st.sampled_from([0, 1, 2, 3, 4, 8, 12, 2**61, 2**62])),
        "ap": {"l": draw(_small), "b": draw(_small), "n_start": draw(_small)},
        "kind": {
            "type": draw(st.sampled_from(
                ["constant", "equivalent", "predicate", "sum", "bogus"])),
            "residue": draw(_small),
            "other": draw(st.sampled_from(FAMILY_TOKENS)),
            "id": draw(st.sampled_from([*PREDICATES, "bogus"])),
            "terms": draw(st.lists(term, max_size=3)),
        },
    }
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=3)):
        parent = raw if len(path) == 1 else raw.get(path[0])
        if not isinstance(parent, dict):
            continue
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(_value)
    return raw


class TestClaimFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_claim_json())
    def test_claim_json_never_crashes(self, raw):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--claim", json.dumps(raw), "--bound", "50"])
        assert code in (0, 1, 2)
        assert all(line.startswith("error: ")
                   for line in err.getvalue().splitlines())
        assert (code == 1) == bool(err.getvalue())


class TestPeriod:
    def test_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "period", "--parts", "5,7", "--prime", "2", "--power", "3"
        )
        assert code == 0
        assert "period: 280" in out

    def test_empirical(self, capsys):
        code, out, _ = run(
            capsys,
            "period", "--parts", "5,7", "--prime", "2", "--power", "3", "--empirical",
        )
        assert "empirical_period: 280" in out
        assert "agreement: True" in out

    @pytest.mark.parametrize("guard", ["-5", "0"])
    def test_small_guard_is_one_error_line(self, capsys, guard):
        code, out, err = run(capsys, "period", "--parts", "1,2", "--prime", "2",
                             "--power", "2", "--empirical", "--guard", guard)
        assert code == 1 and out == ""
        assert err == f"error: guard must be >= 3, got {guard}\n"

    def test_bad_prime(self, capsys):
        code, _, err = run(
            capsys, "period", "--parts", "3,4", "--prime", "6", "--power", "1"
        )
        assert code == 1 and "not prime" in err

    def test_large_prime_exits_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "period", "--parts", "1,2",
             "--prime", "1000000000000000003", "--power", "1"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert "period: 2000000000000000006" in proc.stdout

    def test_prime_above_the_test_limit_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "period", "--parts", "1,2", "--prime",
                             str(2**127 - 1), "--power", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: prime ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "prime,power", [("2", "20000"), ("1000000000000000003", "1000000")]
    )
    def test_period_beyond_the_digit_limit_is_one_error_line(self, prime, power):
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "period", "--parts", "1,2",
             "--prime", prime, "--power", power],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: the period ")
        assert proc.stderr.endswith("more than the limit of 4300\n")
        assert proc.stderr.count("\n") == 1

    def test_unprintable_lcm_part_is_the_refusal_line(self, capsys):
        parts = ",".join(map(str, UNPRINTABLE_LCM_PARTS))
        code, out, err = run(capsys, "period", "--parts", parts, "--prime", "2",
                             "--power", "3")
        assert code == 1 and out == ""
        assert err == ("error: the period 2^13 * (an integer of about 4443 "
                       "digits) has about 4447 digits, more than the limit of "
                       "4300\n")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_period_at_the_digit_limit_prints(self, capsys, fmt):
        # parts 1,2 mod 2^N: b = 2, so the period is 2^(N+1), 4300 digits
        # at N = 14283 and 4301 at N = 14284
        code, out, _ = run(capsys, "period", "--parts", "1,2", "--prime", "2",
                           "--power", "14283", "--format", fmt)
        assert code == 0 and str(2**14284) in out
        code, out, err = run(capsys, "period", "--parts", "1,2", "--prime", "2",
                             "--power", "14284")
        assert code == 1 and out == "" and "about 4301 digits" in err


class TestEnumerate:
    def test_plane(self, capsys):
        code, out, _ = run(capsys, "enumerate", "plane", "--n", "3")
        assert out.strip() == "16"

    def test_plk_uses_k(self, capsys):
        code, out, _ = run(capsys, "enumerate", "plk", "--k", "1", "--n", "3")
        assert out.strip() == "8"

    def test_diagrams(self, capsys):
        code, out, _ = run(capsys, "enumerate", "plane", "--n", "2", "--diagrams")
        assert out.splitlines()[0] == "6"
        assert "1~" in out

    def test_other_families(self, capsys):
        _, out, _ = run(capsys, "enumerate", "over", "--n", "3")
        assert out.strip() == "8"
        _, out, _ = run(capsys, "enumerate", "oddover", "--n", "3")
        assert out.strip() == "4"
        _, out, _ = run(capsys, "enumerate", "ncolor", "--n", "3")
        assert out.strip() == "16"
        _, out, _ = run(
            capsys, "enumerate", "restricted", "--parts", "1,2,5,8", "--n", "5"
        )
        assert out.strip() == "4"

    def test_budget_error(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "plane", "--n", "12", "--budget", "10"
        )
        assert code == 1 and "budget" in err
        # 2 objects fit a budget of 2, but the cell visit exhausts it
        code, _, err = run(capsys, "enumerate", "plane", "--n", "1", "--budget", "2")
        assert code == 1 and err == "error: enumeration budget exceeded\n"

    def test_count_above_budget_fails_at_once(self):
        # 36,898,372,640 plane overpartitions of 40 against the default
        # budget of 5,000,000: refused from the series, not by enumerating
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "enumerate", "plane", "--n", "40"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: enumeration budget exceeded\n"

    def test_more_parts_than_the_recursion_limit(self, capsys):
        ones = ",".join(["1"] * 1100)
        code, out, err = run(capsys, "enumerate", "restricted", "--parts", ones,
                             "--n", "1")
        assert (code, out, err) == (0, "1100\n", "")

    @pytest.mark.parametrize(
        "argv",
        [("over", "--n", "1000"), ("oddover", "--n", "300"), ("ncolor", "--n", "60"),
         ("restricted", "--parts", "1", "--n", "100000000")],
        ids=lambda argv: argv[0],
    )
    def test_budget_limits_every_family(self, argv):
        # each of these runs for hours without a budget
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "enumerate", *argv,
             "--budget", "100000"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: enumeration budget exceeded\n"

    def test_default_budget_limits_a_long_count(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcong.cli", "enumerate", "restricted",
             "--parts", "1", "--n", "100000000"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: enumeration budget exceeded\n"

    @pytest.mark.parametrize(
        "argv",
        [("plane",), ("plk", "--k", "2"), ("over",), ("oddover",), ("ncolor",),
         ("restricted", "--parts", "1,2")],
        ids=lambda argv: argv[0],
    )
    def test_negative_size_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv, "--n", "-1")
        assert code == 1 and out == ""
        assert err == "error: --n must be >= 0, got -1\n"

    def test_size_zero_counts_the_empty_object(self, capsys):
        code, out, _ = run(capsys, "enumerate", "plane", "--n", "0")
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_max_rows_below_one_is_usage_error(self, capsys, rows):
        code, out, err = run(capsys, "enumerate", "plk", "--k", rows, "--n", "3")
        assert code == 1 and out == ""
        assert err == "error: plk family needs k >= 1\n"

    def test_max_rows_is_the_row_bound_of_plk(self, capsys):
        code, out, _ = run(capsys, "enumerate", "plk", "--k", "4", "--n", "5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"family": "plk4", "n": 5, "max_rows": 4,
                                   "count": 86}
        _, out, _ = run(capsys, "enumerate", "over", "--n", "5", "--format", "json")
        assert json.loads(out)["max_rows"] is None

    def test_max_rows_flag_is_gone(self):
        with pytest.raises(SystemExit, match="unrecognized arguments: --max-rows 2"):
            main(["enumerate", "plk", "--k", "4", "--max-rows", "2", "--n", "5"])


class TestMemoryError:
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        from qcong import genfun

        for error in (MemoryError, OverflowError):
            def exhausted(*args, error=error):
                raise error

            monkeypatch.setattr(genfun, "build_series", exhausted)
            code, out, err = run(capsys, "expand", "over", "--order", "100000000000")
            assert code == 1 and out == ""
            assert err == "error: out of memory\n"

    @pytest.mark.parametrize("argv,order", [
        (["expand", "over", "--order", str(10**30)], 10**30),
        (["expand", "plane", "--order", str(10**30)], 10**30),
        (["expand", "plk", "--k", "3", "--order", str(10**30)], 10**30),
        (["expand", "restricted", "--parts", "1,2", "--order", str(10**30)], 10**30),
        (["expand", "restricted", "--parts", "1,2", "--mod", "8", "--order", str(10**30)],
         10**30),
        (["period", "--parts", "1,2", "--prime", "2", "--power", "3", "--empirical",
          "--guard", str(10**30)], None),
        (["verify", "--claim", json.dumps({"family": "restricted:1,2", "modulus": 4,
                                           "ap": {"l": 10**30},
                                           "kind": {"residue": 0}})], None),
        (["expand", "plane", "--mod", "4", "--order", str(10**30)], 10**30),
        (["expand", "plane", "--mod", "2", "--order", str(10**30)], 10**30),
        (["expand", "over", "--mod", "8", "--order", str(10**30)], 10**30),
        (["density", "plane", "--mod", "4", "--bound", str(10**30)], 10**30),
        (["expand", "over", "--order", str(sys.maxsize // 8 + 1)], sys.maxsize // 8 + 1),
    ], ids=["over", "plane", "plk", "restricted", "restricted-mod8", "period-guard",
            "verify-claim-l", "plane-mod4", "plane-mod2", "over-mod8", "density",
            "one-above-the-limit"])
    def test_oversized_size_is_one_error_line(self, argv, order):
        # these sizes are refused, on every route, before any memory is asked for
        proc = subprocess.run([sys.executable, "-m", "qcong.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        # the order refused need not be --order: a guard or an l sets it (None)
        got = r"\d+" if order is None else str(order)
        limit = sys.maxsize // 8
        assert re.fullmatch(rf"error: order must be between 0 and {limit}, got {got}\n",
                            proc.stderr)


class TestScanAndDensity:
    @pytest.mark.parametrize("command,tail", [
        ("scan", ["--lmax", "6"]), ("density", [])])
    def test_refused_kwong_period_goes_without_one(self, capsys, command, tail):
        parts = ",".join(map(str, UNPRINTABLE_LCM_PARTS))
        code, out, err = run(capsys, command, "restricted", "--parts", parts,
                             "--mod", "8", "--bound", "300", *tail)
        assert code == 0 and err == ""
        assert out.endswith("a(1n+0) = 1  support=300\n" if command == "scan"
                            else "zeros=0 bound=300 density=0.000000\n")

    def test_scan_text(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "plk", "--k", "4", "--mod", "8",
            "--lmax", "12", "--bound", "2000",
        )
        assert code == 0
        assert "matches-known:thm1.7-pl4-12n-mod8" in out

    def test_scan_save(self, capsys, tmp_path):
        path = tmp_path / "findings.jsonl"
        code, _, _ = run(
            capsys,
            "scan", "plane", "--mod", "2", "--lmax", "4",
            "--bound", "600", "--save", str(path),
        )
        assert code == 0
        from qcong.scan import load_findings

        found = load_findings(path)
        assert [(f.claim.l, f.claim.b) for f in found] == [(1, 0)]

    def test_density(self, capsys):
        code, out, _ = run(
            capsys, "density", "over", "--mod", "4", "--bound", "10000"
        )
        assert code == 0
        assert "zeros=9900" in out and "density=0.990000" in out

    def test_density_json(self, capsys):
        code, out, _ = run(
            capsys,
            "density", "over", "--mod", "4", "--bound", "10000",
            "--format", "json",
        )
        assert json.loads(out)["density"] == 0.99

    @pytest.mark.parametrize("argv,header", [
        (["scan", "plk", "--k", "4", "--mod", "8", "--lmax", "12", "--bound", "2000"],
         ["family", "l", "b", "c", "modulus", "support", "bound", "status"]),
        # no findings: the header alone
        (["scan", "over", "--mod", "16", "--lmax", "5", "--bound", "300"],
         ["family", "l", "b", "c", "modulus", "support", "bound", "status"]),
        (["density", "over", "--mod", "8", "--bound", "5000"],
         ["family", "modulus", "bound", "zeros", "density"]),
    ])
    def test_csv_rows_are_the_json_records(self, capsys, argv, header):
        _, out, _ = run(capsys, *argv, "--format", "json")
        records = json.loads(out)
        records = records if isinstance(records, list) else [records]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert all(sorted(r) == sorted(header) for r in records)
        assert list(csv.reader(io.StringIO(out))) == [header] + [
            [str(r[k]) for k in header] for r in records]

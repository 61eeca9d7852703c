"""What a fresh process imports: the package, each CLI command, numpy.

Every check runs in a new interpreter, because this test process has long
since imported everything.  No timing is asserted, only which modules were
executed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcong

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI in-process and reports its exit code, stdout and sys.modules.
PROBE = """
import contextlib, io, json, sys
from qcong.cli import main

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def python(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def probe(*argv):
    proc = python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def numpy_executed(modules) -> bool:
    # numpy's own __init__ imports its submodules; a module object that was
    # only registered for lazy loading has none
    return any(m.startswith("numpy.") for m in modules)


def test_import_qcong_loads_no_submodule():
    proc = python("-c", "import json, sys, qcong; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("qcong.")] == []


@pytest.mark.parametrize(
    "argv,head,loaded",
    [
        (["expand", "over", "--order", "4"], ["1", "2", "4", "8", "14"], set()),
        (["expand", "plane", "--order", "60"], ["1", "2", "6", "16", "38"], set()),
        (["enumerate", "over", "--n", "14"], ["1040"], {"oracles"}),
        (["enumerate", "plane", "--n", "10"], ["3584"], {"oracles"}),
    ],
    ids=["expand-over", "expand-plane", "enumerate-over", "enumerate-plane"],
)
def test_exact_commands_do_not_execute_numpy(argv, head, loaded):
    report = probe(*argv)
    assert report["code"] == 0
    assert report["out"].split()[: len(head)] == head
    assert not numpy_executed(report["modules"])
    ours = {m.removeprefix("qcong.") for m in report["modules"] if m.startswith("qcong.")}
    assert ours == {"cli", "genfun", "series"} | loaded


def test_modular_command_executes_numpy():
    # the probe sees numpy when it runs, so the tests above are not vacuous
    report = probe("expand", "over", "--order", "4", "--mod", "4")
    assert report["code"] == 0 and report["out"].split() == ["1", "2", "0", "0", "2"]
    assert numpy_executed(report["modules"])


RESOLVE = """
import qcong

values = {name: getattr(qcong, name) for name in qcong.__all__}
from qcong import congruence, genfun, periodicity, scan, series

homes = (congruence, genfun, periodicity, scan, series)
print(sorted(n for n, v in values.items() if not any(getattr(m, n, None) is v for m in homes)))
star = {}
exec("from qcong import *", star)
print(sorted(set(qcong.__all__) - set(star)), sorted(set(qcong.__all__) - set(dir(qcong))))
print(qcong.oracles.DEFAULT_BUDGET, qcong.cli.main.__name__)
"""


def test_every_public_name_resolves():
    proc = python("-c", RESOLVE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[] []\n5000000 main\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        qcong.no_such_name


def test_budget_error_in_a_fresh_process():
    proc = python("-m", "qcong.cli", "enumerate", "plane", "--n", "10", "--budget", "10")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: enumeration budget exceeded\n"


def test_lazy_import_reuses_loaded_modules_and_rejects_missing_ones():
    from qcong.series import lazy_import

    assert lazy_import("json") is sys.modules["json"]
    with pytest.raises(ModuleNotFoundError, match="no_such_module"):
        lazy_import("no_such_module")
    assert "no_such_module" not in sys.modules

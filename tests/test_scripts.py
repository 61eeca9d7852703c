import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def density_profile(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "density_profile.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


class TestDensityProfile:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--family", "plk"], "plk family needs k >= 1"),
            (["--bits", "0"], "--bits must be >= 1, got 0"),
            (["--bound", "0"], "--bound must be >= 1, got 0"),
        ],
        ids=["plk-without-k", "bits-0", "bound-0"],
    )
    def test_bad_input_is_one_error_line(self, argv, message):
        proc = density_profile(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_plk_profile(self):
        proc = density_profile("--family", "plk", "--k", "4", "--bits", "1", "2",
                               "--bound", "2000")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("built plk4 mod 4 to order 2000")
        assert [line.split(":")[0] for line in lines[1:]] == ["mod   2", "mod   4"]

"""The README's code blocks and the experiment scripts run as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polariton2dcs.cli as cli
from polariton2dcs.cli import build_jobspec

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
SCRIPTS = ["absorption_scan.py", "pump_probe_relaxation.py", "twod_maps.py"]

# the modes that read a config: validate runs on its own reference sets
CONFIG_MODES = [mode for mode in cli._MODES if mode != "validate"]


def fenced_blocks(language: str) -> list[str]:
    """The bodies of the README's ```<language> blocks, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def run_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error <args>`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


class TestReadme:
    def test_python_blocks_run_without_warnings(self, tmp_path):
        blocks = fenced_blocks("python")
        assert blocks
        for block in blocks:
            result = run_python("-c", block, cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            assert result.stderr == ""

    @pytest.mark.parametrize("mode", CONFIG_MODES)
    def test_json_config_is_a_valid_job(self, mode):
        (block,) = fenced_blocks("json")
        spec = build_jobspec(mode, json.loads(block))
        assert spec.params.collective_coupling == pytest.approx(1800.0)


class TestScripts:
    @pytest.mark.parametrize("script", SCRIPTS)
    def test_script_writes_its_files_without_warnings(self, tmp_path, script):
        out = tmp_path / "out"
        result = run_python(str(ROOT / "scripts" / script), str(out), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout and any(path.suffix == ".csv" for path in out.iterdir())

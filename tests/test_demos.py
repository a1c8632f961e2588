"""Smoke test of the demos: each script in ``demos/`` and each Python example
of the README's ``## Python API`` section runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
API_SECTION = (ROOT / "README.md").read_text().split("\n## Python API\n")[1]
API_SECTION = API_SECTION.split("\n## ")[0]
API_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", API_SECTION, re.M | re.S)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # figures land in tmp_path; Agg draws them without a display
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_api_examples_found():
    assert API_EXAMPLES


@pytest.mark.parametrize("code", API_EXAMPLES,
                         ids=[f"example{i}" for i in range(1, len(API_EXAMPLES) + 1)])
def test_api_example_runs(code):
    # a name deleted or renamed in the package fails here, not in a reader's shell
    exec(compile(code, "README.md", "exec"), {})

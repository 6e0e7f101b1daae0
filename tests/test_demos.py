"""Every demo runs to completion: the Python demos 01-05, and the command-line
pipeline 06 with `mmgi` resolved by a launcher of `python -m mmgi.cli` put
on PATH, so that the package need not be installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_autodiff_and_gradcheck.py", "02_feature_extraction.py",
         "03_chart_walkthrough.py", "04_train_parse_evaluate.py", "05_textless_scf1.py",
         "06_cli_pipeline.sh")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "mmgi"
    launcher.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m mmgi.cli "$@"\n')
    launcher.chmod(0o755)
    command = ["bash"] if name.endswith(".sh") else [sys.executable]
    done = subprocess.run(command + [str(ROOT / "demos" / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path,
                               "PATH": os.pathsep.join([str(bin_dir), os.environ["PATH"]])},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

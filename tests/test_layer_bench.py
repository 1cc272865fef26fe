"""The layer bench's host fingerprint names the code it timed."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC

ROOT = Path(__file__).resolve().parent.parent

FINGERPRINT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
host = layers._fingerprint(0)
print(json.dumps([host["commit"], host["dirty"]]))
"""


def _fingerprint(checkout):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, str(checkout / "bench")], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def _git(checkout, *command):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
         *command], cwd=checkout, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_the_fingerprint_says_whether_the_checkout_is_edited(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "bench" / "layers.py", tmp_path / "bench" / "layers.py")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "layer bench")
    head = _git(tmp_path, "rev-parse", "HEAD")
    assert _fingerprint(tmp_path) == [head, False]
    with open(tmp_path / "bench" / "layers.py", "a", encoding="utf-8") as handle:
        handle.write("# edited\n")
    assert _fingerprint(tmp_path) == [head, True]

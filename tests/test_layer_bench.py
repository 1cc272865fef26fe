"""The layer bench names the code it timed, and compare.py times two
revisions of it side by side."""

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

CASE_KEYS = """
import importlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import layers
fl = importlib.import_module("floqlind")
with tempfile.TemporaryDirectory() as workdir:
    cases = layers.layer_cases(fl) + layers.cli_cases(fl, Path(workdir))
print(json.dumps([case.key for case in cases]))
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


def test_compare_times_two_revisions_interleaved(tmp_path):
    """HEAD against a ``git stash create`` snapshot of an edited tree, one
    round: the record names both commits and, per case of the layer bench,
    both sides' facts and times, their ratios and the count of rounds B
    won; the working tree keeps its edit."""
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(Path(SRC) / "floqlind", tmp_path / "src" / "floqlind",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "tree")
    head = _git(tmp_path, "rev-parse", "HEAD")
    edited = tmp_path / "src" / "floqlind" / "bath.py"
    text = edited.read_text(encoding="utf-8")
    assert "# Smallest normal double." in text
    text = text.replace("# Smallest normal double.", "# The smallest normal double.")
    edited.write_text(text, encoding="utf-8")
    snapshot = _git(tmp_path, "stash", "create")
    assert snapshot and edited.read_text(encoding="utf-8") == text
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "compare.py"), "HEAD", snapshot,
         "--rounds", "1", "--label", "smoke"],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    record = json.loads((tmp_path / "BENCH_compare_smoke.json").read_text())
    assert set(record) == {"label", "a", "b", "rounds", "host", "cases", "wall_s"}
    assert record["a"] == {"rev": "HEAD", "commit": head}
    assert record["b"] == {"rev": snapshot, "commit": snapshot}
    assert record["rounds"] == 1
    assert (record["host"]["commit"], record["host"]["dirty"]) == (head, True)
    keys = json.loads(subprocess.run(
        [sys.executable, "-c", CASE_KEYS, str(tmp_path / "bench")], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout)
    stats = {"a_best_s", "b_best_s", "a_median_s", "b_median_s", "min_ratio",
             "median_ratio", "b_faster", "of"}
    facts = {"a_q_max_used", "b_q_max_used", "a_rounds", "b_rounds",
             "a_bytes", "b_bytes"}
    assert [{k: v for k, v in case.items() if k not in stats | facts}
            for case in record["cases"]] == keys
    # Only generator builds and CLI scenarios (no "layer" key) have facts.
    fact_names = {"build_generator": ("q_max_used", "rounds"), None: ("bytes",)}
    for case in record["cases"]:
        assert case["of"] == 1 and case["b_faster"] in (0, 1)
        for side in "ab":
            assert 0.0 < case[f"{side}_best_s"] <= case[f"{side}_median_s"]
        assert case["min_ratio"] == case["b_best_s"] / case["a_best_s"]
        assert case["median_ratio"] == case["b_median_s"] / case["a_median_s"]
        names = fact_names.get(case.get("layer"), ())
        assert set(case) & facts == {f"{side}_{n}" for side in "ab" for n in names}
        for name in names:  # a comment edit moves no fact
            assert case[f"a_{name}"] == case[f"b_{name}"] > 0

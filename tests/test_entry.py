"""The process entry: the collector pause around the package's imports, and
``cli.run``, which freezes the imported heap before ``main`` and is what both
``python -m semimarkov.cli`` and the ``semimarkov`` console script call."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semimarkov import cli

ROOT = Path(__file__).resolve().parent.parent
SUCCESS = str(ROOT / "data" / "synthetic" / "success_manifest.json")


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


# Prints, as JSON: whether the collector ran as numpy and scipy.special were
# imported, then its state and thresholds after `import semimarkov`.
_WATCH_IMPORT = """
import gc, json, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in ("numpy", "scipy.special"):
            seen.append(gc.isenabled())
sys.meta_path.insert(0, Watch())
gc.set_threshold(1234, 5, 6)
if {disabled}:
    gc.disable()
import semimarkov
print(json.dumps([seen, gc.isenabled(), gc.get_threshold()]))
"""


@pytest.mark.parametrize("disabled", [False, True])
def test_import_pauses_the_collector_and_restores_its_state(disabled):
    proc = _python("-c", _WATCH_IMPORT.format(disabled=disabled))
    assert proc.returncode == 0, proc.stderr
    seen, enabled, threshold = json.loads(proc.stdout)
    assert seen == [False, False]
    assert enabled is not disabled
    assert threshold == [1234, 5, 6]


def test_import_that_fails_part_way_reenables_the_collector():
    code = """
import gc, sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            raise ImportError("scipy.special refused")
sys.meta_path.insert(0, Refuse())
try:
    import semimarkov
except ImportError as exc:
    print(exc, gc.isenabled(), "semimarkov" in sys.modules)
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["scipy.special refused True False", ""]


@pytest.mark.parametrize("command, outputs", [
    (["fit", "--manifest", SUCCESS, "--model", "semi-markov", "--out", "{d}/model.json"],
     ["model.json"]),
    (["split-fit", "--manifest", SUCCESS, "--segments", "2", "--out-prefix", "{d}/half"],
     ["half_seg1.json", "half_seg2.json", "half_comparison.json"]),
])
def test_entry_writes_what_main_writes(tmp_path, command, outputs):
    sub, own = tmp_path / "sub", tmp_path / "own"
    sub.mkdir()
    own.mkdir()
    proc = _python("-m", "semimarkov.cli", *[a.format(d=sub) for a in command])
    assert proc.returncode == 0, proc.stderr
    assert cli.main([a.format(d=own) for a in command]) == 0
    for name in outputs:
        assert (sub / name).read_bytes() == (own / name).read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["fit", "--manifest", "missing.json", "--model", "dtmc", "--out", "m.json"], 1),
    (["fit", "--no-such-flag"], 2),
])
def test_entry_exit_codes(tmp_path, argv, code):
    proc = _python("-m", "semimarkov.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert not (tmp_path / "m.json").exists()


def test_entry_freezes_the_heap_before_main():
    code = """
import gc, semimarkov.cli as cli
cli.main = lambda: print(gc.get_freeze_count()) or 7
cli.run()
"""
    proc = _python("-c", code)
    assert proc.returncode == 7, proc.stderr
    assert int(proc.stdout) > 0


def test_main_leaves_the_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert cli.main(["fit", "--manifest", SUCCESS, "--model", "dtmc",
                     "--out", str(tmp_path / "m.json")]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_console_script_calls_what_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["semimarkov"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(s) for s in block.body] == ["run()"]

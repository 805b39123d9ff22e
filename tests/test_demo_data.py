"""The bundled cohorts under data/synthetic/ are exactly what
scripts/make_demo_data.py generates."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data" / "synthetic"


def test_make_demo_data_reproduces_bundled_files(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo_data.py"),
         "--out-dir", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in DATA.iterdir())
    for name in made:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

"""
Driving experiments from config files
=====================================

Everything the library does is reachable from the ``aet2d`` command with
a flat key-value config file.  This script writes a config, runs the
one-shot ``run`` command, then reproduces it with the split
``forward`` / ``reconstruct`` pair, which pass the synthesized data through
one ``stage.npz``, and checks that the record and the fields files agree
byte for byte (they must: same code path, exact serialization).
"""
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = """\
# case 2 on the medium arc, mild noise
mesh.target_h = 0.2
sigma.case = case2
noise.alpha_percent = 1
noise.seed = 50
noise.eig_floor = 1e-6
output.formats = csv
"""


def cli(*args) -> None:
    command = [sys.executable, "-m", "aet2d.cli", *args]
    print("$", " ".join(args))
    subprocess.run(command, check=True)


with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    config = root / "experiment.cfg"
    config.write_text(CONFIG)

    cli("run", "--config", str(config), "--out", str(root / "oneshot"))
    cli("forward", "--config", str(config), "--out", str(root / "split"))
    cli("reconstruct", "--config", str(config), "--out", str(root / "split"))

    print()
    for name in ("record.csv", "fields.csv"):
        oneshot = (root / "oneshot" / name).read_bytes()
        split = (root / "split" / name).read_bytes()
        print(f"{name} identical across workflows: {oneshot == split}")
    print("files in split/:", ", ".join(sorted(p.name for p in (root / "split").iterdir())))

    cli("table1", "--config", str(config), "--out", str(root / "tables"),
        "--quiet")
    rows = (root / "tables" / "table1.csv").read_text().splitlines()
    print(f"table1.csv: {len(rows) - 1} records")

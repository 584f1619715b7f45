"""The package's public surface and fixed costs: what `import aet2d` loads
and exports, and the memory a mesh build and an assembly hold."""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aet2d

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_names_resolve():
    assert [name for name in aet2d.__all__ if not hasattr(aet2d, name)] == []


def test_demo_imports_exist():
    # parsed, not run: the demos take about 9 s together, and CI's demo
    # step runs them
    imported = [(path.name, node.module, alias.name)
                for path in DEMOS
                for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "aet2d"
                for alias in node.names]
    assert imported, "no demo imports from aet2d"
    missing = [f"{demo}: {module}.{name}" for demo, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _fresh_python(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports this aet2d."""
    src = str(Path(aet2d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_readme_examples_run():
    # later blocks use names an earlier block imported, so they run in order
    # in one interpreter
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) >= 3
    _fresh_python("\n".join(blocks))


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.sparse.linalg",
                                    "scipy.linalg"])
def test_import_does_not_load(module):
    code = f"import sys, aet2d; print({module!r} in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_runs_do_not_load_scipy_linear_algebra():
    # every solve runs PCG in numpy; loading SuperLU (scipy.sparse.linalg,
    # which pulls in scipy.linalg) alone raises the peak RSS by 10.2 MB
    code = ("import sys, aet2d\n"
            "config = aet2d.RunConfig(case='case2', gamma='medium', target_h=0.3,\n"
            "                         noise=aet2d.NoiseSpec(alpha_percent=5.0, seed=1))\n"
            "aet2d.run_pipeline(config)\n"
            "aet2d.noise_sweep(config)\n"
            "print(sorted({'scipy.sparse.linalg', 'scipy.linalg'} & set(sys.modules)))")
    assert _fresh_python(code).strip() == "[]"


def _peak_rise_mb(setup: str, work: str) -> float:
    """MB by which `work` raises a new interpreter's peak RSS after `setup`.

    The peak is the process's own VmHWM. `ru_maxrss` would not do: Linux
    carries the spawning process's peak across exec, so under a test run
    that has already held large meshes it hides the whole rise.
    """
    code = (f"import aet2d\n{setup}\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f\n"
            "                    if line.startswith('VmHWM:'))\n"
            f"before = peak()\n{work}\n"
            "print((peak() - before) / 1024)")
    return float(_fresh_python(code))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_disk_mesh_build_holds_little_memory():
    # the h = 0.03 mesh is 1 MB of triangles; building it a tuple per
    # triangle raised the peak by 16.6 MB
    assert _peak_rise_mb("", "aet2d.build_disk_mesh(0.03)") <= 10.0


DATA_MESH = ("import numpy as np\n"
             "mesh = aet2d.tag_boundary(aet2d.refine(aet2d.build_disk_mesh(0.03)),\n"
             "                          aet2d.GAMMA_MEDIUM)\n"
             "sigma = aet2d.ScalarField(mesh, np.ones(mesh.n_vertices))")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_assembly_holds_little_memory():
    # the rise is over the peak the h = 0.03 data mesh's build left. Built
    # from all 12 MB of element matrices at once, assembly raised it by
    # 20.4 MB (41.7 MB through COO triplets); a block of rows at a time,
    # by 9.7 MB
    rise = _peak_rise_mb(DATA_MESH, "aet2d.assemble_conductivity(mesh, sigma)")
    assert rise <= 12.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_constrained_operator_holds_little_memory():
    # the forward's operator: the assembled matrix and its free rows are
    # held together for a moment, which raised the peak by 13.0 MB
    work = ("from aet2d.fem import constrain\n"
            "constrain(aet2d.assemble_conductivity(mesh, sigma), mesh.dirichlet_nodes)")
    assert _peak_rise_mb(DATA_MESH, work) <= 16.5

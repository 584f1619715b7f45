"""The package's public surface and fixed costs: what `import aet2d` loads
and exports, and the memory a mesh build, an assembly and a forward hold."""
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aet2d
from aet2d.fem import ScalarField, VectorField, laplacian_operator
from aet2d.forward import PowerDensity
from aet2d.mesh import GAMMA_MEDIUM, build_disk_mesh, tag_boundary

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(aet2d.__path__))


def test_all_names_resolve():
    assert [name for name in aet2d.__all__ if not hasattr(aet2d, name)] == []


def test_top_level_exports_what_its_users_call():
    # the users are README, the demos, the benchmark and CI; tests import
    # the building blocks from their modules
    sources = [ROOT / "README.md", *DEMOS, *sorted((ROOT / "bench").glob("*.py")),
               ROOT / ".github" / "workflows" / "tier1.yml"]
    used = set()
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for names in re.findall(r"\bfrom aet2d import\s+(\([^)]*\)|[^\n]*)", text):
            used.update(item.split()[0] for item in names.strip("()").split(",")
                        if item.strip())
        used.update(re.findall(r"\baet2d\.(\w+)", text))
    used = {name for name in used
            if not name.startswith("__") and name not in SUBMODULES}
    assert sorted(used - set(aet2d.__all__)) == []
    assert sorted(set(aet2d.__all__) - used) == []


def test_no_public_callable_takes_a_mesh_beside_a_field():
    # a field carries its mesh, so a `mesh` argument next to one could only
    # repeat it or disagree with it
    field = re.compile(r"\b(ScalarField|VectorField|PowerDensity)\b")
    both = []
    for module_name in SUBMODULES:
        module = importlib.import_module(f"aet2d.{module_name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            params = inspect.signature(obj).parameters
            if "mesh" in params and any(field.search(str(p.annotation))
                                        for p in params.values()):
                both.append(f"{module_name}.{name}({', '.join(params)})")
    assert both == []


# each builds a holder on `mesh`; two calls give equal values in distinct arrays
ARRAY_HOLDERS = {
    "Mesh": lambda mesh: tag_boundary(build_disk_mesh(0.5), GAMMA_MEDIUM),
    "ScalarField": lambda mesh: ScalarField(mesh, np.ones(mesh.n_vertices)),
    "VectorField": lambda mesh: VectorField(mesh, np.ones((mesh.n_triangles, 2))),
    "PowerDensity": lambda mesh: PowerDensity(
        *(ScalarField(mesh, np.full(mesh.n_vertices, v)) for v in (2.0, 0.5, 2.0))),
    "ConstrainedOperator": laplacian_operator,
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=list(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(build):
    # comparing their arrays by value would ask numpy for the truth of an
    # array, and hashing them would hash an array; both raise
    mesh = tag_boundary(build_disk_mesh(0.5), GAMMA_MEDIUM)
    a, b = build(mesh), build(mesh)
    assert a == a
    assert a != b
    assert len({a, a, b}) == 2


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
    assert _peak_rise_mb("from aet2d.mesh import build_disk_mesh",
                         "build_disk_mesh(0.03)") <= 10.0


DATA_MESH = ("import numpy as np\n"
             "from aet2d.fem import ScalarField, assemble_conductivity\n"
             "from aet2d.mesh import GAMMA_MEDIUM, build_disk_mesh, refine, tag_boundary\n"
             "mesh = tag_boundary(refine(build_disk_mesh(0.03)), GAMMA_MEDIUM)\n"
             "sigma = ScalarField(mesh, np.ones(mesh.n_vertices))")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_assembly_holds_little_memory():
    # the rise is over the peak the h = 0.03 data mesh's build left. Built
    # from all 12 MB of element matrices at once, assembly raised it by
    # 20.4 MB (41.7 MB through COO triplets); 4096 rows at a time, by
    # 9.7 MB, and by 3.5-3.6 MB once the mesh kept no 7.9 MB P1 basis;
    # 512 rows at a time, by 1.7-1.9 MB
    rise = _peak_rise_mb(DATA_MESH, "assemble_conductivity(sigma)")
    assert rise <= 3.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_constrained_operator_holds_little_memory():
    # the forward's operator: the assembled matrix and its free rows are
    # held together for a moment, which raises the peak by 6.1-6.3 MB
    # (7.9-8.3 MB with 4096-row assembly blocks, 13.1 MB while the mesh
    # kept its P1 basis)
    work = ("from aet2d.fem import constrain\n"
            "constrain(assemble_conductivity(sigma), mesh.dirichlet_nodes)")
    assert _peak_rise_mb(DATA_MESH, work) <= 11.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="VmHWM is read from /proc, Linux only")
def test_forward_stage_holds_little_memory():
    # the whole forward at h = 0.03: data mesh, operator, two solves, power
    # density and angle truth; 30.5-30.8 MB, 34.6-34.9 MB while assembly
    # took 4096 rows at a time and the lumped-mass sums built 3T weight
    # copies, and 41.1 MB while every mesh kept its P1 basis
    setup = ("from aet2d.pipeline import forward_stage\n"
             "config = aet2d.RunConfig(case='case2', gamma='medium', target_h=0.03)")
    assert _peak_rise_mb(setup, "forward_stage(config)") <= 34.0

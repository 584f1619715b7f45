"""The package's public surface: what `import aet2d` loads and exports."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import aet2d

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_names_resolve():
    assert [name for name in aet2d.__all__ if not hasattr(aet2d, name)] == []


def test_demo_imports_exist():
    # parsed, not run: the demos solve full-size problems
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


def test_import_does_not_load_scipy_spatial():
    src = str(Path(aet2d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, aet2d; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

"""Static checks on the package source and the scripts CI runs; no linter
is a dependency."""

import ast
from pathlib import Path

import pytest

import sembox

MODULES = sorted(p for p in Path(sembox.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. A quoted annotation counts
    as a read of the names in it."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nfrom math import pi, tau\n"
              "x: 'np.ndarray' = tau\n")
    assert unused_imports(source) == ["line 2: json", "line 4: pi"]


def json_reads(source: str) -> list[int]:
    """Line numbers of the calls to json.load or json.loads in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]


def test_one_json_reader():
    """Every JSON document goes through config.read_json, so json is parsed
    in exactly one place in the package."""
    package = sorted(Path(sembox.__file__).parent.glob("*.py"))
    sites = [f"{p.name}:{line}" for p in package
             for line in json_reads(p.read_text(encoding="utf-8"))]
    assert len(sites) == 1 and sites[0].startswith("config.py:"), sites


def test_json_read_is_found():
    assert json_reads("import json\nx = json.loads(s)\ny = json.dumps(x)\n"
                      "z = json.load(f)\n") == [2, 4]


_PRODUCTS = {"np.dot", "np.matmul", "np.einsum", "np.inner"}
_TRANSCENDENTALS = {"np.log", "np.exp", "np.cos", "np.sin"}


def scoped_nodes(source: str):
    """(scope, node) for each node of a module, parents first; scope names
    the node's enclosing classes and functions, dotted ("" at module level)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from visit(child, inner)

    return visit(ast.parse(source), "")


def float_kernels(source: str) -> list[str]:
    """'scope: what' for each float operation in a module whose kernel the
    CPU selects at run time: a matrix product (@), an np.linalg call, a
    BLAS-backed product (_PRODUCTS or a .dot method) or a SIMD-dispatched
    transcendental (_TRANSCENDENTALS)."""
    found = []
    for scope, node in scoped_nodes(source):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{scope}: @")
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if (name.startswith("np.linalg.") or name.endswith(".dot")
                    or name in _PRODUCTS | _TRANSCENDENTALS):
                found.append(f"{scope}: {name}")
    return found


def test_no_cpu_selected_float_kernel():
    """Label bytes do not depend on the CPU: no matrix product or np.linalg
    call is left, and only synth's per-point angles use numpy's
    transcendentals."""
    package = sorted(Path(sembox.__file__).parent.glob("*.py"))
    sites = [f"{p.name}:{site}" for p in package
             for site in float_kernels(p.read_text(encoding="utf-8"))
             if not (p.name == "synth.py" and site.split(": ")[1] in _TRANSCENDENTALS)]
    assert sites == []


def test_float_kernels_are_found():
    source = ("import numpy as np\n"
              "class A:\n"
              "    def f(self, a, b, c):\n"
              "        a @= b\n"
              "        return a @ b + np.linalg.eigh(c)[0] + a.dot(b)\n"
              "def g(x):\n"
              "    return np.log(x) + np.einsum('i,i', x, x) + np.log10(x)\n")
    assert float_kernels(source) == [
        "A.f: @", "A.f: @", "A.f: np.linalg.eigh", "A.f: a.dot", "g: np.log",
        "g: np.einsum"]


def ordering_keys(source: str) -> list[str]:
    """The key= argument, as source, of each call in a module that passes
    one (sorted, list.sort, min, max)."""
    return [ast.unparse(kw.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "key"]


def test_one_box_order():
    """NMS, STCF's pick and refine's labels files order boxes by
    scoring.label_order and by no other key; generate's labels keep the
    order NMS returns."""
    package = Path(sembox.__file__).parent
    sites = {name: ordering_keys((package / name).read_text(encoding="utf-8"))
             for name in ("scoring.py", "pipeline.py", "refine.py")}
    assert {name: len(keys) for name, keys in sites.items()} == {
        "scoring.py": 1, "pipeline.py": 0, "refine.py": 2}, sites
    assert all(k.startswith("lambda") and "label_order(" in k
               for keys in sites.values() for k in keys), sites


def test_ordering_keys_are_found():
    source = ("a = sorted(x, key=lambda i: (-s[i], i))\n"
              "b.sort(key=f)\nc = min(g, key=len)\nd = sorted(x)\n")
    assert ordering_keys(source) == ["lambda i: (-s[i], i)", "f", "len"]


_UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}


def bare_uniques(source: str) -> list[int]:
    """Line numbers of the np.unique calls in a module that pass no
    return flag (return_index, return_inverse or return_counts) other than
    a literal False."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.unique"
            and not _UNIQUE_FLAGS & {kw.arg for kw in node.keywords
                                     if not (isinstance(kw.value, ast.Constant)
                                             and kw.value.value is False)}]


def test_no_bare_unique():
    """numpy 2 imports numpy.ma, ~15 ms, on the first np.unique call that
    asks for no return flag; every call in the package asks for one, so
    no command pays that import."""
    package = sorted(Path(sembox.__file__).parent.glob("*.py"))
    sites = [f"{p.name}:{line}" for p in package
             for line in bare_uniques(p.read_text(encoding="utf-8"))]
    assert sites == []


def test_bare_unique_is_found():
    source = ("import numpy as np\n"
              "a = np.unique(x)\n"
              "b, c = np.unique(x, return_counts=True)\n"
              "d = np.unique(x, axis=0)\n"
              "e = np.unique(x, return_inverse=False)\n")
    assert bare_uniques(source) == [2, 4, 5]


def name_scopes(source: str, name: str) -> list[str]:
    """The scope of each place a module names name: an import, a read or
    an attribute."""
    return [scope for scope, node in scoped_nodes(source)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(a.name.split(".")[-1] == name for a in node.names))]


def test_one_process_pool():
    """Every command that starts workers goes through pipeline.map_frames:
    no other function of the package names ProcessPoolExecutor."""
    package = sorted(Path(sembox.__file__).parent.glob("*.py"))
    sites = {p.name: name_scopes(p.read_text(encoding="utf-8"), "ProcessPoolExecutor")
             for p in package}
    assert {name: scopes for name, scopes in sites.items() if scopes} == {
        "pipeline.py": ["", "map_frames"]}


def test_process_pool_is_found():
    source = ("import concurrent.futures\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "class A:\n"
              "    def f(self):\n"
              "        return concurrent.futures.ProcessPoolExecutor(2)\n"
              "def g(pool=ProcessPoolExecutor):\n"
              "    return ProcessPoolExecutor\n")
    assert name_scopes(source, "ProcessPoolExecutor") == ["", "A.f", "g", "g"]

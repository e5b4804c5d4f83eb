"""Every name the package exports and every function the benchmark tracer
wraps must resolve. The tier-1 suite never installs the tracer, so without
this check a renamed function would break only the traced benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import latdiag

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    # Loaded from its file, under its own name, so sys.path stays untouched.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    tree = ast.parse((ROOT / "src" / "latdiag" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"latdiag.{node.module}")
        for alias in node.names:
            assert getattr(latdiag, alias.asname or alias.name) is getattr(module, alias.name)


def test_tracer_paths_resolve():
    tracer = _load_tracer()
    paths = [path for path, _, _ in tracer.SPANS] + [path for path, _ in tracer.COUNTS]
    assert paths
    for path in paths:
        importlib.import_module(f"latdiag.{path.partition(':')[0]}")
        assert callable(tracer._resolve(path)), path


def test_no_private_names_cross_modules():
    # A module may use its own underscored helpers; importing another
    # module's makes that helper part of an interface nobody declared.
    paths = sorted((ROOT / "src" / "latdiag").glob("*.py"))
    assert paths
    crossings = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                crossings += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert crossings == []


def test_fractions_and_id_stay_out_of_the_core():
    # Coefficients are integer numerators over one denominator: only
    # polynomials.py makes Fractions (the terms view, the constructor and the
    # text form), and no module keys objects by id().
    paths = sorted((ROOT / "src" / "latdiag").glob("*.py"))
    assert paths
    offences = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            if "fractions" in modules and path.name != "polynomials.py":
                offences.append(f"{path.name}:{node.lineno} imports fractions")
            if isinstance(node, ast.Name) and node.id == "id":
                offences.append(f"{path.name}:{node.lineno} uses id")
    assert offences == []

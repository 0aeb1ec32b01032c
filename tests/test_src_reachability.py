"""No test-only code in ``src/``: every public definition has a caller.

Walks ``src/repro`` with :mod:`ast` and collects each module's public
top-level definitions (functions, classes, assigned names).  A
definition passes when some ``src/`` module other than a package
``__init__`` re-export, an example or a ``perfbench/`` file refers to
it by name.  Reference implementations that only tests compare
production output against belong in ``tests/reference.py``; test doubles
in ``tests/faults.py``.

The few public names that are kept without such a caller are listed in
:data:`ALLOWED`, each with its reason (DESIGN §7 lists them too).

The same walk finds module-level imports that their module never reads
(a package ``__init__`` re-exports, ``from __future__`` switches
behaviour, and a ``# noqa`` import is kept for its side effect).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``"<module path under src/repro>::<name>"`` -> why it stays.
ALLOWED = {
    "core/allocator.py::get_allocator":
        "public API: repro.get_allocator, the scheme facade (DESIGN §16)",
    "core/dual.py::fast_solve":
        "public API: repro.fast_solve, the Table II solve (DESIGN §10)",
    "core/heuristics.py::mbs_condition":
        "public: Heuristic 1's MBS channel condition (§V), the rule "
        "local_mbs_choice applies",
    "core/heuristics.py::fbs_condition":
        "public: Heuristic 1's FBS channel condition (§V), the rule "
        "local_mbs_choice applies",
    "core/problem.py::fbs_groups":
        "public: the per-FBS grouping StaticColumns.groups holds (DESIGN §10)",
    "experiments/results_io.py::read_provenance":
        "public reader of the provenance header --output writes",
    "obs/export.py::read_manifest":
        "public reader of the manifest --trace writes (DESIGN §12)",
    "obs/trace.py::read_trace":
        "public reader of the span trace --trace writes (DESIGN §12)",
    "obs/logging.py::reset_logging":
        "public repro.obs API: undoes obs.configure's log handler",
    "net/topology.py::link_success_probability":
        "public: eq. (8) success probability of one link from its budget "
        "(DESIGN S4)",
    "phy/rates.py::slot_rate_mbps":
        "public repro.phy API: the Section IV-A slot rate (DESIGN S4)",
    "phy/sinr.py::success_probability":
        "public repro.phy API: eq. (8)'s 1 - F_X(H) (DESIGN S4)",
    "sensing/assignment.py::assign_sensors_round_robin":
        "public repro.sensing API: the sensor-to-channel rule of DESIGN S2",
    "testing/faults.py::FaultPlan":
        "read by the engine through ScenarioConfig.fault_plan (DESIGN §8)",
    "video/packets.py::packetize_gop":
        "public repro.video API: the NAL packetiser of DESIGN S5",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(tree, *, reexports_count):
    """Identifiers a module reads: loaded names, attributes and, unless
    it is a package ``__init__``, the names it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and reexports_count:
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_definitions():
    """``module::name`` of every public definition nothing refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    referenced = set()
    for path, tree in trees.items():
        referenced |= _references(tree,
                                  reexports_count=path.name != "__init__.py")
    for directory in ("examples", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            referenced |= _references(
                ast.parse(path.read_text(encoding="utf-8")),
                reexports_count=True)
    return {f"{path.relative_to(SRC).as_posix()}::{name}"
            for path, tree in trees.items()
            for name in _public_definitions(tree) if name not in referenced}


@pytest.fixture(scope="module")
def unreferenced():
    return unreferenced_definitions()


def test_every_public_definition_has_a_caller(unreferenced):
    missing = sorted(unreferenced - set(ALLOWED))
    assert not missing, (
        "public definitions in src/ that no src/ module, example or "
        "perfbench/ file uses (move an oracle to tests/reference.py, "
        "delete dead code, or add it to ALLOWED with a reason): "
        f"{missing}")


def test_allowlist_is_current(unreferenced):
    stale = sorted(set(ALLOWED) - unreferenced)
    assert not stale, f"ALLOWED entries that now have a caller or are gone: {stale}"


def unused_imports():
    """``module:line: name`` of every module-level import never read."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = source.splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if any("# noqa" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            # ``import a.b`` binds ``a``; ``as`` binds the alias.
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in node.names]
            unused.extend(
                f"{path.relative_to(SRC).as_posix()}:{node.lineno}: {name}"
                for name in bound if name not in read)
    return unused


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, (
        f"imports in src/ that their module never reads: {unused}")

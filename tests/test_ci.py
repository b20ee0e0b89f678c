"""The CI workflow covers every benchmark workload, installs the test
tools at the versions ``pyproject.toml`` pins and grants its token read
access only, and the console script names a callable the package
defines.  Every name the package imports is read, and so is every
function and method it defines and every dataclass field, and report
checks are built in one function.

Read with regular expressions and ``ast``: CI installs only pytest and
Hypothesis, so no YAML parser is at hand, and Python 3.10 has no
``tomllib``.
"""

import ast
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_loops_list_every_benchmark_workload():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    loops = re.findall(r"^\s*for w in ([^;\n]*); do\s*$", workflow, re.MULTILINE)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(workload["name"] for workload in benchmark["workloads"])
    # the untraced and the traced smoke step
    assert len(loops) == 2
    for loop in loops:
        assert sorted(loop.split()) == names


def test_workflow_installs_the_pinned_test_extra():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    installed = re.findall(r"^\s*run: python -m pip install (.*)$", workflow, re.MULTILINE)
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.MULTILINE)
    assert len(installed) == 1 and extra is not None
    pins = sorted(installed[0].split())
    assert pins == sorted(re.findall(r'"([^"]+)"', extra[1]))
    assert all(re.fullmatch(r"[a-z]+==[0-9.]+", pin) for pin in pins)


def test_workflow_token_grants_read_only():
    """The only permission lines are the top-level ``permissions`` block
    and its ``contents: read``: no job grants another scope."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    grants = re.findall(
        r"^([ \t]*)(permissions:.*|[a-z-]+: (?:read|write|none))[ \t]*$",
        workflow, re.MULTILINE,
    )
    assert grants == [("", "permissions:"), ("  ", "contents: read")]


def test_lowest_workflow_python_is_the_requires_python_floor():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pyproject = (ROOT / "pyproject.toml").read_text()
    matrix = re.findall(r"^\s*python-version: \[(.*)\]$", workflow, re.MULTILINE)
    floor = re.findall(r'^requires-python = ">=([0-9.]+)"$', pyproject, re.MULTILINE)
    assert len(matrix) == 1 and len(floor) == 1
    versions = re.findall(r'"([0-9.]+)"', matrix[0])
    lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
    assert lowest == floor[0]


def test_console_script_names_an_importable_callable():
    """The workflow runs the CLI as ``python -m curveinv.cli`` and never
    installs the package, so only this reads the ``[project.scripts]``
    entry."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", pyproject, re.MULTILINE)
    entries = re.findall(r'^([\w-]+) = "([\w.]+):([\w.]+)"$', section[1], re.MULTILINE)
    assert [name for name, *_ in entries] == ["curveinv"]
    for _, module, qualname in entries:
        target = importlib.import_module(module)
        for attr in qualname.split("."):
            target = getattr(target, attr)
        assert callable(target)


def _names_read(tree):
    """Names a module reads: in code, in annotations (quoted ones parsed
    too) and in ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(annotation) if annotation else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    read |= _names_read(ast.parse(sub.value, mode="eval"))
    return read


def test_src_imports_are_used():
    unused = []
    for path in sorted((ROOT / "src" / "curveinv").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


# The one tracer target no engine code calls: the dense Gauss-Jordan
# function, kept for the harness's rref layer (see its docstring).
TRACER_ONLY = {("linalg", "rref")}


def _tracer_targets():
    """(module, qualified name) of each ``TARGETS`` entry of the benchmark
    tracer, read from its source with ``ast``."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_tracer_target_is_engine_code():
    """Each name the tracer wraps is a def in the package, and each one
    but ``TRACER_ONLY`` is called or referenced from package code outside
    its own def: no engine function exists only to be traced.  Dunder
    methods count as used."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in (ROOT / "src" / "curveinv").glob("*.py")
    }
    missing, unused = [], []
    for module, qualname in _tracer_targets():
        *owner, name = qualname.split(".")
        scope = trees[module].body
        if owner:
            scope = next((n.body for n in scope
                          if isinstance(n, ast.ClassDef) and n.name == owner[0]), [])
        defined = next((n for n in scope
                        if isinstance(n, ast.FunctionDef) and n.name == name), None)
        if defined is None:
            missing.append(f"{module}.{qualname}")
            continue
        if (module, qualname) in TRACER_ONLY or name.startswith("__"):
            continue
        own = set(map(id, ast.walk(defined)))
        used = any(
            id(node) not in own and name in (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None) if isinstance(node, ast.alias) else None,
            )
            for tree in trees.values() for node in ast.walk(tree)
        )
        if not used:
            unused.append(f"{module}.{qualname}")
    assert (missing, unused) == ([], [])


# The one method only the tests read: the accessor of one cyclic page by
# m, through which they check the pages.
READ_OUTSIDE_THE_PACKAGE = {"HCPages.page"}


def test_every_src_def_has_a_reader():
    """Every module-level function of the package is named, and every
    method read as an attribute, in package code outside its own def:
    no def exists only for the tests.  Exempt are the names of
    ``curveinv.__all__``, the tracer's ``TRACER_ONLY`` targets,
    ``READ_OUTSIDE_THE_PACKAGE`` and dunder methods, which the language
    calls."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in (ROOT / "src" / "curveinv").glob("*.py")
    }
    exported = next(
        ast.literal_eval(node.value) for node in trees["__init__"].body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    )
    # the nodes that read each name: as a plain name, and as an attribute
    named, attributes = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
    defs = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((module, node.name, node, named, attributes))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (module, f"{node.name}.{method.name}", method, attributes)
                    for method in node.body if isinstance(method, ast.FunctionDef)
                ]
    unread = []
    for module, qualname, defined, *readers in defs:
        name = defined.name
        if (
            qualname in exported or (module, qualname) in TRACER_ONLY
            or qualname in READ_OUTSIDE_THE_PACKAGE or name.startswith("__")
        ):
            continue
        own = set(map(id, ast.walk(defined)))
        if all(id(node) in own for nodes in readers for node in nodes.get(name, ())):
            unread.append(qualname)
    assert unread == []


# Each dataclass field whose name another package class also has, as a
# field, a method or a ``self.`` attribute, with one package expression,
# as ``ast.unparse`` prints it, that reads that field of that class.
SHARED_FIELD_READS = {
    "CurveDocument.genus": "doc.genus",
    "CurveDocument.label": "doc.label",
    "CurveDocument.source": "doc.source",
    "CurveModel.genus": "c.genus",
    "CurveModel.label": "report.model.label",
    "GlobalInvariants.genus": "gi.genus",
    "LciPresentation.label": "pres.label",
    "LciPresentation.asserted": "pres.asserted",
    "PlaneSingularity.label": "sing.label",
    "PlaneSingularity.asserted": "sing.asserted",
    "TailMap.columns": "tail.columns",
    "DeltaR.provenance": "dr.provenance",
    "Dim.const": "total1.const",
    "Check.detail": "check.detail",
    "VerdictReport.detail": "report.verdict.detail",
    "VerdictReport.verdict": "verdict.verdict",
    "Report.invariants": "report.invariants",
    "Report.verdict": "report.verdict",
    "Report.e2": "report.e2",
    "PlaneRecord.sing": "record.sing",
    "PlaneRecord.invariants": "record.invariants",
    "PlaneRecord.delta_r": "record.delta_r",
    "LciRecord.delta_r": "record.delta_r",
    "SSPage.label": "page.label",
    "SSPage.verdict": "e1.verdict",
    "HCPages.e2": "hc.e2",
    "HCPages.label": "self.label",
    "HCPages.verdict": "hc.verdict",
}


def test_every_dataclass_field_is_read():
    """Every field of a package dataclass is read as an attribute in
    package code: no field exists only for the tests.  A read is matched
    by name, of any object, as in ``test_every_src_def_has_a_reader``, so
    a field whose name another package class has names its read in
    ``SHARED_FIELD_READS``."""
    trees = [
        ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "curveinv").glob("*.py"))
    ]
    reads = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    members = {}
    for cls in classes:
        names = members[cls.name] = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
                names.update(
                    node.attr for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) == "self"
                )
    fields = [
        (cls.name, stmt.target.id)
        for cls in classes
        if any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass"
            for d in cls.decorator_list
        )
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
    ]
    read = {node.attr for node in reads}
    assert [f"{c}.{f}" for c, f in fields if f not in read] == []
    shared = {
        f"{c}.{f}" for c, f in fields
        if any(f in names for other, names in members.items() if other != c)
    }
    assert set(SHARED_FIELD_READS) == shared
    expressions = {ast.unparse(node) for node in reads}
    misread = {
        key: expression for key, expression in SHARED_FIELD_READS.items()
        if expression not in expressions or not expression.endswith("." + key.split(".")[1])
    }
    assert misread == {}


def test_report_checks_are_built_in_one_function():
    """``Check(...)`` is called in one function of the package, the helper
    that turns an outcome into a status, so no check sets its own."""
    callers = []
    for path in sorted((ROOT / "src" / "curveinv").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # ast.walk is breadth first, so an inner def overwrites
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        callers += [
            (path.stem, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "Check" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert len(set(callers)) == 1 and callers[0][1] is not None, callers

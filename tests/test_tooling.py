"""The benchmark's tracer names functions of boolfn, so a rename must show
here; the package keeps no module-level caches; every export, every
module-level function or class and every method has a reader; and src/
keeps within its line budget."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
# The most lines src/boolfn/*.py may hold. A change that grows src/ raises
# it in the same diff and says why in CHANGES.md.
SRC_LINE_BUDGET = 2968


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"boolfn.{module_name}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{dotted}")
    assert not missing
    # the tracer hooks the chunk runner that the caller and the workers share
    assert callable(importlib.import_module("boolfn.verify")._run_chunk)


def _cache_names(statement: ast.stmt) -> set[str]:
    """What a module-level statement calls or decorates with, by name."""
    names = set()
    for node in ast.walk(statement):
        targets = [node.func] if isinstance(node, ast.Call) else getattr(node, "decorator_list", [])
        for target in targets:
            names.add(target.id if isinstance(target, ast.Name) else getattr(target, "attr", None))
    return names


def test_no_module_level_caches():
    # A cache at module level holds its results for the life of the process.
    # The DP's plan cache is the one kept: its plans are bounded by
    # chains.BLOCK_BITS, and rebuilding them per call was measured slower.
    # cached_property on a Chunk lives and dies with that chunk.
    cached = set()
    for path in sorted((ROOT / "src" / "boolfn").glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            if _cache_names(statement) & {"lru_cache", "cache"}:
                name = getattr(statement, "name", None) or ast.unparse(getattr(statement, "targets", [statement])[0])
                cached.add(f"{path.stem}.{name}")
    assert cached == {"chains._level_plan"}


def _assigned(path: Path, target: str):
    """The literal a module assigns to ``target`` at top level, or ()."""
    for statement in ast.parse(path.read_text()).body:
        if isinstance(statement, ast.Assign) and target in {getattr(t, "id", None) for t in statement.targets}:
            return ast.literal_eval(statement.value)
    return ()


def _unused_imports(path: Path) -> list[str]:
    """The names a module's top-level imports bind that it neither reads
    nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_assigned(path, "__all__"))
    unused = []
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)) and getattr(statement, "module", None) != "__future__":
            bound = (alias.asname or alias.name.split(".")[0] for alias in statement.names)
            unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    return unused


def test_no_unused_imports():
    # __init__ imports to re-export, so it is left out
    paths = sorted((ROOT / "src" / "boolfn").glob("*.py"))
    assert [name for path in paths if path.stem != "__init__" for name in _unused_imports(path)] == []


def _reads(tree: ast.AST) -> set[str]:
    """The names a module or statement reads, bare or as an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_every_export_has_a_caller():
    # An export, and every module-level function or class, is read in
    # src/boolfn outside its own definition (its re-export in __init__
    # aside), by the benchmark's one-pass script, or hooked by its tracer.
    paths = sorted((ROOT / "src" / "boolfn").glob("*.py"))
    bodies = {path: ast.parse(path.read_text()).body for path in paths if path.stem != "__init__"}
    reads = [(statement, _reads(statement)) for body in bodies.values() for statement in body]
    onepass = _reads(ast.parse((ROOT / "perfbench" / "onepass.py").read_text()))
    traced = {
        f"{module}.{dotted.split('.')[0]}" for module, names in _assigned(TRACING, "TRACED").items() for dotted in names
    }
    uncalled = []
    for path in paths:
        defined = {
            statement.name: statement
            for statement in bodies.get(path, ())
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        }
        for name in sorted(set(_assigned(path, "__all__")) | defined.keys()):
            own = defined.get(name)
            read = name in onepass or any(name in names for statement, names in reads if statement is not own)
            if not read and f"{path.stem}.{name}" not in traced:
                uncalled.append(f"{path.stem}.{name}")
    assert uncalled == []


def _attribute_reads(tree: ast.AST) -> Counter:
    """How many times a module or statement reads each attribute name."""
    attributes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return Counter(node.attr for node in attributes if isinstance(node.ctx, ast.Load))


def test_every_method_has_a_reader():
    # A non-dunder method (or property) of a module-level class is read by
    # attribute name in src/boolfn outside its own body, by the benchmark's
    # one-pass script, hooked by its tracer, or shown in README.md. The guard
    # goes by name alone, so it cannot see a method whose name is also read
    # as another object's attribute: a MultilinearPoly.items would look read
    # through every dict.items() in src/. Such a method is checked by hand.
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "boolfn").glob("*.py"))]
    reads = sum(map(_attribute_reads, trees), Counter())
    outside = _reads(ast.parse((ROOT / "perfbench" / "onepass.py").read_text()))
    outside |= {dotted.split(".")[-1] for names in _assigned(TRACING, "TRACED").values() for dotted in names}
    outside |= set(re.findall(r"\w\.(\w+)", (ROOT / "README.md").read_text()))
    unread = []
    for tree in trees:
        for cls in (statement for statement in tree.body if isinstance(statement, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("__"):
                    continue
                if method.name not in outside and reads[method.name] == _attribute_reads(method)[method.name]:
                    unread.append(f"{cls.name}.{method.name}")
    assert unread == []


# A floor division of one of these names turns a cell budget into a block width.
_BUDGETS = {"CHUNK_CELLS", "DT_BLOCK_CELLS", "budget"}


class _Owners(ast.NodeVisitor):
    """Where a module converts hex (``.hex(...)``, ``.fromhex(...)``),
    splits off a ``#`` comment of a corpus line, shifts ``CHUNK_CELLS``
    right, reads ``stack_size`` and floor-divides an expression that names
    a budget (``_BUDGETS``), by the dotted name of the enclosing function
    or class."""

    def __init__(self, module: str) -> None:
        self.scope, self.hex, self.comments, self.shifts, self.widths = [module], set(), set(), set(), set()
        self.stack_sizes = set()

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        if getattr(node.func, "attr", None) in ("hex", "fromhex"):
            self.hex.add(".".join(self.scope))
        if any(isinstance(arg, ast.Constant) and arg.value == "#" for arg in node.args):
            self.comments.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "stack_size":
            self.stack_sizes.add(".".join(self.scope))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "stack_size":
            self.stack_sizes.add(".".join(self.scope))
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        shifted = getattr(node.left, "id", None) or getattr(node.left, "attr", None)
        if isinstance(node.op, ast.RShift) and shifted == "CHUNK_CELLS":
            self.shifts.add(".".join(self.scope))
        named = {getattr(name, "id", None) or getattr(name, "attr", None) for name in ast.walk(node.left)}
        if isinstance(node.op, ast.FloorDiv) and named & _BUDGETS:
            self.widths.add(".".join(self.scope))
        self.generic_visit(node)


def test_one_owner_for_the_text_format_and_the_stack_size():
    # core alone writes and reads the n:HEX text and the lines of a corpus,
    # measures.stack_size alone decides how many tables share a stack, and
    # only verify's population stacks read it, so a corpus is stacked as a
    # sweep's members are; core.blocks alone decides how many items of a
    # kernel's work fit its budget of cells
    hex_users, comments, shifts, stack_sizes, widths = set(), set(), set(), set(), set()
    for path in sorted((ROOT / "src" / "boolfn").glob("*.py")):
        owners = _Owners(path.stem)
        owners.visit(ast.parse(path.read_text()))
        hex_users |= {name.split(".")[0] for name in owners.hex}
        comments |= {name.split(".")[0] for name in owners.comments}
        shifts |= owners.shifts
        stack_sizes |= {name.split(".")[0] for name in owners.stack_sizes}
        widths |= owners.widths
    assert hex_users == {"core"}
    assert comments == {"core"}
    assert shifts == {"measures.stack_size"}
    assert stack_sizes == {"verify"}
    assert widths == {"core.blocks"}


def test_src_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in (ROOT / "src" / "boolfn").glob("*.py"))
    assert lines <= SRC_LINE_BUDGET

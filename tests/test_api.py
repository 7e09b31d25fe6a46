"""Guards on the shape of the library's API."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "tools", "perfbench")


def _defaulted_parameters():
    """(module, function, parameter, positional index or None) for every
    parameter with a default of every function in src/nonembed; the index
    counts from the first argument a call passes (after self or cls)."""
    out = []
    for path in sorted((ROOT / "src" / "nonembed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # dunder methods are called by the language, not by name
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            a = node.args
            pos = a.posonlyargs + a.args
            skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
            for i, arg in enumerate(pos[len(pos) - len(a.defaults):],
                                    len(pos) - len(a.defaults)):
                out.append((path.stem, node.name, arg.arg, i - skip))
            out += [(path.stem, node.name, arg.arg, None)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
    return out


def _caller_nodes(dirs=CALLER_DIRS):
    """Every AST node of every Python file under dirs."""
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text()))


def _calls_by_name(dirs=CALLER_DIRS):
    calls = {}
    for node in _caller_nodes(dirs):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) \
            else getattr(f, "id", None)
        calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, param: str, index) -> bool:
    """Whether the call may pass param: by keyword, by position, or
    through a starred argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_no_parameter_is_default_only():
    # a default that no call overrides is a constant in disguise
    calls = _calls_by_name()
    default_only = [
        f"{mod}.{fn}({param})"
        for mod, fn, param, index in _defaulted_parameters()
        if not any(_sets(c, param, index) for c in calls.get(fn, []))]
    assert default_only == []


def test_no_default_is_overridden_by_every_package_call():
    # a default that every call in the package overrides is a second
    # source for a value the commands set elsewhere
    calls = _calls_by_name(("src/nonembed",))
    overridden = [
        f"{mod}.{fn}({param})"
        for mod, fn, param, index in _defaulted_parameters()
        if all(_sets(c, param, index) for c in calls.get(fn, []))]
    assert not overridden, ("no call in src/nonembed leaves out "
                            + ", ".join(overridden))


def _stored_fields():
    """(class, name) of every annotated field in a class body and of every
    attribute a method stores as self.name, in src/nonembed."""
    out = set()
    for path in sorted((ROOT / "src" / "nonembed").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            out.update((cls.name, node.target.id) for node in cls.body
                       if isinstance(node, ast.AnnAssign)
                       and isinstance(node.target, ast.Name))
            out.update((cls.name, node.attr) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "self")
    return out


def test_no_field_is_write_only():
    # a field that no code reads is state kept for nobody
    loaded = {node.attr for node in _caller_nodes()
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    write_only = sorted(f"{cls}.{name}" for cls, name in _stored_fields()
                        if name not in loaded)
    assert write_only == []


def test_no_public_name_is_reached_only_by_tests():
    # library code that only tests, tools or the benchmark load is kept
    # for nobody; count only the loads in src/nonembed itself
    trees = [ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "nonembed").glob("*.py"))]
    loaded = set()
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    defined = {node.name for t in trees for node in ast.walk(t)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    assert defined - loaded == set()


def test_no_module_imports_another_modules_private_name():
    # an underscore name belongs to its module; tests may still reach it
    found = []
    for path in sorted((ROOT / "src" / "nonembed").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").startswith("nonembed"):
                found += [f"{path.stem}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
                if node.module == "nonembed":
                    modules.update(a.asname or a.name for a in node.names)
        found += [f"{path.stem}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr.startswith("_")]
    assert found == []

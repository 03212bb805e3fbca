"""The package's public surface, and the rule that every name in it is used."""

import ast
from pathlib import Path

import pyrseg

ROOT = Path(__file__).resolve().parents[1]

# Definitions that nothing in src/ or perfbench/ names, each kept for one reason.
ALLOWED_UNREACHED = {
    "ablate.run_variant_grid": "A3's entry point (tests/test_acceptance.py)",
    "ablate.run_alpha_sweep": "A5's entry point (tests/test_acceptance.py)",
}

# Dataclasses whose every field must be set by some caller.
CONFIG_CLASSES = ("BackboneConfig", "ModelConfig", "PyramidConfig", "AugmentConfig",
                  "OptimConfig", "SynthConfig")


def test_every_exported_name_resolves():
    missing = [name for name in pyrseg.__all__ if not hasattr(pyrseg, name)]
    assert missing == []


def _definitions(tree, module):
    """(qualified name, name, first line, last line) of every non-dunder def
    or class, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((qual, child.name, child.lineno, child.end_lineno))
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _uses(tree):
    """(name, line) of every Name, Attribute, import alias and identifier-like
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in node.name.split(".") + ([node.asname] if node.asname else []):
                yield name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _trees():
    files = [*sorted((ROOT / "src" / "pyrseg").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return {path: ast.parse(path.read_text(), str(path)) for path in files}


def test_every_definition_in_src_is_named_outside_itself():
    # A def or class in src/ must be named by src/ or perfbench/ somewhere
    # other than its own body, or be exported; tests alone do not keep it.
    trees = _trees()
    uses = {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    unreached = set()
    for path, tree in trees.items():
        if path.parent.name != "pyrseg":
            continue
        for qual, name, first, last in _definitions(tree, path.stem):
            outside = [u for u in uses.get(name, [])
                       if u[0] != path or not first <= u[1] <= last]
            if not outside and name not in pyrseg.__all__:
                unreached.add(qual)
    assert sorted(unreached) == sorted(ALLOWED_UNREACHED)


def test_every_config_field_is_set_outside_its_class():
    # A config field that no caller in src/ or perfbench/ passes by keyword
    # has one value everywhere: it belongs in a constant, not in the config.
    trees = _trees()
    keywords = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                keywords.setdefault(node.arg, []).append((path, node.lineno))
    found, unset = set(), set()
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name in CONFIG_CLASSES):
                continue
            found.add(cls.name)
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                name = stmt.target.id
                outside = [k for k in keywords.get(name, [])
                           if k[0] != path or not cls.lineno <= k[1] <= cls.end_lineno]
                if not outside:
                    unset.add(f"{cls.name}.{name}")
    assert found == set(CONFIG_CLASSES)
    assert sorted(unset) == []


def _defaulted_parameters(tree, module):
    """(qualified name, called name, positional parameters, defaulted
    parameters) of every def, nested ones included. A method's positional
    parameters leave out self; __init__ is called by its class name."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                if in_class:
                    positional = positional[1:]
                name = prefix.rsplit(".", 1)[-1] if child.name == "__init__" else child.name
                out.append((qual, name, positional, defaulted))
                visit(child, qual, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, module, False)
    return out


def test_every_defaulted_parameter_is_set_by_a_caller():
    # A parameter with a default that no call in src/ or perfbench/ sets has
    # one value everywhere: it belongs in the body, not in the signature. A
    # call sets a parameter by keyword, by position, or by forwarding *args
    # or **kwargs; a recursive call counts.
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = set()
    for path, tree in trees.items():
        if path.parent.name != "pyrseg":
            continue
        for qual, name, positional, defaulted in _defaulted_parameters(tree, path.stem):
            if qual in ALLOWED_UNREACHED:
                continue
            set_here = set()
            for call in calls.get(name, []):
                if any(isinstance(a, ast.Starred) for a in call.args) or \
                        any(k.arg is None for k in call.keywords):
                    set_here.update(defaulted)
                set_here.update(positional[:len(call.args)])
                set_here.update(k.arg for k in call.keywords)
            unset.update(f"{qual}({p})" for p in defaulted if p not in set_here)
    assert sorted(unset) == []

"""Every defaulted parameter of a public ``src/`` function, and every
defaulted field of a public ``src/`` dataclass, is set by some call in
``src/`` or ``perfbench/``, and unless it is ``None`` it is also left in
place by one.

A default that no program call overrides is a setting only tests reach;
it should be a constant. A default that every program call overrides is
a value only tests get; the parameter should be required. A ``None``
default marks an optional input and needs no call that leaves it.

Public means a module-level function, class or method not named with a
leading underscore. A call resolves its callee through the calling
module's own definitions and imports, so it matches only the function or
class it names there; a method called on an object the module cannot
name matches every method of that name. A call passes a parameter by
keyword or by position, or passes all of them through ``*args`` or
``**kwargs``; a call through ``*args`` or ``**kwargs`` also counts as
leaving each of them in place. perfbench's ``tr.call(label, fn, *args,
**kwargs)`` counts as a call of ``fn``.

A dataclass field counts as set by a call of its class, by a ``cls(...)``
call inside the class, or by a ``dataclasses.replace`` call anywhere that
passes it by keyword. It counts as left in place by a call of its class
or a ``cls(...)`` call that does not pass it. A ``ClassVar`` is not a
field.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").rglob("*.py"))
# the ``deflect-gaze`` console script calls ``main()`` with no arguments,
# and only tests pass ``argv``
EXEMPT = {("main", "argv")}


def modules(paths):
    """{module name: source} of files under ``src/`` (dotted package
    names) or ``perfbench/`` (imported there as top-level modules)."""
    found = {}
    for path in paths:
        src = path.is_relative_to(ROOT / "src")
        rel = path.relative_to(ROOT / "src" if src else path.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts[-1:] = []
        found[".".join(parts)] = path.read_text()
    return found


def bindings(module, tree):
    """Dotted path of each top-level definition and each imported name of a
    module, imports inside functions included. A relative import counts
    from the module's parent, as in a module that is not a package's
    ``__init__``; only a top-level package's ``__init__`` may use one."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = f"{module}.{node.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = a.name
                else:
                    top = a.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.rsplit(".", node.level)[0]
                base = f"{package}.{base}" if base else package
            for a in node.names:
                names[a.asname or a.name] = f"{base}.{a.name}"
    return names


def dotted(node, names):
    """Dotted path that ``node`` names in a module with ``names``, or
    None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = dotted(node.value, names)
        return f"{base}.{node.attr}" if base else None
    return None


def defaulted_params(module, source):
    """(dotted path, function name, its positional parameter names,
    defaulted name, default expression) of every defaulted parameter of a
    public function or method; a method's positional names leave out its
    ``self`` or ``cls``."""
    found = []

    def visit(body, prefix, in_class):
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if isinstance(node, ast.ClassDef) and public:
                visit(node.body, f"{prefix}.{node.name}", True)
            elif isinstance(node, ast.FunctionDef) and public:
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if in_class and not static:
                    names = names[1:]
                path = f"{prefix}.{node.name}"
                found.extend((path, node.name, names, n, d) for n, d in
                             zip(names[len(names) - len(a.defaults):],
                                 a.defaults))
                found.extend((path, node.name, names, k.arg, d)
                             for k, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)

    visit(ast.parse(source).body, module, False)
    return found


def calls(module, source):
    """(callee, positional args, keywords) of every call in ``source``,
    with ``tr.call(label, fn, ...)`` read as a call of ``fn``. The callee
    is the dotted path the module's definitions and imports give it, or
    ``.name`` for a method called on an object they do not name."""
    tree = ast.parse(source)
    names = bindings(module, tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if (isinstance(func, ast.Attribute) and func.attr == "call"
                and len(args) >= 2):
            func, args = args[1], args[2:]
        path = dotted(func, names)
        if path is None and isinstance(func, ast.Attribute):
            path = f".{func.attr}"
        if path is not None:
            yield path, args, node.keywords


def passes(args, keywords, names, param):
    if any(isinstance(a, ast.Starred) for a in args):
        return True
    if any(k.arg is None or k.arg == param for k in keywords):
        return True
    return param in names[:len(args)]


def leaves(args, keywords, names, param):
    """Whether a call leaves ``param`` at its default; one through
    ``*args`` or ``**kwargs`` may."""
    if any(isinstance(a, ast.Starred) for a in args) or any(
            k.arg is None for k in keywords):
        return True
    return not passes(args, keywords, names, param)


def is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def call_sites(calling):
    """{callee: [(positional args, keywords)]} of every call in the
    modules of ``calling``."""
    by_callee = {}
    for module, source in calling.items():
        for callee, args, keywords in calls(module, source):
            by_callee.setdefault(callee, []).append((args, keywords))
    return by_callee


def param_sites(defining, calling):
    """(function, its positional names, parameter, default, its call
    sites) of each defaulted public parameter of ``defining``'s modules,
    called from ``calling``'s; both map module names to sources."""
    by_callee = call_sites(calling)
    for module, source in defining.items():
        for path, fn, names, param, default in defaulted_params(module,
                                                                source):
            is_method = path.count(".") > module.count(".") + 1
            sites = by_callee.get(path, []) + (
                by_callee.get(f".{fn}", []) if is_method else [])
            yield fn, names, param, default, sites


def never_passed(defining, calling):
    """(function, parameter) of each defaulted public parameter that no
    call passes; ``defining`` and ``calling`` map module names to
    sources."""
    return sorted({(fn, param) for fn, names, param, _, sites
                   in param_sites(defining, calling)
                   if (fn, param) not in EXEMPT and not any(
                       passes(args, keywords, names, param)
                       for args, keywords in sites)})


def always_passed(defining, calling):
    """(function, parameter) of each public parameter with a non-``None``
    default that every call passes."""
    return sorted({(fn, param) for fn, names, param, default, sites
                   in param_sites(defining, calling)
                   if not is_none(default) and not any(
                       leaves(args, keywords, names, param)
                       for args, keywords in sites)})


def last_name(node):
    """Last part of the name ``node`` spells, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node):
    return any(last_name(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def dataclass_fields(module, source):
    """(dotted path, field names in order, {defaulted name: default or
    factory expression}, the ``cls(...)`` calls of its methods) of every
    public top-level dataclass."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                and not node.name.startswith("_")):
            continue
        names, defaulted = [], {}
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            ann = stmt.annotation
            if last_name(getattr(ann, "value", ann)) == "ClassVar":
                continue
            names.append(stmt.target.id)
            value = stmt.value
            # ``field(...)`` gives a default only through these keywords
            if isinstance(value, ast.Call) and last_name(value.func) == "field":
                value = next((k.value for k in value.keywords
                              if k.arg in ("default", "default_factory")),
                             None)
            if value is not None:
                defaulted[stmt.target.id] = value
        own = [(n.args, n.keywords) for n in ast.walk(node)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "cls"]
        found.append((f"{module}.{node.name}", names, defaulted, own))
    return found


def never_set(defining, calling):
    """(class, field) of each defaulted field of a public dataclass that no
    call sets; ``defining`` and ``calling`` map module names to sources."""
    by_callee = call_sites(calling)
    replaced = [kw for args, kws in by_callee.get("dataclasses.replace", [])
                for kw in kws]
    found = set()
    for module, source in defining.items():
        for path, names, defaulted, own in dataclass_fields(module, source):
            sites = by_callee.get(path, []) + own
            for name in defaulted:
                if not (any(passes(args, keywords, names, name)
                            for args, keywords in sites)
                        or any(k.arg in (None, name) for k in replaced)):
                    found.add((path.rsplit(".", 1)[1], name))
    return sorted(found)


def always_set(defining, calling):
    """(class, field) of each field of a public dataclass with a
    non-``None`` default that every call of the class sets."""
    by_callee = call_sites(calling)
    found = set()
    for module, source in defining.items():
        for path, names, defaulted, own in dataclass_fields(module, source):
            sites = by_callee.get(path, []) + own
            for name, default in defaulted.items():
                if not is_none(default) and not any(
                        leaves(args, keywords, names, name)
                        for args, keywords in sites):
                    found.add((path.rsplit(".", 1)[1], name))
    return sorted(found)


def test_every_default_is_passed_by_the_program():
    assert never_passed(modules(SRC), modules(CALLERS)) == []


def test_checker_finds_unpassed_defaults():
    defining = {"pkg.mod": '''
def f(a, b=1, *, c=2, d=3):
    pass

def g(x=0):
    pass

def h(y=0):
    pass

def u(z=0):
    pass

def k(*, w=0):
    pass

def _private(y=0):
    pass

class K:
    def m(self, a, b=1):
        pass

    @classmethod
    def build(cls, path, n=0):
        pass
'''}
    calling = {"pkg.user": '''
from .mod import K, f
from pkg import mod as m

f(0, 5, c=1)
tr.call("label", m.g, 1)
K().m(1)
K.build(p, **opts)
''', "probe": '''
def h(y=0):
    pass

def main():
    from pkg.mod import f
    f(0, d=4)
    h(y=1)
    other.u(z=2)
'''}
    # ``probe``'s own ``h``, and a method ``u`` of an object it cannot name,
    # pass nothing to ``pkg.mod``'s functions of those names; no call passes
    # the keyword-only ``w``
    assert never_passed(defining, calling) == [("h", "y"), ("k", "w"),
                                               ("m", "b"), ("u", "z")]


def test_every_field_default_is_set_by_the_program():
    assert never_set(modules(SRC), modules(CALLERS)) == []


def test_checker_finds_unset_fields():
    defining = {"pkg.mod": '''
from dataclasses import dataclass, field
from typing import ClassVar

@dataclass(frozen=True)
class A:
    a: int
    b: int = 0
    c: int = 1
    d: list = field(default_factory=list)
    e: int = 2
    f: int = 3
    g: ClassVar[int] = 4
    h: tuple = field(default=(), compare=False)
    i: int = field(compare=False)
    j: int = 6

    @classmethod
    def build(cls):
        return cls(0, e=1)

@dataclass
class _Private:
    x: int = 0

class Plain:
    y: int = 0
'''}
    calling = {"pkg.user": '''
import dataclasses
from pkg.mod import A

A(0, 1, 2)
dataclasses.replace(A(0), f=7)
'''}
    # positional sets b and c, ``cls(...)`` sets e and ``replace`` sets f;
    # ClassVar g, the undefaulted i and the undecorated or private classes
    # have no default to set
    assert never_set(defining, calling) == [("A", "d"), ("A", "h"),
                                            ("A", "j")]


def test_every_default_is_left_in_place_by_the_program():
    defining, calling = modules(SRC), modules(CALLERS)
    assert always_passed(defining, calling) + always_set(defining,
                                                         calling) == []


def test_checker_finds_defaults_every_call_passes():
    defining = {"pkg.mod": '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2, d=None):
    pass

def g(x=0, y=0):
    pass

def h(z=0):
    pass

def _private(w=0):
    pass

class K:
    def m(self, a, b=1):
        pass

@dataclass
class A:
    a: int
    b: int = 0
    c: int = 1
    d: list = field(default_factory=list)
    e: int = None
    f: int = 2

    @classmethod
    def build(cls):
        return cls(0, f=1)
'''}
    calling = {"pkg.user": '''
from pkg.mod import A, K, f, g

f(0, 5, c=1)
f(0, b=2, c=3)
g(*args)
K().m(1, 2)
A(0, 1, 2, d=[], f=5)
A(0, c=4, d=[], f=3)
'''}
    # d's None marks an optional input; the starred call may leave g's
    # parameters in place; h has no call, so none leaves z in place
    assert always_passed(defining, calling) == [("f", "b"), ("f", "c"),
                                                ("h", "z"), ("m", "b")]
    # build's ``cls(0, f=1)`` leaves b, c and d in place; e defaults to None
    assert always_set(defining, calling) == [("A", "f")]

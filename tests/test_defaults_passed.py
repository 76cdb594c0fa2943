"""Every defaulted parameter of a public ``src/`` function is passed by some
call in ``src/`` or ``perfbench/``.

A default that no program call overrides is a setting only tests reach;
it should be a constant. Public means a module-level function or a method
of a class, neither named with a leading underscore. A call matches every
such function of its name (the last part of a dotted callee), and passes
a parameter by keyword or by position, or passes all of them through
``*args`` or ``**kwargs``. perfbench's ``tr.call(label, fn, *args,
**kwargs)`` counts as a call of ``fn``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
CALLERS = SRC + sorted((ROOT / "perfbench").rglob("*.py"))
# render_correspondence's ``surface`` lets tests substitute a hit function
EXEMPT = {("render_correspondence", "surface")}


def defaulted_params(source):
    """(function name, its positional parameter names, defaulted name) of
    every defaulted parameter of a public function or method; a method's
    positional names leave out its ``self`` or ``cls``."""
    found = []

    def visit(body, in_class):
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if isinstance(node, ast.ClassDef) and public:
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef) and public:
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                if in_class and not static:
                    names = names[1:]
                found.extend((node.name, names, n)
                             for n in names[len(names) - len(a.defaults):])
                found.extend((node.name, names, k.arg)
                             for k, d in zip(a.kwonlyargs, a.kw_defaults)
                             if d is not None)

    visit(ast.parse(source).body, False)
    return found


def calls(source):
    """(callee name, positional args, keywords) of every call in
    ``source``, with ``tr.call(label, fn, ...)`` read as a call of ``fn``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if (isinstance(func, ast.Attribute) and func.attr == "call"
                and len(args) >= 2):
            func, args = args[1], args[2:]
        if isinstance(func, ast.Name):
            yield func.id, args, node.keywords
        elif isinstance(func, ast.Attribute):
            yield func.attr, args, node.keywords


def passes(args, keywords, names, param):
    if any(isinstance(a, ast.Starred) for a in args):
        return True
    if any(k.arg is None or k.arg == param for k in keywords):
        return True
    return param in names[:len(args)]


def never_passed(defining_sources, calling_sources):
    """(function, parameter) of each defaulted public parameter that no
    call passes."""
    by_name = {}
    for source in calling_sources:
        for name, args, keywords in calls(source):
            by_name.setdefault(name, []).append((args, keywords))
    return sorted(
        (fn, param)
        for source in defining_sources
        for fn, names, param in defaulted_params(source)
        if (fn, param) not in EXEMPT
        and not any(passes(args, keywords, names, param)
                    for args, keywords in by_name.get(fn, ())))


def test_every_default_is_passed_by_the_program():
    assert never_passed([p.read_text() for p in SRC],
                        [p.read_text() for p in CALLERS]) == []


def test_checker_finds_unpassed_defaults():
    defining = '''
def f(a, b=1, *, c=2, d=3):
    pass

def g(x=0):
    pass

def _private(y=0):
    pass

class K:
    def m(self, a, b=1):
        pass

    @classmethod
    def build(cls, path, n=0):
        pass
'''
    calling = '''
f(0, 5, c=1)
tr.call("label", g, 1)
K().m(1)
K.build(p, **opts)
'''
    assert never_passed([defining], [calling]) == [("f", "d"), ("m", "b")]

"""Every parameter a function of the package takes is also read.

A parameter that the body never reads is an input that changes nothing:
every caller must still build and pass it, and a reader of a call site
takes it for something the result depends on.  This walks the syntax trees
of the package and fails if a parameter of any function or method, ``self``
and ``cls`` excepted, is never read in that function's body.
"""

import ast
from pathlib import Path

import polarmin

EXEMPT = {"self", "cls"}


def unread_parameters(tree: ast.AST, filename: str = "<source>") -> list[str]:
    """'file:line function(parameter)' for every parameter that no name
    read in its function's body, nested functions included, names."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        reads = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        unread += [
            f"{filename}:{fn.lineno} {name}({a.arg})"
            for a in params
            if a.arg not in EXEMPT and a.arg not in reads
        ]
    return unread


def test_every_parameter_is_read():
    package = Path(polarmin.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")):
        unread += unread_parameters(ast.parse(path.read_text(), filename=path.name), path.name)
    assert unread == [], "parameters never read in their function's body"


def test_the_guard_finds_an_unread_parameter():
    source = '''
def g_term(r, t, params):
    return t * params.c0

class Grid:
    def scaled(self, k, *, unused=1.0):
        return self.h * k

    @classmethod
    def build(cls, n, **extra):
        def inner(m):
            return n + m
        return cls(inner(1), **extra)

def rotate(f, steps):
    return (lambda x, y: x)(f, steps)
'''
    assert unread_parameters(ast.parse(source)) == [
        "<source>:2 g_term(r)",
        "<source>:6 scaled(unused)",
        "<source>:16 <lambda>(y)",
    ]

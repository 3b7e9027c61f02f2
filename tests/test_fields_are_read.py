"""Every option the program validates is also read.

A dataclass field that only its own class checks and only a serializer
writes out is a knob that changes nothing: a reader of a manifest takes it
for a parameter of the run.  This walks the syntax trees of the package and
fails if a field of ProblemParams, FSpec or SolveOptions is never read as an
attribute outside its own class and outside the functions that serialize it.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import polarmin
from polarmin.functional import FSpec, ProblemParams
from polarmin.solve import SolveOptions

SERIALIZERS = {"config_to_dict", "to_dict"}
CLASSES = (ProblemParams, FSpec, SolveOptions)


def attribute_reads(tree: ast.AST) -> list[tuple[str, tuple, tuple]]:
    """(attribute, enclosing classes, enclosing functions) for every
    attribute read in the tree."""
    reads = []

    def visit(node, classes, functions):
        if isinstance(node, ast.ClassDef):
            classes = classes + (node.name,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions + (node.name,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, classes, functions))
        for child in ast.iter_child_nodes(node):
            visit(child, classes, functions)

    visit(tree, (), ())
    return reads


def package_reads() -> list[tuple[str, tuple, tuple]]:
    package = Path(polarmin.__file__).parent
    reads = []
    for path in sorted(package.glob("*.py")):
        reads += attribute_reads(ast.parse(path.read_text(), filename=str(path)))
    return reads


def unread_fields(cls: type, reads) -> list[str]:
    """The fields of cls that no read outside cls and its serializers names."""
    used = {
        attr
        for attr, classes, functions in reads
        if cls.__name__ not in classes and not SERIALIZERS & set(functions)
    }
    return [f.name for f in dataclasses.fields(cls) if f.name not in used]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_read(cls):
    assert unread_fields(cls, package_reads()) == [], (
        f"{cls.__name__} fields validated or serialized but never read"
    )


def test_the_guard_finds_a_field_read_only_by_its_class_and_serializer():
    source = '''
class Knobs:
    def __post_init__(self):
        assert self.used > 0 and self.unused > 0

def config_to_dict(k):
    return {"used": k.used, "unused": k.unused}

def run(k):
    return k.used
'''

    @dataclasses.dataclass
    class Knobs:
        used: int
        unused: int

    assert unread_fields(Knobs, attribute_reads(ast.parse(source))) == ["unused"]

"""Every config knob has a reader.

A field of a config dataclass that nothing reads is a promise the code
does not keep: callers can set it, and nothing happens. This test parses
``src/`` and asserts that each field of the platform's config classes is
read as an attribute (``something.field``) somewhere outside its own
class body — validation in ``__post_init__`` does not count as a reader.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG_CLASSES = (
    "TestbedConfig",
    "ChannelConfig",
    "ShardConfig",
    "DiskParams",
    "X86Params",
    "IXPParams",
    "FaultConfig",
    "ReliableConfig",
)


def _parse_sources() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}


def _find_class(trees: dict[Path, ast.Module], name: str) -> tuple[Path, ast.ClassDef]:
    found = [
        (path, node)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    assert len(found) == 1, f"expected one class {name} under src/, found {len(found)}"
    return found[0]


def _fields(cls: ast.ClassDef) -> list[str]:
    """Annotated class-level names: the dataclass fields."""
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _attribute_reads(tree: ast.Module, skip: ast.ClassDef | None) -> set[str]:
    """Attribute names loaded anywhere in ``tree`` except inside ``skip``."""
    skipped = set() if skip is None else {id(node) for node in ast.walk(skip)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in skipped
    }


@pytest.fixture(scope="module")
def trees():
    return _parse_sources()


@pytest.mark.parametrize("class_name", CONFIG_CLASSES)
def test_every_field_is_read_outside_its_class(trees, class_name):
    path, cls = _find_class(trees, class_name)
    fields = _fields(cls)
    assert fields, f"{class_name} declares no fields"
    reads: set[str] = set()
    for other_path, tree in trees.items():
        reads |= _attribute_reads(tree, cls if other_path == path else None)
    unread = [name for name in fields if name not in reads]
    assert not unread, f"{class_name} fields nothing in src/ reads: {unread}"

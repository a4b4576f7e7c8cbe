"""The two routes stay apart, read from the source: brute.py reads neither laws.py nor sums.py,
laws.py reads brute.py only where the allow-list says, and only ring.py names a ring's _cache."""
from __future__ import annotations

import ast
from pathlib import Path

import galois_sums

from conftest import module_tree

# what laws.py may read from brute.py, each until the ROADMAP item named removes it
LAWS_READS_FROM_BRUTE = {
    "_tuple_sums",  # the field base (n = 1) sums by brute force: item 1
    "_gauss_fill",  # the Gauss quotients read brute-force Gauss values: item 3
}


def imports(name: str) -> set[tuple[str, str | None]]:
    """(module, name) for each name galois_sums.<name> imports from the package; None for a module."""
    out = set()
    for node in ast.walk(module_tree(name)):
        if isinstance(node, ast.Import):
            out |= {(a.name.removeprefix("galois_sums."), None) for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("galois_sums.")
            if node.level and not node.module or node.module == "galois_sums":
                out |= {(a.name, None) for a in node.names}  # from . import brute
            else:
                out |= {(source, a.name) for a in node.names}
    return out


def test_brute_reads_neither_the_laws_nor_their_pairing():
    assert not {module for module, _ in imports("brute")} & {"laws", "sums", "galois_sums"}


def test_laws_read_brute_only_through_the_allow_list():
    read = {name for module, name in imports("laws") if module == "brute"}
    assert read == LAWS_READS_FROM_BRUTE
    assert not {module for module, _ in imports("laws")} & {"sums", "galois_sums"}


def test_only_ring_names_a_rings_cache():
    modules = sorted(p.stem for p in Path(galois_sums.__file__).parent.glob("*.py"))
    assert {"brute", "laws", "ring", "sums"} <= set(modules)
    naming = [
        name
        for name in modules
        for node in ast.walk(module_tree(name))
        if isinstance(node, ast.Attribute) and node.attr == "_cache"
        or isinstance(node, ast.Name) and node.id == "_cache"
    ]
    assert set(naming) == {"ring"}

"""Fresh-name allocation for generated variables and temporaries."""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..ir.nodes import subtree


class NameAllocator:
    """Hands out identifiers that collide with nothing in the function."""

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used: Set[str] = set(used)
        self._counters: dict = {}

    @classmethod
    def for_tree(cls, tree: ast.AST) -> "NameAllocator":
        used: Set[str] = set()
        for node in subtree(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.arg):
                used.add(node.arg)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                used.add(node.name)
        return cls(used)

    def fresh(self, base: str) -> str:
        """A new name derived from ``base`` (``sum`` -> ``sum_2`` ...)."""
        counter = self._counters.get(base, 0)
        while True:
            counter += 1
            candidate = f"{base}_{counter}" if not base.startswith("__") else f"{base}{counter}"
            if candidate not in self._used:
                self._counters[base] = counter
                self._used.add(candidate)
                return candidate

    def reserve(self, name: str) -> None:
        self._used.add(name)

    def __contains__(self, name: str) -> bool:
        return name in self._used

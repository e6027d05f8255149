"""The generic AST plumbing the passes share: the nodes one level or
every level below a node, a copy of a subtree, and a statement with
new blocks.

Both listings read the fields directly instead of going through
``ast.iter_child_nodes`` / ``ast.walk`` (two generator layers per
node); the passes list subtrees many times per function, so this is
where walking costs.  Neither promises an order beyond
:func:`children` keeping the fields' order.
"""

from __future__ import annotations

import ast
import copy
from typing import List

_AST = ast.AST


def children(node: ast.AST) -> List[ast.AST]:
    """The nodes directly below ``node``, in field order."""
    found: List[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if value.__class__ is list:
            for item in value:
                if isinstance(item, _AST):
                    found.append(item)
        elif isinstance(value, _AST):
            found.append(value)
    return found


def subtree(node: ast.AST) -> List[ast.AST]:
    """``node`` and every node below it, in no particular order."""
    found: List[ast.AST] = []
    todo = [node]
    while todo:
        node = todo.pop()
        found.append(node)
        todo.extend(children(node))
    return found


def copy_tree(node: ast.AST) -> ast.AST:
    """A copy of ``node`` and every node below it, positions and the
    attributes the passes tag nodes with included (their values are
    shared, as the field values that are not nodes are).  Field by
    field, without ``copy.deepcopy``'s memo: an AST is a tree.  A
    context or operator node (no fields, no position) is shared too."""
    cls = node.__class__
    clone = cls.__new__(cls)
    state = clone.__dict__
    state.update(node.__dict__)
    for name in cls._fields:
        value = state.get(name)
        if value.__class__ is list:
            state[name] = [
                copy_tree(item) if isinstance(item, _AST) else item for item in value
            ]
        elif isinstance(value, _AST) and (value._fields or value._attributes):
            state[name] = copy_tree(value)
    return clone


def rebuilt(node: ast.AST, **blocks: List[ast.AST]) -> ast.AST:
    """``node`` with ``blocks`` as its statement (or handler) lists:
    ``node`` itself when each list holds the same nodes, else a shallow
    copy.  The transform's statement memo may hold ``node`` as analyzed,
    so a pass that rewrites a block never changes it in place; the copy
    is new to the memo, and so is every ancestor it forces to be
    rebuilt."""
    if all(_same(getattr(node, name), block) for name, block in blocks.items()):
        return node
    clone = copy.copy(node)
    for name, block in blocks.items():
        setattr(clone, name, block)
    return clone


def _same(old: List[ast.AST], new: List[ast.AST]) -> bool:
    return len(old) == len(new) and all(a is b for a, b in zip(old, new))

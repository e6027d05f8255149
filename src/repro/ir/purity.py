"""Effect model for called code.

Static analysis of Python cannot see inside arbitrary callees, so —
like the paper's tool, which relied on SOOT's summaries plus a
conservative external-dependence model — we use a registry:

* **methods**: a method call ``obj.m(...)`` is assumed to *mutate* its
  receiver unless ``m`` is registered pure.  This is the conservative
  default that makes ``categoryList.removeFirst()`` and ``qt.bind(...)``
  come out as writes of the receiver, as in the paper's Figure 1 DDG.
* **functions**: a plain call ``f(x, y)`` is assumed *not* to mutate its
  arguments or globals unless registered as mutating.  Database-style
  application code passes scalars and reads collections; a function
  that mutates an argument can be registered explicitly (the property
  tests do).
* **io**: ``print`` and registered log-like callables touch the ``io``
  external resource, so reordering across them is refused unless the
  environment is built with ``io_ordering_matters=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

#: Methods assumed to read the receiver without mutating it.
DEFAULT_PURE_METHODS: FrozenSet[str] = frozenset(
    {
        # containers / strings
        "get", "keys", "values", "items", "copy", "index", "count",
        "lower", "upper", "strip", "lstrip", "rstrip", "split", "join",
        "startswith", "endswith", "format", "rpartition", "partition",
        "isdigit", "isalpha",
        # collection inspectors common in the paper's pseudo-code
        "isEmpty", "is_empty", "peek", "top", "size", "first", "last",
        "contains",
        # our client/result API (submit/fetch do not mutate the
        # connection object; their external effects come from the
        # transformation registry)
        "scalar", "column", "as_dicts", "snapshot_params", "assigned",
        "done", "execute_query", "execute_update", "submit_query",
        "submit_update", "submit_call", "submit_get_entity",
        "submit_related", "submit_list_type", "fetch_result", "call",
        "get_entity", "related", "list_type", "prepare",
    }
)

#: Methods known to mutate the receiver (everything unknown also does;
#: this set exists so tests can assert intent explicitly).
DEFAULT_MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "append", "appendleft", "add", "extend", "insert", "remove",
        "removeFirst", "removeLast", "remove_first", "pop", "popleft",
        "push", "clear", "sort", "reverse", "update", "setdefault",
        "discard", "bind", "bind_all",
    }
)

#: Builtin functions assumed pure (no argument mutation, no io).
DEFAULT_PURE_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "len", "min", "max", "sum", "abs", "round", "sorted", "reversed",
        "int", "float", "str", "bool", "list", "tuple", "dict", "set",
        "frozenset", "range", "enumerate", "zip", "map", "filter", "any",
        "all", "repr", "hash", "isinstance", "iter", "next", "divmod",
        "ord", "chr",
    }
)

#: Callables that write the ``io`` external resource.
DEFAULT_IO_FUNCTIONS: FrozenSet[str] = frozenset({"print", "log", "write_log"})


@dataclass
class FunctionEffect:
    """Registered effect summary for a plain function call."""

    mutates_args: Tuple[int, ...] = ()
    reads_resources: Tuple[str, ...] = ()
    writes_resources: Tuple[str, ...] = ()


class PurityEnv:
    """Queryable effect environment used by def/use extraction."""

    def __init__(
        self,
        pure_methods: Iterable[str] = DEFAULT_PURE_METHODS,
        mutating_methods: Iterable[str] = DEFAULT_MUTATING_METHODS,
        pure_functions: Iterable[str] = DEFAULT_PURE_FUNCTIONS,
        io_functions: Iterable[str] = DEFAULT_IO_FUNCTIONS,
        io_ordering_matters: bool = True,
    ) -> None:
        self._pure_methods: Set[str] = set(pure_methods)
        self._mutating_methods: Set[str] = set(mutating_methods)
        self._pure_functions: Set[str] = set(pure_functions)
        self._io_functions: Set[str] = set(io_functions)
        self._function_effects: Dict[str, FunctionEffect] = {}
        self.io_ordering_matters = io_ordering_matters

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_function(
        self,
        name: str,
        mutates_args: Iterable[int] = (),
        reads_resources: Iterable[str] = (),
        writes_resources: Iterable[str] = (),
    ) -> None:
        self._function_effects[name] = FunctionEffect(
            tuple(mutates_args), tuple(reads_resources), tuple(writes_resources)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def method_mutates_receiver(self, name: str) -> bool:
        """Conservative: unknown methods mutate their receiver."""
        return name not in self._pure_methods

    def function_effect(self, name: str) -> Optional[FunctionEffect]:
        return self._function_effects.get(name)

    def is_pure_function(self, name: str) -> bool:
        return name in self._pure_functions

    def is_io_function(self, name: str) -> bool:
        return name in self._io_functions

    def copy(self) -> "PurityEnv":
        clone = PurityEnv(
            self._pure_methods,
            self._mutating_methods,
            self._pure_functions,
            self._io_functions,
            self.io_ordering_matters,
        )
        clone._function_effects = dict(self._function_effects)
        return clone

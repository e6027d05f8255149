"""Fresh-name allocation for generated variables and temporaries."""

from __future__ import annotations

import re
import unicodedata
from typing import Iterable, Set

#: Every identifier-shaped token: an ASCII letter, ``_`` or a non-ASCII
#: character, then word characters or non-ASCII characters.  Outside
#: strings and comments a non-ASCII character can only be part of an
#: identifier, so each identifier is a token (``\w`` alone would cut
#: ``℘x`` or a name holding a combining mark short).
_IDENTIFIER = re.compile(r"[A-Za-z_\x80-\U0010ffff][\w\x80-\U0010ffff]*")


class NameAllocator:
    """Hands out identifiers that collide with nothing in the function."""

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used: Set[str] = set(used)
        self._counters: dict = {}

    @classmethod
    def for_source(cls, text: str) -> "NameAllocator":
        """An allocator that knows every identifier of the module parsed
        from ``text``: every identifier-shaped token of the text, taken
        after the NFKC normalization the parser applies to identifiers.
        Tokens in strings and comments come along; the seed is a
        superset of the tree's names, so no fresh name is one of them."""
        return cls(_IDENTIFIER.findall(unicodedata.normalize("NFKC", text)))

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

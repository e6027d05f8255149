"""Statement-level intermediate representation over Python ``ast``.

Plays the role SOOT's Jimple played for the paper's Java tool: a
normalized statement list with per-statement def/use information on
which the data dependence graph is built.  See DESIGN.md §2.
"""

from .defuse import DefUse, analyze_statement, rename_reads, rename_writes
from .purity import PurityEnv
from .statements import (
    CONTROL_VAR,
    Guard,
    QueryCall,
    Stmt,
    find_query_call,
    make_block,
    make_header,
    make_stmt,
)

__all__ = [
    "DefUse",
    "analyze_statement",
    "rename_reads",
    "rename_writes",
    "PurityEnv",
    "CONTROL_VAR",
    "Guard",
    "QueryCall",
    "Stmt",
    "find_query_call",
    "make_block",
    "make_header",
    "make_stmt",
]

"""Query planning and execution.

The planner turns a parsed statement into a small operator tree; the
executor runs it against the catalog, charging simulated CPU and IO
costs through the execution context.
"""

from .context import ExecutionContext
from .demux import BindingOutcome, demuxable, execute_batch_select
from .planner import InsertPlan, Planner, check_params
from .result import QueryResult

__all__ = [
    "BindingOutcome",
    "ExecutionContext",
    "InsertPlan",
    "Planner",
    "QueryResult",
    "check_params",
    "demuxable",
    "execute_batch_select",
]

"""Interprocedural call-graph machinery for the parity analyzer.

The cross-backend parity analyzer (:mod:`~repro.analysis.parity`, PAR
rules) reasons *across* functions: a pair member's effect signature
folds in the signatures of the unpaired helpers it calls.  This module
builds what that needs:

1. every function in the analyzed files goes into a table
   (:class:`FunctionInfo`), keyed by module path and qualified name,
   with its outgoing call edges;
2. ``@repro.analysis.paired(...)`` markers tag backend-pair members;
3. :meth:`CallGraph.resolve_name` maps a call edge to its candidate
   callees.

Calls to the shared-state operation vocabulary (:data:`SHARED_STATE_OPS`
— grid ownership, graph demand and speculative-view factory methods)
are intrinsics: the parity analyzer records them as ops on the caller,
and no call edge is added into the method body.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Sequence
from typing import Optional, Union

#: Shared-state operations on the routing grid and graph.  Calls to
#: these names are recorded as ops, never followed as call edges.
SHARED_STATE_OPS = frozenset(
    {
        # global-routing graph
        "edge_demand",
        "edge_capacity",
        "edge_overflow",
        "total_vertex_overflow",
        "max_vertex_overflow",
        "add_edge_demand",
        "add_vertex_demand",
        "apply_path",
        "refresh_cost_cache",
        # detailed grid
        "owner",
        "occupied_by",
        "is_free_for",
        "is_pin",
        "occupy",
        "force_occupy",
        "release",
        "mark_pin",
        # speculative views (net-batch routing, workers > 1)
        "snapshot",
        "speculative_overlay",
    }
)


@dataclasses.dataclass
class CallEdge:
    """One outgoing call edge recorded during the function scan."""

    name: str
    is_method: bool


@dataclasses.dataclass
class FunctionInfo:
    """One table entry: a function plus the calls it makes."""

    path: str
    qualname: str
    name: str
    cls: Optional[str]
    pair: Optional[str] = None
    pair_backend: Optional[str] = None
    calls: list[CallEdge] = dataclasses.field(default_factory=list)


def tokens(name: str) -> frozenset[str]:
    """Lower-case underscore tokens of an identifier."""
    return frozenset(name.lower().lstrip("_").split("_"))


def parse_paired_decorator(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Optional[tuple[str, str]]:
    """Extract ``@paired(pair, backend=...)`` if present."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "paired":
            continue
        if not decorator.args:
            continue
        pair_node = decorator.args[0]
        if not (
            isinstance(pair_node, ast.Constant)
            and isinstance(pair_node.value, str)
        ):
            continue
        for keyword in decorator.keywords:
            if keyword.arg != "backend":
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return pair_node.value, value.value
    return None


class _CallScanner(ast.NodeVisitor):
    """Single-function walk collecting the function's call edges.

    Nested functions and classes are separate table entries, so the
    walk does not descend into them.
    """

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.visit(statement)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(CallEdge(func.id, is_method=False))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr not in SHARED_STATE_OPS
        ):
            self.info.calls.append(CallEdge(func.attr, is_method=True))
        self.generic_visit(node)


class CallGraph:
    """The function table plus call resolution.

    Construction parses every file, records every function with its
    call edges and pair marker, and indexes the table by bare function
    name.  The parity analyzer layers its rule judgments on top.
    """

    def __init__(self, files: Sequence[tuple[str, str]]) -> None:
        self.table: list[FunctionInfo] = []
        self._by_name: dict[str, list[FunctionInfo]] = {}
        for path, source in files:
            tree = ast.parse(source, filename=path)
            self._collect(tree.body, path=path, cls=None, prefix="")
        for info in self.table:
            self._by_name.setdefault(info.name, []).append(info)

    def _collect(
        self,
        body: Sequence[ast.stmt],
        *,
        path: str,
        cls: Optional[str],
        prefix: str,
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                info = FunctionInfo(
                    path=path,
                    qualname=f"{prefix}{statement.name}",
                    name=statement.name,
                    cls=cls,
                )
                marker = parse_paired_decorator(statement)
                if marker is not None:
                    info.pair, info.pair_backend = marker
                self.table.append(info)
                _CallScanner(info).scan(statement.body)
                self._collect(
                    statement.body,
                    path=path,
                    cls=None,
                    prefix=f"{prefix}{statement.name}.",
                )
            elif isinstance(statement, ast.ClassDef):
                self._collect(
                    statement.body,
                    path=path,
                    cls=statement.name,
                    prefix=f"{prefix}{statement.name}.",
                )

    def resolve_name(
        self, name: str, caller: FunctionInfo, *, is_method: bool
    ) -> list[FunctionInfo]:
        """Candidate callees for a call to ``name`` from ``caller``.

        Same-module definitions are preferred; ambiguous names (more
        than four candidates) resolve to nothing rather than fanning
        the analysis out over unrelated code.
        """
        candidates = [
            candidate
            for candidate in self._by_name.get(name, [])
            if (candidate.cls is not None) == is_method
        ]
        same_module = [
            candidate
            for candidate in candidates
            if candidate.path == caller.path
        ]
        picked = same_module or candidates
        if not picked or len(picked) > 4:
            return []
        return picked


__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "SHARED_STATE_OPS",
    "parse_paired_decorator",
    "tokens",
]

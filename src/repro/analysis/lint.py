"""AST-based determinism linter (the DET rule catalog).

The committed baselines assume a routing result is a pure function of
the design and the config: routing decisions never observe hash order,
wall clocks, RNGs, or object identity.  This linter enforces those
conventions statically over the routing-decision packages
(:data:`~repro.analysis.rules.ROUTING_PACKAGES`); files outside a
``repro`` package tree (fixture snippets, scripts) are checked against
every rule.

Findings can be silenced in two ways:

* per line — append ``# repro: allow-DETnnn <reason>`` to the flagged
  line (several codes may be listed, comma separated);
* per finding — record it in a committed baseline file
  (:mod:`~repro.analysis.baseline`), which grandfathers existing debt
  without hiding new findings.

``repro lint [paths]`` is the CLI front end.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from collections.abc import Iterable, Sequence
from typing import Optional

from .findings import (
    DeadSuppression,
    Finding,
    dead_suppression_lines,
    finding_lines,
    suppressed_rules,
    suppression_map,
)
from .findings import resolve_rule_filter as _resolve_rule_filter
from .rules import ROUTING_PACKAGES, RULES, Rule

__all__ = [
    "DeadSuppression",
    "Finding",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_findings",
    "resolve_rule_filter",
    "routing_rules_apply",
    "suppressed_rules",
]

#: Calls whose result cannot depend on the argument's iteration order —
#: feeding them a set (or a generator over one) is deterministic.
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Materializers that freeze an iteration order into a sequence.
ORDER_FREEZING_CALLS = frozenset({"list", "tuple", "enumerate"})

#: ``time`` attributes that read the wall clock (``perf_counter`` and
#: friends are measurement timers, sanctioned for reported durations).
WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "ctime", "localtime", "gmtime", "asctime"}
)

#: Modules whose very import into a routing path is a DET002 finding.
BANNED_MODULES = frozenset({"random", "secrets"})

#: Identifier tokens that mark a value as a float cost/coordinate for
#: the DET003 heuristic.
_FLOATY_TOKENS = frozenset(
    {
        "cost",
        "costs",
        "price",
        "weight",
        "score",
        "seconds",
        "wall",
        "cpu",
        "penalty",
        "alpha",
        "beta",
        "gamma",
        "utilization",
        "ratio",
        "scale",
        "density",
    }
)

_SET_ANNOTATION_NAMES = frozenset({"set", "Set", "frozenset", "FrozenSet"})


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: list[Finding]
    grandfathered: list[Finding]
    suppressed: int
    files: int
    dead_suppressions: list[DeadSuppression] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no non-grandfathered findings)."""
        return not self.findings


def routing_rules_apply(path: str) -> bool:
    """Whether the routing-scoped rules apply to ``path``.

    Inside a ``repro`` package tree only the routing-decision packages
    are in scope; standalone files (fixtures, scripts) are always in
    scope so test corpora exercise every rule.
    """
    parts = pathlib.PurePath(path).parts
    if "repro" in parts:
        return any(part in ROUTING_PACKAGES for part in parts)
    return True


class _Scope:
    """One lexical scope's set-typed-name table."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        self.names: dict[str, bool] = {}


class _FileLinter(ast.NodeVisitor):
    """Single-file AST walk collecting raw findings (pre-suppression)."""

    def __init__(
        self, path: str, source_lines: Sequence[str], routing: bool
    ) -> None:
        self.path = path
        self.lines = source_lines
        self.routing = routing
        self.findings: list[Finding] = []
        self._scopes: list[_Scope] = [_Scope()]
        #: Comprehension nodes proven order-safe by their consumer.
        self._order_safe: set[int] = set()
        #: ``iter(...)`` nodes already reported through ``next(iter(..))``.
        self._claimed: set[int] = set()
        #: Names bound by ``from <module> import <name>`` to banned
        #: ambient-input callables.
        self._banned_names: set[str] = set()

    # -- plumbing ------------------------------------------------------
    def _emit(self, rule: Rule, node: ast.AST, detail: str = "") -> None:
        if rule.routing_only and not self.routing:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ""
        if 1 <= line <= len(self.lines):
            text = self.lines[line - 1].strip()
        message = rule.title if not detail else f"{rule.title}: {detail}"
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                rule=rule.code,
                message=message,
                text=text,
            )
        )

    # -- set-type tracking ---------------------------------------------
    def _lookup(self, name: str) -> bool:
        for scope in reversed(self._scopes):
            if name in scope.names:
                return scope.names[name]
        return False

    def _bind(self, name: str, is_set: bool) -> None:
        self._scopes[-1].names[name] = is_set

    def _is_set_annotation(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        node: ast.expr = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_ANNOTATION_NAMES
        if isinstance(node, ast.Name):
            return node.id in _SET_ANNOTATION_NAMES
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.split("[", 1)[0].strip()
            return head.rsplit(".", 1)[-1] in _SET_ANNOTATION_NAMES
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Conservative 'this expression is a set' judgement."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            ):
                return self._is_set_expr(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(
                node.right
            )
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) and self._is_set_expr(
                node.orelse
            )
        return False

    @staticmethod
    def _is_dict_keys_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )

    def _is_unordered_iterable(self, node: ast.expr) -> bool:
        return self._is_set_expr(node) or self._is_dict_keys_call(node)

    # -- scopes --------------------------------------------------------
    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_mutable_defaults(node.args, node)
        self._scopes.append(_Scope())
        all_args = (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
        for arg in all_args:
            self._bind(arg.arg, self._is_set_annotation(arg.annotation))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_mutable_defaults(node.args, node)
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    # -- assignments ---------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            is_set = self._is_set_annotation(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            )
            self._bind(node.target.id, is_set)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # |=, &=, -=, ^= keep set-ness; other ops on a set are errors
        # anyway, so the binding is simply left as is.
        self.generic_visit(node)

    # -- DET001: unordered iteration -----------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_iterable(node.iter):
            self._emit(RULES["DET001"], node.iter)
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.expr, generators: list[ast.comprehension]
    ) -> None:
        if id(node) in self._order_safe or isinstance(node, ast.SetComp):
            # A set built from a set leaks no order.
            return
        for gen in generators:
            if self._is_unordered_iterable(gen.iter):
                self._emit(RULES["DET001"], gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    # -- calls: DET001 materializers, DET002 ambient, DET005 ties ------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in ORDER_INSENSITIVE_CALLS:
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        self._order_safe.add(id(arg))
            elif name in ORDER_FREEZING_CALLS:
                if node.args and self._is_unordered_iterable(node.args[0]):
                    self._emit(
                        RULES["DET001"],
                        node,
                        f"{name}() freezes set iteration order",
                    )
            elif name == "next":
                if (
                    node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "iter"
                    and node.args[0].args
                    and self._is_unordered_iterable(node.args[0].args[0])
                ):
                    self._claimed.add(id(node.args[0]))
                    self._emit(
                        RULES["DET005"],
                        node,
                        "next(iter(<set>)) picks a hash-order element",
                    )
            elif name == "iter":
                if (
                    id(node) not in self._claimed
                    and node.args
                    and self._is_unordered_iterable(node.args[0])
                ):
                    self._emit(RULES["DET001"], node)
            elif name == "id":
                self._emit(
                    RULES["DET005"], node, "id() is process-dependent"
                )
            elif name in self._banned_names:
                self._emit(RULES["DET002"], node, f"{name}()")
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self.generic_visit(node)

    def _check_attribute_call(
        self, node: ast.Call, func: ast.Attribute
    ) -> None:
        value = func.value
        if isinstance(value, ast.Name):
            mod = value.id
            if mod == "time" and func.attr in WALL_CLOCK_TIME_ATTRS:
                self._emit(RULES["DET002"], node, f"time.{func.attr}()")
            elif mod == "os" and func.attr == "urandom":
                self._emit(RULES["DET002"], node, "os.urandom()")
            elif mod in BANNED_MODULES:
                self._emit(RULES["DET002"], node, f"{mod}.{func.attr}()")
            elif mod == "uuid" and func.attr.startswith("uuid"):
                self._emit(RULES["DET002"], node, f"uuid.{func.attr}()")
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")
        ):
            self._emit(RULES["DET002"], node, f"numpy.random.{func.attr}()")
        if (
            func.attr == "pop"
            and not node.args
            and self._is_set_expr(value)
        ):
            self._emit(
                RULES["DET005"], node, "set.pop() removes a hash-order element"
            )

    # -- DET002: imports ------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".", 1)[0]
            if root in BANNED_MODULES:
                self._emit(RULES["DET002"], node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".", 1)[0]
        for alias in node.names:
            bound = alias.asname or alias.name
            if module in BANNED_MODULES:
                self._emit(
                    RULES["DET002"],
                    node,
                    f"from {node.module} import {alias.name}",
                )
                self._banned_names.add(bound)
            elif module == "time" and alias.name in WALL_CLOCK_TIME_ATTRS:
                self._emit(
                    RULES["DET002"],
                    node,
                    f"from time import {alias.name}",
                )
                self._banned_names.add(bound)
            elif module == "os" and alias.name == "urandom":
                self._emit(RULES["DET002"], node, "from os import urandom")
                self._banned_names.add(bound)
        self.generic_visit(node)

    # -- DET003: float equality ----------------------------------------
    def _is_floaty(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            return (
                isinstance(node.func, ast.Name) and node.func.id == "float"
            )
        if isinstance(node, ast.BinOp):
            return self._is_floaty(node.left) or self._is_floaty(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_floaty(node.operand)
        identifier = None
        if isinstance(node, ast.Name):
            identifier = node.id
        elif isinstance(node, ast.Attribute):
            identifier = node.attr
        if identifier is not None:
            tokens = identifier.lower().split("_")
            return any(token in _FLOATY_TOKENS for token in tokens)
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                self._is_floaty(left) or self._is_floaty(right)
            ):
                self._emit(RULES["DET003"], node)
                break
        self.generic_visit(node)

    # -- DET004: mutable defaults --------------------------------------
    def _check_mutable_defaults(
        self, args: ast.arguments, owner: ast.AST
    ) -> None:
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id
                in ("list", "dict", "set", "defaultdict", "OrderedDict")
            ):
                self._emit(RULES["DET004"], default)


def _lint_source(
    source: str, path: str
) -> tuple[list[Finding], int, list[DeadSuppression]]:
    """Lint one file; returns (kept, suppressed count, dead suppressions)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    linter = _FileLinter(path, lines, routing_rules_apply(path))
    linter.visit(tree)
    kept: list[Finding] = []
    suppressed = 0
    allowed = suppression_map(source, "DET")
    used_codes: dict[int, set[str]] = {}
    for finding in sorted(
        linter.findings, key=lambda f: (f.line, f.col, f.rule)
    ):
        if finding.rule in allowed.get(finding.line, frozenset()):
            suppressed += 1
            used_codes.setdefault(finding.line, set()).add(finding.rule)
        else:
            kept.append(finding)
    dead: list[DeadSuppression] = []
    for lineno, codes in sorted(allowed.items()):
        line = lines[lineno - 1] if lineno <= len(lines) else ""
        unused = sorted(codes - used_codes.get(lineno, set()))
        if unused:
            dead.append(
                DeadSuppression(
                    path=path,
                    line=lineno,
                    codes=tuple(unused),
                    text=line.strip(),
                )
            )
    return kept, suppressed, dead


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one file's source text; suppression comments are honored."""
    return _lint_source(source, path)[0]


def iter_python_files(paths: Iterable[str]) -> list[pathlib.Path]:
    """Every ``.py`` file under ``paths`` in deterministic order.

    Raises :class:`ValueError` naming the first path that is neither a
    directory nor a ``.py`` file, so a misspelt path fails the run
    instead of passing it with nothing analyzed.
    """
    files: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.is_file():
            files.append(path)
        else:
            raise ValueError(f"no such path: {raw}")
    return files


def resolve_rule_filter(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> frozenset[str]:
    """The active DET rule codes after ``--select`` / ``--ignore``.

    ``select`` restricts the run to the listed codes (default: every
    rule); ``ignore`` then removes codes.  Unknown codes raise
    :class:`ValueError` naming the offenders.
    """
    return _resolve_rule_filter(select, ignore, known=RULES)


def lint_paths(
    paths: Sequence[str],
    baseline_fingerprints: frozenset[tuple[str, str, str]] = frozenset(),
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    Findings whose :attr:`~Finding.fingerprint` appears in
    ``baseline_fingerprints`` are grandfathered: reported separately and
    excluded from the failure condition.  ``select`` / ``ignore``
    restrict the active rule set (see :func:`resolve_rule_filter`);
    filtered-out findings are dropped entirely (not counted as
    suppressed or grandfathered).
    """
    active = resolve_rule_filter(select, ignore)
    findings: list[Finding] = []
    grandfathered: list[Finding] = []
    suppressed = 0
    files = 0
    dead_suppressions: list[DeadSuppression] = []
    for file_path in iter_python_files(paths):
        files += 1
        source = file_path.read_text(encoding="utf-8")
        kept, file_suppressed, file_dead = _lint_source(
            source, str(file_path)
        )
        suppressed += file_suppressed
        dead_suppressions.extend(file_dead)
        for finding in kept:
            if finding.rule not in active:
                continue
            if finding.fingerprint in baseline_fingerprints:
                grandfathered.append(finding)
            else:
                findings.append(finding)
    return LintReport(
        findings=findings,
        grandfathered=grandfathered,
        suppressed=suppressed,
        files=files,
        dead_suppressions=dead_suppressions,
    )


def render_findings(report: LintReport) -> str:
    """Human-readable lint output (one line per finding plus a hint)."""
    out = finding_lines(report.findings)
    out.extend(dead_suppression_lines(report.dead_suppressions))
    summary = (
        f"{len(report.findings)} finding(s) in {report.files} file(s)"
    )
    if report.grandfathered:
        summary += f", {len(report.grandfathered)} grandfathered"
    if report.dead_suppressions:
        summary += (
            f", {len(report.dead_suppressions)} dead suppression(s)"
        )
    out.append(summary)
    return "\n".join(out)

"""Static cross-backend parity analyzer (the PAR rule catalog).

Every fast path in this codebase shadows a reference implementation:
the array engine shadows the object engine per stage.  Their
equivalence is proven dynamically by the differential suite — but
only over the circuits that suite routes.  This module is the static
complement: it extracts a per-function
*effect signature* — counters incremented, trace spans / gauges /
progress events emitted, :class:`~repro.config.RouterConfig` fields
read, shared-state operations applied, exceptions raised — from each
member of a declared backend pair and diffs the signatures, so drift
on a code path no gate circuit exercises still fails at lint time.

Pairs are declared with the inert
``@repro.analysis.paired("name", backend="...")`` marker
(:mod:`~repro.analysis.pairing`); the analyzer reads the decorator
syntactically, so unimported code is covered too.  Signatures are
*transitive*: effects of (unpaired) callees fold into the caller's
signature through the shared :class:`~repro.analysis.callgraph`
machinery, with paired callees acting as contract boundaries — the
shared-preamble pattern, where one member delegates bookkeeping to a
helper the other inlines, diffs clean.

The PAR005 rule is pair-independent: every counter/gauge/span/progress
name emitted anywhere in the analyzed files must be declared in the
:mod:`repro.observe.schema` registry, the single source of truth the
regression gate and analytics derive their name lists from.

Findings mirror the determinism linter's: ``# repro: allow-PARnnn``
suppressions, a committed fingerprint baseline
(``parity-baseline.json``), and ``repro parity`` as the CLI front end.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable, Sequence
from typing import Optional, Union

from ..config import RouterConfig
from ..observe import schema
from .callgraph import SHARED_STATE_OPS, CallGraph, FunctionInfo, tokens
from .findings import (
    DeadSuppression,
    Finding,
    dead_suppression_lines,
    finding_lines,
    suppression_map,
)
from .findings import resolve_rule_filter as _resolve_rule_filter
from .lint import iter_python_files
from .rules import PAR_RULES

#: Receiver-name tokens marking a call as a trace emission
#: (``tracer.count(...)``, ``span.gauge(...)``, ``stage.count(...)``).
_EMIT_RECEIVER_TOKENS = frozenset({"tracer", "span", "stage"})

#: Receiver-name tokens marking a subscript store as a counter bump
#: (``stats["x"] += 1``, ``self.counters["x"] = n``).
_COUNTER_STORE_TOKENS = frozenset({"stats", "counters"})

#: Receiver-name tokens marking an attribute load as a config read.
_CONFIG_RECEIVER_TOKENS = frozenset({"config", "cfg"})

#: The RouterConfig field vocabulary PAR003 is judged over.
CONFIG_FIELDS = frozenset(
    field.name for field in dataclasses.fields(RouterConfig)
)



@dataclasses.dataclass(frozen=True)
class Site:
    """Where an effect was observed (for findings and suppressions).

    Carries its own ``path``: transitive signature resolution folds
    callee effects into the caller, so a pair member's finding can
    anchor to a line in a *different* file — the shared helper that
    actually emits.  Suppression comments go at the emit site.
    """

    path: str
    line: int
    col: int
    text: str


@dataclasses.dataclass
class EffectSignature:
    """The externally observable surface of one function.

    Each mapping goes from an effect's identity to the *first* site
    that produced it — the location a divergence finding lands on.
    ``events`` keys are ``(kind, name)`` with kind one of ``span`` /
    ``gauge`` / ``progress``.
    """

    counters: dict[str, Site] = dataclasses.field(default_factory=dict)
    #: Counter names observed only as ``stats["x"] = ...`` stores.  A
    #: store into a scratch dict does not reveal the name's eventual
    #: trace kind (assign accumulates ``conflict_weight`` this way and
    #: later emits it as a gauge), so PAR005 accepts either kind for
    #: these.
    store_counters: set[str] = dataclasses.field(default_factory=set)
    events: dict[tuple[str, str], Site] = dataclasses.field(
        default_factory=dict
    )
    config_reads: dict[str, Site] = dataclasses.field(
        default_factory=dict
    )
    raises: dict[str, Site] = dataclasses.field(default_factory=dict)
    ops: dict[str, Site] = dataclasses.field(default_factory=dict)

    def merge(self, other: "EffectSignature") -> None:
        """Fold ``other`` in, keeping existing (earlier) sites."""
        for mine, theirs in (
            (self.counters, other.counters),
            (self.events, other.events),
            (self.config_reads, other.config_reads),
            (self.raises, other.raises),
            (self.ops, other.ops),
        ):
            for key, site in theirs.items():
                mine.setdefault(key, site)  # type: ignore[arg-type]
        self.store_counters |= other.store_counters


@dataclasses.dataclass
class FunctionSurface:
    """Parity-specific scan of one function definition."""

    signature: EffectSignature
    #: ``(param, default-or-"")`` pairs, receiver excluded.
    params: tuple[tuple[str, str], ...]
    def_site: Site


def _receiver_name(node: ast.expr) -> Optional[str]:
    """The trailing identifier of a receiver expression, if simple."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _literal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _SurfaceScanner(ast.NodeVisitor):
    """Extract one function's direct :class:`EffectSignature`."""

    def __init__(self, path: str, lines: Sequence[str]) -> None:
        self.path = path
        self.lines = lines
        self.sig = EffectSignature()

    def _site(self, node: ast.AST) -> Site:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ""
        if 1 <= line <= len(self.lines):
            text = self.lines[line - 1].strip()
        return Site(path=self.path, line=line, col=col, text=text)

    def scan(self, body: Sequence[ast.stmt]) -> EffectSignature:
        for statement in body:
            self.visit(statement)
        return self.sig

    # Nested defs / classes are their own table entries.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    # -- trace emissions ----------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _receiver_name(func.value)
            emitting = receiver is not None and bool(
                tokens(receiver) & _EMIT_RECEIVER_TOKENS
            )
            name = _literal(node.args[0]) if node.args else None
            if emitting and name is not None:
                if func.attr == "count":
                    self.sig.counters.setdefault(name, self._site(node))
                elif func.attr == "gauge":
                    self.sig.events.setdefault(
                        ("gauge", name), self._site(node)
                    )
                elif func.attr == "progress":
                    self.sig.events.setdefault(
                        ("progress", name), self._site(node)
                    )
                elif func.attr == "span":
                    self.sig.events.setdefault(
                        ("span", name), self._site(node)
                    )
                    # Span keyword arguments become gauges on the span.
                    for keyword in node.keywords:
                        if keyword.arg is not None:
                            self.sig.events.setdefault(
                                ("gauge", keyword.arg), self._site(node)
                            )
            if func.attr in SHARED_STATE_OPS:
                self.sig.ops.setdefault(func.attr, self._site(node))
        self.generic_visit(node)

    # -- counter stores (``stats["x"] = ...``) ------------------------
    def _check_counter_store(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Subscript):
            return
        receiver = _receiver_name(target.value)
        if receiver is None or not (
            tokens(receiver) & _COUNTER_STORE_TOKENS
        ):
            return
        name = _literal(target.slice)
        if name is not None:
            self.sig.counters.setdefault(name, self._site(target))
            self.sig.store_counters.add(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_counter_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_counter_store(node.target)
        self.generic_visit(node)

    # -- config reads --------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and node.attr in CONFIG_FIELDS:
            receiver = _receiver_name(node.value)
            if receiver is not None and (
                tokens(receiver) & _CONFIG_RECEIVER_TOKENS
            ):
                self.sig.config_reads.setdefault(
                    node.attr, self._site(node)
                )
        self.generic_visit(node)

    # -- raises --------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is not None:
            self.sig.raises.setdefault(name, self._site(node))
        self.generic_visit(node)


def _param_signature(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    *,
    in_class: bool,
) -> tuple[tuple[str, str], ...]:
    """``(name, default)`` pairs, aligned right-to-left; receiver cut."""
    args = list(node.args.posonlyargs) + list(node.args.args)
    defaults: list[str] = [""] * (len(args) - len(node.args.defaults))
    defaults += [ast.unparse(d) for d in node.args.defaults]
    pairs = list(zip((a.arg for a in args), defaults))
    for argument, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        pairs.append(
            (
                "*" + argument.arg,
                "" if default is None else ast.unparse(default),
            )
        )
    if in_class and pairs and pairs[0][0] in ("self", "cls"):
        pairs = pairs[1:]
    return tuple(pairs)


class _ParityAnalyzer(CallGraph):
    """The PAR rule judgment over one shared call graph.

    On top of the inherited function table this walks each file a
    second time with :class:`_SurfaceScanner`, keyed by the same
    ``(path, qualname)`` as the table, then resolves signatures
    transitively along the table's call edges.
    """

    _IN_PROGRESS = object()

    def __init__(self, files: Sequence[tuple[str, str]]) -> None:
        super().__init__(files)
        self.surfaces: dict[tuple[str, str], FunctionSurface] = {}
        self._sig_memo: dict[tuple[str, str], object] = {}
        for path, source in files:
            tree = ast.parse(source, filename=path)
            self._scan_surfaces(
                tree.body,
                path=path,
                lines=source.splitlines(),
                prefix="",
                in_class=False,
            )

    def _scan_surfaces(
        self,
        body: Sequence[ast.stmt],
        *,
        path: str,
        lines: Sequence[str],
        prefix: str,
        in_class: bool,
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qualname = f"{prefix}{statement.name}"
                scanner = _SurfaceScanner(path, lines)
                line = statement.lineno
                text = ""
                if 1 <= line <= len(lines):
                    text = lines[line - 1].strip()
                self.surfaces[(path, qualname)] = FunctionSurface(
                    signature=scanner.scan(statement.body),
                    params=_param_signature(statement, in_class=in_class),
                    def_site=Site(
                        path=path,
                        line=line,
                        col=statement.col_offset,
                        text=text,
                    ),
                )
                self._scan_surfaces(
                    statement.body,
                    path=path,
                    lines=lines,
                    prefix=f"{qualname}.",
                    in_class=False,
                )
            elif isinstance(statement, ast.ClassDef):
                self._scan_surfaces(
                    statement.body,
                    path=path,
                    lines=lines,
                    prefix=f"{prefix}{statement.name}.",
                    in_class=True,
                )

    # -- transitive signatures ----------------------------------------
    def resolved_signature(self, info: FunctionInfo) -> EffectSignature:
        """Memoized transitive effect signature of one function."""
        key = (info.path, info.qualname)
        memo = self._sig_memo.get(key)
        if memo is self._IN_PROGRESS:
            return EffectSignature()
        if isinstance(memo, EffectSignature):
            return memo
        self._sig_memo[key] = self._IN_PROGRESS
        out = EffectSignature()
        surface = self.surfaces.get(key)
        if surface is not None:
            out.merge(surface.signature)
        for call in info.calls:
            for callee in self.resolve_name(
                call.name, info, is_method=call.is_method
            ):
                if callee is info or callee.pair is not None:
                    # A paired callee is a contract boundary: its own
                    # surface is judged against its twin, not folded
                    # into the caller.
                    continue
                out.merge(self.resolved_signature(callee))
        self._sig_memo[key] = out
        return out

    # -- findings ------------------------------------------------------
    def _finding(self, rule: str, detail: str, site: Site) -> Finding:
        return Finding(
            path=site.path,
            line=site.line,
            col=site.col,
            rule=rule,
            message=f"{PAR_RULES[rule].title}: {detail}",
            text=site.text,
        )

    @staticmethod
    def _tag(info: FunctionInfo) -> str:
        return info.pair_backend or "?"

    def _pair_members(self) -> dict[str, list[FunctionInfo]]:
        pairs: dict[str, list[FunctionInfo]] = {}
        for info in self.table:
            if info.pair is not None:
                pairs.setdefault(info.pair, []).append(info)
        for members in pairs.values():
            members.sort(key=lambda m: (m.path, m.qualname))
        return pairs

    def _diff_dimension(
        self,
        pair: str,
        members: list[FunctionInfo],
        signatures: dict[int, EffectSignature],
        rule: str,
        dimension: str,
        describe: str,
    ) -> list[Finding]:
        findings: list[Finding] = []
        keys: set = set()
        for sig in signatures.values():
            keys |= set(getattr(sig, dimension))
        for key in sorted(keys, key=repr):
            have = [
                member
                for member in members
                if key in getattr(signatures[id(member)], dimension)
            ]
            if len(have) == len(members):
                continue
            missing = sorted(
                self._tag(member)
                for member in members
                if member not in have
            )
            if isinstance(key, str):
                label = repr(key)
            else:
                label = f"{key[0]} {key[1]!r}"
            for member in have:
                site = getattr(signatures[id(member)], dimension)[key]
                findings.append(
                    self._finding(
                        rule,
                        f"pair {pair!r}: {member.qualname} "
                        f"({self._tag(member)}) {describe} {label} "
                        f"but the {', '.join(missing)} backend(s) "
                        f"never do",
                        site,
                    )
                )
        return findings

    def _check_pair(
        self, pair: str, members: list[FunctionInfo]
    ) -> list[Finding]:
        findings: list[Finding] = []
        seen_tags: dict[str, FunctionInfo] = {}
        for member in members:
            tag = self._tag(member)
            if tag in seen_tags:
                surface = self.surfaces.get((member.path, member.qualname))
                if surface is not None:
                    findings.append(
                        self._finding(
                            "PAR006",
                            f"pair {pair!r}: backend tag {tag!r} claimed "
                            f"by both {seen_tags[tag].qualname} and "
                            f"{member.qualname}",
                            surface.def_site,
                        )
                    )
            else:
                seen_tags[tag] = member
        if len(members) < 2:
            return findings
        signatures = {
            id(member): self.resolved_signature(member)
            for member in members
        }
        findings.extend(
            self._diff_dimension(
                pair, members, signatures,
                "PAR001", "counters", "bumps counter",
            )
        )
        findings.extend(
            self._diff_dimension(
                pair, members, signatures,
                "PAR002", "events", "emits",
            )
        )
        findings.extend(
            self._diff_dimension(
                pair, members, signatures,
                "PAR003", "config_reads", "reads config field",
            )
        )
        findings.extend(
            self._diff_dimension(
                pair, members, signatures,
                "PAR004", "raises", "raises",
            )
        )
        findings.extend(
            self._diff_dimension(
                pair, members, signatures,
                "PAR004", "ops", "applies shared-state op",
            )
        )
        findings.extend(self._check_signatures(pair, members))
        return findings

    def _check_signatures(
        self, pair: str, members: list[FunctionInfo]
    ) -> list[Finding]:
        surfaces = {
            id(member): self.surfaces.get((member.path, member.qualname))
            for member in members
        }
        known = [m for m in members if surfaces[id(m)] is not None]
        if len(known) < 2:
            return []
        reference = next(
            (m for m in known if self._tag(m) == "object"), known[0]
        )

        def fmt(params: tuple[tuple[str, str], ...]) -> str:
            return "(" + ", ".join(
                f"{name}={default}" if default else name
                for name, default in params
            ) + ")"

        findings: list[Finding] = []
        ref_surface = surfaces[id(reference)]
        assert ref_surface is not None
        for member in known:
            if member is reference:
                continue
            surface = surfaces[id(member)]
            assert surface is not None
            if surface.params != ref_surface.params:
                findings.append(
                    self._finding(
                        "PAR006",
                        f"pair {pair!r}: {member.qualname} "
                        f"({self._tag(member)}) has signature "
                        f"{fmt(surface.params)} but "
                        f"{reference.qualname} "
                        f"({self._tag(reference)}) has "
                        f"{fmt(ref_surface.params)}",
                        surface.def_site,
                    )
                )
        return findings

    def _check_registry(self) -> list[Finding]:
        """PAR005: every emitted name must be in the schema registry."""
        findings: list[Finding] = []
        for (_path, qualname), surface in self.surfaces.items():
            sig = surface.signature
            checks: list[tuple[str, str, Site]] = [
                ("counter", name, site)
                for name, site in sig.counters.items()
            ]
            checks.extend(
                (kind, name, site)
                for (kind, name), site in sig.events.items()
            )
            for kind, name, site in checks:
                if schema.is_registered(kind, name):
                    continue
                if (
                    kind == "counter"
                    and name in sig.store_counters
                    and schema.is_registered("gauge", name)
                ):
                    continue
                findings.append(
                    self._finding(
                        "PAR005",
                        f"{qualname} emits {kind} {name!r}, which "
                        f"repro.observe.schema does not declare",
                        site,
                    )
                )
        return findings

    def raw_findings(self) -> list[Finding]:
        """Every PAR finding over the analyzed files, pre-suppression."""
        findings: list[Finding] = list(self._check_registry())
        for pair, members in sorted(self._pair_members().items()):
            findings.extend(self._check_pair(pair, members))
        unique: dict[tuple[str, int, int, str, str], Finding] = {}
        for finding in findings:
            key = (
                finding.path,
                finding.line,
                finding.col,
                finding.rule,
                finding.message,
            )
            unique.setdefault(key, finding)
        return sorted(
            unique.values(),
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message),
        )


@dataclasses.dataclass
class ParityReport:
    """Outcome of one parity-analysis run over a set of paths."""

    findings: list[Finding]
    grandfathered: list[Finding]
    suppressed: int
    files: int
    pairs: int
    dead_suppressions: list[DeadSuppression] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no non-grandfathered findings)."""
        return not self.findings


def _apply_suppressions(
    raw: Iterable[Finding], sources: dict[str, str]
) -> tuple[list[Finding], int, list[DeadSuppression]]:
    """Honor ``# repro: allow-PARnnn`` comments; spot dead ones."""
    kept: list[Finding] = []
    suppressed = 0
    allowed = {
        path: suppression_map(source, "PAR")
        for path, source in sources.items()
    }
    lines_by_path = {
        path: source.splitlines() for path, source in sources.items()
    }
    used: dict[tuple[str, int], set[str]] = {}
    for finding in raw:
        codes = allowed.get(finding.path, {}).get(
            finding.line, frozenset()
        )
        if finding.rule in codes:
            suppressed += 1
            used.setdefault((finding.path, finding.line), set()).add(
                finding.rule
            )
        else:
            kept.append(finding)
    dead: list[DeadSuppression] = []
    for path in sorted(allowed):
        lines = lines_by_path[path]
        for lineno, codes in sorted(allowed[path].items()):
            line = lines[lineno - 1] if lineno <= len(lines) else ""
            unused = sorted(codes - used.get((path, lineno), set()))
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


def resolve_parity_rule_filter(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> frozenset[str]:
    """The active PAR rule codes after ``--select`` / ``--ignore``."""
    return _resolve_rule_filter(select, ignore, known=PAR_RULES)


def analyze_parity_source(source: str, path: str) -> list[Finding]:
    """Analyze one file's source text; suppression comments honored."""
    analyzer = _ParityAnalyzer([(path, source)])
    kept, _, _ = _apply_suppressions(
        analyzer.raw_findings(), {path: source}
    )
    return kept


def analyze_parity_paths(
    paths: Sequence[str],
    baseline_fingerprints: frozenset[tuple[str, str, str]] = frozenset(),
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> ParityReport:
    """Analyze every Python file under ``paths``.

    All files feed one call graph, so a pair whose members live in
    different modules (the common case: ``detailed/search.py`` vs
    ``engine/detailed.py``) diffs correctly.  Baseline fingerprints
    grandfather findings exactly like the linter's; ``select`` /
    ``ignore`` restrict the active rules and raise
    :class:`ValueError` on unknown codes.
    """
    active = resolve_parity_rule_filter(select, ignore)
    files: list[tuple[str, str]] = []
    sources: dict[str, str] = {}
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        files.append((str(file_path), source))
        sources[str(file_path)] = source
    analyzer = _ParityAnalyzer(files)
    kept, suppressed, dead = _apply_suppressions(
        analyzer.raw_findings(), sources
    )
    findings: list[Finding] = []
    grandfathered: list[Finding] = []
    for finding in kept:
        if finding.rule not in active:
            continue
        if finding.fingerprint in baseline_fingerprints:
            grandfathered.append(finding)
        else:
            findings.append(finding)
    return ParityReport(
        findings=findings,
        grandfathered=grandfathered,
        suppressed=suppressed,
        files=len(files),
        pairs=len(analyzer._pair_members()),
        dead_suppressions=dead,
    )


def render_parity(report: ParityReport) -> str:
    """Human-readable analyzer output, mirroring the linter's."""
    out = finding_lines(report.findings)
    out.extend(dead_suppression_lines(report.dead_suppressions))
    summary = (
        f"{len(report.findings)} finding(s) across {report.pairs} "
        f"pair(s) in {report.files} file(s)"
    )
    if report.grandfathered:
        summary += f", {len(report.grandfathered)} grandfathered"
    if report.dead_suppressions:
        summary += (
            f", {len(report.dead_suppressions)} dead suppression(s)"
        )
    out.append(summary)
    return "\n".join(out)


__all__ = [
    "CONFIG_FIELDS",
    "EffectSignature",
    "FunctionSurface",
    "ParityReport",
    "Site",
    "analyze_parity_paths",
    "analyze_parity_source",
    "render_parity",
    "resolve_parity_rule_filter",
]

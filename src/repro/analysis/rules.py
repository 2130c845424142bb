"""The analysis rule catalogs (DET, AUD, PAR).

Three catalogs share the :class:`Rule` record:

* the **DET** rules state the code-level conventions the committed
  baselines and the serial-equivalence contract of the parallel
  engine rest on (see ``docs/parallelism.md``): the routing result
  must be a pure function of the design and the config, byte-for-byte
  reproducible across processes, machines, and worker counts.  The
  linter in :mod:`~repro.analysis.lint` enforces them statically.
* the **AUD** rules state the solution-level constraints a finished
  routing must satisfy (the paper's Problem 1 plus basic routing
  legality).  The independent auditor in
  :mod:`~repro.analysis.audit` re-derives each one from the raw
  geometry — DRC-style, sharing no counting code with the evaluator —
  and cross-checks the router's self-reported numbers.
* the **PAR** rules state the cross-backend equivalence discipline:
  implementations declared as backend pairs
  (``@repro.analysis.paired(...)``) must agree on every externally
  observable effect — counters, trace events, config consumption,
  exceptions, and call signatures — and every observability name must
  be declared in the :mod:`~repro.observe.schema` registry.  The
  parity analyzer in :mod:`~repro.analysis.parity` enforces them.

``docs/static_analysis.md`` discusses every rule with examples.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Rule:
    """One determinism rule.

    Attributes:
        code: stable identifier (``DET001`` ...), used in output and in
            ``# repro: allow-DETnnn`` suppression comments.
        title: one-line description shown next to every finding.
        rationale: why violating the rule can break reproducibility.
        fix_hint: the canonical way to fix (or legitimately suppress) a
            finding; printed with every finding.
        routing_only: whether the rule applies only inside the
            routing-decision packages (``ROUTING_PACKAGES``); rules
            that are unconditionally bad apply everywhere.
    """

    code: str
    title: str
    rationale: str
    fix_hint: str
    routing_only: bool = True


#: Packages whose code feeds routing decisions.  Iteration order,
#: tie-breaking, and ambient inputs inside these packages directly
#: shape the routing result, so the routing-scoped rules apply here.
ROUTING_PACKAGES = frozenset(
    {"globalroute", "detailed", "assign", "parallel", "multilevel"}
)

DET001 = Rule(
    code="DET001",
    title="unordered iteration over a set or dict.keys()",
    rationale=(
        "Iterating a set (or materializing one into a sequence) exposes "
        "hash order; any routing decision derived from that order can "
        "differ between processes and break byte-identical replay."
    ),
    fix_hint=(
        "iterate sorted(...) or a canonically ordered container; if the "
        "consumer is provably order-independent, append "
        "'# repro: allow-DET001 <why>'"
    ),
)

DET002 = Rule(
    code="DET002",
    title="wall-clock or RNG input in a routing path",
    rationale=(
        "time.time()/random/os.urandom make the routing result depend "
        "on when and where it runs; only the observe layer may read "
        "ambient state (timing measurement is sanctioned there and via "
        "time.perf_counter for reported durations)."
    ),
    fix_hint=(
        "derive the value from the design or the RouterConfig, or move "
        "the measurement into repro.observe; timers for reported "
        "durations should use time.perf_counter"
    ),
)

DET003 = Rule(
    code="DET003",
    title="float equality comparison on coordinates or costs",
    rationale=(
        "== / != on accumulated float costs flips with association "
        "order, so two schedules of the same arithmetic can take "
        "different branches."
    ),
    fix_hint=(
        "compare with an explicit tolerance (math.isclose or an "
        "epsilon), or restructure so the branch keys on integers"
    ),
)

DET004 = Rule(
    code="DET004",
    title="mutable default argument",
    rationale=(
        "A shared mutable default leaks state between calls — results "
        "then depend on call history, not on the inputs."
    ),
    fix_hint="default to None and create the container inside the body",
    routing_only=False,
)

DET005 = Rule(
    code="DET005",
    title="id()/hash-order reliance for tie-breaking",
    rationale=(
        "id() values and hash-bucket order (next(iter(s)), set.pop()) "
        "vary between processes; a tie broken by either is a "
        "nondeterministic routing decision."
    ),
    fix_hint=(
        "break ties on stable domain keys (net name, coordinates); "
        "pick set elements with min()/max()/sorted()"
    ),
)

#: All determinism rules, keyed by code, in catalog order.
RULES: dict[str, Rule] = {
    r.code: r for r in (DET001, DET002, DET003, DET004, DET005)
}


AUD001 = Rule(
    code="AUD001",
    title="via on a stitching line",
    rationale=(
        "Problem 1 permits via violations only at fixed pins: a routed "
        "via stack cut by a stitching line anywhere else is illegal, "
        "and every via-on-line event must appear in the report's "
        "attributed #VV count."
    ),
    fix_hint=(
        "vias may sit on a line only at a fixed pin; check the grid's "
        "hard via constraint and the evaluator's #VV accounting"
    ),
    routing_only=False,
)

AUD002 = Rule(
    code="AUD002",
    title="vertical wire running along a stitching line",
    rationale=(
        "The vertical routing constraint is hard for both routers: a "
        "wire on a vertical layer may never occupy a stitching-line "
        "track, so any such segment is a legality breach — the "
        "vertical-violation column must be zero."
    ),
    fix_hint=(
        "the detailed grid must block vertical-layer nodes on line "
        "tracks structurally; check DetailedGrid.is_blocked"
    ),
    routing_only=False,
)

AUD003 = Rule(
    code="AUD003",
    title="short polygon site mismatch in the stitch unfriendly region",
    rationale=(
        "A horizontal wire cut by a line whose end lies within epsilon "
        "of it with a landing via is a short polygon (Fig. 5c); the "
        "report's attributed #SP entries must match the recomputed "
        "sites exactly — an unreported or phantom site means the "
        "evaluator and the geometry disagree."
    ),
    fix_hint=(
        "compare the net's trimmed geometry against its reported "
        "short-polygon attributions; check the epsilon window and the "
        "landing-via condition"
    ),
    routing_only=False,
)

AUD004 = Rule(
    code="AUD004",
    title="routed net is not electrically connected",
    rationale=(
        "A net marked routed must connect all of its pins through one "
        "component of wire edges; a stranded pin means the routability "
        "column overstates the solution."
    ),
    fix_hint=(
        "check the router's connectivity bookkeeping and the trimming "
        "pass (trimming must never cut a pin from the tree)"
    ),
    routing_only=False,
)

AUD005 = Rule(
    code="AUD005",
    title="inter-net short (two nets share a grid node)",
    rationale=(
        "Each grid node may carry the metal of at most one net; a "
        "shared node is an electrical short that no report column "
        "counts, so only an independent check can catch it."
    ),
    fix_hint=(
        "check the occupancy grid's owner bookkeeping, especially "
        "rip-up releases and speculative overlay merges"
    ),
    routing_only=False,
)

AUD006 = Rule(
    code="AUD006",
    title="wire against the layer's preferred direction",
    rationale=(
        "Horizontal layers route in x and vertical layers in y "
        "(Section II); a wrong-way unit edge, a via spanning "
        "non-adjacent layers, or an off-die node means the solution "
        "left the legal grid."
    ),
    fix_hint=(
        "check DetailedGrid.neighbors (planar moves must follow the "
        "preferred direction) and the trunk materialization"
    ),
    routing_only=False,
)

AUD007 = Rule(
    code="AUD007",
    title="global-routing capacity accounting drift",
    rationale=(
        "The global graph's edge and vertex (line-end) demand arrays "
        "drive every congestion decision; if they differ from the "
        "demand recomputed from the final routes, place/unplace "
        "bookkeeping has leaked and negotiation was steered by stale "
        "numbers."
    ),
    fix_hint=(
        "check that every _place_path has a matching _unplace_path "
        "(rip-up, failed subnets, speculative merges)"
    ),
    routing_only=False,
)

#: All solution-audit rules, keyed by code, in catalog order.
AUDIT_RULES: dict[str, Rule] = {
    r.code: r
    for r in (AUD001, AUD002, AUD003, AUD004, AUD005, AUD006, AUD007)
}


PAR001 = Rule(
    code="PAR001",
    title="counter bumped in one backend of a pair only",
    rationale=(
        "Paired backends must reproduce the committed trace baselines "
        "byte for byte — the counters ARE the quality metrics (#VV, "
        "stitch evaluations, expansion totals) the paper reports.  A "
        "counter one member bumps and the other never mentions "
        "guarantees a diff on the first workload that reaches it, "
        "found at lint time instead of by the differential suite."
    ),
    fix_hint=(
        "bump the counter in both backends (or hoist it into the "
        "shared caller so neither backend owns it); if the divergence "
        "is genuinely backend-local bookkeeping, give it a strippable "
        "prefix (perf_/parallel_) or suppress with "
        "# repro: allow-PAR001 <why>"
    ),
    routing_only=False,
)

PAR002 = Rule(
    code="PAR002",
    title="trace span/gauge/progress event emitted in one backend only",
    rationale=(
        "Spans, gauges, and progress events form the observable shape "
        "of a run; trace diffing, the watch monitor, and the committed "
        "BENCH baselines all assume that shape is backend-invariant. "
        "A span or gauge only one pair member emits makes traces "
        "structurally incomparable across backends."
    ),
    fix_hint=(
        "emit the event in both backends or move it to the shared "
        "orchestration layer above the pair; suppress with "
        "# repro: allow-PAR002 <why> if the event is intentionally "
        "backend-specific"
    ),
    routing_only=False,
)

PAR003 = Rule(
    code="PAR003",
    title="RouterConfig field consumed by one backend of a pair only",
    rationale=(
        "A config knob only one backend reads is a semantic fork: the "
        "same RouterConfig routes differently depending on which "
        "member runs, and no differential circuit that leaves the "
        "knob at its default will ever notice.  Every field a pair "
        "member consults must be consulted (or provably irrelevant) "
        "in its twin."
    ),
    fix_hint=(
        "thread the config field through both implementations, or "
        "resolve it in the shared caller and pass the resolved value "
        "down; suppress with # repro: allow-PAR003 <why> when the "
        "field selects between the backends themselves"
    ),
    routing_only=False,
)

PAR004 = Rule(
    code="PAR004",
    title="divergent exception or shared-state op surface between "
    "paired backends",
    rationale=(
        "Callers of a paired contract handle the reference "
        "implementation's failure modes and rely on both members "
        "driving the same grid/graph/overlay vocabulary; an "
        "exception type or shared-state operation only one member "
        "uses turns an equivalent-but-faster path into one with new "
        "crash modes or a different mutation footprint."
    ),
    fix_hint=(
        "raise the same exception types and apply the same "
        "shared-state and overlay operations from both members (wrap "
        "backend-internal errors at the boundary); suppress with "
        "# repro: allow-PAR004 <why> for genuinely "
        "backend-impossible conditions"
    ),
    routing_only=False,
)

PAR005 = Rule(
    code="PAR005",
    title="counter/gauge name missing from the observe schema registry",
    rationale=(
        "repro.observe.schema is the single source of truth for every "
        "observability name — the regression gate's strip lists, the "
        "perf-history columns, and backend-coverage checks all derive "
        "from it.  An unregistered name is invisible to all of them: "
        "it cannot be stripped, tracked, or parity-checked."
    ),
    fix_hint=(
        "register the name in repro/observe/schema.py with its owner "
        "stage, backend coverage, and category (or fix the typo — "
        "unregistered names are usually misspellings of registered "
        "ones)"
    ),
    routing_only=False,
)

PAR006 = Rule(
    code="PAR006",
    title="paired callables with drifting signatures or defaults",
    rationale=(
        "Backend pairs are dispatched by a shared caller that builds "
        "one argument list; members whose parameter names, order, or "
        "defaults drift can only be called through backend-specific "
        "glue, and a default that differs between members silently "
        "changes behavior when the caller omits the argument."
    ),
    fix_hint=(
        "align parameter names, order, and default values across the "
        "pair (the self/receiver parameter is exempt); suppress with "
        "# repro: allow-PAR006 <why> where the extra parameter is the "
        "backend's own state handle"
    ),
    routing_only=False,
)

#: All cross-backend parity rules, keyed by code, in catalog order.
PAR_RULES: dict[str, Rule] = {
    r.code: r
    for r in (PAR001, PAR002, PAR003, PAR004, PAR005, PAR006)
}


def rule_catalog() -> dict[str, Rule]:
    """Every known rule across all catalogs, keyed by code.

    The merged lookup table behind
    :func:`~repro.analysis.findings.fix_hint_for` — rule codes are
    globally unique across the DET/AUD/PAR families.
    """
    return {**RULES, **AUDIT_RULES, **PAR_RULES}

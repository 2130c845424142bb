"""The analysis rule catalogs (lint: DET; AUD).

Two catalogs share the :class:`Rule` record:

* the **lint** rules, enforced statically by the linter in
  :mod:`~repro.analysis.lint`.  The DET rules state the code-level
  conventions the committed baselines rest on: the routing result
  must be a pure function of the design and the config,
  byte-for-byte reproducible across processes and machines.
* the **AUD** rules state the solution-level constraints a finished
  routing must satisfy (the paper's Problem 1 plus basic routing
  legality).  The independent auditor in
  :mod:`~repro.analysis.audit` re-derives each one from the raw
  geometry — DRC-style, sharing no counting code with the evaluator —
  and cross-checks the router's self-reported numbers.

``docs/static_analysis.md`` discusses every rule with examples.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Rule:
    """One analysis rule.

    Attributes:
        code: stable identifier (``DET001`` ...), used in output and in
            ``# repro: allow-DETnnn`` suppression comments.
        title: one-line description shown next to every finding.
        rationale: why violating the rule is a defect.
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
    {"globalroute", "detailed", "assign", "multilevel"}
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

#: All lint rules, keyed by code, in catalog order.
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
        "rip-up releases and negotiated force-claims"
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
        "check the detailed A* in repro/detailed/search.py (planar "
        "moves must follow the preferred direction) and the trunk "
        "materialization in repro/detailed/trunks.py"
    ),
    routing_only=False,
)

AUD007 = Rule(
    code="AUD007",
    title="global-routing capacity accounting drift",
    rationale=(
        "The global graph's edge and vertex (line-end) demand state "
        "drives every congestion decision; if it differs from the "
        "demand recomputed from the final routes, place/unplace "
        "bookkeeping has leaked and negotiation was steered by stale "
        "numbers."
    ),
    fix_hint=(
        "check that every GlobalGraph.apply_path(path, +1) has a "
        "matching apply_path(path, -1) (rip-up, failed subnets)"
    ),
    routing_only=False,
)

#: All solution-audit rules, keyed by code, in catalog order.
AUDIT_RULES: dict[str, Rule] = {
    r.code: r
    for r in (AUD001, AUD002, AUD003, AUD004, AUD005, AUD006, AUD007)
}

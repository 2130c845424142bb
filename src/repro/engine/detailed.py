"""Array-core detailed routing: flat node-indexed state + indexed A*.

The object engine spends most of the detailed-routing wall clock
hashing ``(x, y, layer)`` tuples: every ``_passable`` probe, every
``best_g`` lookup, and every heap entry pays tuple construction and
tuple hashing.  The array core flattens the grid to integer node ids

    ``idx = (x * height + y) * num_layers + (layer - 1)``

so a planar x move is ``idx +- height * num_layers``, a planar y move
is ``idx +- num_layers`` and a via is ``idx +- 1``.  The encoding is
monotonic in ``(x, y, layer)``, so ordering ids compares exactly like
ordering node tuples — the ``(f, g, node)`` heap tie-break of the
object engine is preserved bit for bit.

Per-stage state follows the incremental obstacle-cache idiom: the base
step-cost array (Eq. (10) ``alpha`` plus the ``gamma`` escape term,
with a negative sentinel for structurally blocked nodes), the per-x
via surcharge, the ownership-id array and the pin mask are built once
per stage — numpy assembles them, plain lists serve them, because the
search reads single entries where list indexing beats ndarray scalar
access.

:class:`ArrayDetailedGrid` keeps the inherited ``_owner`` dict
authoritative (the auditor keeps working on the object surface
unchanged) and mirrors each ownership write into the id array via the
public mutators.  The indexed search
replicates the object engine's control flow *exactly* — candidate
order, ownership-read points, ``cost_evaluations`` increments, the
expansion-counter position and the ``1e-12`` relaxation slack — so
both engines produce byte-identical reports; ``tests/engine`` holds
the differential suite that enforces this.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..analysis.pairing import paired
from ..detailed.grid import DetailedGrid, Node
from ..layout import Design

_INF = float("inf")

#: Step-cost sentinel for structurally blocked nodes (vertical layer on
#: a stitching-line track).  Negative so the hot loop can test
#: ``step >= 0.0`` instead of comparing against infinity.
_BLOCKED_STEP = -1.0

#: Sentinel in the ownership-folded step array (:attr:`_free_step`) for
#: nodes whose owner id is nonzero.  Distinct from ``_BLOCKED_STEP`` so
#: the fast loop can tell "owned — maybe by me" (recheck the id array)
#: from "structurally blocked" (reject outright) with one comparison.
_OWNED_STEP = -2.0


class ArrayDetailedGrid(DetailedGrid):
    """:class:`DetailedGrid` plus flat arrays and the indexed A* path.

    The inherited ``_owner`` dict stays authoritative — the auditor
    keeps reading the object surface — and every public ownership
    mutator mirrors its effect into the flat id array, so the two
    views never diverge.  :meth:`indexed_search` is the fast path that
    :func:`repro.detailed.search.astar_connect` dispatches to when
    present.
    """

    def __init__(self, design: Design, stitch_aware: bool = True) -> None:
        super().__init__(design, stitch_aware)
        width, height, layers_n = self._width, self._height, self._num_layers
        self._hl = height * layers_n
        config = self.config
        # Base step cost of entering each node: Eq. (10) alpha plus the
        # gamma escape term, blocked sentinel where the structural MEBL
        # constraint applies.  float64 arithmetic is bit-identical to
        # the scalar reference (single additions, same operands), and
        # C-order flattening matches the id encoding.
        base = np.full((width, height, layers_n), config.alpha, dtype=np.float64)
        vert_layers = np.array(self._vertical[1:], dtype=bool)
        all_rows = np.ones(height, dtype=bool)
        if stitch_aware:
            escape_cols = np.array(self._escape, dtype=bool)
            base[np.ix_(escape_cols, all_rows, vert_layers)] += config.gamma
        line_cols = np.array(self._on_line, dtype=bool)
        base[np.ix_(line_cols, all_rows, vert_layers)] = _BLOCKED_STEP
        self._step = base.reshape(-1).tolist()
        #: Per-x via surcharge (Eq. (10) beta inside unfriendly regions).
        self._via_extra = [
            config.beta if (stitch_aware and unfriendly) else 0.0
            for unfriendly in self._unfriendly
        ]
        size = width * self._hl
        self._owner_ids = [0] * size
        # ``_step`` with ``_OWNED_STEP`` folded in wherever the owner id
        # is nonzero, so the specialized search loop resolves the common
        # free-node candidate with a single load and compare.  Every
        # node starts free, so it begins as a plain copy.
        self._free_step = list(self._step)
        self._pin_mask = bytearray(size)
        #: net name -> positive integer id (0 means free), filled for
        #: the whole netlist up front.
        self._net_ids: dict[str, int] = {}
        for net in design.netlist:
            self._net_id(net.name)

    # -- id registry ---------------------------------------------------
    def _net_id(self, net: str) -> int:
        nid = self._net_ids.get(net)
        if nid is None:
            nid = len(self._net_ids) + 1
            self._net_ids[net] = nid
        return nid

    # -- ownership mutators mirror into the id array --------------------
    def occupy(self, node: Node, net: str) -> None:
        super().occupy(node, net)
        idx = self._encode(node)
        self._owner_ids[idx] = self._net_id(net)
        self._free_step[idx] = _OWNED_STEP

    def force_occupy(self, node: Node, net: str) -> Optional[str]:
        evicted = super().force_occupy(node, net)
        idx = self._encode(node)
        self._owner_ids[idx] = self._net_id(net)
        self._free_step[idx] = _OWNED_STEP
        return evicted

    def release(self, node: Node, net: str) -> None:
        super().release(node, net)
        # Resync from the authoritative dict: release is a no-op for
        # pins and foreign owners, so read back what actually holds.
        owner = self._owner.get(node)
        idx = self._encode(node)
        if owner is None:
            self._owner_ids[idx] = 0
            self._free_step[idx] = self._step[idx]
        else:
            self._owner_ids[idx] = self._net_id(owner)
            self._free_step[idx] = _OWNED_STEP

    def mark_pin(self, node: Node) -> None:
        super().mark_pin(node)
        self._pin_mask[self._encode(node)] = 1

    # -- indexed A* ----------------------------------------------------
    def _encode(self, node: Node) -> int:
        """Flat id of a node; monotonic in ``(x, y, layer)``."""
        x, y, layer = node
        return (x * self._height + y) * self._num_layers + layer - 1

    def _decode(self, idx: int) -> Node:
        """Node tuple of a flat id (inverse of :meth:`_encode`)."""
        x, rem = divmod(idx, self._hl)
        y, lm = divmod(rem, self._num_layers)
        return (x, y, lm + 1)

    @paired("detailed-astar", backend="array")
    def indexed_search(  # repro: allow-PAR006 the grid argument is the receiver on this side
        self,
        net: str,
        sources: set[Node],
        targets: set[Node],
        window: tuple[int, int, int, int],
        expansion_limit: int,
        blocked: Optional[set[Node]] = None,
        foreign_penalty: Optional[float] = None,
        stats: Optional[dict[str, float]] = None,
        profile: bool = False,
    ) -> Optional[list[Node]]:
        """Array-core twin of :func:`~repro.detailed.search.astar_connect`.

        Same arguments (minus the grid, which is ``self``), same
        result, same counter increments; called by ``astar_connect``
        after its shared preamble (search counting, empty-set and
        shared-node shortcuts), so only the heap loop lives here.

        Byte-identity notes: candidates are generated in the object
        engine's order (planar minus, planar plus, via down, via up);
        ownership is consulted exactly when ``_passable`` would consult
        it (after bounds and the structural-block test, *before* the
        on-line via filter); ``cost_evaluations`` counts passable
        candidates before the window/blocked filters; the expansion
        counter increments after the target test; relaxation keeps the
        ``1e-12`` slack.  All step costs replicate the reference
        association order, so every float compares equal bit for bit.

        ``profile=True`` flushes ``perf_heap_pops`` / ``perf_heap_pushes``
        into ``stats``.  Only pops are counted in the loop (one add per
        expansion-candidate pop, unconditionally, so both modes run the
        same instructions); pushes are derived exactly at flush time
        from the heap invariant ``pushes == pops + len(heap)``, which
        matches the reference loop's explicit push count bit for bit.
        """
        lo_x, lo_y, hi_x, hi_y = window
        weight = 1.3 * self.config.alpha

        encode = self._encode
        width = self._width
        height = self._height
        layers_n = self._num_layers
        hl = self._hl

        # Target bbox + encoded ids.  Rip-up reconnects pass whole net
        # components as targets, so this setup is O(|targets|) per
        # search; one vectorized pass replaces four scans plus a
        # per-node encode.  Integer arithmetic is exact either way —
        # both branches produce identical values.
        if len(targets) >= 16:
            tarr = np.array(
                list(targets), dtype=np.int64  # repro: allow-DET001 feeds only min/max and a frozenset
            )
            txs, tys = tarr[:, 0], tarr[:, 1]
            t_lo_x = int(txs.min())
            t_hi_x = int(txs.max())
            t_lo_y = int(tys.min())
            t_hi_y = int(tys.max())
            tgt = frozenset(
                ((txs * height + tys) * layers_n + tarr[:, 2] - 1).tolist()
            )
        else:
            t_lo_x = min(t[0] for t in targets)
            t_hi_x = max(t[0] for t in targets)
            t_lo_y = min(t[1] for t in targets)
            t_hi_y = max(t[1] for t in targets)
            tgt = frozenset(
                encode(t) for t in targets
            )
        step = self._step
        via_extra = self._via_extra
        on_line = self._on_line
        vertical = self._vertical
        owner_ids = self._owner_ids
        pins = self._pin_mask
        net_id = self._net_id(net)
        fp = foreign_penalty

        blk: Optional[frozenset] = None
        if blocked is not None:
            blk = frozenset(encode(b) for b in blocked)

        # Seeding order over the source set is immaterial: best_g is a
        # pure mapping and heap entries are totally ordered by
        # (f, g, id), so pop order never depends on insertion order —
        # the same argument astar_connect documents for tuple nodes.
        # Large source sets (rip-up reconnects seed whole components)
        # take the vectorized branch; the clipped distances and the
        # int64 encode produce the same values as the scalar branch,
        # and ``weight * int`` multiplies identically in float64.
        #
        # Heap entries carry the node's clipped heuristic deltas as a
        # fourth and fifth element so the pop side reuses them instead
        # of recomputing eight comparisons per expansion.  They are a
        # pure function of the node id (given the fixed target bbox),
        # so two entries that tie on ``(f, g, id)`` carry equal deltas
        # and the heap order stays exactly the 3-tuple order.
        best_g: dict[int, float]
        src_idx: set[int]
        heap: list[tuple[float, float, int, int, int]]
        if len(sources) >= 16:
            sarr = np.array(
                list(sources), dtype=np.int64  # repro: allow-DET001 seeds a pure mapping and a heapified list
            )
            sxs, sys_ = sarr[:, 0], sarr[:, 1]
            sdx = np.maximum(np.maximum(t_lo_x - sxs, sxs - t_hi_x), 0)
            sdy = np.maximum(np.maximum(t_lo_y - sys_, sys_ - t_hi_y), 0)
            sis = ((sxs * height + sys_) * layers_n + sarr[:, 2] - 1).tolist()
            best_g = dict.fromkeys(sis, 0.0)
            src_idx = set(sis)
            heap = [
                (f0, 0.0, si0, dx0, dy0)
                for f0, si0, dx0, dy0 in zip(
                    (weight * (sdx + sdy)).tolist(),
                    sis,
                    sdx.tolist(),
                    sdy.tolist(),
                )
            ]
        else:
            best_g = {}
            src_idx = set()
            heap = []
            for s in sources:  # repro: allow-DET001 seeds a pure mapping and a heapified list
                x, y, _layer = s
                dx = (t_lo_x - x) if x < t_lo_x else (x - t_hi_x) if x > t_hi_x else 0
                dy = (t_lo_y - y) if y < t_lo_y else (y - t_hi_y) if y > t_hi_y else 0
                si = encode(s)
                best_g[si] = 0.0
                src_idx.add(si)
                heap.append((weight * (dx + dy), 0.0, si, dx, dy))
        heapq.heapify(heap)

        parent: dict[int, int] = {}
        best_g_get = best_g.get
        heappop = heapq.heappop
        heappush = heapq.heappush
        expansions = 0
        evals = 0
        pops = 0
        try:
            if fp is None and blk is None:
                # Specialized loop for the dominant case (~85% of the
                # searches on the gate circuits): no foreign penalty,
                # no blocked set.  Identical candidate order, counter
                # increments, and float association order as the
                # general loop below — only the branches that are
                # statically dead here (the penalty rewrite, the
                # blocked filter) are removed, so every produced value
                # is bit-identical.  The via blocks hoist the on-line
                # filter above the ownership read, and candidates
                # consult the ownership-folded step array first:
                # ownership reads have no side effect, so both
                # reorders are unobservable and the owner id array is
                # only touched for owned nodes (to recheck against
                # ``net_id``).
                free_step = self._free_step
                while heap:
                    _f, g, si, hdx, hdy = heappop(heap)
                    pops += 1
                    if g > best_g_get(si, _INF):
                        continue
                    if si in tgt:
                        rev = [si]
                        while rev[-1] not in src_idx:
                            rev.append(parent[rev[-1]])
                        rev.reverse()
                        decode = self._decode
                        return [decode(i) for i in rev]
                    expansions += 1
                    if expansions > expansion_limit:
                        return None
                    x = si // hl
                    rem = si - x * hl
                    y = rem // layers_n
                    lm = rem - y * layers_n
                    in_x = lo_x <= x <= hi_x
                    in_y = lo_y <= y <= hi_y
                    off_line = not on_line[x]

                    if vertical[lm + 1]:
                        if y > 0:
                            ci = si - layers_n
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                ny_ = y - 1
                                if in_x and lo_y <= ny_ <= hi_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y)
                                            if ny_ > t_hi_y
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                        if y + 1 < height:
                            ci = si + layers_n
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                ny_ = y + 1
                                if in_x and lo_y <= ny_ <= hi_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y)
                                            if ny_ > t_hi_y
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                    else:
                        if x > 0:
                            ci = si - hl
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                nx_ = x - 1
                                if in_y and lo_x <= nx_ <= hi_x:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x)
                                            if nx_ > t_hi_x
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )
                        if x + 1 < width:
                            ci = si + hl
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                nx_ = x + 1
                                if in_y and lo_x <= nx_ <= hi_x:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x)
                                            if nx_ > t_hi_x
                                            else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )

                    if off_line:
                        if lm > 0:
                            ci = si - 1
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                sc = sc + via_extra[x]
                                if in_x and in_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + hdy),
                                                candidate,
                                                ci,
                                                hdx,
                                                hdy,
                                            ),
                                        )
                        if lm + 1 < layers_n:
                            ci = si + 1
                            sc = free_step[ci]
                            if sc < 0.0:
                                sc = (
                                    step[ci]
                                    if sc == _OWNED_STEP and owner_ids[ci] == net_id
                                    else _BLOCKED_STEP
                                )
                            if sc >= 0.0:
                                evals += 1
                                sc = sc + via_extra[x]
                                if in_x and in_y:
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + hdy),
                                                candidate,
                                                ci,
                                                hdx,
                                                hdy,
                                            ),
                                        )
                return None

            while heap:
                _f, g, si, hdx, hdy = heappop(heap)
                pops += 1
                if g > best_g_get(si, _INF):
                    continue
                if si in tgt:
                    rev = [si]
                    while rev[-1] not in src_idx:
                        rev.append(parent[rev[-1]])
                    rev.reverse()
                    decode = self._decode
                    return [decode(i) for i in rev]
                expansions += 1
                if expansions > expansion_limit:
                    return None
                x = si // hl
                rem = si - x * hl
                y = rem // layers_n
                lm = rem - y * layers_n
                # Window status of the popped node: planar moves reuse
                # the unchanged coordinate's verdict, vias (same x and
                # y as the node) reuse both — matching the object
                # engine's full per-successor window test.
                in_x = lo_x <= x <= hi_x
                in_y = lo_y <= y <= hi_y
                off_line = not on_line[x]

                # --- planar moves (preferred direction only) ---------
                if vertical[lm + 1]:
                    if y > 0:
                        ci = si - layers_n
                        sc = step[ci]
                        if sc >= 0.0:
                            o = owner_ids[ci]
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                ny_ = y - 1
                                if (
                                    in_x
                                    and lo_y <= ny_ <= hi_y
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                    if y + 1 < height:
                        ci = si + layers_n
                        sc = step[ci]
                        if sc >= 0.0:
                            o = owner_ids[ci]
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                ny_ = y + 1
                                if (
                                    in_x
                                    and lo_y <= ny_ <= hi_y
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dy = (
                                            (t_lo_y - ny_)
                                            if ny_ < t_lo_y
                                            else (ny_ - t_hi_y) if ny_ > t_hi_y else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (hdx + dy),
                                                candidate,
                                                ci,
                                                hdx,
                                                dy,
                                            ),
                                        )
                else:
                    if x > 0:
                        ci = si - hl
                        sc = step[ci]
                        if sc >= 0.0:
                            o = owner_ids[ci]
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                nx_ = x - 1
                                if (
                                    in_y
                                    and lo_x <= nx_ <= hi_x
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )
                    if x + 1 < width:
                        ci = si + hl
                        sc = step[ci]
                        if sc >= 0.0:
                            o = owner_ids[ci]
                            if o == 0 or o == net_id:
                                ok = True
                            elif fp is not None and not pins[ci]:
                                ok = True
                                sc = sc + fp
                            else:
                                ok = False
                            if ok:
                                evals += 1
                                nx_ = x + 1
                                if (
                                    in_y
                                    and lo_x <= nx_ <= hi_x
                                    and (blk is None or ci not in blk)
                                ):
                                    candidate = g + sc
                                    if candidate < best_g_get(ci, _INF) - 1e-12:
                                        best_g[ci] = candidate
                                        parent[ci] = si
                                        dx = (
                                            (t_lo_x - nx_)
                                            if nx_ < t_lo_x
                                            else (nx_ - t_hi_x) if nx_ > t_hi_x else 0
                                        )
                                        heappush(
                                            heap,
                                            (
                                                candidate + weight * (dx + hdy),
                                                candidate,
                                                ci,
                                                dx,
                                                hdy,
                                            ),
                                        )

                # --- z moves (vias) ----------------------------------
                # The ownership test happens before the on-line via
                # filter, exactly like _passable-then-filter in the
                # object engine.
                if lm > 0:
                    ci = si - 1
                    sc = step[ci]
                    if sc >= 0.0:
                        o = owner_ids[ci]
                        if o == 0 or o == net_id:
                            ok = True
                        elif fp is not None and not pins[ci]:
                            ok = True
                            sc = sc + fp
                        else:
                            ok = False
                        if ok and off_line:
                            evals += 1
                            sc = sc + via_extra[x]
                            if in_x and in_y and (blk is None or ci not in blk):
                                candidate = g + sc
                                if candidate < best_g_get(ci, _INF) - 1e-12:
                                    best_g[ci] = candidate
                                    parent[ci] = si
                                    heappush(
                                        heap,
                                        (
                                            candidate + weight * (hdx + hdy),
                                            candidate,
                                            ci,
                                            hdx,
                                            hdy,
                                        ),
                                    )
                if lm + 1 < layers_n:
                    ci = si + 1
                    sc = step[ci]
                    if sc >= 0.0:
                        o = owner_ids[ci]
                        if o == 0 or o == net_id:
                            ok = True
                        elif fp is not None and not pins[ci]:
                            ok = True
                            sc = sc + fp
                        else:
                            ok = False
                        if ok and off_line:
                            evals += 1
                            sc = sc + via_extra[x]
                            if in_x and in_y and (blk is None or ci not in blk):
                                candidate = g + sc
                                if candidate < best_g_get(ci, _INF) - 1e-12:
                                    best_g[ci] = candidate
                                    parent[ci] = si
                                    heappush(
                                        heap,
                                        (
                                            candidate + weight * (hdx + hdy),
                                            candidate,
                                            ci,
                                            hdx,
                                            hdy,
                                        ),
                                    )
            return None
        finally:
            # Hot loop: count locally, flush once per search (the same
            # contract the object engine's grid/search pair keeps).
            self.cost_evaluations += evals
            if stats is not None:
                stats["astar_expansions"] = (
                    stats.get("astar_expansions", 0) + expansions
                )
                if profile:
                    # pushes == pops + len(heap) (heap invariant): the
                    # derived value equals the reference loop's explicit
                    # push count because the two loops are step-identical.
                    stats["perf_heap_pushes"] = (
                        stats.get("perf_heap_pushes", 0) + pops + len(heap)
                    )
                    stats["perf_heap_pops"] = (
                        stats.get("perf_heap_pops", 0) + pops
                    )

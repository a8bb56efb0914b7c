package stream

// Memory-budget governor wiring (Config.MemoryBudget): the engine-side
// half of the degradation ladder. Rung 1 (in-place sketch degradation)
// lives in internal/budget; this file climbs to rung 2 (coarsening
// sealed panes) and rung 3 (shedding) when rung 1 is exhausted, and
// attributes degradations back to the windows that will report them.

// The enforcement cadence is budget.BaseInterval processed events while
// the budget is binding; the governor backs the interval off (up to
// 64×) while usage stays below half the limit, so a slack budget stays
// off the per-event profile. Engines consult gov.Interval() each pass.

// onDegrade attributes one governor degradation to the window (or
// sealed pane) whose sketch shrank, for WindowResult.Degradations.
// Non-negative ids are the serial store's sketches (id = win·partitions
// + part, where win is the pane index outside session mode), which the
// store counts against their window key; negative ids are sealed panes
// (id = -1-j).
func (rs *runState) onDegrade(id int64) {
	if id >= 0 {
		rs.sink.(*partStore).degraded(id)
		return
	}
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.Degradations.Inc()
	}
	if sp := rs.sealed[int(-1-id)]; sp != nil {
		sp.degrades++
	}
}

// enforceBudget runs one governor pass and climbs the ladder: degrade
// (rung 1, inside Enforce), coarsen sealed panes (rung 2) while
// degradation alone cannot fit the budget, and finally toggle shedding
// (rung 3). Shedding clears itself on the first pass that fits again.
func (rs *runState) enforceBudget() {
	if _, serial := rs.sink.(*partStore); serial {
		// Only the serial governor tracks the store's sketches, so only
		// it needs them to hold every pending event. The parallel
		// coordinator's governor sees sealed panes alone, and a flush
		// there would split the batches the workers enforce at.
		rs.flush()
	}
	rs.sinceEnforce = 0
	out := rs.gov.Enforce(rs.onDegrade)
	for out.Exhausted && rs.coarsenOldestPane() {
		out = rs.gov.Enforce(rs.onDegrade)
	}
	rs.shedding = out.Exhausted
	rs.enforceAt = rs.gov.Interval()
	if rs.cfg.Metrics != nil {
		rs.cfg.Metrics.BudgetBytes.Max(int64(out.Usage))
	}
}

// coarsenOldestPane is rung 2: fold the oldest sealed pane into its
// successor, freeing one resident sketch, when the fold is exact —
// every window still to fire sees either both panes or neither, so
// window contents are unchanged (only PaneCounts attribution moves one
// slot later). Disabled under time decay, where the two panes carry
// different ages and the fold would change their weights. Tumbling and
// session runs hold no sealed pane here. Returns whether a pane was
// folded.
func (rs *runState) coarsenOldestPane() bool {
	if rs.cfg.DecayLambda > 0 {
		return false
	}
	// Candidates are sealed panes ascending; stop at the first pane
	// whose successor is unsealed or whose fold would be inexact.
	for j := rs.oldestSealed(); j >= 0 && j+1 < rs.nextSeal; j = rs.nextSealedAfter(j) {
		if !rs.foldExact(j) {
			continue
		}
		dst := rs.sealed[j+1]
		src := rs.sealed[j]
		if dst == nil {
			// Successor held no events: the fold is a move.
			rs.sealed[j+1] = src
		} else {
			if src.sketch != nil {
				if dst.sketch == nil {
					dst.sketch = src.sketch
				} else if err := dst.sketch.Merge(src.sketch); err != nil {
					// A same-builder merge failing is a bug surfaced
					// elsewhere; skip the fold rather than lose data.
					continue
				}
				dst.sealed = nil
			}
			// Pane j precedes j+1, so its values prefix the successor's.
			if src.values != nil {
				dst.values = append(src.values, dst.values...)
			}
			dst.accepted += src.accepted
			dst.degrades += src.degrades
		}
		delete(rs.sealed, j)
		rs.gov.Untrack(-1 - int64(j))
		rs.trackPane(j+1, rs.sealed[j+1])
		if rs.cfg.Metrics != nil {
			rs.cfg.Metrics.BudgetEvictions.Inc()
			rs.cfg.Metrics.PanesOpen.Set(int64(len(rs.open) + len(rs.sealed)))
		}
		return true
	}
	return false
}

// oldestSealed returns the smallest sealed pane index, -1 when none.
func (rs *runState) oldestSealed() int {
	min := -1
	for j := range rs.sealed {
		if min < 0 || j < min {
			min = j
		}
	}
	return min
}

// nextSealedAfter returns the smallest sealed pane index above j, -1
// when none.
func (rs *runState) nextSealedAfter(j int) int {
	next := -1
	for k := range rs.sealed {
		if k > j && (next < 0 || k < next) {
			next = k
		}
	}
	return next
}

// foldExact reports whether folding sealed pane j into pane j+1 leaves
// every unfired window's contents unchanged: no remaining window may
// contain one of the two panes without the other, i.e. no window
// boundary (start or end) falls between them. Window k spans panes
// [paneStart(k), paneEnd(k)), so the fold is inexact iff some k in
// [nextFire, NumWindows) has paneEnd(k) == j+1 or paneStart(k) == j+1.
func (rs *runState) foldExact(j int) bool {
	b := j + 1
	// paneEnd(k) == b  ⟺  k == (b - panesPerWin)/panesPerGap - firstOff
	if d := b - rs.panesPerWin; d%rs.panesPerGap == 0 {
		if k := d/rs.panesPerGap - rs.firstOff; k >= rs.nextFire && k < rs.cfg.NumWindows {
			return false
		}
	}
	// paneStart(k) == b (b > 0, so the origin clamp cannot produce it)
	// ⟺ k == b/panesPerGap - firstOff
	if b%rs.panesPerGap == 0 {
		if k := b/rs.panesPerGap - rs.firstOff; k >= rs.nextFire && k < rs.cfg.NumWindows {
			return false
		}
	}
	return true
}

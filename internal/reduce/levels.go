package reduce

import (
	"sync"

	"repro/internal/ir"
)

// MinParallelSpan is the level width below which Run labels sequentially:
// spawning a goroutine costs on the order of a microsecond while a warm
// table-lookup label costs tens of nanoseconds, so fan-out only pays once
// a level carries at least a few dozen nodes per worker. Half this span
// is the minimum share Run gives one goroutine.
const MinParallelSpan = 128

// Levels partitions a forest's (or DAG's) nodes into topological levels:
// level 0 holds the leaves, and every node sits one past its deepest
// child. All nodes of one level are mutually independent — no node's
// children share its level — so a labeler may process a level's nodes in
// any order, including concurrently across goroutines, as long as levels
// themselves run in order with a barrier between them. This is the
// partition behind level-parallel labeling inside one compilation unit
// (see ParallelLabeler): the paper's warm fast path is already lock-free,
// and levels are what make intra-forest fan-out sound, because a node's
// children are guaranteed labeled before its level starts.
//
// A Levels value is reusable scratch: Partition overwrites all state,
// keeping buffer capacity, so pooled values make repeated partitioning
// allocation-free once warm.
type Levels struct {
	depth []int32
	next  []int32
	// order lists node indexes sorted by level; offs[l]:offs[l+1] bounds
	// level l within it.
	order []int32
	offs  []int32
}

// Partition computes the level decomposition of f. Nodes must be in the
// forest's topological child-before-parent order (the ir.Forest
// invariant), which makes the depth computation a single forward pass.
func (lv *Levels) Partition(f *ir.Forest) {
	n := len(f.Nodes)
	lv.depth = resizeI32(lv.depth, n)
	maxd := int32(-1)
	for i, nd := range f.Nodes {
		d := int32(0)
		for _, k := range nd.Kids {
			if kd := lv.depth[k.Index] + 1; kd > d {
				d = kd
			}
		}
		lv.depth[i] = d
		if d > maxd {
			maxd = d
		}
	}
	levels := int(maxd) + 1

	// Counting sort by depth: offs accumulates the prefix boundaries, next
	// the running insert cursors.
	lv.offs = resizeI32(lv.offs, levels+1)
	clear(lv.offs)
	for _, d := range lv.depth[:n] {
		lv.offs[d+1]++
	}
	for l := 1; l <= levels; l++ {
		lv.offs[l] += lv.offs[l-1]
	}
	lv.next = resizeI32(lv.next, levels)
	copy(lv.next, lv.offs[:levels])
	lv.order = resizeI32(lv.order, n)
	for i, d := range lv.depth[:n] {
		lv.order[lv.next[d]] = int32(i)
		lv.next[d]++
	}
}

// NumLevels reports the number of levels of the last Partition.
func (lv *Levels) NumLevels() int { return len(lv.offs) - 1 }

// Level returns the node indexes of level l (leaves at 0). The slice
// aliases the partition's scratch — valid until the next Partition.
func (lv *Levels) Level(l int) []int32 {
	return lv.order[lv.offs[l]:lv.offs[l+1]]
}

// Run invokes label(part) on parts of the node indexes of the last
// Partition that together cover every node once, level by level: each
// level completes — with a barrier — before the next starts, so by the
// time label sees a node, it has already run on all the node's children.
// Wide levels are split across up to workers goroutines, one part each
// (at least MinParallelSpan/2 nodes); a narrow level is one part, labeled
// inline on the calling goroutine. A labeler takes its per-call scratch
// once per part, never per node. label must tolerate concurrent
// invocation on the disjoint parts of one level — writes to disjoint
// elements of a shared ids array are fine, and the WaitGroup barrier
// publishes them to the next level.
//
// A panic inside label (the on-demand engine's state-budget abort
// surfaces as one) is re-raised on the calling goroutine after the
// level's barrier, preserving the sequential path's panic contract.
func (lv *Levels) Run(workers int, label func(part []int32)) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		pval any
	)
	for l := 0; l < lv.NumLevels(); l++ {
		level := lv.Level(l)
		w := workers
		if most := len(level) / (MinParallelSpan / 2); w > most {
			w = most
		}
		if w <= 1 {
			label(level)
			continue
		}
		chunk := (len(level) + w - 1) / w
		for start := 0; start < len(level); start += chunk {
			end := start + chunk
			if end > len(level) {
				end = len(level)
			}
			part := level[start:end]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if pval == nil {
							pval = r
						}
						mu.Unlock()
					}
				}()
				label(part)
			}()
		}
		wg.Wait()
		if pval != nil {
			panic(pval)
		}
	}
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

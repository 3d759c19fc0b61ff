package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/md"
)

// EPRow is one sample of the parallel-labeling scaling experiment: N
// workers sharing one warm on-demand engine, the compilation-server
// extension of the paper's JIT scenario.
type EPRow struct {
	Grammar   string
	Workers   int
	Passes    int
	Nodes     int // nodes labeled per pass (whole corpus)
	NsPerNode float64
	Speedup   float64 // vs the 1-worker configuration (first row if absent)

	// Level-parallel columns: the same worker count applied *inside* one
	// wide forest (topological levels fanned across goroutines, barrier
	// between levels — reduce.ParallelLabeler) instead of across forests.
	LevelNodes     int // nodes of the wide forest labeled per pass
	LevelNsPerNode float64
	LevelSpeedup   float64 // vs the 1-worker level configuration
}

// RunParallel measures warm labeling throughput for each worker count.
// One engine is warmed over the corpus, then each configuration labels
// the whole corpus `passes` times with a worker pool pulling forests off
// a shared index. Results are wall-clock and therefore machine-dependent
// (unlike the deterministic work-unit tables); scaling beyond one worker
// requires GOMAXPROCS > 1.
func RunParallel(gname string, workerCounts []int, passes int) ([]EPRow, *Table, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if passes <= 0 {
		passes = 20
	}
	d, err := md.Load(gname)
	if err != nil {
		return nil, nil, err
	}
	var fs []*ir.Forest
	for _, u := range loadCorpus(d.Grammar) {
		fs = append(fs, u.forests...)
	}
	nodes := 0
	for _, f := range fs {
		nodes += f.NumNodes()
	}
	e, err := core.New(d.Grammar, d.Env, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	for _, f := range fs { // warm up: the measured passes are pure fast path
		e.Label(f)
	}
	// The level-parallel measurement needs one forest wide enough that its
	// topological levels carry hundreds of independent nodes — intra-forest
	// fan-out, the complement of the across-forest worker pool above.
	wide := ir.RandomForest(d.Grammar, ir.RandomConfig{
		Seed: 7, Trees: 4000, MaxDepth: 8, MaxLeafVal: 3,
	})
	e.ReleaseLabeling(e.LabelStates(wide)) // warm the wide forest's transitions too

	t := &Table{
		ID: "EP",
		Title: fmt.Sprintf("parallel labeling scaling on %s (one warm on-demand engine, %d corpus passes, GOMAXPROCS=%d)",
			gname, passes, runtime.GOMAXPROCS(0)),
		Header: []string{"workers", "nodes/pass", "ns/node", "speedup", "level ns/node", "level speedup"},
	}
	nsPer := make([]float64, len(workerCounts))
	lvlPer := make([]float64, len(workerCounts))
	for i, workers := range workerCounts {
		start := time.Now()
		for p := 0; p < passes; p++ {
			labelAll(e, fs, workers)
		}
		nsPer[i] = float64(time.Since(start).Nanoseconds()) / float64(passes*nodes)

		start = time.Now()
		for p := 0; p < passes; p++ {
			e.ReleaseLabeling(e.LabelStatesParallel(wide, workers, nil))
		}
		lvlPer[i] = float64(time.Since(start).Nanoseconds()) / float64(passes*wide.NumNodes())
	}
	// Baseline: the 1-worker configuration wherever it appears in the
	// list; fall back to the first configuration if it is absent.
	base, lvlBase := nsPer[0], lvlPer[0]
	for i, workers := range workerCounts {
		if workers == 1 {
			base, lvlBase = nsPer[i], lvlPer[i]
			break
		}
	}
	var rows []EPRow
	for i, workers := range workerCounts {
		row := EPRow{
			Grammar: gname, Workers: workers, Passes: passes, Nodes: nodes,
			NsPerNode: nsPer[i], Speedup: base / nsPer[i],
			LevelNodes: wide.NumNodes(), LevelNsPerNode: lvlPer[i], LevelSpeedup: lvlBase / lvlPer[i],
		}
		rows = append(rows, row)
		t.AddRow(itoa(workers), itoa(nodes), f1(nsPer[i]), f2(row.Speedup), f1(lvlPer[i]), f2(row.LevelSpeedup))
	}
	t.Note("warm fast path is lock-free (atomic loads); speedup tracks available cores")
	t.Note("level columns: the same workers fanned inside one %d-node forest (topological levels, barrier per level)", wide.NumNodes())
	return rows, t, nil
}

// labelAll labels every forest once, fanned out over `workers` goroutines
// pulling from a shared atomic index — the same worker-pool shape as
// Selector.CompileUnit under WithWorkers.
func labelAll(e *core.Engine, fs []*ir.Forest, workers int) {
	if workers <= 1 {
		for _, f := range fs {
			e.ReleaseLabeling(e.LabelStates(f))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fs) {
					return
				}
				e.ReleaseLabeling(e.LabelStates(fs[i]))
			}
		}()
	}
	wg.Wait()
}

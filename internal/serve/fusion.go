package serve

import (
	"math"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/term"
)

// FusionInfo tells a request what batch its plan was computed in: the
// batch size, the fused block size, and where this request's words live
// inside the fused block (the de-batching offset).
type FusionInfo struct {
	Batch       int `json:"batch"`
	FusedM      int `json:"fused_m"`
	OffsetWords int `json:"offset_words"`
}

// Fusible reports whether a program may join a fusion batch. Fusion runs
// one collective over the concatenation of the members' blocks and
// slices the result apart, which is sound exactly when every stage acts
// elementwise on vector blocks: the standard collectives (bcast, scan,
// reduce, allreduce) apply their operator component-wise and move whole
// blocks, so collective(concat xs) = concat(collective xs) with the same
// combining order — bitwise, not just approximately. Local map stages,
// gather/scatter and the auxiliary tuple constructions reshape values
// and are excluded.
func Fusible(t term.Seq) bool {
	if len(term.Stages(t)) == 0 {
		return false
	}
	for _, st := range term.Stages(t) {
		switch st.(type) {
		case term.Bcast, term.Scan, term.Reduce:
		default:
			return false
		}
	}
	return true
}

// wordBytes is the accounting size of one block word (a float64).
const wordBytes = 8

// maxWords is the largest block, alone or fused, whose byte size
// words*wordBytes fits an int.
const maxWords = math.MaxInt / wordBytes

// FusionStats is the /metrics snapshot of the fusion layer.
type FusionStats struct {
	// Batches counts flushed batches, FusedRequests their member total.
	Batches       uint64 `json:"batches"`
	FusedRequests uint64 `json:"fused_requests"`
	// MaxBatch is the largest batch flushed; Dist maps batch size →
	// count of batches of that size.
	MaxBatch int            `json:"max_batch"`
	Dist     map[int]uint64 `json:"dist"`
	// Pending is the number of requests currently waiting in open
	// windows.
	Pending int `json:"pending"`
}

// Fuser implements the cross-request fusion window, after oneCCL's
// fusion design: compatible small requests — same canonical program,
// same machine parameters apart from the block size — arriving within a
// cycle are merged into one optimization over the summed block size. A
// batch flushes when it reaches MaxCount members or MaxBytes fused
// words, or when the cycle timer of its first member expires, whichever
// comes first. Every member gets the shared (verified, cached) plan plus
// its FusionInfo.
type Fuser struct {
	Planner *Planner
	// Cycle is the window length (the cycle-ms threshold).
	Cycle time.Duration
	// MaxCount and MaxBytes flush a batch early.
	MaxCount int
	MaxBytes int

	mu      sync.Mutex
	pending map[string]*fusionBatch
	stats   FusionStats
}

type fusionBatch struct {
	canonical string
	t         term.Seq
	mach      core.Machine // member machine; M is per-member, fused on flush
	strat     Strategy
	autoSel   bool
	members   []*fusionMember
	words     int
	timer     *time.Timer
	flushed   bool
}

type fusionMember struct {
	m  int
	ch chan fusionResult
}

type fusionResult struct {
	plan   Plan
	cached bool
	info   FusionInfo
	err    error
}

// NewFuser returns a fuser with the given thresholds over the planner.
func NewFuser(pl *Planner, cycle time.Duration, maxCount, maxBytes int) *Fuser {
	return &Fuser{
		Planner:  pl,
		Cycle:    cycle,
		MaxCount: maxCount,
		MaxBytes: maxBytes,
		pending:  make(map[string]*fusionBatch),
	}
}

// fusionKey groups compatible requests: everything the plan key has
// except the block size, which the batch sums. The strategy is part of
// the key — a greedy and a searched request never share a batch.
func fusionKey(canonical string, m core.Machine, strat Strategy, autoSel bool) string {
	mm := m
	mm.M = 0
	return KeyOpts(canonical, mm, strat, autoSel)
}

// Submit enrolls one request in the fusion window and blocks until its
// batch flushes, returning the shared plan, whether it came from the
// cache, and the member's FusionInfo. The caller has already checked
// that the program is Fusible and that mach.M is at most maxWords, as
// the /optimize handler does. A batch never sums past maxWords: a
// member that would overflow it flushes the open batch and starts the
// next one.
func (f *Fuser) Submit(t term.Seq, canonical string, mach core.Machine, strat Strategy, autoSel bool) (Plan, bool, FusionInfo, error) {
	key := fusionKey(canonical, mach, strat, autoSel)
	mem := &fusionMember{m: mach.M, ch: make(chan fusionResult, 1)}

	f.mu.Lock()
	b := f.pending[key]
	var overfull *fusionBatch
	if b != nil && b.words > maxWords-mach.M {
		// The fused block would overflow: flush the open batch as it
		// stands and start a new one with this member.
		overfull = b
		b.flushed = true
		delete(f.pending, key)
		b.timer.Stop()
		b = nil
	}
	if b == nil {
		b = &fusionBatch{canonical: canonical, t: t, mach: mach, strat: strat, autoSel: autoSel}
		f.pending[key] = b
		b.timer = time.AfterFunc(f.Cycle, func() { f.flushExpired(key, b) })
	}
	b.members = append(b.members, mem)
	b.words += mach.M
	full := len(b.members) >= f.MaxCount || b.words*wordBytes >= f.MaxBytes
	if full {
		b.flushed = true
		delete(f.pending, key)
		b.timer.Stop()
	}
	f.mu.Unlock()

	if overfull != nil {
		f.run(overfull)
	}
	if full {
		f.run(b)
	}
	r := <-mem.ch
	return r.plan, r.cached, r.info, r.err
}

// flushExpired is the cycle-timer path: flush the batch unless a
// threshold already did.
func (f *Fuser) flushExpired(key string, b *fusionBatch) {
	f.mu.Lock()
	if b.flushed {
		f.mu.Unlock()
		return
	}
	b.flushed = true
	if f.pending[key] == b {
		delete(f.pending, key)
	}
	f.mu.Unlock()
	f.run(b)
}

// run optimizes the fused batch once — the engine sees the summed block
// size, so its cost-guided decisions are made for the fused collective —
// and de-batches the shared plan to every member with its offset.
func (f *Fuser) run(b *fusionBatch) {
	mach := b.mach
	mach.M = b.words
	plan, cached, err := f.Planner.PlanTermOpts(b.t, mach, b.strat, b.autoSel)

	f.mu.Lock()
	f.stats.Batches++
	f.stats.FusedRequests += uint64(len(b.members))
	if f.stats.Dist == nil {
		f.stats.Dist = make(map[int]uint64)
	}
	f.stats.Dist[len(b.members)]++
	if len(b.members) > f.stats.MaxBatch {
		f.stats.MaxBatch = len(b.members)
	}
	f.mu.Unlock()

	offset := 0
	for _, mem := range b.members {
		mem.ch <- fusionResult{
			plan:   plan,
			cached: cached,
			info:   FusionInfo{Batch: len(b.members), FusedM: b.words, OffsetWords: offset},
			err:    err,
		}
		offset += mem.m
	}
}

// Drain flushes every open window immediately — the graceful-shutdown
// path, so no request is left waiting on a cycle timer.
func (f *Fuser) Drain() {
	f.mu.Lock()
	var due []*fusionBatch
	for key, b := range f.pending {
		if !b.flushed {
			b.flushed = true
			b.timer.Stop()
			due = append(due, b)
		}
		delete(f.pending, key)
	}
	f.mu.Unlock()
	for _, b := range due {
		f.run(b)
	}
}

// Stats snapshots the fusion counters.
func (f *Fuser) Stats() FusionStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Dist = make(map[int]uint64, len(f.stats.Dist))
	for k, v := range f.stats.Dist {
		s.Dist[k] = v
	}
	for _, b := range f.pending {
		s.Pending += len(b.members)
	}
	return s
}

// ConcatBlocks builds the fused input: rank r's fused block is the
// concatenation, in member order, of every member's rank-r block. All
// members must supply one algebra.Vec per rank.
func ConcatBlocks(members [][]algebra.Value) []algebra.Value {
	if len(members) == 0 {
		return nil
	}
	p := len(members[0])
	fused := make([]algebra.Value, p)
	for r := 0; r < p; r++ {
		var block algebra.Vec
		for _, blocks := range members {
			block = append(block, blocks[r].(algebra.Vec)...)
		}
		fused[r] = block
	}
	return fused
}

// SplitBlocks undoes ConcatBlocks on a fused output: each rank's fused
// vector is sliced back into per-member blocks of the given word counts
// (fresh copies, not aliases). A non-vector rank value — possible only
// for value shapes outside the fusible grammar — is handed to every
// member unchanged.
func SplitBlocks(fused []algebra.Value, ms []int) [][]algebra.Value {
	out := make([][]algebra.Value, len(ms))
	for i := range ms {
		out[i] = make([]algebra.Value, len(fused))
	}
	for r, v := range fused {
		vec, ok := v.(algebra.Vec)
		if !ok {
			for i := range ms {
				out[i][r] = v
			}
			continue
		}
		off := 0
		for i, m := range ms {
			block := make(algebra.Vec, m)
			copy(block, vec[off:off+m])
			out[i][r] = block
			off += m
		}
	}
	return out
}

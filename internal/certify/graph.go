package certify

import (
	"sort"

	"pcltm/internal/core"
)

// The constraint graph. Real nodes are com positions (serializability)
// or split serialization points (snapshot isolation: R(i)=2i the
// global-read point, W(i)=2i+1 the write point of com position i).
// Virtual nodes — timeline chain nodes sparsifying the quadratic
// real-time/window relation, and per-item all-writers fan-out nodes for
// initial-value reads — carry no transaction but transmit reachability,
// keeping the edge count linear in the history size.
//
// Every edge is a *forced* precedence: it must hold in any serialization
// justifying the condition. A cycle therefore convicts; acyclicity alone
// certifies nothing (that is what candidate replay and the exact small
// search are for).
type graph struct {
	p      *prep
	si     bool
	strict bool
	// nReal is the real-node count; adj may grow with virtual nodes.
	nReal int
	adj   [][]int32
	edges int
	seen  map[uint64]struct{}
	// itemFans memoizes the per-item writer fan chains.
	itemFans map[int32]*itemFan
}

// rNode/wNode map a com position to the node carrying its reads /
// writes under the current mode.
func (g *graph) rNode(ci int32) int32 {
	if g.si {
		return 2 * ci
	}
	return ci
}

func (g *graph) wNode(ci int32) int32 {
	if g.si {
		return 2*ci + 1
	}
	return ci
}

// txnOf maps a real node back to its com position; -1 for virtuals.
func (g *graph) txnOf(node int32) int32 {
	if int(node) >= g.nReal {
		return -1
	}
	if g.si {
		return node >> 1
	}
	return node
}

func (g *graph) addNode() int32 {
	g.adj = append(g.adj, nil)
	return int32(len(g.adj) - 1)
}

// addEdge inserts u→v once; it reports whether the edge was new.
func (g *graph) addEdge(u, v int32) bool {
	if u == v {
		return false
	}
	k := uint64(uint32(u))<<32 | uint64(uint32(v))
	if _, dup := g.seen[k]; dup {
		return false
	}
	g.seen[k] = struct{}{}
	g.adj[u] = append(g.adj[u], v)
	g.edges++
	return true
}

// itemFan holds an item's writer fan chains: pre[i] reaches the write
// points of writers[0..i], suf[i] those of writers[i..m-1]. A reader of
// the initial value precedes every com writer of the item except
// itself; with the chains that is at most two edges per reader — one
// into the prefix before its own slot, one into the suffix after —
// instead of a per-reader fan that goes quadratic when every reader of
// an item also writes it (the hot-counter shape).
type itemFan struct {
	pre, suf []int32
}

// fans builds (memoized) the fan chains over the item's writer list.
// Chain edges flow virtual→writer and virtual→virtual toward smaller /
// larger indices only, so the chains are acyclic by construction.
func (g *graph) fans(item int32) *itemFan {
	if f, ok := g.itemFans[item]; ok {
		return f
	}
	ws := g.p.writers[item]
	m := len(ws)
	f := &itemFan{pre: make([]int32, m), suf: make([]int32, m)}
	for i := 0; i < m; i++ {
		vn := g.addNode()
		g.addEdge(vn, g.wNode(ws[i]))
		if i > 0 {
			g.addEdge(vn, f.pre[i-1])
		}
		f.pre[i] = vn
	}
	for i := m - 1; i >= 0; i-- {
		vn := g.addNode()
		g.addEdge(vn, g.wNode(ws[i]))
		if i < m-1 {
			g.addEdge(vn, f.suf[i+1])
		}
		f.suf[i] = vn
	}
	g.itemFans[item] = f
	return f
}

// buildGraph assembles the base forced edges for one condition:
// reads-from (writer before reader), initial-value reads (reader before
// every writer of the item), intra-transaction R-before-W points (SI),
// and the real-time / window order via a sparse timeline chain.
func buildGraph(p *prep, condition string) *graph {
	g := &graph{
		p:        p,
		si:       condition == SnapshotIsolation,
		strict:   condition == StrictSerializability,
		seen:     make(map[uint64]struct{}),
		itemFans: make(map[int32]*itemFan),
	}
	m := len(p.com)
	g.nReal = m
	if g.si {
		g.nReal = 2 * m
	}
	g.adj = make([][]int32, g.nReal, g.nReal+m+8)

	if g.si {
		for ci := int32(0); ci < int32(m); ci++ {
			g.addEdge(g.rNode(ci), g.wNode(ci))
		}
	}
	for _, r := range p.reads {
		if r.ambiguous {
			continue
		}
		if r.writer >= 0 {
			g.addEdge(g.wNode(r.writer), g.rNode(r.reader))
			continue
		}
		// Initial-value read: the reader precedes every com writer of the
		// item (its own later write excepted — under SI the intra edge
		// already orders it, under SER it lives in the reader's own block).
		// The writer list is in ascending com-position order, so the
		// reader's own slot, if any, is found by binary search and skipped
		// by entering the fan chains on either side of it.
		ws := p.writers[r.item]
		if len(ws) == 0 {
			continue
		}
		f := g.fans(r.item)
		j := sort.Search(len(ws), func(i int) bool { return ws[i] >= r.reader })
		if j < len(ws) && ws[j] == r.reader {
			if j > 0 {
				g.addEdge(g.rNode(r.reader), f.pre[j-1])
			}
			if j+1 < len(ws) {
				g.addEdge(g.rNode(r.reader), f.suf[j+1])
			}
		} else {
			g.addEdge(g.rNode(r.reader), f.pre[len(ws)-1])
		}
	}

	switch {
	case g.strict:
		// Real-time order: committed T1 wholly before T2's begin forces
		// T1 before T2 (internal/consistency precedes). Strict inequality;
		// at equal stamps no precedence.
		var evs []chainEvent
		for ci, ti := range p.com {
			t := &p.h.Txns[ti]
			if t.Status == core.TxCommitted {
				evs = append(evs, chainEvent{key: t.End, src: true, node: int32(ci)})
			}
			evs = append(evs, chainEvent{key: t.Begin, node: int32(ci)})
		}
		g.chain(evs, false)
	case g.si:
		// Window order: T1's interval wholly before T2's window start
		// forces every T1 point before every T2 point (positions are
		// shareable gaps, so End1 ≤ Lo2 — not strictly less — forces).
		// W(1)→R(2) plus the intra edges covers all four point pairs.
		var evs []chainEvent
		for ci, ti := range p.com {
			t := &p.h.Txns[ti]
			evs = append(evs, chainEvent{key: t.End, src: true, node: g.wNode(int32(ci))})
			evs = append(evs, chainEvent{key: t.Lo, node: g.rNode(int32(ci))})
		}
		g.chain(evs, true)
	}
	return g
}

// chainEvent is one endpoint fed to the timeline chain: a source (its
// key is where its precedence begins) or a target (receives an edge from
// every source with a smaller key — or equal key when tieSourceFirst).
type chainEvent struct {
	key  int64
	src  bool
	node int32
}

// chain sparsifies the "every source with key < target key precedes the
// target" biclique into a linear chain of virtual nodes: O(n) edges
// instead of O(n²).
func (g *graph) chain(evs []chainEvent, tieSourceFirst bool) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.key != b.key {
			return a.key < b.key
		}
		if a.src != b.src {
			return a.src == tieSourceFirst
		}
		return a.node < b.node
	})
	cur := int32(-1)
	for _, ev := range evs {
		if ev.src {
			nc := g.addNode()
			if cur >= 0 {
				g.addEdge(cur, nc)
			}
			g.addEdge(ev.node, nc)
			cur = nc
		} else if cur >= 0 {
			g.addEdge(cur, ev.node)
		}
	}
}

// scc computes strongly connected components (iterative Tarjan).
// Components are numbered in reverse topological order: for any edge
// u→v across components, comp[v] < comp[u].
func (g *graph) scc() (comp []int32, ncomp int) {
	n := len(g.adj)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	num := make([]int32, n)
	low := make([]int32, n)
	onstack := make([]bool, n)
	stack := make([]int32, 0, n)
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame
	var idx int32
	for root := 0; root < n; root++ {
		if num[root] != 0 {
			continue
		}
		idx++
		num[root], low[root] = idx, idx
		stack = append(stack, int32(root))
		onstack[root] = true
		frames = append(frames[:0], frame{int32(root), 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.adj[f.v]) {
				w := g.adj[f.v][f.ei]
				f.ei++
				if num[w] == 0 {
					idx++
					num[w], low[w] = idx, idx
					stack = append(stack, w)
					onstack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onstack[w] && num[w] < low[f.v] {
					low[f.v] = num[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if pv := frames[len(frames)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == num[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					comp[w] = int32(ncomp)
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// cycleWitness reports the transactions on a shortest cycle through the
// lowest node of some nontrivial SCC, or nil if the graph is acyclic.
// Virtual nodes transmit but never appear in the witness; a cycle always
// carries at least two real nodes (virtual-only edges form forward
// chains and fan-outs, which are acyclic by construction).
func (g *graph) cycleWitness(p *prep) []core.TxID {
	comp, ncomp := g.scc()
	size := make([]int32, ncomp)
	for _, c := range comp {
		size[c]++
	}
	start := int32(-1)
	for v := 0; v < len(g.adj); v++ {
		if size[comp[v]] >= 2 {
			start = int32(v)
			break
		}
	}
	if start < 0 {
		return nil
	}
	// BFS within the SCC back to start.
	target := comp[start]
	parent := make([]int32, len(g.adj))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[start] = -1
	queue := []int32{start}
	var closer int32 = -1 // node with an edge back to start
bfs:
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if comp[v] != target {
				continue
			}
			if v == start {
				closer = u
				break bfs
			}
			if parent[v] == -2 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	if closer < 0 {
		return nil // unreachable: a nontrivial SCC always closes
	}
	var path []int32
	for v := closer; v != -1; v = parent[v] {
		path = append(path, v)
	}
	// path is closer→…→start; reverse into cycle order start→…→closer.
	var ids []core.TxID
	for i := len(path) - 1; i >= 0; i-- {
		ci := g.txnOf(path[i])
		if ci < 0 {
			continue
		}
		id := p.h.Txns[p.com[ci]].ID
		if len(ids) == 0 || ids[len(ids)-1] != id {
			ids = append(ids, id)
		}
	}
	return ids
}

// reachCap bounds the condensation size for which full transitive
// closure is materialized (bitset rows: reachCap²/8 bytes ≈ 32 MB).
const reachCap = 16384

// reachability answers "is there a forced path u→v" for the inference
// step: exact bitset closure over the condensation when it fits, else a
// sound partial fallback from interval order alone.
type reachability struct {
	g     *graph
	comp  []int32
	rows  [][]uint64 // nil beyond reachCap
	words int
}

// newReachability assumes the graph is acyclic (cycleWitness ran first).
func newReachability(g *graph) *reachability {
	comp, ncomp := g.scc()
	r := &reachability{g: g, comp: comp}
	if ncomp > reachCap {
		return r
	}
	r.words = (ncomp + 63) / 64
	backing := make([]uint64, ncomp*r.words)
	r.rows = make([][]uint64, ncomp)
	for c := 0; c < ncomp; c++ {
		r.rows[c] = backing[c*r.words : (c+1)*r.words]
	}
	// comp ids are reverse-topological: successors have smaller ids, so
	// ascending order processes sinks first and successor rows are final.
	nodesByComp := make([][]int32, ncomp)
	for v := range g.adj {
		nodesByComp[comp[v]] = append(nodesByComp[comp[v]], int32(v))
	}
	for c := 0; c < ncomp; c++ {
		row := r.rows[c]
		for _, u := range nodesByComp[c] {
			for _, v := range g.adj[u] {
				cv := comp[v]
				if int(cv) == c {
					continue
				}
				row[cv>>6] |= 1 << (uint(cv) & 63)
				for w, bits := range r.rows[cv] {
					row[w] |= bits
				}
			}
		}
	}
	return r
}

// reaches reports a forced path from real node u to real node v. With
// closure rows it is exact; otherwise it falls back to the interval
// order (a subset of the graph's edges, hence still sound).
func (r *reachability) reaches(u, v int32) bool {
	if r.rows != nil {
		cu, cv := r.comp[u], r.comp[v]
		if cu == cv {
			return false
		}
		return r.rows[cu][cv>>6]&(1<<(uint(cv)&63)) != 0
	}
	g := r.g
	tu, tv := g.txnOf(u), g.txnOf(v)
	if tu < 0 || tv < 0 {
		return false
	}
	a, b := &g.p.h.Txns[g.p.com[tu]], &g.p.h.Txns[g.p.com[tv]]
	if g.si {
		if tu == tv {
			return u&1 == 0 && v&1 == 1 // R before own W
		}
		return a.End <= b.Lo
	}
	if !g.strict {
		return false
	}
	return a.Status == core.TxCommitted && a.End < b.Begin
}

// inferBudget caps the writer×read pairs the saturation loop may visit,
// mirroring the exhaustive checkers' node budget in spirit.
const inferBudget = 50_000_000

// maxSatRounds caps saturation rounds; each round recomputes SCCs and
// reachability, so convergence is typically immediate.
const maxSatRounds = 8

type satResult struct {
	rounds   int
	complete bool
	witness  []core.TxID
}

// saturate alternates cycle detection with anti-dependency inference to
// fixpoint: for a read of x from W observed by T, any other com writer
// W′ of x must be ordered outside the W…T span — if W′ is forced after W
// it is forced after T, and if forced before T it is forced before W.
func saturate(g *graph, p *prep, condition string) satResult {
	res := satResult{complete: true}
	budget := inferBudget
	for {
		if w := g.cycleWitness(p); w != nil {
			res.witness = w
			return res
		}
		if res.rounds >= maxSatRounds {
			res.complete = false
			return res
		}
		if !res.complete {
			return res
		}
		rc := newReachability(g)
		added := 0
		for _, r := range p.reads {
			if r.ambiguous || r.writer < 0 {
				continue
			}
			ws := p.writers[r.item]
			budget -= len(ws)
			if budget < 0 {
				res.complete = false
				break
			}
			wN, rN := g.wNode(r.writer), g.rNode(r.reader)
			for _, w2 := range ws {
				if w2 == r.writer || w2 == r.reader {
					continue
				}
				w2N := g.wNode(w2)
				if rc.reaches(wN, w2N) {
					if g.addEdge(rN, w2N) {
						added++
					}
				} else if rc.reaches(w2N, rN) {
					if g.addEdge(w2N, wN) {
						added++
					}
				}
			}
		}
		if added == 0 && res.complete {
			return res
		}
		res.rounds++
	}
}

// inferSuccessors adds the anti-dependencies a read-modify-write chain
// forces, in one pass and without reachability. When S read x from W
// and wrote x itself, W→S is a base edge, so saturate's rule — a writer
// of x forced after W is forced after every reader of x from W — holds
// for S outright. These are the edges that pin a version order on an
// RMW-heavy history (a counter store's increments), and they are cheap
// where saturate is not: past reachCap transactions it can neither
// build the closure nor afford writers×reads pairs.
func (g *graph) inferSuccessors(p *prep) {
	type version struct{ writer, item int32 }
	succ := make(map[version][]int32)
	for _, r := range p.reads {
		if r.ambiguous || r.writer < 0 {
			continue
		}
		ws := p.writers[r.item]
		if j := sort.Search(len(ws), func(i int) bool { return ws[i] >= r.reader }); j < len(ws) && ws[j] == r.reader {
			v := version{r.writer, r.item}
			succ[v] = append(succ[v], r.reader)
		}
	}
	for _, r := range p.reads {
		if r.ambiguous || r.writer < 0 {
			continue
		}
		for _, s := range succ[version{r.writer, r.item}] {
			if s != r.reader {
				g.addEdge(g.rNode(r.reader), g.wNode(s))
			}
		}
	}
}

// topoOrder returns the real nodes in a topological order of the full
// graph, ties broken toward commit-stamp order (and R before W under
// SI), or ok=false if a cycle remains.
func (g *graph) topoOrder(p *prep, si bool) (order []int32, ok bool) {
	n := len(g.adj)
	indeg := make([]int32, n)
	for _, vs := range g.adj {
		for _, v := range vs {
			indeg[v]++
		}
	}
	// Min-heap keyed by (End stamp, point phase); virtual nodes release
	// with minimal key so they never delay real nodes.
	key := func(v int32) int64 {
		ci := g.txnOf(v)
		if ci < 0 {
			return -1 << 62
		}
		t := &p.h.Txns[p.com[ci]]
		if si {
			return t.End<<1 | int64(v&1)
		}
		return t.End
	}
	heap := make([]int32, 0, n)
	less := func(a, b int32) bool { return key(a) < key(b) }
	push := func(v int32) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	pop := func() int32 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && less(heap[l], heap[small]) {
				small = l
			}
			if r < last && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for v := int32(0); int(v) < n; v++ {
		if indeg[v] == 0 {
			push(v)
		}
	}
	order = make([]int32, 0, g.nReal)
	seen := 0
	for len(heap) > 0 {
		v := pop()
		seen++
		if int(v) < g.nReal {
			order = append(order, v)
		}
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				push(w)
			}
		}
	}
	return order, seen == n
}

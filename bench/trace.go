package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mstsearch"
	"mstsearch/internal/index"
	"mstsearch/internal/server"
	"mstsearch/internal/storage"
)

// Span names: the layer boundaries a request crosses, outermost first. They
// are the vocabulary later in-program tracing is meant to reuse.
const (
	spanClient      = "client.request"  // server.Client.Query, as the caller sees it
	spanClientWrite = "client.write"    // server.Client.Append or Ingest
	spanEngine      = "engine.call"     // server.Engine method, as the HTTP layer calls it
	spanDBQuery     = "db.query"        // DB.Query
	spanSearch      = "mst.search"      // mst.SearchContext / MetricSearchContext
	spanReadNode    = "tree.read_node"  // index.Tree.ReadNode / MetricTree.ReadMetricNode
	spanPoolRead    = "pager.pool.read" // Pager.Read on the buffer pool
	spanFileRead    = "pager.file.read" // Pager.Read on the page file
)

// span is one call across a layer boundary. Parent indexes the same slice
// (-1 for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op_id"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span. A child takes its operation from its parent; op names
// the operation of a root, and a negative op numbers it after the span itself.
func (t *tracer) begin(name string, parent, op int32) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	if parent >= 0 {
		op = t.spans[parent].Op
	} else if op < 0 {
		op = id
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// all returns the spans recorded so far. Spans already ended do not change,
// so readers share the backing array with later appends safely.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span, its duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered := spans[i].Start
		for _, c := range cs {
			s, e := spans[c].Start, spans[c].End
			if s < covered {
				s = covered
			}
			if e > s {
				self[i] -= e - s
				covered = e
			}
		}
	}
	return self
}

// checkSpans verifies the tree is well-formed: every span ended, every child
// lies inside its parent, no self time is negative.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			if int(s.Parent) >= i {
				return fmt.Errorf("span %d (%s) precedes its parent %d", i, s.Name, s.Parent)
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", i, s.Name)
		}
	}
	return nil
}

// scope is the current position in the span tree of one goroutine: each
// decorator opens a child of whatever span is current and restores it on the
// way out. Library probes run one operation at a time on one goroutine, so
// one scope serves the whole stack.
type scope struct {
	t   *tracer
	cur int32
	op  int32
}

func newScope(t *tracer) *scope { return &scope{t: t, cur: -1} }

func (s *scope) enter(name string) (prev int32) {
	prev = s.cur
	s.cur = s.t.begin(name, prev, s.op)
	return prev
}

func (s *scope) leave(prev int32) {
	s.t.end(s.cur)
	s.cur = prev
}

// tracedPager records every Read of the pager it wraps.
type tracedPager struct {
	storage.Pager
	s    *scope
	name string
}

func (p tracedPager) Read(id storage.PageID) ([]byte, error) {
	defer p.s.leave(p.s.enter(p.name))
	return p.Pager.Read(id)
}

// tracedTree and tracedMetricTree record every node fetch of the view they
// wrap.
type tracedTree struct {
	index.Tree
	s *scope
}

func (t tracedTree) ReadNode(id storage.PageID) (*index.Node, error) {
	defer t.s.leave(t.s.enter(spanReadNode))
	return t.Tree.ReadNode(id)
}

type tracedMetricTree struct {
	index.MetricTree
	s *scope
}

func (t tracedMetricTree) ReadMetricNode(id storage.PageID) (*index.MetricNode, error) {
	defer t.s.leave(t.s.enter(spanReadNode))
	return t.MetricTree.ReadMetricNode(id)
}

// tracedEngine records the calls the HTTP layer makes into the engine. The
// serving stack is concurrent and a coalesced batch serves several requests,
// so the parent of an engine span is found by content: clients register the
// span of each request under a tag the engine sees again (the query's ID, the
// written trajectory's ID).
type tracedEngine struct {
	server.Engine
	t *tracer

	mu      sync.Mutex
	pending map[mstsearch.ID]int32 // tag -> client span
	batches []int                  // size of every coalesced batch seen
}

func newTracedEngine(e server.Engine, t *tracer) *tracedEngine {
	return &tracedEngine{Engine: e, t: t, pending: map[mstsearch.ID]int32{}}
}

// expect tells the engine decorator which client span the next call carrying
// tag belongs to.
func (e *tracedEngine) expect(tag mstsearch.ID, clientSpan int32) {
	e.mu.Lock()
	e.pending[tag] = clientSpan
	e.mu.Unlock()
}

func (e *tracedEngine) claim(tag mstsearch.ID) (int32, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id, ok := e.pending[tag]
	delete(e.pending, tag)
	return id, ok
}

// around opens an engine span under the client span registered for tag, and
// returns the call that closes it.
func (e *tracedEngine) around(tag mstsearch.ID) func() {
	parent, ok := e.claim(tag)
	if !ok {
		return func() {}
	}
	id := e.t.begin(spanEngine, parent, 0)
	return func() { e.t.end(id) }
}

func (e *tracedEngine) Query(ctx context.Context, req mstsearch.Request) (mstsearch.Response, error) {
	defer e.around(req.Q.ID)()
	return e.Engine.Query(ctx, req)
}

func (e *tracedEngine) KMostSimilarBatch(ctx context.Context, queries []mstsearch.BatchQuery, opts mstsearch.Options) []mstsearch.BatchResult {
	e.mu.Lock()
	e.batches = append(e.batches, len(queries))
	e.mu.Unlock()
	for _, q := range queries {
		defer e.around(q.Q.ID)()
	}
	return e.Engine.KMostSimilarBatch(ctx, queries, opts)
}

func (e *tracedEngine) Add(tr mstsearch.Trajectory) error {
	defer e.around(tr.ID)()
	return e.Engine.Add(tr)
}

func (e *tracedEngine) AppendSample(id mstsearch.ID, s mstsearch.Sample) error {
	defer e.around(id)()
	return e.Engine.AppendSample(id, s)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the spans of a traced run in memory and writes them at exit
// as Chrome trace_event JSON through obs.WriteTrace. Spans wrap calls the
// benchmark makes into the program's public layers; nothing is recorded
// inside the program. A nil *tracer records nothing, which is how untraced
// runs stay free of span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	id, parent int // parent 0 = root
	name, cat  string
	tid        int
	start, end time.Time
	args       map[string]interface{}
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one finished span and returns its id for use as a parent.
func (t *tracer) add(parent int, name, cat string, tid int, start, end time.Time, args map[string]interface{}) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, cat: cat, tid: tid, start: start, end: end, args: args})
	return id
}

// selfTimes sums, per span category, each span's duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		d -= covered(s, children[s.id])
		self[s.cat] += d
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's: overlapping children are not counted twice.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write stores the spans as a Chrome trace document at path and reads it
// back to check that it parses as trace_event JSON.
func (t *tracer) write(path string, meta map[string]string) error {
	events := make([]obs.TraceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]interface{}{"span": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, obs.TraceEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.t0)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Pid:  obs.TracePid,
			Tid:  s.tid,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, events, meta); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("trace %s does not parse: %w", path, err)
	}
	if len(doc.TraceEvents) != len(events) {
		return fmt.Errorf("trace %s: %d events read back, %d written", path, len(doc.TraceEvents), len(events))
	}
	return nil
}

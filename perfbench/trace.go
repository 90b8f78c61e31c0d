package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; spans
// of one request share Req, and Parent is the span that made the call
// (0 for the request span itself).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Time
	text            string // query text, used to attach server-side spans
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps the spans of a traced run in memory until the run ends.
// Client loops record into their own spanBuf without locking; spans
// from other goroutines (the server's trace hook) go through add.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a span from any goroutine.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// buf returns a span buffer for one client loop; merge hands its spans
// back when the loop has ended.
func (t *tracer) buf() *spanBuf { return &spanBuf{t: t} }

func (t *tracer) merge(b *spanBuf) {
	t.mu.Lock()
	t.spans = append(t.spans, b.spans...)
	t.mu.Unlock()
}

// spanBuf is one client loop's span list. A nil *spanBuf records
// nothing, so untraced loops run the same code.
type spanBuf struct {
	t     *tracer
	spans []span
}

// id returns a fresh span ID, 0 when not tracing. A request's ID is
// the ID of its root span.
func (b *spanBuf) id() int64 {
	if b == nil {
		return 0
	}
	return b.t.id()
}

// put records a finished call: span id of request req, made by parent.
func (b *spanBuf) put(id, req, parent int64, name string, start, end time.Time) {
	if b != nil {
		b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	}
}

// putText is put for a call that sent a query text, so that spans the
// server records for that text can be attached under it.
func (b *spanBuf) putText(id, req, parent int64, name string, start, end time.Time, text string) {
	if b != nil {
		b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, text: text})
	}
}

// attachByText parents each orphan span (Req 0: recorded by the server
// from its trace hook) under a span named parentName that carries the
// same query text and whose interval contains it. An orphan with no
// such parent stays unattached and is left out of the self times.
func (t *tracer) attachByText(parentName string) {
	parents := map[string][]*span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == parentName {
			parents[s.text] = append(parents[s.text], s)
		}
	}
	for _, list := range parents {
		slices.SortFunc(list, func(a, b *span) int { return a.Start.Compare(b.Start) })
	}
	for i := range t.spans {
		o := &t.spans[i]
		if o.Req != 0 {
			continue
		}
		list := parents[o.text]
		// The latest parents that started before the orphan; with two
		// connections sending one text, at most a few overlap it.
		j, _ := slices.BinarySearchFunc(list, o.Start, func(p *span, t time.Time) int {
			if p.Start.After(t) {
				return 1
			}
			return -1
		})
		for k := j - 1; k >= 0 && k >= j-4; k-- {
			if p := list[k]; !o.End.After(p.End) {
				o.Req, o.Parent = p.Req, p.ID
				break
			}
		}
	}
}

// selfTimes returns each layer's self time summed over all spans — a
// span's duration less the part of it its child spans cover — and the
// number of requests.
func (t *tracer) selfTimes() (map[string]time.Duration, int) {
	kids := map[int64][]span{}
	requests := 0
	for _, s := range t.spans {
		if s.Req == 0 {
			continue
		}
		if s.Parent == 0 {
			requests++
		} else {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Req == 0 {
			continue
		}
		self[s.layer()] += s.dur() - covered(s, kids[s.ID])
	}
	return self, requests
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	slices.SortFunc(kids, func(a, b span) int { return a.Start.Compare(b.Start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := maxTime(k.Start, p.Start), minTime(k.End, p.End)
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// durations returns the durations of the attached spans with the given
// name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Req != 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// medianUS is the median duration of the named spans, in microseconds.
func (t *tracer) medianUS(name string) float64 { return us(quantile(t.durations(name), 0.5)) }

// write stores the spans as JSON lines: name, start and end in
// nanoseconds since the first span, parent span and request ID.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	var epoch time.Time
	for _, s := range t.spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start.Sub(epoch).Nanoseconds(), s.End.Sub(epoch).Nanoseconds())
	}
	return w.Flush()
}

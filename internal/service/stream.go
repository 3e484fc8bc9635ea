package service

import (
	"sync"

	"fpmix/internal/search"
)

// Event is one progress record on a job's stream: an evaluation, a
// server note, or the end-of-stream marker. Seq numbers events 1..n in
// emission order; a client that loses its connection reconnects with
// ?from=<last seen seq + 1> and resumes without gaps or duplicates
// (the end marker carries no Seq — it is a stream state, not history).
type Event struct {
	Seq  int                `json:"seq,omitempty"`
	Type string             `json:"type"` // "eval", "note", "end"
	Eval *search.EvalRecord `json:"eval,omitempty"`
	Note string             `json:"note,omitempty"`
}

// stream fans a job's Eval records out to any number of subscribers,
// replaying history to late joiners. The search's Observe hook calls
// observe from the coordinator goroutine; subscribers drain buffered
// channels, and a subscriber that falls a full buffer behind is dropped
// rather than allowed to stall the search.
type stream struct {
	mu      sync.Mutex
	history []Event
	subs    map[chan Event]struct{}
	closed  bool
}

func newStream() *stream {
	return &stream{subs: make(map[chan Event]struct{})}
}

func (st *stream) observe(ev search.Eval) {
	r := search.Record(ev)
	st.add(Event{Type: "eval", Eval: &r})
}

func (st *stream) note(msg string) {
	st.add(Event{Type: "note", Note: msg})
}

func (st *stream) add(e Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	e.Seq = len(st.history) + 1
	st.history = append(st.history, e)
	for ch := range st.subs {
		select {
		case ch <- e:
		default:
			delete(st.subs, ch) // subscriber too slow: drop it
			close(ch)
		}
	}
}

// subscribeFrom returns the history of events with Seq >= from and a
// live channel (closed at end of stream); a nil channel means the stream
// already ended — replay is complete. A reconnecting client that saw
// events up to seq n resumes with from = n+1.
func (st *stream) subscribeFrom(from int) ([]Event, chan Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	replay := st.history
	if from > 1 {
		if from > len(replay) {
			replay = nil
		} else {
			replay = replay[from-1:]
		}
	}
	replay = append([]Event(nil), replay...)
	if st.closed {
		return replay, nil
	}
	ch := make(chan Event, 1024)
	st.subs[ch] = struct{}{}
	return replay, ch
}

func (st *stream) unsubscribe(ch chan Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.subs[ch]; ok {
		delete(st.subs, ch)
		close(ch)
	}
}

func (st *stream) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	for ch := range st.subs {
		close(ch)
	}
	st.subs = nil
}

// events snapshots the history (for status endpoints).
func (st *stream) events() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.history)
}

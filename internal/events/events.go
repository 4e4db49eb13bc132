// Package events is the broadcast bus behind GET /api/v1/events.
//
// Producers (the API's campaign table, the campaign coordinator, the fleet
// manager, the session store) Publish typed events; subscribers receive
// them through per-subscriber bounded ring buffers, so a wedged consumer
// can never stall a publisher — when a subscriber's ring overflows, the oldest buffered
// event is dropped and counted, and the drop count is surfaced to that
// subscriber on its next Drain. Every event carries a bus-wide monotonic ID
// (the SSE Last-Event-ID cursor) and a per-topic sequence number, and the
// bus keeps a small in-memory tail so a reconnecting client can replay
// recent history.
//
// Publish never blocks and the bus owns no goroutines; subscribers are
// pull-driven via a level-triggered notify channel.
package events

import (
	"encoding/json"
	"sync"
	"time"
)

// Topic classifies events by the subsystem that produced them.
type Topic string

const (
	TopicJob     Topic = "job"     // campaign job lifecycle + progress
	TopicShard   Topic = "shard"   // coordinator shard dispatch/complete/reassign
	TopicFleet   Topic = "fleet"   // worker join/retire/lease/steal
	TopicSession Topic = "session" // session create/replace/evict
)

// Topics lists every topic the bus carries, in documentation order.
func Topics() []Topic {
	return []Topic{TopicJob, TopicShard, TopicFleet, TopicSession}
}

// ValidTopic reports whether t names a known topic.
func ValidTopic(t Topic) bool {
	switch t {
	case TopicJob, TopicShard, TopicFleet, TopicSession:
		return true
	}
	return false
}

// Event is one bus message. ID is monotonic across the whole bus and is the
// SSE event id; Seq is monotonic within the event's topic. Key identifies
// the subject (job ID, campaign ID, worker name, session ID) so streams can
// be filtered server-side.
type Event struct {
	ID    uint64          `json:"id"`
	Topic Topic           `json:"topic"`
	Seq   uint64          `json:"seq"`
	Type  string          `json:"type"`
	Key   string          `json:"key,omitempty"`
	Time  time.Time       `json:"time"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// Filter selects a subset of the stream. A zero Filter matches everything.
type Filter struct {
	// Topics limits delivery to these topics; empty means all topics.
	Topics []Topic
	// Key limits delivery per topic to events whose Key matches; topics
	// absent from the map are unrestricted.
	Key map[Topic]string
}

// Match reports whether the filter admits e.
func (f Filter) Match(e Event) bool {
	if len(f.Topics) > 0 {
		ok := false
		for _, t := range f.Topics {
			if t == e.Topic {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if want, ok := f.Key[e.Topic]; ok && want != e.Key {
		return false
	}
	return true
}

// Stats is a snapshot of bus counters for /api/v1/meta.
type Stats struct {
	Published   uint64           `json:"published"`
	Dropped     uint64           `json:"dropped"`
	Subscribers int              `json:"subscribers"`
	LastID      uint64           `json:"last_id"`
	TopicSeq    map[Topic]uint64 `json:"topic_seq,omitempty"`
}

const (
	// DefaultTail is how many recent events the bus retains for
	// Last-Event-ID replay when NewBus is given tail <= 0.
	DefaultTail = 512
	// DefaultBuffer is the per-subscriber ring size when Subscribe is
	// given buffer <= 0.
	DefaultBuffer = 256
)

// Bus is a broadcast hub. The zero value is not usable; call NewBus.
type Bus struct {
	mu       sync.Mutex
	nextID   uint64
	topicSeq map[Topic]uint64
	tail     []Event // ring of the last len(tail) events, tailLen valid
	tailCap  int
	tailHead int // index of the oldest retained event
	tailLen  int
	subs     map[*Subscriber]struct{}

	published uint64
	dropped   uint64

	now func() time.Time // test hook
}

// NewBus returns a bus retaining tail events for replay (DefaultTail if
// tail <= 0).
func NewBus(tail int) *Bus {
	if tail <= 0 {
		tail = DefaultTail
	}
	return &Bus{
		topicSeq: make(map[Topic]uint64),
		tail:     make([]Event, tail),
		tailCap:  tail,
		subs:     make(map[*Subscriber]struct{}),
		now:      time.Now,
	}
}

// Publish marshals data and broadcasts one event on topic. It never blocks:
// subscribers that cannot keep up lose their oldest buffered event instead.
// Marshal failures are reported in-band as a {"marshal_error": ...} payload
// rather than silently dropping the event.
func (b *Bus) Publish(topic Topic, typ, key string, data any) Event {
	var raw json.RawMessage
	if data != nil {
		enc, err := json.Marshal(data)
		if err != nil {
			enc, _ = json.Marshal(map[string]string{"marshal_error": err.Error()})
		}
		raw = enc
	}

	b.mu.Lock()
	b.nextID++
	b.topicSeq[topic]++
	e := Event{
		ID:    b.nextID,
		Topic: topic,
		Seq:   b.topicSeq[topic],
		Type:  typ,
		Key:   key,
		Time:  b.now().UTC(),
		Data:  raw,
	}
	b.published++
	// Append to the replay tail, evicting the oldest entry when full.
	if b.tailLen < b.tailCap {
		b.tail[(b.tailHead+b.tailLen)%b.tailCap] = e
		b.tailLen++
	} else {
		b.tail[b.tailHead] = e
		b.tailHead = (b.tailHead + 1) % b.tailCap
	}
	targets := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		targets = append(targets, s)
	}
	b.mu.Unlock()

	for _, s := range targets {
		if s.filter.Match(e) {
			if s.offer(e) {
				b.mu.Lock()
				b.dropped++
				b.mu.Unlock()
			}
		}
	}
	return e
}

// Subscribe registers a subscriber whose ring holds buffer events
// (DefaultBuffer if buffer <= 0). Events published after Subscribe returns
// are delivered; use ReplaySince to cover a reconnect gap.
func (b *Bus) Subscribe(f Filter, buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	s := &Subscriber{
		bus:    b,
		filter: f,
		ring:   make([]Event, buffer),
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// ReplaySince returns retained events with ID > after that match f, oldest
// first. complete is false when the tail has already evicted events the
// caller missed (i.e. the gap cannot be fully reconstructed).
func (b *Bus) ReplaySince(after uint64, f Filter) (evs []Event, complete bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// The gap is fully reconstructable iff no event between after+1 and
	// now has been evicted from the tail.
	complete = true
	if b.tailLen > 0 {
		if oldest := b.tail[b.tailHead]; after+1 < oldest.ID {
			complete = false
		}
	}
	for i := 0; i < b.tailLen; i++ {
		e := b.tail[(b.tailHead+i)%b.tailCap]
		if e.ID > after && f.Match(e) {
			evs = append(evs, e)
		}
	}
	return evs, complete
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	seq := make(map[Topic]uint64, len(b.topicSeq))
	for t, n := range b.topicSeq {
		seq[t] = n
	}
	return Stats{
		Published:   b.published,
		Dropped:     b.dropped,
		Subscribers: len(b.subs),
		LastID:      b.nextID,
		TopicSeq:    seq,
	}
}

func (b *Bus) unsubscribe(s *Subscriber) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Subscriber is one consumer's bounded view of the stream. Wait on Notify,
// then Drain; repeat. Close when done.
type Subscriber struct {
	bus    *Bus
	filter Filter
	notify chan struct{}

	mu      sync.Mutex
	ring    []Event
	head    int    // oldest buffered event
	n       int    // buffered count
	dropped uint64 // drops since the last Drain
	total   uint64 // drops over the subscriber's lifetime
	closed  bool
}

// offer enqueues e, evicting the oldest buffered event when the ring is
// full. It reports whether an event was dropped.
func (s *Subscriber) offer(e Event) (droppedOne bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.dropped++
		s.total++
		droppedOne = true
	}
	s.ring[(s.head+s.n)%len(s.ring)] = e
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return droppedOne
}

// Notify returns a channel that receives a token whenever new events (or
// drops) are pending. It is level-triggered with capacity 1: always Drain
// after a receive.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Drain returns and clears the buffered events (oldest first) along with
// the number of events dropped since the previous Drain.
func (s *Subscriber) Drain() (evs []Event, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n > 0 {
		evs = make([]Event, 0, s.n)
		for i := 0; i < s.n; i++ {
			evs = append(evs, s.ring[(s.head+i)%len(s.ring)])
		}
		s.head = 0
		s.n = 0
	}
	dropped = s.dropped
	s.dropped = 0
	return evs, dropped
}

// Dropped returns the lifetime drop count for this subscriber.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Close unsubscribes. It is safe to call more than once.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bus.unsubscribe(s)
}

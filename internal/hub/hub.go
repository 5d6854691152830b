// Package hub is the multi-viewer broadcast layer behind the
// visualization proxy: rendered frames fan out to N concurrent
// subscribers over the v3 wire format, and a CRC-checked steering
// channel flows back from subscribers to the proxies. Each subscriber
// owns its own connection, its own step cursor (the hello message
// carries the first step wanted, seeded from the PR 5 checkpoint
// machinery on the client), and its own bounded queue with drop-oldest
// overflow journaled in-band — a slow subscriber sheds frames visibly
// instead of ever stalling the sim step loop.
//
// A frame is encoded once, not once per subscriber. Each published frame
// has at most two wire encodings — its delta against the frame published
// just before it, and its keyframe (Config.Codec.Keyframe(), no
// reference) — each built once and shared by the rest: by the first
// sender goroutine that needs it, or, on one P, by the publisher. All a
// subscriber keeps of the temporal state is which frame it was sent
// last: when that is the predecessor of the frame it is about to send,
// it takes the shared delta; otherwise (it just joined, resumed from the
// history, or lost frames to drop-oldest) it takes the shared keyframe. Under delta+flate the delta is built only
// when transport.Choose, asked once per frame, finds it smaller than the
// keyframe; otherwise every subscriber takes the keyframe and the frame
// has one encoding. An encoding lives only while some queue still holds
// the frame; the history ring keeps plain bytes.
//
// Steering is last-writer-wins across subscribers and is consumed by
// the proxies at step boundaries, journaled so a run can be replayed.
package hub

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// Hub telemetry: aggregate counters, the subscriber-count gauge, and the
// time each frame write to a viewer takes. Frame writes are not
// journaled: a lagging viewer's drops would make the hub's journal
// depend on timing. Per-slot gauges (queue depth, drops, lag) are
// resolved in New.
var (
	ctrPublished = telemetry.Default.Counter("hub.frames_published")
	ctrEncoded   = telemetry.Default.Counter("hub.frames_encoded")
	ctrFanout    = telemetry.Default.Counter("hub.frames_fanout")
	ctrDropped   = telemetry.Default.Counter("hub.frames_dropped")
	ctrSteer     = telemetry.Default.Counter("hub.steer_received")
	gSubscribers = telemetry.Default.Gauge("hub.subscribers")
	histSend     = telemetry.Default.Histogram("hub.send")
)

// ErrHubClosed is returned by operations on a hub after Close.
var ErrHubClosed = errors.New("hub: closed")

// Config configures a broadcast hub.
type Config struct {
	// Addr is the TCP listen address (host:port; port 0 for ephemeral).
	Addr string
	// MaxSubs bounds concurrent subscribers (default 8); connections
	// past the bound are rejected and journaled.
	MaxSubs int
	// Queue is the per-subscriber frame backlog (default 16). A full
	// queue drops its oldest frame and journals the overflow, the same
	// drop-oldest contract as the obs /events live tail.
	Queue int
	// History is how many published frames the hub retains for
	// late-joining or resuming subscribers (default 2*Queue). A hello
	// asking for steps older than the retention starts at the oldest
	// retained frame.
	History int
	// Codec is the wire codec for subscriber streams. Under a temporal
	// codec a subscriber's first frame, and its first after losing frames
	// to drop-oldest, is a keyframe.
	Codec transport.CodecID
	// WriteTimeout bounds each frame write to a subscriber (default
	// 10s); a wedged subscriber is disconnected, never waited on.
	WriteTimeout time.Duration
	// HelloTimeout bounds the wait for a new connection's hello
	// (default 5s).
	HelloTimeout time.Duration
	// Rank labels journal events.
	Rank int
	// Journal, when set, receives subscribe/steer/overflow events.
	Journal *journal.Writer
}

// frame is one published frame, a slot of its hub: a plain vtkio payload
// shared by the history ring and the fanouts that carry it, via refcount.
// The final release puts the slot, payload included, on its hub's free
// list, and a later publish refills it — dropping a reference on the floor
// keeps a slot out of use, never frees one twice. A payload is allocated
// at the encoded grid's exact length and reallocated, at exact length,
// only when a larger grid arrives.
type frame struct {
	hub  *Hub
	step int64
	// seq numbers frames in publish order. Steps may repeat (a restarted
	// proxy republishes from its checkpoint), so seq, not step, says
	// which frame a subscriber's receiver holds as its delta reference.
	seq     int64
	payload []byte
	refs    atomic.Int32
}

func (f *frame) retain() { f.refs.Add(1) }

func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		f.hub.frames.put(f)
	}
}

// fanout is one frame on its way through subscriber queues, with the
// wire encodings the senders share. It holds a reference on the frame
// and on its predecessor's plain bytes (the delta reference; nil for the
// first frame ever published), and is itself refcounted by the queues: an
// encoding is freed with the last queue's reference, so it never outlives
// the senders that still have the frame queued, and since prev is a
// frame, not a fanout, no chain of predecessors is ever pinned. The
// history ring holds frames only; a late joiner gets fresh fanouts. Like
// frames, fanouts are the hub's: the last release puts one, with its
// encoding buffers, on the hub's free list.
type fanout struct {
	hub       *Hub
	cur, prev *frame
	refs      atomic.Int32

	// mu guards the encodings, built on demand; whoever builds one holds
	// it across the encode so a sender that also needs it waits for the
	// bytes instead of redoing them. choice, once chosen, is the codec
	// for a subscriber that holds prev: the hub codec, or its keyframe
	// when transport.Choose found that smaller.
	mu         sync.Mutex
	delta, key encoding
	choice     transport.CodecID
	chosen     bool
}

// fit returns b with length n, reallocated only when its capacity is
// short, with room for extra more bytes. Its contents are unspecified. A
// payload gets no room, so it never sits in a larger size class; an
// encoding, whose length varies from frame to frame, gets an eighth, so a
// fanout does not reallocate for every frame a little longer than the
// longest it has held.
func fit(b []byte, n, extra int) []byte {
	if cap(b) < n {
		return make([]byte, n, n+extra)
	}
	return b[:n]
}

// encoding is one wire encoding of a fanout's frame: buf holds exactly
// its bytes once built is set (raw needs none: it is the plain payload
// itself). buf outlives the fanout's use and is reallocated only for a
// longer encoding than it has room for (see fit).
type encoding struct {
	buf   []byte
	built bool
}

// newFanout wraps cur for the queues; the caller owns the one reference
// it starts with.
func (h *Hub) newFanout(cur, prev *frame) *fanout {
	fo := h.fanouts.get()
	fo.hub = h
	cur.retain()
	if prev != nil {
		prev.retain()
	}
	fo.cur, fo.prev = cur, prev
	fo.refs.Store(1)
	return fo
}

func (fo *fanout) retain() { fo.refs.Add(1) }

func (fo *fanout) release() {
	if fo.refs.Add(-1) != 0 {
		return
	}
	// Last reference: no sender can be inside encoded any more.
	fo.cur.release()
	if fo.prev != nil {
		fo.prev.release()
	}
	fo.cur, fo.prev, fo.chosen = nil, nil, false
	fo.delta.built, fo.key.built = false, false
	fo.hub.fanouts.put(fo)
}

// freeList is a stack of idle values a hub owns, guarded by its own leaf
// lock: a release puts a value back under the hub's mu or a subscriber's
// mu, so nothing else is locked while mu is held. held counts the values
// it allocated and has not let go; past limit, put lets a value go to the
// collector instead of keeping it, so the memory a burst of slow viewers
// needed is not pinned after they leave.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
	held  int
	limit int
}

// get pops an idle value, or allocates a zero one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		l.held++
		return new(T)
	}
	v := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return v
}

func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	if l.held > l.limit {
		l.held--
	} else {
		l.items = append(l.items, v)
	}
	l.mu.Unlock()
}

// setLimit sets how many values l may hold, letting idle ones beyond it go.
func (l *freeList[T]) setLimit(n int) {
	l.mu.Lock()
	l.limit = n
	for l.held > n && len(l.items) > 0 {
		l.items[len(l.items)-1] = nil
		l.items = l.items[:len(l.items)-1]
		l.held--
	}
	l.mu.Unlock()
}

// encoder is the codec state one encode needs: the codec instances and
// the scratch they encode into before the result is copied to a buffer of
// its own size. Senders borrow one per encode from the hub's free list,
// so a hub holds as many as it ever had encodes in flight at once, not
// one per subscriber.
type encoder struct {
	transport.Encoder
	scratch []byte
}

// subscriber is one attached viewer: a bounded frame ring drained by a
// dedicated sender goroutine, fed by PublishFrame without ever blocking.
type subscriber struct {
	slot int
	name string
	from int64
	conn *transport.Conn

	// lastSent is the seq of the frame last sent on conn — the plain bytes
	// the peer holds as its delta reference — once haveRef is set. Owned
	// by the sender goroutine.
	lastSent int64
	haveRef  bool
	// lastQueued is the seq of the frame last put on the queue, -1 before
	// the first: the frame the sender will have sent just before the next
	// one, unless drop-oldest evicts it. Guarded by the hub's mu.
	lastQueued int64

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*fanout
	head   int
	count  int
	done   bool // no more enqueues; sender drains the ring then stops
	drops  int64
	closed sync.Once

	gDepth, gDrops, gLag *telemetry.Gauge
}

// enqueue adds f (ownership of one reference transfers to the queue).
// On overflow the oldest queued frame is evicted and returned for the
// caller to journal and release; the publisher never blocks.
func (s *subscriber) enqueue(f *fanout) (evicted *fanout) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		f.release()
		return nil
	}
	if s.count == len(s.ring) {
		evicted = s.ring[s.head]
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		s.drops++
		s.gDrops.Set(s.drops)
	}
	s.ring[(s.head+s.count)%len(s.ring)] = f
	s.count++
	s.gDepth.Set(int64(s.count))
	s.cond.Signal()
	s.mu.Unlock()
	return evicted
}

// dequeue blocks until a frame is available or the queue is finished
// and drained; ok=false means the sender should stop.
func (s *subscriber) dequeue() (f *fanout, ok bool) {
	s.mu.Lock()
	for s.count == 0 && !s.done {
		s.cond.Wait()
	}
	if s.count == 0 {
		s.mu.Unlock()
		return nil, false
	}
	f = s.ring[s.head]
	s.ring[s.head] = nil
	s.head = (s.head + 1) % len(s.ring)
	s.count--
	s.gDepth.Set(int64(s.count))
	s.mu.Unlock()
	return f, true
}

// finish stops new enqueues; queued frames still drain (graceful
// end-of-run: the sender flushes the backlog, then sends Done).
func (s *subscriber) finish() {
	s.mu.Lock()
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abort is finish plus dropping the backlog (abrupt teardown after a
// send or read error — the peer is gone, the frames have no taker).
func (s *subscriber) abort() {
	s.mu.Lock()
	s.done = true
	for s.count > 0 {
		f := s.ring[s.head]
		s.ring[s.head] = nil
		s.head = (s.head + 1) % len(s.ring)
		s.count--
		f.release()
	}
	s.gDepth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// queued reports the current backlog depth.
func (s *subscriber) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Hub is the broadcast layer. Create with New, serve with Serve (or
// coupling.RunHubSupervised), feed with PublishFrame, stop with Close.
type Hub struct {
	cfg Config
	ln  net.Listener

	// pmu serializes PublishFrame and guards its scratch (grid, enc) and
	// seq, the next frame's place in publish order.
	pmu  sync.Mutex
	grid *data.StructuredGrid
	enc  []byte
	seq  int64

	// mu guards membership and the history ring. Lock order: mu before
	// any subscriber.mu; a fanout.mu is only ever held on its own.
	mu      sync.Mutex
	subs    []*subscriber
	nsubs   int
	history []*frame
	hhead   int
	hcount  int
	closed  bool

	// The hub's own memory: frames (its slots) and fanouts whose last
	// reference is gone, and encoders between encodes.
	frames   freeList[frame]
	fanouts  freeList[fanout]
	encoders freeList[encoder]

	// latest is the newest published step, read lock-free by sender
	// goroutines for the lag gauge.
	latest    atomic.Int64
	published atomic.Int64

	// steer is the cumulative last-writer-wins steering state.
	smu   sync.Mutex
	steer State

	wg sync.WaitGroup

	slotDepth, slotDrops, slotLag []*telemetry.Gauge
}

// New validates cfg, opens the listener, and resolves the per-slot
// gauge series. The caller still must run Serve to accept subscribers.
func New(cfg Config) (*Hub, error) {
	if cfg.MaxSubs <= 0 {
		cfg.MaxSubs = 8
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.History <= 0 {
		cfg.History = 2 * cfg.Queue
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 5 * time.Second
	}
	if !cfg.Codec.Valid() {
		return nil, fmt.Errorf("hub: invalid codec %d", cfg.Codec)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("hub: listen %s: %w", cfg.Addr, err)
	}
	h := &Hub{
		cfg:     cfg,
		ln:      ln,
		subs:    make([]*subscriber, cfg.MaxSubs),
		history: make([]*frame, cfg.History),
	}
	h.latest.Store(-1)
	h.subscribersChanged()
	// The slot domain is closed and bounded by MaxSubs, so the dynamic
	// series names below are auditable: hub.sub<slot>.{queue_depth,
	// dropped_frames, lag_steps}.
	gauge := func(slot int, kind string) *telemetry.Gauge {
		return telemetry.Default.Gauge("hub.sub" + strconv.Itoa(slot) + "." + kind)
	}
	for i := 0; i < cfg.MaxSubs; i++ {
		h.slotDepth = append(h.slotDepth, gauge(i, "queue_depth"))
		h.slotDrops = append(h.slotDrops, gauge(i, "dropped_frames"))
		h.slotLag = append(h.slotLag, gauge(i, "lag_steps"))
	}
	return h, nil
}

// subscribersChanged sizes the free lists to what nsubs subscribers can
// hold at once: slots for the ring, for the Queue fanouts per subscriber
// and for the frame being published and its predecessor; those fanouts
// and the one each sender has in hand; an encoder per sender. With nobody
// subscribed the hub keeps History + 2 slots and no fanout or encoder.
// The caller holds mu, or has not shared h yet.
func (h *Hub) subscribersChanged() {
	queued := h.cfg.Queue * h.nsubs
	h.frames.setLimit(h.cfg.History + queued + 2)
	h.fanouts.setLimit(queued + h.nsubs)
	h.encoders.setLimit(h.nsubs)
}

// Addr reports the bound listen address (useful with port 0).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Published reports the number of frames published so far — the
// supervision progress probe.
func (h *Hub) Published() int64 { return h.published.Load() }

// Subscribers reports the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nsubs
}

// Backlog reports the total queued frames across all subscribers —
// zero means every published frame has been handed to the wire.
func (h *Hub) Backlog() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for _, s := range h.subs {
		if s != nil {
			total += s.queued()
		}
	}
	return total
}

// Current implements Source: a snapshot of the cumulative steering
// state. The step argument is ignored — live steering applies at the
// next boundary, whatever step that is.
func (h *Hub) Current(int) State {
	h.smu.Lock()
	defer h.smu.Unlock()
	return h.steer
}

// Steer folds one steer message into the hub state as if a subscriber
// had sent it (also the entry point for local/scripted drivers).
func (h *Hub) Steer(who string, m Msg) {
	h.smu.Lock()
	h.steer.Merge(m)
	seq := h.steer.Seq
	h.smu.Unlock()
	ctrSteer.Inc()
	h.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeSteer, Rank: h.cfg.Rank, Step: int(h.latest.Load()),
		Detail: fmt.Sprintf("recv from=%s seq=%d %s", who, seq, m),
	})
}

// Serve accepts subscribers until the context is canceled or the hub is
// closed. Safe to call again after a supervised restart, as long as the
// hub itself has not been closed.
func (h *Hub) Serve(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	//lint:ignore nakedgo infallible select-then-Close unblocker; the Close error is re-observed by the Accept loop it wakes
	go func() {
		select {
		case <-ctx.Done():
			h.ln.Close()
		case <-stop:
		}
	}()
	for {
		nc, err := h.ln.Accept()
		if err != nil {
			if ctx.Err() != nil || h.isClosed() {
				return nil
			}
			return fmt.Errorf("hub: accept: %w", err)
		}
		h.wg.Add(1)
		go func() {
			// serveSubscriber recovers protocol panics itself; this outer
			// handler catches anything thrown before its recovery defer is
			// installed, so one bad connection can never take out Accept.
			defer func() {
				if p := recover(); p != nil {
					h.cfg.Journal.Error(h.cfg.Rank, int(h.latest.Load()),
						fmt.Errorf("hub: subscriber setup panic: %v", p))
				}
			}()
			h.serveSubscriber(nc)
		}()
	}
}

func (h *Hub) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Interrupt unblocks Serve and every subscriber goroutine without the
// graceful drain — the supervision teardown hook.
func (h *Hub) Interrupt() {
	h.ln.Close()
	h.mu.Lock()
	subs := make([]*subscriber, 0, h.nsubs)
	for _, s := range h.subs {
		if s != nil {
			subs = append(subs, s)
		}
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.abort()
		s.conn.Close()
	}
}

// serveSubscriber owns one accepted connection: wait for the hello,
// register, then loop reading control frames until the peer leaves. A
// panic in the per-subscriber protocol tears down this subscriber only,
// never the hub.
func (h *Hub) serveSubscriber(nc net.Conn) {
	defer h.wg.Done()
	conn := transport.NewConn(nc)
	conn.SetCodec(h.cfg.Codec)
	conn.SetMaxFrame(transport.MaxControlFrame)
	// Until the hello arrives, bound the read so a silent connection
	// cannot hold a slot-less goroutine forever.
	conn.SetTimeouts(h.cfg.HelloTimeout, h.cfg.WriteTimeout)

	var sub *subscriber
	reason := "done"
	defer func() {
		if p := recover(); p != nil {
			reason = fmt.Sprintf("panic: %v", p)
		}
		if sub != nil {
			h.unsubscribe(sub, reason)
		} else {
			conn.Close()
		}
	}()

	conn.OnControl(func(p []byte) error {
		m, err := DecodeMsg(p)
		if err != nil {
			h.cfg.Journal.Error(h.cfg.Rank, int(h.latest.Load()), err)
			return err
		}
		sub, err = h.control(m, conn, sub)
		return err
	})
	for {
		typ, _, _, err := conn.Recv()
		if err != nil {
			reason = err.Error()
			return
		}
		if typ == transport.MsgDone {
			reason = "client left"
			return
		}
		reason = fmt.Sprintf("protocol error: unexpected message type %d", typ)
		return
	}
}

// control acts on one decoded control message from the viewer on conn,
// which sub is once its hello registered it, and returns the viewer
// registered after it. A message of a kind viewers do not send (a field
// request belongs to the in-situ interface) is refused with an error
// wrapping ErrSteering.
func (h *Hub) control(m Msg, conn *transport.Conn, sub *subscriber) (*subscriber, error) {
	switch m.Kind {
	case KindHello:
		if sub != nil {
			return sub, fmt.Errorf("hub: duplicate hello from %s", sub.name)
		}
		// A registered subscriber may idle indefinitely between steering
		// messages, so drop the read deadline now — before register
		// starts the sender goroutine, which shares the timeout fields.
		conn.SetTimeouts(0, h.cfg.WriteTimeout)
		return h.register(m, conn)
	case KindSteer:
		if sub == nil {
			return nil, fmt.Errorf("hub: steer before hello")
		}
		h.Steer(sub.name, m)
		return sub, nil
	default:
		return sub, fmt.Errorf("%w: kind %d is not a hub message", ErrSteering, m.Kind)
	}
}

// register claims a slot for a subscriber and seeds its queue from the
// history ring at its requested cursor, so a resumed viewer replays the
// retained tail before joining the live stream.
func (h *Hub) register(m Msg, conn *transport.Conn) (*subscriber, error) {
	name := m.Name
	if name == "" {
		name = "sub"
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("hub: registering %s: %w", name, ErrHubClosed)
	}
	slot := -1
	for i, s := range h.subs {
		if s == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		h.mu.Unlock()
		h.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSubscribe, Rank: h.cfg.Rank, Step: int(m.From),
			Detail: fmt.Sprintf("reject name=%s: subscriber limit %d reached", name, len(h.subs)),
		})
		return nil, fmt.Errorf("hub: subscriber limit %d reached", len(h.subs))
	}
	s := &subscriber{
		slot: slot, name: name, from: m.From, conn: conn,
		ring: make([]*fanout, h.cfg.Queue), lastQueued: -1,
		gDepth: h.slotDepth[slot], gDrops: h.slotDrops[slot], gLag: h.slotLag[slot],
	}
	s.cond = sync.NewCond(&s.mu)
	s.gDepth.Set(0)
	s.gDrops.Set(0)
	s.gLag.Set(0)
	seeded := 0
	if m.From >= 0 {
		// The retained frames go out on fanouts of their own, each with
		// the frame before it in the ring as its delta reference: whatever
		// encodings the live fanouts had went with them.
		var prev *frame
		for i := 0; i < h.hcount; i++ {
			f := h.history[(h.hhead+i)%len(h.history)]
			if f.step >= m.From {
				s.lastQueued = f.seq
				if ev := s.enqueue(h.newFanout(f, prev)); ev != nil {
					// Catch-up exceeded the queue bound; the overflow is
					// journaled below like any live drop.
					ctrDropped.Inc()
					h.cfg.Journal.Emit(journal.Event{
						Type: journal.TypeOverflow, Rank: h.cfg.Rank, Step: int(ev.cur.step), Elements: 1,
						Detail: fmt.Sprintf("hub subscriber %s slot=%d dropped oldest queued frame (catch-up)", name, slot),
					})
					ev.release()
				}
				seeded++
			}
			prev = f
		}
	}
	h.subs[slot] = s
	h.nsubs++
	gSubscribers.Set(int64(h.nsubs))
	h.subscribersChanged()
	h.mu.Unlock()
	h.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeSubscribe, Rank: h.cfg.Rank, Step: int(m.From),
		Detail: fmt.Sprintf("join name=%s slot=%d from=%d seeded=%d", name, slot, m.From, seeded),
	})
	h.wg.Add(1)
	go func() {
		// A panic in the send path tears down this subscriber only.
		defer func() {
			if p := recover(); p != nil {
				h.unsubscribe(s, fmt.Sprintf("sender panic: %v", p))
			}
		}()
		h.sender(s)
	}()
	return s, nil
}

// unsubscribe removes a subscriber; idempotent across the sender and
// reader goroutines (whichever fails first journals its reason).
func (h *Hub) unsubscribe(s *subscriber, reason string) {
	s.closed.Do(func() {
		h.mu.Lock()
		if h.subs[s.slot] == s {
			h.subs[s.slot] = nil
			h.nsubs--
			gSubscribers.Set(int64(h.nsubs))
			h.subscribersChanged()
		}
		h.mu.Unlock()
		h.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSubscribe, Rank: h.cfg.Rank, Step: int(h.latest.Load()),
			Detail: fmt.Sprintf("leave name=%s slot=%d reason=%s", s.name, s.slot, reason),
		})
	})
	s.abort()
	s.conn.Close()
}

// sender drains one subscriber's queue onto its connection. A frame goes
// out as the shared delta when the frame sent just before it on this
// connection is its predecessor — the reference the peer then holds —
// unless the keyframe is the smaller encoding (see encoded), and as the
// shared keyframe otherwise: the first frame after a join or a resume,
// and the first after a drop-oldest eviction.
func (h *Hub) sender(s *subscriber) {
	defer h.wg.Done()
	for {
		f, ok := s.dequeue()
		if !ok {
			// Graceful drain complete: end the stream so followers exit.
			s.conn.SendDone()
			h.unsubscribe(s, "stream complete")
			return
		}
		delta := h.cfg.Codec.Temporal() && s.haveRef && f.prev != nil && s.lastSent == f.prev.seq
		id, wire, err := h.encoded(f, delta)
		t0 := time.Now()
		if err == nil {
			s.conn.Step = int(f.cur.step)
			err = s.conn.SendEncoded(id, wire, len(f.cur.payload))
		}
		if err == nil {
			histSend.Since(t0)
			s.lastSent, s.haveRef = f.cur.seq, true
			s.gLag.Set(h.latest.Load() - f.cur.step)
		}
		f.release()
		if err != nil {
			h.unsubscribe(s, "send: "+err.Error())
			return
		}
	}
}

// encoded returns f's wire bytes and the codec they are under: what
// transport.Choose picks for the hub codec against f.prev when delta is
// set — asked once per fanout, so every subscriber holding f.prev gets
// the same answer, and a keyframe answer is the very f.key that
// subscribers without a reference share — and the keyframe fallback
// otherwise. The first caller to ask — a sender, or on one P the
// publisher (see prebuild) — builds the encoding —
// into a borrowed encoder's scratch, then copied to the fanout's own
// buffer, so what a queued frame holds is about an encoding's length and
// not the scratch's capacity — and every later sender shares it.
// Raw is the plain payload itself. The bytes stay valid while the
// caller holds its reference on f.
func (h *Hub) encoded(f *fanout, delta bool) (transport.CodecID, []byte, error) {
	id, enc, ref := h.cfg.Codec.Keyframe(), &f.key, []byte(nil)
	if !delta && id == transport.CodecRaw {
		return id, f.cur.payload, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if delta {
		if !f.chosen {
			f.choice, f.chosen = transport.Choose(h.cfg.Codec, f.cur.payload, f.prev.payload), true
		}
		if f.choice != id {
			id, enc, ref = f.choice, &f.delta, f.prev.payload
		}
	}
	if !enc.built {
		e := h.encoders.get()
		defer h.encoders.put(e)
		out, err := e.Encode(id, e.scratch[:0], f.cur.payload, ref)
		if err != nil {
			return id, nil, fmt.Errorf("hub: encoding step %d as %s: %w", f.cur.step, id, err)
		}
		e.scratch = out
		enc.buf = fit(enc.buf, len(out), len(out)/8)
		copy(enc.buf, out)
		enc.built = true
		ctrEncoded.Inc()
	}
	return id, enc.buf, nil
}

// PublishFrame serializes one rendered frame and fans it out: one vtkio
// encode into a slot of the hub's, one reference for the history ring, and —
// when anyone is subscribed — one fanout shared by every subscriber
// queue. With more than one P, wire encoding is left to the senders (see
// encoded), so it runs beside the sim/render loop and the cost here does
// not depend on the codec. On one P nothing runs beside the loop: a
// sender's encode would take the CPU between this step and the next at
// whatever point the scheduler picks, so PublishFrame builds the
// encodings its subscribers will take (see prebuild) and the step pays
// for its own frame. It never blocks on subscriber progress —
// a full queue drops its oldest frame (journaled as an in-band overflow
// event) and the sim/render loop proceeds untouched. Safe on a nil hub
// (publishing is a no-op), so callers can wire it unconditionally.
func (h *Hub) PublishFrame(step int, fr *fb.Frame) {
	if h == nil {
		return
	}
	h.pmu.Lock()
	h.grid = FrameGrid(fr, h.grid)
	var err error
	if h.enc, err = vtkio.Append(h.enc[:0], h.grid); err != nil {
		h.pmu.Unlock()
		h.cfg.Journal.Error(h.cfg.Rank, step, fmt.Errorf("hub: encoding frame: %w", err))
		return
	}
	f := h.frames.get()
	f.hub = h
	f.payload = fit(f.payload, len(h.enc), 0)
	f.step = int64(step)
	f.seq = h.seq
	h.seq++
	copy(f.payload, h.enc)
	f.refs.Store(1) // the history ring's reference

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.pmu.Unlock()
		f.release()
		return
	}
	// With subscribers attached the frame and its predecessor ride one
	// fanout; with none, no fanout exists at all. Each subscriber will
	// take the delta if the frame queued for it last is the predecessor
	// (follow), the keyframe otherwise (key).
	var fo *fanout
	var follow, key bool
	if h.nsubs > 0 {
		var prev *frame
		if h.hcount > 0 {
			prev = h.history[(h.hhead+h.hcount-1)%len(h.history)]
		}
		fo = h.newFanout(f, prev)
	}
	if h.hcount == len(h.history) {
		old := h.history[h.hhead]
		h.history[h.hhead] = nil
		h.hhead = (h.hhead + 1) % len(h.history)
		h.hcount--
		old.release()
	}
	h.history[(h.hhead+h.hcount)%len(h.history)] = f
	h.hcount++
	h.latest.Store(int64(step))
	for _, s := range h.subs {
		if s == nil {
			continue
		}
		follows := fo.prev != nil && s.lastQueued == fo.prev.seq
		s.lastQueued = f.seq
		fo.retain()
		ev := s.enqueue(fo)
		if ev != nil && ev.cur == fo.prev {
			follows = false // the predecessor itself was dropped
		}
		follow = follow || follows
		key = key || !follows
		if ev != nil {
			ctrDropped.Inc()
			h.cfg.Journal.Emit(journal.Event{
				Type: journal.TypeOverflow, Rank: h.cfg.Rank, Step: int(ev.cur.step), Elements: 1,
				Detail: fmt.Sprintf("hub subscriber %s slot=%d dropped oldest queued frame", s.name, s.slot),
			})
			ev.release()
		} else {
			ctrFanout.Inc()
		}
	}
	h.mu.Unlock()
	h.pmu.Unlock()
	if fo != nil {
		if runtime.GOMAXPROCS(0) == 1 {
			h.prebuild(fo, follow, key)
		}
		fo.release() // the publisher's own reference
	}
	h.published.Add(1)
	ctrPublished.Inc()
}

// prebuild builds fo's encodings ahead of its senders: the one a
// subscriber holding fo's predecessor takes when follow is set, the
// keyframe when key is. A sender then finds its bytes built; one whose
// predecessor a later drop-oldest evicts builds the keyframe itself.
// An encoding error is left for the sender, which meets it again and
// reports it.
func (h *Hub) prebuild(fo *fanout, follow, key bool) {
	if follow {
		h.encoded(fo, h.cfg.Codec.Temporal())
	}
	if key {
		h.encoded(fo, false)
	}
}

// Close stops accepting, lets every subscriber drain its backlog (ends
// each stream with Done), waits for all goroutines, and releases the
// history. Idempotent.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	subs := make([]*subscriber, 0, h.nsubs)
	for _, s := range h.subs {
		if s != nil {
			subs = append(subs, s)
		}
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, s := range subs {
		s.finish()
	}
	h.wg.Wait()
	h.mu.Lock()
	for h.hcount > 0 {
		f := h.history[h.hhead]
		h.history[h.hhead] = nil
		h.hhead = (h.hhead + 1) % len(h.history)
		h.hcount--
		f.release()
	}
	h.mu.Unlock()
	return nil
}

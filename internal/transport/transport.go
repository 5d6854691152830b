// Package transport implements ETH's inter-proxy communication: the
// socket layer and global layout file of §III-C. When the simulation and
// visualization proxies run as separate processes, each simulation rank
// opens a TCP port and appends "rank host:port" to a globally accessible
// layout file; each visualization rank then looks up its paired rank,
// waits for the port, and connects. Messages are length-prefixed frames
// with a one-byte type; datasets travel in the vtkio container format, so
// the wire payload is identical to the on-disk format.
//
// Dataset frames are integrity-checked and resumable: each carries the
// sender's step counter and a CRC32C trailer computed over the header and
// payload, so a flipped byte anywhere in the frame surfaces as
// ErrChecksum instead of a silently wrong dataset, and a receiver can
// recognize a re-sent step after a reconnect. Wire format v3 adds a codec
// ID byte to the dataset header — the payload-encoding axis (raw, flate,
// delta, delta+flate; see codec.go) is negotiated per frame, so a sender
// can open with a keyframe and switch to temporal encoding once both
// sides hold reference state. The wire layout is
//
//	MsgDatasetV3: [1B type][8B payload len][8B step][1B codec][payload][4B CRC32C]
//	MsgAck:       [1B type][8B len=8][8B step]
//	MsgDone:      [1B type][8B len=0]
//	MsgControl:   [1B type][8B payload len][payload][4B CRC32C]
//
// with all integers big-endian. v3 is the only dataset framing: the
// codec-less v2 frames (type bytes 1 and 4) are rejected with
// ErrCodecFrame before any payload byte is read. Connections optionally
// arm per-operation read/write deadlines (SetTimeouts) so a stalled peer
// surfaces as ErrTimeout, and DialBackoff rebuilds a connection through
// the layout file with capped exponential backoff and seeded jitter.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// Transport telemetry: byte and message counters. The serialize, send
// and recv legs are timed by their journal events (phase.serialize and
// phase.transport).
var (
	ctrBytesSent  = telemetry.Default.Counter("transport.bytes_sent")
	ctrBytesRecv  = telemetry.Default.Counter("transport.bytes_recv")
	ctrBytesPlain = telemetry.Default.Counter("transport.bytes_plain")
	ctrKeyframes  = telemetry.Default.Counter("transport.keyframes")
	ctrMessages   = telemetry.Default.Counter("transport.messages")
	ctrCRCChecked = telemetry.Default.Counter("transport.crc_checked")
	ctrCRCErrors  = telemetry.Default.Counter("transport.crc_errors")
	ctrTimeouts   = telemetry.Default.Counter("transport.timeouts")
	ctrRedials    = telemetry.Default.Counter("transport.redials")
)

// MsgType tags a protocol frame.
type MsgType uint8

const (
	// MsgDataset is what Recv reports for a received dataset (one time
	// step). On the wire its value is the retired v2 raw framing, which
	// Recv rejects with ErrCodecFrame; datasets travel as MsgDatasetV3.
	MsgDataset MsgType = iota + 1
	// MsgAck acknowledges processing of the previous dataset and carries
	// an 8-byte big-endian step counter.
	MsgAck
	// MsgDone signals the end of the run; no payload.
	MsgDone
	// msgDatasetFlateV2 reserves wire value 4, the retired v2 DEFLATE
	// framing, so the surviving types keep their values; Recv rejects it
	// with ErrCodecFrame like the v2 raw framing.
	msgDatasetFlateV2
	// MsgDatasetV3 carries a vtkio dataset under wire format v3: the
	// header carries a codec ID byte (see CodecID), so the payload
	// encoding is self-describing per frame. It is the only dataset
	// framing; Recv reports it as MsgDataset.
	MsgDatasetV3
	// MsgControl carries a small out-of-band control payload (steering
	// messages) upstream, against the dataset flow:
	//
	//	[1B type][8B payload len][payload][4B CRC32C]
	//
	// with the trailer computed over header+payload like a dataset
	// frame. Recv consumes control frames internally, handing the
	// payload to the OnControl handler, and keeps waiting for the next
	// data frame — control never perturbs the dataset protocol.
	MsgControl
)

// MaxControlFrame bounds a control payload: steering messages are tens
// of bytes, so anything beyond 64 KiB is a corrupt header or a hostile
// peer, rejected before allocation.
const MaxControlFrame = 1 << 16

// DefaultMaxFrame bounds a frame read from the wire (guards corrupt
// headers) when SetMaxFrame has not lowered it. 1 GiB fits in int on
// 32-bit platforms and comfortably exceeds any dataset the harness moves
// in one step.
const DefaultMaxFrame = 1 << 30

// datasetHeaderLenV3 is the on-wire header of a dataset frame: type (1)
// + payload length (8) + step (8) + codec ID (1).
const datasetHeaderLenV3 = 18

// castagnoli is the CRC32C polynomial table used for frame trailers
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors. All transport failures that recovery logic dispatches
// on wrap one of these, per the errwrap convention.
var (
	// ErrClosed is returned when the peer closed the stream mid-protocol.
	ErrClosed = errors.New("transport: connection closed by peer")
	// ErrChecksum is returned when a dataset frame's CRC32C trailer does
	// not match its contents: the frame was corrupted in transit.
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// ErrFrameTooLarge is returned when a frame header announces a length
	// outside the configured bound (a corrupt header or hostile peer).
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrTimeout is returned when an armed read or write deadline expires
	// before the operation completes (a stalled peer).
	ErrTimeout = errors.New("transport: deadline exceeded")
)

// Conn is a framed protocol connection between a simulation-proxy rank
// and its paired visualization-proxy rank.
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// BytesSent and BytesReceived count payload bytes for the harness's
	// data-movement accounting.
	BytesSent     int64
	BytesReceived int64
	// Journal, when set, receives one serialize event and one transfer
	// event per dataset message; Rank and Step label them and are set by
	// the proxy driving the connection (the transport itself is
	// step-agnostic).
	Journal *journal.Writer
	Rank    int
	Step    int
	// codec selects the payload encoding for outgoing datasets. Temporal
	// codecs are downgraded to their Keyframe fallback until the first
	// frame of the connection succeeds (and again after any send error),
	// which is what resynchronizes delta state across reconnect, resume,
	// and skip — every one of those paths builds a fresh Conn. Choose
	// may downgrade a delta+flate frame later on too, when its keyframe
	// is the smaller encoding.
	codec CodecID

	// Steady-state reuse scratch, split per direction so one sender plus
	// one receiver goroutine stay race-free: payload/swire/sprev serve
	// SendDataset, rwire/rplain/rprev serve Recv, and the scratch arrays
	// serve header and ack frames (a local array passed through
	// io.ReadFull escapes and allocates per call; a field on the
	// already-heap Conn does not). vtkio appends the plain payload
	// straight into payload and decodes straight out of rwire (raw) or
	// rplain, so a dataset byte is converted once per side. senc/rdec
	// hold the lazily-built per-direction codec instances; sprev/rprev
	// retain the previous step's *plain* payload — kept at the plain
	// layer regardless of codec, so switching codecs mid-stream never
	// desynchronizes the temporal reference.
	payload  []byte
	swire    []byte
	sprev    []byte
	sprevOK  bool
	senc     Encoder
	rwire    []byte
	rplain   []byte
	rprev    []byte
	rprevOK  bool
	rdec     [numCodecs]Codec
	scratch  [22]byte // write side (headers, ack payloads, CRC trailers)
	rscratch [22]byte // read side, so one sender + one receiver goroutine stay race-free

	// maxFrame, when > 0, overrides DefaultMaxFrame as the inbound frame
	// bound; readTimeout/writeTimeout, when > 0, arm per-operation
	// deadlines on the underlying connection.
	maxFrame     int64
	readTimeout  time.Duration
	writeTimeout time.Duration

	// prev/reuse drive the decode-into path: when reuse is on, Recv hands
	// the previous step's dataset to vtkio.Decode so a shape-stable
	// stream of steps decodes with zero steady-state allocation.
	prev  data.Dataset
	reuse bool

	// onControl receives each MsgControl payload from inside Recv; ctrl
	// is the reusable receive buffer backing it (valid only until the
	// next Recv, like a reused dataset).
	onControl func(payload []byte) error
	ctrl      []byte
}

// NewConn wraps a net.Conn in the framed protocol.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<20),
		bw: bufio.NewWriterSize(c, 1<<20),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// SetCodec selects the payload codec for outgoing datasets. Either side
// may pick its codec independently; frames are self-describing. Temporal
// codecs (delta, delta+flate) automatically send a keyframe first — and
// after any send error — so the receiver always has reference state.
// Invalid IDs are rejected at send time.
func (c *Conn) SetCodec(id CodecID) { c.codec = id }

// recvCodec returns the receive-side instance of the codec, building it
// on first use. The send side keeps its own (senc): codecs hold internal
// scratch and the two directions may run on different goroutines.
func (c *Conn) recvCodec(id CodecID) Codec {
	if c.rdec[id] == nil {
		c.rdec[id] = newCodec(id)
	}
	return c.rdec[id]
}

// SetDatasetReuse toggles in-place dataset reuse on Recv. When on, each
// received dataset recycles the arrays of the previous one (for
// shape-stable streams this makes Recv allocation-free at steady state),
// which means a dataset returned by Recv is INVALIDATED by the next Recv
// call. Leave it off (the default) if received datasets must outlive the
// next message.
func (c *Conn) SetDatasetReuse(on bool) {
	c.reuse = on
	if !on {
		c.prev = nil
	}
}

// SetMaxFrame lowers (or raises) the inbound frame-length bound from
// DefaultMaxFrame. Frames announcing more than n payload bytes are
// rejected with ErrFrameTooLarge before any allocation, and a compressed
// frame that would inflate past n plain bytes fails with ErrCodecFrame
// before its output grows past them. n <= 0 restores the default.
func (c *Conn) SetMaxFrame(n int64) { c.maxFrame = n }

// SetTimeouts arms per-operation deadlines: every Recv gets read and
// every Send* gets write deadline now+d on the underlying connection.
// A deadline of 0 disables that direction. An expired deadline surfaces
// as an error wrapping ErrTimeout. The read deadline bounds the whole
// wait for the next frame, so size it for the peer's think time between
// steps, not just wire latency. Dropping the read timeout to 0 also
// clears a deadline already armed under the old value — otherwise a peer
// allowed to idle from now on (a hub subscriber after its hello) would
// still be cut off when the stale deadline fires.
func (c *Conn) SetTimeouts(read, write time.Duration) {
	if read <= 0 && c.readTimeout > 0 {
		c.c.SetReadDeadline(time.Time{})
	}
	c.readTimeout = read
	c.writeTimeout = write
}

// frameBound is the effective inbound frame limit.
func (c *Conn) frameBound() int64 {
	if c.maxFrame > 0 {
		return c.maxFrame
	}
	return DefaultMaxFrame
}

// armRead arms the read deadline for one Recv, when configured.
func (c *Conn) armRead() {
	if c.readTimeout > 0 {
		c.c.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
}

// armWrite arms the write deadline for one Send, when configured.
func (c *Conn) armWrite() {
	if c.writeTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// readErr maps low-level read failures onto the transport's sentinels:
// deadline expiries wrap ErrTimeout, EOFs wrap ErrClosed.
func (c *Conn) readErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		ctrTimeouts.Inc()
		return fmt.Errorf("transport: read deadline (%v) expired: %w", c.readTimeout, ErrTimeout)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("transport: peer closed the stream mid-read: %w", ErrClosed)
	}
	return err
}

// writeErr is readErr's write-side counterpart.
func (c *Conn) writeErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		ctrTimeouts.Inc()
		return fmt.Errorf("transport: write deadline (%v) expired: %w", c.writeTimeout, ErrTimeout)
	}
	return err
}

// SendDataset streams ds as a MsgDatasetV3 frame under the codec Choose
// picks for the configured one. The first frame of a connection — and
// the first after any send error — is a keyframe when the codec is
// temporal, so the receiver can always rebuild delta state from the wire
// alone; under delta+flate so is any frame whose delta would be larger.
func (c *Conn) SendDataset(ds data.Dataset) error {
	// vtkio converts the dataset straight into the Conn's payload buffer,
	// whose length the frame header needs. The payload, wire, and
	// reference buffers live on the Conn, so steady-state sends reuse
	// them in full.
	t0 := time.Now()
	if !c.codec.Valid() {
		return fmt.Errorf("transport: send with invalid codec %s", c.codec)
	}
	plain, err := vtkio.Append(c.payload[:0], ds)
	if err != nil {
		return err
	}
	c.payload = plain
	var ref []byte
	if c.sprevOK {
		ref = c.sprev
	}
	id := Choose(c.codec, plain, ref)
	out := plain
	if id != CodecRaw {
		enc, err := c.senc.Encode(id, c.swire[:0], plain, c.sprev)
		if err != nil {
			c.sprevOK = false
			return err
		}
		c.swire = enc
		out = enc
	}
	serDur := time.Since(t0)
	c.Journal.Emit(journal.Event{
		Type: journal.TypeSerialize, Phase: journal.PhaseSerialize,
		Rank: c.Rank, Step: c.Step, DurNS: int64(serDur),
		Bytes: int64(len(out)), Elements: ds.Count(),
	})
	if err := c.sendFrame(id, out, len(plain)); err != nil {
		return err
	}
	// The frame is on the wire: this step's plain payload becomes the
	// temporal reference for the next (a buffer swap, so the vacated
	// reference becomes next step's encode scratch).
	c.payload, c.sprev = c.sprev, c.payload
	c.sprevOK = true
	return nil
}

// SendEncoded frames and sends wire, a payload the caller already encoded
// under codec id from plainLen plain bytes, as the dataset frame for
// c.Step — the fan-out entry point: a broadcaster encodes a frame once
// (Encoder) and hands the same bytes to every subscriber connection. The
// caller owns the temporal discipline: a delta frame may only follow the
// frame it was encoded against on this connection. wire is written, not
// retained. The Conn's own reference state is dropped, so a SendDataset
// after it opens with a keyframe.
func (c *Conn) SendEncoded(id CodecID, wire []byte, plainLen int) error {
	if !id.Valid() {
		return fmt.Errorf("transport: send with invalid codec %s", id)
	}
	c.sprevOK = false
	return c.sendFrame(id, wire, plainLen)
}

// sendFrame writes one v3 dataset frame — 18-byte header (type, payload
// length, step, codec), payload, CRC32C trailer — and accounts for it. A
// frame that fits the write buffer leaves in one flush, so fault
// schedules, which count Write calls, see one Write per frame. A payload
// larger than the buffer skips it: the header is flushed first, and
// bufio, empty, writes the payload straight from the caller's slice. A
// frame that leaves under a non-temporal codec while the connection's
// codec is temporal is a keyframe.
func (c *Conn) sendFrame(id CodecID, out []byte, plainLen int) error {
	if c.codec.Temporal() && !id.Temporal() {
		ctrKeyframes.Inc()
	}
	// The CRC32C trailer covers header+payload so any in-flight flip —
	// header and codec byte included — is detected at the receiver. The
	// step field is what lets the receiver recognize a duplicate after a
	// reconnect-and-resume.
	t1 := time.Now()
	c.armWrite()
	hdr := c.scratch[:datasetHeaderLenV3]
	hdr[0] = byte(MsgDatasetV3)
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(out)))
	binary.BigEndian.PutUint64(hdr[9:17], uint64(c.Step))
	hdr[17] = byte(id)
	crc := crc32.Update(0, castagnoli, hdr)
	crc = crc32.Update(crc, castagnoli, out)
	binary.BigEndian.PutUint32(c.scratch[18:22], crc)
	for _, part := range [3][]byte{hdr, out, c.scratch[18:22]} {
		if len(part) > c.bw.Size() {
			if err := c.bw.Flush(); err != nil {
				c.sprevOK = false
				return c.writeErr(err)
			}
		}
		if _, err := c.bw.Write(part); err != nil {
			c.sprevOK = false
			return c.writeErr(err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		c.sprevOK = false
		return c.writeErr(err)
	}
	sendDur := time.Since(t1)
	c.BytesSent += int64(len(out))
	ctrBytesSent.Add(int64(len(out)))
	ctrBytesPlain.Add(int64(plainLen))
	ctrMessages.Inc()
	c.Journal.Emit(journal.Event{
		Type: journal.TypeTransfer, Phase: journal.PhaseTransport,
		Rank: c.Rank, Step: c.Step, DurNS: int64(sendDur),
		Bytes: int64(len(out)), Detail: "send",
	})
	return nil
}

// SendAck sends an acknowledgment for the given step.
func (c *Conn) SendAck(step int64) error {
	c.armWrite()
	if err := c.writeHeader(MsgAck, 8); err != nil {
		return c.writeErr(err)
	}
	binary.BigEndian.PutUint64(c.scratch[:8], uint64(step))
	if _, err := c.bw.Write(c.scratch[:8]); err != nil {
		return c.writeErr(err)
	}
	return c.writeErr(c.bw.Flush())
}

// SendDone signals end of run.
func (c *Conn) SendDone() error {
	c.armWrite()
	if err := c.writeHeader(MsgDone, 0); err != nil {
		return c.writeErr(err)
	}
	return c.writeErr(c.bw.Flush())
}

// SendControl frames p as a MsgControl message with a CRC32C trailer
// over header+payload. It shares the write-side scratch with the other
// Send* methods, so it must be called from the connection's sending
// goroutine (in practice: between a Recv and the next SendAck on the
// receiving side of a dataset stream, or between Recvs on a subscriber
// connection).
func (c *Conn) SendControl(p []byte) error {
	if len(p) > MaxControlFrame {
		return fmt.Errorf("transport: control payload %d bytes exceeds %d: %w",
			len(p), MaxControlFrame, ErrFrameTooLarge)
	}
	c.armWrite()
	c.scratch[0] = byte(MsgControl)
	binary.BigEndian.PutUint64(c.scratch[1:9], uint64(len(p)))
	crc := crc32.Update(0, castagnoli, c.scratch[:9])
	crc = crc32.Update(crc, castagnoli, p)
	if _, err := c.bw.Write(c.scratch[:9]); err != nil {
		return c.writeErr(err)
	}
	if _, err := c.bw.Write(p); err != nil {
		return c.writeErr(err)
	}
	binary.BigEndian.PutUint32(c.scratch[9:13], crc)
	if _, err := c.bw.Write(c.scratch[9:13]); err != nil {
		return c.writeErr(err)
	}
	return c.writeErr(c.bw.Flush())
}

// OnControl installs the handler Recv invokes for each MsgControl
// payload. The payload slice is only valid for the duration of the call
// (the buffer is reused); a handler that needs to retain it must copy.
// A handler error aborts the Recv that consumed the frame. Without a
// handler, an incoming control frame is a protocol error.
func (c *Conn) OnControl(fn func(payload []byte) error) { c.onControl = fn }

// recvControl finishes receiving a control frame after the common
// 9-byte preamble (already in rscratch[:9]): payload, CRC verify over
// the exact wire bytes, then the OnControl handler.
func (c *Conn) recvControl(n int64) error {
	if n > MaxControlFrame {
		return fmt.Errorf("transport: control frame length %d exceeds %d: %w",
			n, MaxControlFrame, ErrFrameTooLarge)
	}
	if int64(cap(c.ctrl)) < n {
		c.ctrl = make([]byte, n)
	}
	c.ctrl = c.ctrl[:n]
	if _, err := io.ReadFull(c.br, c.ctrl); err != nil {
		return c.readErr(err)
	}
	if _, err := io.ReadFull(c.br, c.rscratch[9:13]); err != nil {
		return c.readErr(err)
	}
	crc := crc32.Update(0, castagnoli, c.rscratch[:9])
	crc = crc32.Update(crc, castagnoli, c.ctrl)
	if want := binary.BigEndian.Uint32(c.rscratch[9:13]); crc != want {
		ctrCRCErrors.Inc()
		return fmt.Errorf("transport: control frame: %w", ErrChecksum)
	}
	ctrCRCChecked.Inc()
	if c.onControl == nil {
		return fmt.Errorf("transport: unexpected control frame (no handler installed)")
	}
	return c.onControl(c.ctrl)
}

func (c *Conn) writeHeader(t MsgType, n int64) error {
	c.scratch[0] = byte(t)
	binary.BigEndian.PutUint64(c.scratch[1:9], uint64(n))
	_, err := c.bw.Write(c.scratch[:9])
	return err
}

// Recv reads the next frame. For a dataset frame the decoded dataset is
// returned as MsgDataset along with the sender's step counter
// from the frame header; for MsgAck the acknowledged step is in step;
// MsgDone has neither. A frame whose CRC32C trailer does not match yields
// an error wrapping ErrChecksum, never a silently wrong dataset — the
// trailer is verified over the exact wire bytes *before* any codec runs,
// so a flipped codec byte is a checksum error, not a misdecode.
func (c *Conn) Recv() (t MsgType, ds data.Dataset, step int64, err error) {
	// Control frames are consumed in place (handler + continue), so the
	// loop runs until a data frame or an error surfaces.
	for {
		c.armRead()
		if _, err = io.ReadFull(c.br, c.rscratch[:9]); err != nil {
			return 0, nil, 0, c.readErr(err)
		}
		t = MsgType(c.rscratch[0])
		n := int64(binary.BigEndian.Uint64(c.rscratch[1:9]))
		if n < 0 || n > c.frameBound() {
			return 0, nil, 0, fmt.Errorf("transport: frame length %d outside [0, %d]: %w",
				n, c.frameBound(), ErrFrameTooLarge)
		}
		switch t {
		case MsgDataset, msgDatasetFlateV2:
			return 0, nil, 0, fmt.Errorf("transport: retired v2 dataset framing (type %d): %w", t, ErrCodecFrame)
		case MsgDatasetV3:
			ds, step, err = c.recvDataset(n)
			if err != nil {
				// Whatever reference state we held may no longer match the
				// sender's; the next temporal frame must not decode against it.
				c.rprevOK = false
				return 0, nil, 0, err
			}
			return MsgDataset, ds, step, nil
		case MsgAck:
			if n != 8 {
				return 0, nil, 0, fmt.Errorf("transport: ack frame length %d", n)
			}
			if _, err = io.ReadFull(c.br, c.rscratch[:8]); err != nil {
				return 0, nil, 0, c.readErr(err)
			}
			return t, nil, int64(binary.BigEndian.Uint64(c.rscratch[:8])), nil
		case MsgDone:
			if n != 0 {
				return 0, nil, 0, fmt.Errorf("transport: done frame length %d", n)
			}
			return t, nil, 0, nil
		case MsgControl:
			if err := c.recvControl(n); err != nil {
				return 0, nil, 0, err
			}
		default:
			return 0, nil, 0, fmt.Errorf("transport: unknown message type %d", c.rscratch[0])
		}
	}
}

// recvDataset finishes receiving a dataset frame after the common 9-byte
// preamble: it materializes the wire payload into the Conn's receive
// buffer with amortized chunked growth (bounded by delivered bytes, so a
// hostile length cannot force a huge up-front allocation), verifies the
// CRC32C trailer over the exact wire bytes, and only then runs the codec
// and decodes the dataset straight out of the checked slice. A payload
// larger than the read buffer skips it: what the buffer already holds is
// drained, and the rest is read straight from the socket. All scratch
// lives on the Conn, so a shape-stable stream decodes with zero
// steady-state allocation.
func (c *Conn) recvDataset(n int64) (ds data.Dataset, step int64, err error) {
	if _, err = io.ReadFull(c.br, c.rscratch[9:datasetHeaderLenV3]); err != nil {
		return nil, 0, c.readErr(err)
	}
	step = int64(binary.BigEndian.Uint64(c.rscratch[9:17]))
	id := CodecID(c.rscratch[17])
	// Time the payload leg only: the header read above blocks on the
	// peer producing data, so including it would charge think-time to
	// the transport phase.
	t0 := time.Now()
	// Materialize the wire payload in ≤1 MiB chunks: growth happens only
	// just ahead of successfully delivered bytes, preserving the bounded-
	// allocation property of the old streaming path while letting the CRC
	// run over the buffer in bulk before any decode.
	c.rwire = c.rwire[:0]
	direct := n > int64(c.br.Size())
	for remaining := n; remaining > 0; {
		k := int(remaining)
		if k > 1<<20 {
			k = 1 << 20
		}
		off := len(c.rwire)
		if cap(c.rwire)-off >= k {
			c.rwire = c.rwire[:off+k]
		} else {
			c.rwire = append(c.rwire, make([]byte, k)...)
		}
		if err = c.readPayload(c.rwire[off:], direct); err != nil {
			return nil, 0, c.readErr(err)
		}
		remaining -= int64(k)
	}
	if _, err = io.ReadFull(c.br, c.rscratch[18:22]); err != nil {
		return nil, 0, c.readErr(err)
	}
	crc := crc32.Update(0, castagnoli, c.rscratch[:datasetHeaderLenV3])
	crc = crc32.Update(crc, castagnoli, c.rwire)
	if want := binary.BigEndian.Uint32(c.rscratch[18:22]); crc != want {
		ctrCRCErrors.Inc()
		return nil, 0, fmt.Errorf("transport: dataset frame step %d: %w", step, ErrChecksum)
	}
	ctrCRCChecked.Inc()

	// The frame is authentic; now interpret it. An unknown codec here
	// means a sender bug, not corruption (the CRC covered the codec byte).
	if !id.Valid() {
		return nil, 0, fmt.Errorf("transport: dataset frame step %d: unknown codec %d", step, c.rscratch[17])
	}
	if id.Temporal() && !c.rprevOK {
		return nil, 0, fmt.Errorf("transport: dataset frame step %d: %w", step, ErrDeltaState)
	}
	plain := c.rwire
	if id != CodecRaw {
		plain, err = c.recvCodec(id).Decode(c.rplain[:0], c.rwire, c.rprev, int(c.frameBound()))
		if err != nil {
			return nil, 0, fmt.Errorf("transport: decoding dataset: %w", err)
		}
		c.rplain = plain
	}
	prev := c.prev
	c.prev = nil // never reuse through a failed decode
	ds, decodeErr := vtkio.Decode(plain, prev)
	if decodeErr != nil {
		return nil, 0, fmt.Errorf("transport: decoding dataset: %w", decodeErr)
	}
	// Retain this step's plain payload as the temporal reference (a swap,
	// so the vacated buffer serves the next frame's read or decode).
	if id == CodecRaw {
		c.rwire, c.rprev = c.rprev, c.rwire
	} else {
		c.rplain, c.rprev = c.rprev, c.rplain
	}
	c.rprevOK = true
	if c.reuse {
		c.prev = ds
	}
	c.BytesReceived += n
	recvDur := time.Since(t0)
	ctrBytesRecv.Add(n)
	c.Journal.Emit(journal.Event{
		Type: journal.TypeTransfer, Phase: journal.PhaseTransport,
		Rank: c.Rank, Step: c.Step, DurNS: int64(recvDur),
		Bytes: n, Elements: ds.Count(), Detail: "recv",
	})
	return ds, step, nil
}

// readPayload fills p from the read buffer, or — direct, for a payload
// larger than the buffer — from what the buffer still holds and then
// straight from the socket, which leaves the buffer empty.
func (c *Conn) readPayload(p []byte, direct bool) error {
	if !direct {
		_, err := io.ReadFull(c.br, p)
		return err
	}
	// A Read of no more than the buffer holds is served from it in full;
	// with nothing held it reads nothing, and a stored read error recurs
	// on the socket read below.
	held, _ := c.br.Read(p[:min(len(p), c.br.Buffered())])
	_, err := io.ReadFull(c.c, p[held:])
	return err
}

// ---- layout file (§III-C rendezvous) ----

// LayoutEntry records where one simulation-proxy rank listens.
type LayoutEntry struct {
	Rank int
	Addr string // host:port
}

// AppendLayout appends this rank's address to the layout file. Each entry
// is one line "rank addr\n" written with a single O_APPEND write so
// concurrent ranks do not interleave.
func AppendLayout(path string, e LayoutEntry) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%d %s\n", e.Rank, e.Addr)
	if _, err := f.WriteString(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLayout parses the layout file into a rank -> address map.
func ReadLayout(path string) (map[int]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[int]string{}
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("transport: layout line %d malformed: %q", lineNo+1, line)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("transport: layout line %d rank: %w", lineNo+1, err)
		}
		out[rank] = fields[1]
	}
	return out, nil
}

// WaitLayout polls the layout file until it contains an entry for rank or
// the timeout expires — the "waits for the corresponding port to open"
// step of the paper's §III-C startup sequence.
func WaitLayout(path string, rank int, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		entries, err := ReadLayout(path)
		if err == nil {
			if addr, ok := entries[rank]; ok {
				return addr, nil
			}
		} else if !os.IsNotExist(err) {
			return "", err
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("transport: rank %d not in layout %s after %v", rank, path, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Listen opens a TCP listener on an OS-assigned port of host (empty =
// loopback) and registers it in the layout file under rank.
func Listen(layoutPath string, rank int, host string) (net.Listener, error) {
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, err
	}
	if err := AppendLayout(layoutPath, LayoutEntry{Rank: rank, Addr: ln.Addr().String()}); err != nil {
		ln.Close()
		return nil, err
	}
	return ln, nil
}

// Dial looks up rank in the layout file (waiting up to timeout for it to
// appear) and connects, retrying until the listener accepts or the
// timeout expires.
func Dial(layoutPath string, rank int, timeout time.Duration) (*Conn, error) {
	addr, err := WaitLayout(layoutPath, rank, timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return NewConn(c), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dialing rank %d at %s: %w", rank, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
		// Re-resolve: layout files append, so a restarted simulation
		// proxy registers a fresh address that must win over a stale one.
		if entries, rerr := ReadLayout(layoutPath); rerr == nil {
			if fresh, ok := entries[rank]; ok {
				addr = fresh
			}
		}
	}
}

// Backoff parameterizes DialBackoff. The zero value is unusable; start
// from DefaultBackoff and override fields as needed.
type Backoff struct {
	Base       time.Duration // first retry delay
	Max        time.Duration // cap on any single delay
	Attempts   int           // total dial attempts before giving up
	Jitter     float64       // fraction of the delay randomized, in [0,1]
	Seed       int64         // jitter RNG seed; reproducible runs share seeds
	LayoutWait time.Duration // per-attempt wait for the rank's layout entry

	// Dial replaces net.DialTimeout when non-nil, letting tests and the
	// fault injector intercept connection attempts.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
}

// DefaultBackoff is the retry policy used when a caller passes a zero
// Attempts count: 8 attempts from 50ms doubling to a 1s cap with 20%
// jitter.
func DefaultBackoff(seed int64) Backoff {
	return Backoff{
		Base:       50 * time.Millisecond,
		Max:        time.Second,
		Attempts:   8,
		Jitter:     0.2,
		Seed:       seed,
		LayoutWait: 5 * time.Second,
	}
}

// delay returns the sleep before attempt i (i >= 1), exponentially grown
// from Base, capped at Max, with a seeded jitter fraction so concurrent
// dialers do not thundering-herd the listener.
func (b Backoff) delay(i int, rng *rand.Rand) time.Duration {
	d := b.Base << uint(i-1)
	if b.Max > 0 && (d > b.Max || d <= 0) {
		d = b.Max
	}
	if b.Jitter > 0 && rng != nil {
		f := 1 - b.Jitter + 2*b.Jitter*rng.Float64()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// DialBackoff connects to rank via the layout file like Dial, but with
// capped exponential backoff between attempts instead of a hot poll. The
// layout file is re-read before every attempt so a restarted listener's
// fresh address wins over a stale one — this is the reconnect path after
// a mid-run connection loss. Every attempt past the first increments the
// transport.redials counter.
func DialBackoff(layoutPath string, rank int, bo Backoff) (*Conn, error) {
	if bo.Attempts <= 0 {
		def := DefaultBackoff(bo.Seed)
		def.Dial = bo.Dial
		bo = def
	}
	dial := bo.Dial
	if dial == nil {
		dial = net.DialTimeout
	}
	var rng *rand.Rand
	if bo.Jitter > 0 {
		rng = rand.New(rand.NewSource(bo.Seed))
	}
	addr, err := WaitLayout(layoutPath, rank, bo.LayoutWait)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := 0; i < bo.Attempts; i++ {
		if i > 0 {
			ctrRedials.Inc()
			time.Sleep(bo.delay(i, rng))
			// Re-resolve: a restarted simulation proxy appends a fresh
			// address that must win over the stale one we first read.
			if entries, rerr := ReadLayout(layoutPath); rerr == nil {
				if fresh, ok := entries[rank]; ok {
					addr = fresh
				}
			}
		}
		c, err := dial("tcp", addr, time.Second)
		if err == nil {
			return NewConn(c), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dialing rank %d at %s after %d attempts: %w",
		rank, addr, bo.Attempts, lastErr)
}

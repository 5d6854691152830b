// Steering messages: the CRC-checked control vocabulary subscribers
// speak back through the hub to the proxies. A message is a hello
// (subscribe with a step cursor), a steer (a set of design-space axes
// to change: camera, isovalue, sampling ratio, wire codec) or a field
// request (the one field the visualization proxy's renderer reads, sent
// over the in-situ interface, never to the hub). The encoding
// is a fixed magic/version preamble, a kind byte, the kind's
// variable-length body, and a CRC32C trailer over everything before it —
// any byte flip or truncation decodes to an error wrapping ErrSteering,
// never a panic and never a silently-applied partial message.
package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"

	"github.com/ascr-ecx/eth/internal/transport"
)

// ErrSteering is the typed sentinel every steering decode failure wraps:
// corruption, truncation, unknown versions or kinds, and out-of-domain
// field values all land here, so a receiver can drop a bad message
// without dispatching on error text.
var ErrSteering = errors.New("hub: malformed steering message")

// Message kinds.
const (
	// KindHello subscribes: From carries the first step wanted (-1 =
	// live tail only), Name labels the subscriber in journals/gauges.
	KindHello uint8 = 1
	// KindSteer changes the axes named in Axes, last-writer-wins.
	KindSteer uint8 = 2
	// KindField names, in Field, the one field the visualization proxy's
	// renderer reads. It is advisory: the simulation proxy may then send
	// only that field, and one that ignores it sends more bytes for the
	// same pixels.
	KindField uint8 = 3
)

// Axis bits name the steerable design-space axes of a steer message.
const (
	AxisCamera uint8 = 1 << iota
	AxisIso
	AxisRatio
	AxisCodec

	axisAll = AxisCamera | AxisIso | AxisRatio | AxisCodec
)

// View is a steered camera: an orbit pose around the data bounds.
// Azimuth/elevation are radians; Dist scales the bounds diagonal.
type View struct {
	Az, El, Dist float64
}

// Msg is one decoded steering message.
type Msg struct {
	Kind uint8

	// Hello fields.
	From int64
	Name string

	// Field request: the one field named.
	Field string

	// Steer fields; only the axes named in Axes are meaningful.
	Axes  uint8
	Cam   View
	Iso   float32
	Ratio float64
	Codec transport.CodecID
}

// Steering wire constants: magic "\xE7S", version 1.
const (
	steerMagic0  = 0xE7
	steerMagic1  = 'S'
	steerVersion = 1
	steerPreLen  = 4 // magic(2) + version(1) + kind(1)
	steerCRCLen  = 4
	// maxHelloName bounds the subscriber label and maxField the field
	// name (one length byte each).
	maxHelloName = 255
	maxField     = 255
)

// castagnoli matches the transport framing's CRC32C polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeMsg appends the wire encoding of m to dst and returns the
// extended slice (pass a reused buffer's [:0] for allocation-free
// steady state). Encoding a message that would not decode — a bad kind,
// empty or unknown axes, out-of-domain values — returns an error so
// invalid state can never reach the wire.
func EncodeMsg(dst []byte, m Msg) ([]byte, error) {
	if err := m.validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, steerMagic0, steerMagic1, steerVersion, m.Kind)
	switch m.Kind {
	case KindHello:
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.From))
		dst = append(dst, byte(len(m.Name)))
		dst = append(dst, m.Name...)
	case KindField:
		dst = append(dst, byte(len(m.Field)))
		dst = append(dst, m.Field...)
	case KindSteer:
		dst = append(dst, m.Axes)
		if m.Axes&AxisCamera != 0 {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Cam.Az))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Cam.El))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Cam.Dist))
		}
		if m.Axes&AxisIso != 0 {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(m.Iso))
		}
		if m.Axes&AxisRatio != 0 {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.Ratio))
		}
		if m.Axes&AxisCodec != 0 {
			dst = append(dst, byte(m.Codec))
		}
	}
	crc := crc32.Update(0, castagnoli, dst[start:])
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return dst, nil
}

// DecodeMsg parses one steering message. Every failure — short buffer,
// bad magic/version/kind, CRC mismatch, trailing garbage, out-of-domain
// field values — returns an error wrapping ErrSteering. A message that
// decodes cleanly re-encodes to the identical bytes (canonical form).
func DecodeMsg(p []byte) (Msg, error) {
	var m Msg
	if len(p) < steerPreLen+steerCRCLen {
		return m, fmt.Errorf("%w: %d bytes is shorter than any message", ErrSteering, len(p))
	}
	body, trailer := p[:len(p)-steerCRCLen], p[len(p)-steerCRCLen:]
	if crc := crc32.Update(0, castagnoli, body); crc != binary.BigEndian.Uint32(trailer) {
		return m, fmt.Errorf("%w: CRC mismatch", ErrSteering)
	}
	if body[0] != steerMagic0 || body[1] != steerMagic1 {
		return m, fmt.Errorf("%w: bad magic %02x%02x", ErrSteering, body[0], body[1])
	}
	if body[2] != steerVersion {
		return m, fmt.Errorf("%w: unknown version %d", ErrSteering, body[2])
	}
	m.Kind = body[3]
	rest := body[steerPreLen:]
	switch m.Kind {
	case KindHello:
		if len(rest) < 9 {
			return Msg{}, fmt.Errorf("%w: truncated hello", ErrSteering)
		}
		m.From = int64(binary.BigEndian.Uint64(rest[:8]))
		n := int(rest[8])
		if len(rest) != 9+n {
			return Msg{}, fmt.Errorf("%w: hello body length %d, want %d", ErrSteering, len(rest), 9+n)
		}
		m.Name = string(rest[9:])
	case KindField:
		if len(rest) < 1 {
			return Msg{}, fmt.Errorf("%w: truncated field request", ErrSteering)
		}
		n := int(rest[0])
		if len(rest) != 1+n {
			return Msg{}, fmt.Errorf("%w: field request body length %d, want %d", ErrSteering, len(rest), 1+n)
		}
		m.Field = string(rest[1:])
	case KindSteer:
		if len(rest) < 1 {
			return Msg{}, fmt.Errorf("%w: truncated steer", ErrSteering)
		}
		m.Axes = rest[0]
		rest = rest[1:]
		if m.Axes&AxisCamera != 0 {
			if len(rest) < 24 {
				return Msg{}, fmt.Errorf("%w: truncated camera axis", ErrSteering)
			}
			m.Cam.Az = math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))
			m.Cam.El = math.Float64frombits(binary.BigEndian.Uint64(rest[8:16]))
			m.Cam.Dist = math.Float64frombits(binary.BigEndian.Uint64(rest[16:24]))
			rest = rest[24:]
		}
		if m.Axes&AxisIso != 0 {
			if len(rest) < 4 {
				return Msg{}, fmt.Errorf("%w: truncated iso axis", ErrSteering)
			}
			m.Iso = math.Float32frombits(binary.BigEndian.Uint32(rest[:4]))
			rest = rest[4:]
		}
		if m.Axes&AxisRatio != 0 {
			if len(rest) < 8 {
				return Msg{}, fmt.Errorf("%w: truncated ratio axis", ErrSteering)
			}
			m.Ratio = math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))
			rest = rest[8:]
		}
		if m.Axes&AxisCodec != 0 {
			if len(rest) < 1 {
				return Msg{}, fmt.Errorf("%w: truncated codec axis", ErrSteering)
			}
			m.Codec = transport.CodecID(rest[0])
			rest = rest[1:]
		}
		if len(rest) != 0 {
			return Msg{}, fmt.Errorf("%w: %d trailing bytes", ErrSteering, len(rest))
		}
	default:
		return Msg{}, fmt.Errorf("%w: unknown kind %d", ErrSteering, m.Kind)
	}
	if err := m.validate(); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// validate checks the semantic domain of every set field, shared by
// encode (never emit garbage) and decode (never apply garbage).
func (m Msg) validate() error {
	switch m.Kind {
	case KindHello:
		if m.From < -1 {
			return fmt.Errorf("%w: hello from-step %d", ErrSteering, m.From)
		}
		if len(m.Name) > maxHelloName {
			return fmt.Errorf("%w: hello name %d bytes exceeds %d", ErrSteering, len(m.Name), maxHelloName)
		}
	case KindField:
		if m.Field == "" || len(m.Field) > maxField {
			return fmt.Errorf("%w: field name of %d bytes outside [1, %d]", ErrSteering, len(m.Field), maxField)
		}
	case KindSteer:
		if m.Axes == 0 {
			return fmt.Errorf("%w: steer with no axes", ErrSteering)
		}
		if m.Axes&^axisAll != 0 {
			return fmt.Errorf("%w: unknown axis bits %#x", ErrSteering, m.Axes&^axisAll)
		}
		if m.Axes&AxisCamera != 0 {
			if !finite64(m.Cam.Az) || !finite64(m.Cam.El) || !finite64(m.Cam.Dist) || m.Cam.Dist <= 0 {
				return fmt.Errorf("%w: camera az=%v el=%v dist=%v", ErrSteering, m.Cam.Az, m.Cam.El, m.Cam.Dist)
			}
		}
		if m.Axes&AxisIso != 0 {
			if f := float64(m.Iso); !finite64(f) {
				return fmt.Errorf("%w: non-finite isovalue", ErrSteering)
			}
		}
		if m.Axes&AxisRatio != 0 {
			if !finite64(m.Ratio) || m.Ratio <= 0 || m.Ratio > 1 {
				return fmt.Errorf("%w: sampling ratio %v outside (0, 1]", ErrSteering, m.Ratio)
			}
		}
		if m.Axes&AxisCodec != 0 && !m.Codec.Valid() {
			return fmt.Errorf("%w: unknown codec %d", ErrSteering, m.Codec)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrSteering, m.Kind)
	}
	return nil
}

func finite64(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// String renders a steer message's set axes deterministically (no
// pointers, no timestamps) for journal details, so two replayed runs
// produce identical steering event sequences.
func (m Msg) String() string {
	var b strings.Builder
	switch m.Kind {
	case KindHello:
		fmt.Fprintf(&b, "hello name=%s from=%d", m.Name, m.From)
	case KindSteer:
		b.WriteString("steer")
		if m.Axes&AxisCamera != 0 {
			fmt.Fprintf(&b, " camera=%g,%g,%g", m.Cam.Az, m.Cam.El, m.Cam.Dist)
		}
		if m.Axes&AxisIso != 0 {
			fmt.Fprintf(&b, " iso=%g", m.Iso)
		}
		if m.Axes&AxisRatio != 0 {
			fmt.Fprintf(&b, " ratio=%g", m.Ratio)
		}
		if m.Axes&AxisCodec != 0 {
			fmt.Fprintf(&b, " codec=%s", m.Codec)
		}
	default:
		fmt.Fprintf(&b, "kind=%d", m.Kind)
	}
	return b.String()
}

// State is the cumulative steering state: the merge of every steer
// message applied so far, with a monotone Seq so consumers can detect
// "something changed since I last looked" with one comparison. The
// zero State (Seq 0) means nothing has ever been steered.
type State struct {
	Seq      uint64
	HasCam   bool
	Cam      View
	HasIso   bool
	Iso      float32
	HasRatio bool
	Ratio    float64
	HasCodec bool
	Codec    transport.CodecID
}

// Merge folds one steer message into the state, axis by axis
// (last-writer-wins), and bumps Seq. Non-steer kinds are ignored.
func (s *State) Merge(m Msg) {
	if m.Kind != KindSteer {
		return
	}
	if m.Axes&AxisCamera != 0 {
		s.HasCam, s.Cam = true, m.Cam
	}
	if m.Axes&AxisIso != 0 {
		s.HasIso, s.Iso = true, m.Iso
	}
	if m.Axes&AxisRatio != 0 {
		s.HasRatio, s.Ratio = true, m.Ratio
	}
	if m.Axes&AxisCodec != 0 {
		s.HasCodec, s.Codec = true, m.Codec
	}
	s.Seq++
}

// Source supplies steering state to a proxy at step boundaries. Current
// must be cheap, idempotent, and safe for concurrent use; the step lets
// scripted sources key changes to the run position. Consumers track the
// last Seq they applied and act only when it advances.
type Source interface {
	Current(step int) State
}

// Script is a deterministic Source: each entry's message takes effect
// when the run reaches its step. Two runs over the same script produce
// identical Current values at every step — the replay counterpart of
// live steering, used to prove steered runs are reproducible. Entries
// must be ordered by Step (last-writer-wins within a step follows
// slice order).
type Script struct {
	Entries []ScriptEntry
}

// ScriptEntry schedules one steer message at a step boundary.
type ScriptEntry struct {
	Step int
	Msg  Msg
}

// Current implements Source: the merge of every entry at or before step.
func (s *Script) Current(step int) State {
	var st State
	for _, e := range s.Entries {
		if e.Step <= step {
			st.Merge(e.Msg)
		}
	}
	return st
}

// Command ethwatch is a live viewer for the ethviz broadcast hub: it
// subscribes to the frame stream, renders progress to stdout (and
// optionally PNG files), journals a step cursor so a killed viewer can
// resume exactly where it stopped, and injects live steering — camera,
// isovalue, sampling ratio, wire codec — back into the running
// pipeline.
//
// Usage:
//
//	ethwatch -addr 127.0.0.1:7040 -follow -out frames/
//	ethwatch -addr 127.0.0.1:7040 -cursor watch.jsonl         # resumable
//	ethwatch -addr 127.0.0.1:7040 -once                       # one frame, then exit
//	ethwatch -addr 127.0.0.1:7040 -set iso=0.45 -set camera=1.2,0.5,1.5
//	ethwatch -addr 127.0.0.1:7040 -set ratio=0.25 -at 10      # steer at step 10
//
// Without -follow, ethwatch drains whatever the hub has buffered and
// exits once the stream goes idle ("caught up"); with -follow it stays
// attached until the run ends. With -cursor, the viewer appends one
// checkpoint event per frame to that journal and fsyncs it, and a
// restarted viewer starts after the journal's last checkpoint in place
// of -from, so kill -9 and rerun replays nothing and skips nothing (the
// hub re-keyframes temporal codecs automatically). The journal has one
// writer: a second viewer on the same cursor fails with
// journal.ErrLocked.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/transport"
)

// setFlags accumulates repeated -set axis=value assignments into one
// steer message.
type setFlags struct {
	msg Msg
}

// Msg aliases hub.Msg so the flag type reads naturally.
type Msg = hub.Msg

func (s *setFlags) String() string { return s.msg.String() }

func (s *setFlags) Set(v string) error {
	axis, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want axis=value, got %q", v)
	}
	switch axis {
	case "camera":
		parts := strings.Split(val, ",")
		if len(parts) != 3 {
			return fmt.Errorf("want camera=az,el,dist, got %q", val)
		}
		var f [3]float64
		for i, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return fmt.Errorf("camera component %q: %w", p, err)
			}
			f[i] = x
		}
		s.msg.Axes |= hub.AxisCamera
		s.msg.Cam = hub.View{Az: f[0], El: f[1], Dist: f[2]}
	case "iso":
		x, err := strconv.ParseFloat(val, 32)
		if err != nil {
			return fmt.Errorf("iso %q: %w", val, err)
		}
		s.msg.Axes |= hub.AxisIso
		s.msg.Iso = float32(x)
	case "ratio":
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("ratio %q: %w", val, err)
		}
		s.msg.Axes |= hub.AxisRatio
		s.msg.Ratio = x
	case "codec":
		id, err := transport.ParseCodec(val)
		if err != nil {
			return err
		}
		s.msg.Axes |= hub.AxisCodec
		s.msg.Codec = id
	default:
		return fmt.Errorf("unknown axis %q (want camera, iso, ratio, codec)", axis)
	}
	s.msg.Kind = hub.KindSteer
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethwatch: ")

	addr := flag.String("addr", "", "hub address (ethviz -serve)")
	name := flag.String("name", "watch", "subscriber name (journals, gauges)")
	from := flag.Int64("from", -1, "first step wanted (-1 = live tail; overridden by a -cursor checkpoint)")
	cursorPath := flag.String("cursor", "", "journal each received step here; a restarted ethwatch resumes after the last one")
	follow := flag.Bool("follow", false, "stay attached until the run ends (default: exit when caught up)")
	once := flag.Bool("once", false, "exit after the first frame")
	frames := flag.Int("frames", 0, "exit after this many frames (0 = unlimited)")
	out := flag.String("out", "", "directory for PNG snapshots of received frames")
	at := flag.Int("at", -1, "send -set steering when this step arrives (-1 = immediately)")
	idle := flag.Duration("idle", 2*time.Second, "without -follow, exit after this long with no frames")
	var steer setFlags
	flag.Var(&steer, "set", "steer an axis: camera=az,el,dist | iso=V | ratio=V | codec=NAME (repeatable)")
	flag.Parse()

	if *addr == "" {
		log.Fatal("-addr is required (point it at ethviz -serve)")
	}
	if *once {
		*frames = 1
	}
	start := *from
	var jw *journal.Writer
	if *cursorPath != "" {
		var (
			events []journal.Event
			err    error
		)
		jw, events, err = journal.Reopen(*cursorPath)
		if err != nil {
			log.Fatal(err)
		}
		defer jw.Close()
		if c := journal.Cursor(events, -1); c > 0 {
			start = int64(c)
			fmt.Printf("resuming at step %d (cursor %s)\n", start, *cursorPath)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	conn, err := hub.DialSubscriber(*addr, *name, start)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	conn.SetDatasetReuse(true)
	if !*follow {
		conn.SetTimeouts(*idle, 10*time.Second)
	}
	if steer.msg.Axes != 0 && *at < 0 {
		if err := hub.SendSteer(conn, steer.msg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("steered: %s\n", steer.msg)
		steer.msg.Axes = 0
	}

	var f *fb.Frame
	n := 0
	for *frames == 0 || n < *frames {
		typ, ds, step, err := conn.Recv()
		if err != nil {
			if !*follow && errors.Is(err, transport.ErrTimeout) {
				fmt.Printf("caught up: %d frames received\n", n)
				return
			}
			log.Fatal(err)
		}
		if typ == transport.MsgDone {
			fmt.Printf("stream complete: %d frames received\n", n)
			return
		}
		f, err = hub.GridFrame(ds, f)
		if err != nil {
			log.Fatal(err)
		}
		n++
		fmt.Printf("step %d: %dx%d sig=%08x\n", step, f.W, f.H, hub.FrameSig(f))
		if *out != "" {
			png := filepath.Join(*out, fmt.Sprintf("watch_step%04d.png", step))
			if err := f.SavePNG(png); err != nil {
				log.Fatal(err)
			}
		}
		jw.Emit(journal.Event{Type: journal.TypeCheckpoint, Rank: -1, Step: int(step), Detail: "ethwatch " + *name})
		if err := jw.Sync(); err != nil {
			log.Fatal(err)
		}
		if steer.msg.Axes != 0 && *at >= 0 && step >= int64(*at) {
			if err := hub.SendSteer(conn, steer.msg); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("steered at step %d: %s\n", step, steer.msg)
			steer.msg.Axes = 0
		}
	}
	fmt.Printf("done: %d frames received\n", n)
}

// Session windows: the third window type of paper Sec 2.5 — "a session
// window with a timeout of 10s would start grouping events at time t and
// keep collecting events until a period of inactivity for 10s".
//
// The demo also contrasts the three window types on the same bursty
// stream (user interaction latencies arriving in activity bursts):
// tumbling windows chop bursts arbitrarily, sliding windows smooth them,
// session windows recover the bursts exactly.
//
//	go run ./examples/sessionwindows
package main

import (
	"fmt"
	"time"

	quantiles "repro"
	"repro/internal/datagen"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// burstySource emits realistic interaction latencies, but the burst
// structure comes from the engine's event clock — we emulate activity
// gaps by making the windows see sparse event times via a thinned rate.
type burstySource struct {
	lat datagen.Source
}

func (b *burstySource) Next() float64 { return b.lat.Next() }

func main() {
	const seed = 5150
	builder := func() sketch.Sketch { return quantiles.NewDDSketch(0.01) }

	fmt.Println("same stream, three window types (Sec 2.5):")
	fmt.Println()

	// Every run covers 10 s of event time: NumWindows·WindowSize, with
	// Slide or SessionGap choosing the window type.
	run := func(label string, cfg stream.Config) {
		cfg.Values = &burstySource{lat: datagen.NewLogNormal(3.5, 0.7, seed)}
		cfg.Builder = builder
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s\n", label)
		count := 0
		_, err = eng.Run(func(r stream.WindowResult) {
			if count >= 6 {
				return
			}
			count++
			p95, err := r.Sketch.Quantile(0.95)
			if err != nil {
				panic(err)
			}
			fmt.Printf("  window [%5.1fs, %5.1fs)  events=%5d  p95=%.1fms\n",
				r.Start.Seconds(), r.End.Seconds(), r.Accepted, p95)
		})
		if err != nil {
			panic(err)
		}
		fmt.Println()
	}

	run("tumbling 2s windows:",
		stream.Config{WindowSize: 2 * time.Second, NumWindows: 5, Rate: 1000})
	run("sliding 2s windows, 1s slide (each event counted twice):",
		stream.Config{WindowSize: 2 * time.Second, Slide: time.Second, NumWindows: 10, Rate: 1000})
	// The source emits every 1/rate seconds, so the session structure is
	// controlled by how the inactivity gap compares to the event spacing:
	// a gap above the spacing chains everything into one long session, a
	// gap below it isolates every event.
	run("session windows, 400ms gap > 333ms spacing → one long session:",
		stream.Config{SessionGap: 400 * time.Millisecond, WindowSize: 10 * time.Second, NumWindows: 1, Rate: 3})
	run("session windows, 250ms gap < 333ms spacing → per-event sessions:",
		stream.Config{SessionGap: 250 * time.Millisecond, WindowSize: 10 * time.Second, NumWindows: 1, Rate: 3})

	fmt.Println("Session windows group by activity, not by the clock —")
	fmt.Println("each quantile describes one burst of user interaction.")
}

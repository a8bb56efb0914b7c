package stream

import (
	"time"

	"repro/internal/datagen"
)

// The source stage: a producer goroutine draws the run's (value, delay)
// pairs in generation order into fixed blocks and hands them to the
// coordinator, which consumes blocks instead of calling Values.Next and
// Delay.Delay per event (DESIGN.md §8, "Source stage"). It is one
// logical stream, drawn in the same order and exactly as many times as
// the coordinator would draw it inline, so every event carries the value
// and delay it always did.
//
// The ring is ringBlocks blocks of blockDraws pairs (32 KiB). Spent
// blocks go back two at a time, so the producer wakes about once per
// 2·blockDraws draws rather than ping-ponging with the coordinator on
// every block. Both sizes were measured: a two-block ring of 256 draws
// gave no gain at all.
const (
	blockDraws = 512
	ringBlocks = 4
)

// draw is one generated event's payload and network delay.
type draw struct {
	v float64
	d time.Duration
}

// drawBlock is one unit of handoff: n draws, then, when fault is set,
// the panic the draw after them raised.
type drawBlock struct {
	n     int
	fault *PanicError
	draws [blockDraws]draw
}

// producer is the source stage of one run. The coordinator owns cur,
// pos and held; the goroutine owns vals and delay from start until it
// closes done.
type producer struct {
	vals  datagen.Source
	delay DelayModel

	full chan *drawBlock // filled blocks, in draw order; closed after the last
	free chan *drawBlock // spent blocks, returned in pairs
	quit chan struct{}   // closed by stop
	done chan struct{}   // closed when the goroutine has exited

	cur  *drawBlock // block being consumed; nil before the first
	buf  []draw     // cur's draws
	pos  int        // next draw in buf
	held *drawBlock // a spent block waiting for its pair
}

// startProducer starts drawing n pairs from vals and delay, neither of
// which the caller may touch again until stop returns.
func startProducer(vals datagen.Source, delay DelayModel, n int64) *producer {
	// Both channels hold every block of the ring, so no send on them
	// ever blocks; only the receives wait.
	p := &producer{
		vals:  vals,
		delay: delay,
		full:  make(chan *drawBlock, ringBlocks),
		free:  make(chan *drawBlock, ringBlocks),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	blocks := make([]drawBlock, ringBlocks)
	for i := range blocks {
		p.free <- &blocks[i]
	}
	go p.run(n)
	return p
}

// run fills free blocks until n pairs are drawn, a draw panics, or stop
// is called.
func (p *producer) run(n int64) {
	defer close(p.done)
	defer close(p.full)
	for n > 0 {
		var b *drawBlock
		select {
		case <-p.quit:
			return
		case b = <-p.free:
		}
		p.fill(b, int(min(n, blockDraws)))
		n -= int64(b.n)
		p.full <- b
		if b.fault != nil {
			return
		}
	}
}

// fill draws want pairs into b. A panicking draw ends the block early
// with the panic, and the producer's stack, recorded for the
// coordinator to re-raise when it reaches that draw.
func (p *producer) fill(b *drawBlock, want int) {
	b.n, b.fault = 0, nil
	defer func() {
		if r := recover(); r != nil {
			b.fault = asPanicError(r)
		}
	}()
	for b.n < want {
		b.draws[b.n] = draw{v: p.vals.Next(), d: p.delay.Delay()}
		b.n++
	}
}

// next returns the next pair in generation order.
func (p *producer) next() draw {
	if p.pos == len(p.buf) {
		p.advance()
	}
	p.pos++
	return p.buf[p.pos-1]
}

// advance moves to the next filled block, releasing the spent one, and
// re-raises a producer panic at the draw it interrupted. It runs once
// per block; kept out of line so next inlines into the loop.
//
//go:noinline
func (p *producer) advance() {
	for p.pos == len(p.buf) {
		if b := p.cur; b != nil {
			if b.fault != nil {
				panic(b.fault)
			}
			if p.held == nil {
				p.held = b
			} else {
				p.free <- p.held
				p.free <- b
				p.held = nil
			}
		}
		b, ok := <-p.full
		if !ok {
			panic("stream: source stage drained past its draw count")
		}
		p.cur, p.buf, p.pos = b, b.draws[:b.n], 0
	}
}

// stop ends the goroutine and waits for it, so the sources are the
// caller's again. At most one block fill is still in progress, and a
// stopped run leaves the sources at most ringBlocks·blockDraws draws
// past the coordinator's position.
func (p *producer) stop() {
	close(p.quit)
	<-p.done
}

//go:build race

package uddsketch

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled buffers are reallocated now and then.
const raceEnabled = true

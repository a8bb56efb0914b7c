//go:build !race

package uddsketch

const raceEnabled = false

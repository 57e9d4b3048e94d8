//go:build !race

package httpfetch

const raceEnabled = false

//go:build race

package tcpnet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true

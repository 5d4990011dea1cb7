//go:build !race

package tcpnet

// raceEnabled reports whether the race detector is compiled in (it
// makes sync.Pool drop puts at random, so pooled paths allocate).
const raceEnabled = false

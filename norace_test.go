//go:build !race

package wcoj

const raceEnabled = false

//go:build !race

package trie

const raceEnabled = false

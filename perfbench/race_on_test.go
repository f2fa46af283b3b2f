//go:build race

package main

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so allocation counts of pooled paths do not repeat.
const raceEnabled = true

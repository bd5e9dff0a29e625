//go:build race

package slm

func init() { raceEnabled = true }

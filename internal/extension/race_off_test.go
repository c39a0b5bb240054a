//go:build !race

package extension

const raceEnabled = false

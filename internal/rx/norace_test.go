//go:build !race

package rx

const raceEnabled = false

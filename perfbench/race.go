//go:build race

package main

// raceEnabled is true in binaries built with -race, whose timings are not
// the program's: main refuses to report them.
const raceEnabled = true

//go:build !race

package photon

// raceEnabled reports a -race build, whose instrumentation moves values to
// the heap and so changes what allocation guards measure.
const raceEnabled = false

package burs

// TinyMachine exposes the test machine's grammar and base to the
// external tests.
var TinyMachine = testMachine

// Labelled counts the handles l has labelled since its last Reset.
func (l *Labels) Labelled() int { return l.labelled }

package burs

// TinyMachine exposes the test machine's grammar and base to the
// external tests.
var TinyMachine = testMachine

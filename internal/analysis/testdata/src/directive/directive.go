// Package directive is the simlint directive-grammar fixture: the three
// verbs an analyzer reads pass, and any other //simlint: verb — one that
// outlived its analyzer, or a misspelling — is reported.
package directive

//simlint:processknob a retired analyzer's verb // want "unknown directive //simlint:processknob"
var knob bool

//simlint:orderd misspelt, so it excuses nothing // want "unknown directive //simlint:orderd"
var misspelt int

// Known verbs are silent, wherever they sit.
func Known() bool {
	//simlint:ordered fixture: a known verb
	//simlint:wallclock fixture: a known verb
	return knob //simlint:ok fixture: a known verb
}

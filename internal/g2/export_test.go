package g2

// The external tests of this package (crosspath_test.go, golden_test.go) run
// Pedersen and OCBE, whose packages import g2; they reach the big-integer
// reference group of reference_test.go through these names.

// RefDiv is a divisor of the reference group.
type RefDiv = refDiv

// PaperRef is the reference group of the paper curve.
var PaperRef = paperRef

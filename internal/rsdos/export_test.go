package rsdos

// The reference curation and the generated feeds, for the tests of
// package rsdos_test, which draw a study's feed through internal/study
// (which imports this package).
var (
	InferReference = inferReference
	DenseFeed      = denseFeed
	TieFeed        = tieFeed
)

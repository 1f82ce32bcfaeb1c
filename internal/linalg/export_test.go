package linalg

// Internal test helpers that the package linalg_test files — which
// compare against the dense oracle and so cannot be in package linalg —
// use as well.
var (
	LSObjective = lsObjective
	RelDiff     = relDiff
)

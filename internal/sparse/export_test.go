package sparse

// Exports for this package's external tests, which import sparsetest:
// the internal ones cannot, since sparsetest imports sparse.
var (
	RandCSR       = randCSR
	RandKernelCSR = randKernelCSR
)

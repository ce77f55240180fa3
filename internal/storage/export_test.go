package storage

// Fixtures the external decode tests share with the codec and fuzz tests.
var (
	CodecTestImage = img
	FuzzSeedOps    = seedOps
)

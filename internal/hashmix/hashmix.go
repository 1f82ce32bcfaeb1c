// Package hashmix holds the 64-bit avalanche finalisers the repository
// hashes with. Their outputs are persisted (catalog signatures in the
// CRC-checked sidecar) or seed derived data (synthetic layers, ring
// placement), so neither function may change.
package hashmix

// Fmix64 is the murmur3 finaliser: a cheap full-avalanche mix.
func Fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// SplitMix64 is the finaliser of the SplitMix64 generator: the Weyl
// increment 2^64/φ followed by a full-avalanche mix.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

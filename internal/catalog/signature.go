// Package catalog implements the alignment catalog: a persistent
// joinability-search subsystem over registered aggregate tables and
// alignment engines. It answers the paper's §6 discovery question —
// "which tables can augment table T, through which reference chain, at
// what estimated accuracy?" — with an inverted index from hashed
// unit-key sets to tables, crosswalk edges contributed by registered
// engines, and cheap precomputed overlap statistics as the ranking
// signal.
//
// The catalog is deliberately value-light: tables are indexed by their
// unit-key signature (a 128-bit digest of the hashed key set) plus
// optional per-unit values (for reference-fit residuals) and bounding
// box summaries (for crosswalk-density estimation); the original key
// strings are not retained, so a 1k-table index stays a few megabytes
// and persists compactly next to the engine snapshots.
package catalog

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"geoalign/internal/hashmix"
)

// Hashing: per-key 64-bit FNV-1a over a length-prefixed byte stream,
// finished with the murmur3 fmix64 avalanche. The length prefix keeps
// concatenation ambiguities out of the digest ({"ab"} never collides
// with {"a","b"} by construction); the avalanche decorrelates the
// low bits FNV leaves structured, which matters because postings are
// bucketed by the raw hash.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// seedHi decorrelates the second signature lane from the first; an
	// arbitrary odd 64-bit constant (2^64/φ, the Weyl increment).
	seedHi = 0x9e3779b97f4a7c15
)

// KeyHash digests one unit key. Every index structure in the catalog
// (postings, signatures, edge key sets) is built over this hash; two
// keys are "the same unit" exactly when their hashes agree.
func KeyHash(key string) uint64 {
	h := uint64(fnvOffset64)
	// Length prefix, little-endian varint-ish: one byte at a time until
	// zero. Keeps {"a","b"} vs {"ab"} distinct under any chaining.
	n := len(key)
	for {
		h ^= uint64(byte(n))
		h *= fnvPrime64
		n >>= 8
		if n == 0 {
			break
		}
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return hashmix.Fmix64(h)
}

// HashKeys digests every key, preserving input order (duplicates
// included). This is the raw material for both signatures and postings.
func HashKeys(keys []string) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = KeyHash(k)
	}
	return out
}

// sortedUnique returns the ascending deduplicated copy of hashes.
func sortedUnique(hashes []uint64) []uint64 {
	out := append([]uint64(nil), hashes...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Signature identifies a unit-key set: the number of distinct keys and
// a 128-bit order- and duplicate-insensitive digest. Two key lists get
// the same Signature exactly when they name the same key set (modulo
// 128-bit hash collisions); permuting or repeating keys changes
// nothing.
type Signature struct {
	Count  uint32
	Lo, Hi uint64
}

// NewSignature digests a key list into its set signature.
func NewSignature(keys []string) Signature {
	return signatureOfHashes(sortedUnique(HashKeys(keys)))
}

// signatureOfHashes chains a sorted unique hash list into the two
// digest lanes. Sorting first is what buys order- and
// duplicate-insensitivity while keeping the chain collision-resistant
// (an XOR/sum fold would let adversarial key pairs cancel).
func signatureOfHashes(sorted []uint64) Signature {
	lo := uint64(fnvOffset64)
	hi := uint64(fnvOffset64) ^ seedHi
	for _, h := range sorted {
		lo = hashmix.Fmix64(lo ^ h)
		hi = hashmix.Fmix64(hi ^ (h + seedHi))
	}
	return Signature{Count: uint32(len(sorted)), Lo: lo, Hi: hi}
}

// IsZero reports whether the signature is the zero value (no keys).
func (s Signature) IsZero() bool { return s.Count == 0 && s.Lo == 0 && s.Hi == 0 }

// String encodes the signature in its canonical wire form
// "gs1:<count>:<lo-hex>:<hi-hex>", parseable by ParseSignature.
func (s Signature) String() string {
	return "gs1:" + strconv.FormatUint(uint64(s.Count), 10) +
		":" + strconv.FormatUint(s.Lo, 16) + ":" + strconv.FormatUint(s.Hi, 16)
}

// ParseSignature decodes the canonical form produced by String.
// ParseSignature(s.String()) == s for every signature.
func ParseSignature(text string) (Signature, error) {
	rest, ok := strings.CutPrefix(text, "gs1:")
	if !ok {
		return Signature{}, fmt.Errorf("catalog: signature %q: missing gs1: prefix", text)
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 3 {
		return Signature{}, fmt.Errorf("catalog: signature %q: want 3 fields after prefix, got %d", text, len(parts))
	}
	count, err := strconv.ParseUint(parts[0], 10, 32)
	if err != nil {
		return Signature{}, fmt.Errorf("catalog: signature %q: bad count: %w", text, err)
	}
	lo, err := strconv.ParseUint(parts[1], 16, 64)
	if err != nil {
		return Signature{}, fmt.Errorf("catalog: signature %q: bad lo lane: %w", text, err)
	}
	hi, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return Signature{}, fmt.Errorf("catalog: signature %q: bad hi lane: %w", text, err)
	}
	return Signature{Count: uint32(count), Lo: lo, Hi: hi}, nil
}

// OrderedDigest digests a key list order- and duplicate-sensitively:
// two lists collide only when they are elementwise equal (modulo
// 128-bit collisions). This is the grouping identity autojoin uses —
// tables share an alignment engine only when their source-key orders
// are identical, because engine precomputation depends on the order.
func OrderedDigest(keys []string) [2]uint64 {
	lo := uint64(fnvOffset64)
	hi := uint64(fnvOffset64) ^ seedHi
	for _, k := range keys {
		h := KeyHash(k)
		lo = hashmix.Fmix64(lo ^ h)
		hi = hashmix.Fmix64(hi ^ (h + seedHi))
	}
	return [2]uint64{lo, hi}
}

// GroupID identifies an autojoin engine-sharing group: hashed unit
// type plus the two ordered-digest lanes. Comparable, so it works
// directly as a map key.
type GroupID [3]uint64

// GroupKey is the autojoin grouping identity: unit type plus ordered
// key digest. Tables with equal GroupKeys see identical reference
// crosswalk reorderings and can share one cached engine.
func GroupKey(unitType string, keys []string) GroupID {
	d := OrderedDigest(keys)
	return GroupID{KeyHash(unitType), d[0], d[1]}
}

// intersectSorted counts the common elements of two ascending unique
// hash lists.
func intersectSorted(a, b []uint64) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

package bitmap

// countSet16 counts the set bits among vs, whose length is a multiple of
// 16, sixteen probes per AVX-512 step: it gathers the 32-bit word that
// holds each probed bit, rotates the bit down to bit 0 and tests it. It
// returns ok = false, having counted nothing, as soon as a block holds an
// ID past the words' capacity, so no gather reads outside words.
//
//go:noescape
func countSet16(words []uint64, vs []uint32) (c uint32, ok bool)

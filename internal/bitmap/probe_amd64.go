package bitmap

// countSetRank counts the set bits among vs and the IDs of vs below u,
// sixteen probes per AVX-512 step and the last len(vs) % 16 in one masked
// step: it gathers the 32-bit word that holds each probed bit, rotates
// the bit down to bit 0 and tests it. It returns ok = false, having
// counted nothing, as soon as a step holds an ID past the words'
// capacity, so no gather reads outside words and no load reads past vs.
//
//go:noescape
func countSetRank(words []uint64, vs []uint32, u uint32) (c, rank uint32, ok bool)

package snapshot

import "math/bits"

// CRC-32C combination: given crc(A), crc(B) and len(B), compute
// crc(A ∥ B) without touching a byte of either buffer. Appending len2
// zero bytes to a message multiplies its CRC register by x^(8·len2) in
// GF(2)[x]/P — a linear operator over the 32 register bits — so the
// concatenation identity is
//
//	crc(A ∥ B) = shift_len2(crc(A)) XOR crc(B)
//
// with shift_len2 represented as a 32×32 bit matrix built by repeated
// squaring (the classic zlib crc32_combine construction, instantiated
// for the Castagnoli polynomial this package checksums with). The
// pre/post inversion of the presented CRC cancels through the XOR the
// same way it does in zlib, so the identity holds directly on the
// values hash/crc32 returns.
//
// The store leans on one extra fact: snapshot records all share one
// byte length, so the operator for that length can be built once
// (O(log len) squarings) and every subsequent fold is four table
// lookups — folding a 100k-record CRC table into manifest shard CRCs
// costs a few nanoseconds per record instead of re-reading ~100 KB.

// castPolyReflected is the Castagnoli polynomial in the reflected bit
// order hash/crc32's little-endian algorithm uses.
const castPolyReflected = 0x82f63b78

// crcShift is the precomputed "append N zero bytes" operator, held as
// byte tables: tab[k][b] is the operator applied to byte b of the
// register at bit offset 8k, so applying it is four lookups instead
// of up to 32 matrix rows. The fold of a 20k-user record table runs
// 40k applies on every single-user read, so the per-apply cost shows.
type crcShift struct {
	tab [4][256]uint32
}

// shiftTables tabulates an operator matrix for crcShift.
func shiftTables(mat *[32]uint32) crcShift {
	var s crcShift
	for k := range s.tab {
		for b := 1; b < 256; b++ {
			s.tab[k][b] = s.tab[k][b&(b-1)] ^ mat[8*k+bits.TrailingZeros(uint(b))]
		}
	}
	return s
}

// gf2Apply multiplies the matrix by a bit vector.
func gf2Apply(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; vec >>= 1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		i++
	}
	return sum
}

// gf2MatMul composes two operators: out = a ∘ b.
func gf2MatMul(a, b *[32]uint32) [32]uint32 {
	var out [32]uint32
	for n := 0; n < 32; n++ {
		out[n] = gf2Apply(a, b[n])
	}
	return out
}

// makeCRCShift builds the operator for appending len2 zero bytes.
func makeCRCShift(len2 int64) crcShift {
	// Identity.
	var res [32]uint32
	for n := 0; n < 32; n++ {
		res[n] = 1 << n
	}
	if len2 <= 0 {
		return shiftTables(&res)
	}
	// One-bit shift operator in the reflected domain...
	var cur [32]uint32
	cur[0] = castPolyReflected
	for n := 1; n < 32; n++ {
		cur[n] = 1 << (n - 1)
	}
	// ...squared three times is the one-zero-byte operator x^8.
	for i := 0; i < 3; i++ {
		cur = gf2MatMul(&cur, &cur)
	}
	// Square-and-multiply over the byte count.
	for {
		if len2&1 != 0 {
			res = gf2MatMul(&cur, &res)
		}
		len2 >>= 1
		if len2 == 0 {
			break
		}
		cur = gf2MatMul(&cur, &cur)
	}
	return shiftTables(&res)
}

// combine folds the CRC of a following buffer (whose length the shift
// was built for) onto the CRC of everything before it.
func (s *crcShift) combine(crc1, crc2 uint32) uint32 {
	return s.tab[0][byte(crc1)] ^ s.tab[1][byte(crc1>>8)] ^
		s.tab[2][byte(crc1>>16)] ^ s.tab[3][crc1>>24] ^ crc2
}

// foldRecordCRCs derives the checksums a sealed store carries from
// its record CRCs (records recBytes long, in user order): the
// manifest's shard CRCs and the CRC of the whole payload the header
// holds. MergeShards seals these values and openSealed checks them, so
// the one fold both writes and verifies them.
func foldRecordCRCs(recCRCs []uint32, recBytes int64) (shardCRCs []uint32, total uint32) {
	shift := makeCRCShift(recBytes)
	shardCRCs = make([]uint32, ManifestShards(len(recCRCs)))
	for u, rc := range recCRCs {
		si := u / ManifestShardUsers
		shardCRCs[si] = shift.combine(shardCRCs[si], rc)
		total = shift.combine(total, rc)
	}
	return shardCRCs, total
}

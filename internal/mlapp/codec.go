package mlapp

import (
	"encoding/binary"
	"fmt"
	"math"

	"harmony/internal/rpc"
)

// This file is the binary columnar codec for example blocks: the live
// worker stores its input shard in the §IV-C block store as encoded
// payloads, and the fast COMP path decodes each resident block exactly
// once. The layout extends the data plane's float-frame format (DESIGN.md
// §8) — bulk float columns are plain IEEE-754 frames, headers are
// little-endian fixed-width integers — so NaN payloads and infinities
// round-trip bit-exactly and decoding is a straight memory walk instead
// of a reflective per-field walk.
//
// Block layout (little-endian):
//
//	u32 magic        exampleMagic, guards against foreign payloads
//	u32 n            example count
//	u32 xLen[n]      per-example feature-vector lengths
//	u32 tokLen[n]    per-example token counts
//	float frame      n Y values (u32 count + raw IEEE-754 bits)
//	float frame      ΣxLen concatenated X values
//	u32 tok[Σtok]    concatenated token ids
//
// Columns are contiguous, so the decoder allocates one float arena for
// all X vectors and one int arena for all token slices per block and
// hands out subslices — three allocations per block, amortized to zero by
// the worker's decoded-block cache.

// exampleMagic tags encoded example blocks ("HXB1": Harmony example
// block, layout 1).
const exampleMagic = 0x48584231

// EncodedExamplesLen reports the exact encoded size of a block.
func EncodedExamplesLen(examples []Example) int {
	n := len(examples)
	totalX, totalT := 0, 0
	for i := range examples {
		totalX += len(examples[i].X)
		totalT += len(examples[i].Tokens)
	}
	return 4 + 4 + 4*n + 4*n + rpc.FloatsLen(n) + rpc.FloatsLen(totalX) + 4*totalT
}

// AppendExamples appends the columnar encoding of examples to dst and
// returns the extended slice.
func AppendExamples(dst []byte, examples []Example) []byte {
	n := len(examples)
	if need := EncodedExamplesLen(examples); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = rpc.AppendUint32(dst, exampleMagic)
	dst = rpc.AppendUint32(dst, uint32(n))
	totalX := 0
	for i := range examples {
		dst = rpc.AppendUint32(dst, uint32(len(examples[i].X)))
		totalX += len(examples[i].X)
	}
	for i := range examples {
		dst = rpc.AppendUint32(dst, uint32(len(examples[i].Tokens)))
	}
	// Y column as one float frame.
	dst = rpc.AppendUint32(dst, uint32(n))
	for i := range examples {
		dst = appendFloatBits(dst, examples[i].Y)
	}
	// X column: every feature vector concatenated into one frame.
	dst = rpc.AppendUint32(dst, uint32(totalX))
	for i := range examples {
		for _, v := range examples[i].X {
			dst = appendFloatBits(dst, v)
		}
	}
	// Token column.
	for i := range examples {
		for _, t := range examples[i].Tokens {
			dst = rpc.AppendUint32(dst, uint32(t))
		}
	}
	return dst
}

func appendFloatBits(dst []byte, v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(dst, buf[:]...)
}

// DecodeExamples decodes one columnar block. The returned examples share
// two backing arenas (one for X values, one for tokens), so a block
// decodes in three allocations regardless of its example count.
func DecodeExamples(b []byte) ([]Example, error) {
	magic, b, err := rpc.ReadUint32(b)
	if err != nil {
		return nil, fmt.Errorf("mlapp: example block: %w", err)
	}
	if magic != exampleMagic {
		return nil, fmt.Errorf("mlapp: example block: bad magic %#x", magic)
	}
	nu, b, err := rpc.ReadUint32(b)
	if err != nil {
		return nil, fmt.Errorf("mlapp: example block: %w", err)
	}
	n := int(nu)
	// Columns are fixed-width, so the header bound check is a single
	// comparison per column instead of one per example.
	if len(b) < 8*n {
		return nil, fmt.Errorf("mlapp: example block truncated: %d length bytes, have %d", 8*n, len(b))
	}
	xLens := b[:4*n]
	tokLens := b[4*n : 8*n]
	b = b[8*n:]

	yCount, yData, b, err := rpc.FloatFrame(b)
	if err != nil {
		return nil, fmt.Errorf("mlapp: example block Y column: %w", err)
	}
	if yCount != n {
		return nil, fmt.Errorf("mlapp: example block: %d Y values for %d examples", yCount, n)
	}
	xCount, xData, b, err := rpc.FloatFrame(b)
	if err != nil {
		return nil, fmt.Errorf("mlapp: example block X column: %w", err)
	}
	totalX := 0
	totalT := 0
	for i := 0; i < n; i++ {
		totalX += int(binary.LittleEndian.Uint32(xLens[4*i:]))
		totalT += int(binary.LittleEndian.Uint32(tokLens[4*i:]))
	}
	if xCount != totalX {
		return nil, fmt.Errorf("mlapp: example block: %d X values, lengths sum to %d", xCount, totalX)
	}
	if len(b) < 4*totalT {
		return nil, fmt.Errorf("mlapp: example block truncated: %d token bytes, have %d", 4*totalT, len(b))
	}

	examples := make([]Example, n)
	var xArena []float64
	if totalX > 0 {
		xArena = make([]float64, totalX)
		for i := range xArena {
			xArena[i] = rpc.FloatAt(xData, i)
		}
	}
	var tokArena []int
	if totalT > 0 {
		tokArena = make([]int, totalT)
		for i := range tokArena {
			tokArena[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	xOff, tOff := 0, 0
	for i := 0; i < n; i++ {
		xl := int(binary.LittleEndian.Uint32(xLens[4*i:]))
		tl := int(binary.LittleEndian.Uint32(tokLens[4*i:]))
		examples[i].Y = rpc.FloatAt(yData, i)
		if xl > 0 {
			examples[i].X = xArena[xOff : xOff+xl : xOff+xl]
			xOff += xl
		}
		if tl > 0 {
			examples[i].Tokens = tokArena[tOff : tOff+tl : tOff+tl]
			tOff += tl
		}
	}
	return examples, nil
}
